"""Global numeric tolerances, shared by every module.

Validity checks (hermiticity, normalization, positivity) use ATOL; derived
equalities between computed quantities use DTOL; MAX_TENSOR_DIM and
MAX_LOOP_DIM cap the dimensions that memory grows with. These are
configuration constants, not per-call parameters.
"""

# Validity tolerance for type invariants.
ATOL = 1e-9

# Tolerance for derived equalities (equal densities, roundtrips).
DTOL = 1e-8

# Purity threshold: a state with Tr(rho^2) >= PURITY_MIN counts as pure.
PURITY_MIN = 1.0 - 1e-9

# Total dimension cap for tensor products, for a Deutsch box's ds * ctc_dim**2 (its loop
# tensor holds the square of that in floats, 128 MiB, and its build under 8 times that) and
# for a linear box's d_out * d_in (its superoperator holds the square in complex, 256 MiB).
MAX_TENSOR_DIM = 2 ** 12

# Loop dimension cap for a Deutsch box: its per-dimension caches (the Hermitian
# basis and the loop-tensor plan) grow as ctc_dim**4, 4 MiB for the plan at 16.
MAX_LOOP_DIM = 16

# Eigenvalues below this are treated as zero when computing ranks.
RANK_CUT = 1e-10

# A derived density skips eigvalsh while its inputs' bound on Tr rho_- plus NEG_ROUND * d (a few
# eps per summed term, times d) is within ATOL / 2, the rest being eigvalsh's; chains check again.
NEG_ROUND = 512 * 2.0 ** -52

# Negative Born probabilities above -BORN_CLAMP are clamped to zero.
BORN_CLAMP = 1e-12

# Singular values of M - I at or below this span the Deutsch loop's fixed points.
# A loop certified to have exactly one (the bordered matrix's smallest singular
# value exceeds LOOP_GAP) takes one bordered solve and no SVD; any other loop takes
# one SVD of M - I, whose values count them and whose vectors give the projector.
LOOP_FIXED_CUT = 1e-9

# The bordered Deutsch loop matrix's certified singular-value floor: far above
# LOOP_FIXED_CUT, and LOOP_GAP**2 = 1e-10 far above its Gram's rounding (~1e-13).
LOOP_GAP = 1e-5

# A Deutsch loop state is accepted when ||M(sigma) - sigma||_1 is at most this. The
# bound sqrt(dc) times the residual's Frobenius norm decides when it is within this;
# else the exact trace norm decides, and a ConvergenceError carries that exact value.
LOOP_RESIDUAL = 1e-8

# Singular values of the stacked input densities above this count toward completeness.
COMPLETENESS_CUT = 1e-8

# Basis overlaps within this of 0 or 1 count as identical bases for the Brun map.
OVERLAP_CUT = 1e-6

# A steering outcome with probability below this heralds no state.
ZERO_PROB = 1e-12

# The first amplitude above this in modulus sets a vector's global phase.
PHASE_CUT = 1e-12
