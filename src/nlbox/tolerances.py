"""Global numeric tolerances, shared by every module.

Validity checks (hermiticity, normalization, positivity) use ATOL; derived
equalities between computed quantities use DTOL. These are configuration
constants, not per-call parameters.
"""

# Validity tolerance for type invariants.
ATOL = 1e-9

# Tolerance for derived equalities (equal densities, roundtrips).
DTOL = 1e-8

# Purity threshold: a state with Tr(rho^2) >= PURITY_MIN counts as pure.
PURITY_MIN = 1.0 - 1e-9

# Total dimension cap for tensor products.
MAX_TENSOR_DIM = 2 ** 12

# Eigenvalues below this are treated as zero when computing ranks.
RANK_CUT = 1e-10

# Negative Born probabilities above -BORN_CLAMP are clamped to zero.
BORN_CLAMP = 1e-12

# Singular values of M - I at or below this span the Deutsch loop's fixed points;
# their count picks the solve: one bordered solve for one, the full SVD for more.
LOOP_FIXED_CUT = 1e-9

# A Deutsch loop state is accepted when ||M(sigma) - sigma||_1 is at most this.
LOOP_RESIDUAL = 1e-8

# Singular values of the stacked input densities above this count toward completeness.
COMPLETENESS_CUT = 1e-8

# Basis overlaps within this of 0 or 1 count as identical bases for the Brun map.
OVERLAP_CUT = 1e-6

# A steering outcome with probability below this heralds no state.
ZERO_PROB = 1e-12

# The first amplitude above this in modulus sets a vector's global phase.
PHASE_CUT = 1e-12
