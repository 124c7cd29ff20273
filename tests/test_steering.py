import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reduced_matrix
from nlbox.errors import DecompositionError, MisuseError, ShapeError, ValidationError
from nlbox.qcore import (
    KET0,
    KET1,
    KET_MINUS,
    KET_PLUS,
    DensityOperator,
    KetVector,
    Povm,
    basis_povm,
    computational_povm,
    ket,
    maximally_mixed,
    trace_distance,
    trace_norm,
)
from nlbox.rand import random_density, random_ket, random_unitary
from nlbox.steering import (
    MAX_MEMBERS,
    EnsembleDecomposition,
    _rank_space,
    assemblage_from,
    hjw_assemblage,
    steer,
)
from nlbox.tolerances import ATOL, DTOL, RANK_CUT


def singlet():
    return KetVector(np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2))


def b_marginal(state_ab, dim_a, dim_b):
    return DensityOperator(reduced_matrix(state_ab.matrix, (dim_a, dim_b), 1))


def purify(sigma):
    """sum_k sqrt(lambda_k) |k>|v_k> over sigma's rank-space eigenpairs."""
    lams, vecs = _rank_space(sigma.matrix)
    return KetVector((np.sqrt(lams)[:, None] * vecs.T).reshape(-1) / np.sqrt(lams.sum()))


def reference_pure_hjw(d):
    """The all-pure HJW path that the general path replaced: the rank-space
    purification of sigma_B and one rank-one effect per member, as
    (state_ab matrix, stacked effects)."""
    lams, vecs = _rank_space(d.sigma_b.matrix)
    effects = []
    for p_i, state in d.members:
        phi = np.linalg.eigh(state.matrix)[1][:, -1]
        a = np.array([np.sqrt(p_i) * np.vdot(phi, vecs[:, k]) / np.sqrt(lams[k])
                      for k in range(len(lams))])
        effects.append(np.outer(a, a.conj()))
    return purify(d.sigma_b).projector().matrix, np.array(effects)


def reference_condition(state_ab, dim_a, dim_b, effect):
    """Per-effect conditioning through the full (E (x) I) rho product."""
    weighted = np.kron(effect, np.eye(dim_b)) @ state_ab.matrix
    prob = float(np.trace(weighted).real)
    return prob, reduced_matrix(weighted, (dim_a, dim_b), 1) / prob


def random_member(dim, rng, support=None):
    """A density of random rank on `support` (orthonormal columns), by
    default on a random subspace of random dimension, often a proper one."""
    if support is None:
        support = random_unitary(dim, rng).matrix[:, :int(rng.integers(1, dim + 1))]
    k = support.shape[1]
    rho = random_density(k, rng, rank=int(rng.integers(1, k + 1))).matrix
    return DensityOperator(support @ rho @ support.conj().T)


def pure_decomposition(kets, weights):
    sigma = DensityOperator(sum(w * k.projector().matrix for w, k in zip(weights, kets)))
    return EnsembleDecomposition(
        sigma, tuple((float(w), k.projector()) for w, k in zip(weights, kets)))


FOURIER_3 = [ket(*(np.exp(2j * np.pi * j * k / 3) / np.sqrt(3) for k in range(3)))
             for j in range(3)]
DEGENERATE_PURE = {
    "computational": ([KET0, KET1], [0.5, 0.5]),
    "plus_minus": ([KET_PLUS, KET_MINUS], [0.5, 0.5]),
    "two_bases": ([KET0, KET1, KET_PLUS, KET_MINUS], [0.25] * 4),
    "fourier_qutrit": (FOURIER_3, [1 / 3] * 3),
    "rank_deficient_qutrit": ([ket(1, 0, 0), ket(np.sqrt(0.5), np.sqrt(0.5), 0)], [0.5, 0.5]),
    "single_member": ([KET_PLUS], [1.0]),
}
# sigma_B = I/3 only up to rounding, so rounding picks its eigenbasis, and the
# two constructions purify in different, equally valid bases of A.
NOISY_EIGENBASIS = {"fourier_qutrit"}


class TestPurify:
    def test_pure_state_trivial_purification(self):
        psi = purify(KET0.projector())
        assert psi.dim == 2
        assert trace_distance(psi.projector(), KET0.projector()) < 1e-12

    def test_maximally_mixed_qubit(self):
        # Oracle: (|00> + |11>)/sqrt(2) up to the canonical ordering.
        psi = purify(maximally_mixed(2))
        assert psi.dim == 4
        marg = b_marginal(psi.projector(), 2, 2)
        assert trace_distance(marg, maximally_mixed(2)) < 1e-12

    def test_rank_two_qutrit(self):
        sigma = DensityOperator(np.diag([0.75, 0.25, 0.0]).astype(complex))
        psi = purify(sigma)
        assert psi.dim == 6
        marg = b_marginal(psi.projector(), 2, 3)
        assert trace_distance(marg, sigma) < 1e-10

    def test_deterministic(self, rng):
        for _ in range(10):
            sigma = random_density(3, rng)
            a = purify(sigma).amplitudes
            b = purify(sigma).amplitudes
            assert np.array_equal(a, b)

    def test_marginal_recovery_property(self, rng):
        for dim in (2, 3, 4):
            for _ in range(10):
                sigma = random_density(dim, rng)
                psi = purify(sigma)
                dim_a = psi.dim // dim
                marg = b_marginal(psi.projector(), dim_a, dim)
                assert trace_distance(marg, sigma) < 1e-9


class TestDecomposition:
    def test_rejects_wrong_average(self):
        with pytest.raises(DecompositionError):
            EnsembleDecomposition(KET0.projector(),
                                  ((0.5, KET0.projector()), (0.5, KET1.projector())))

    def test_rejects_bad_weights(self):
        with pytest.raises(DecompositionError):
            EnsembleDecomposition(maximally_mixed(2),
                                  ((0.7, KET0.projector()), (0.7, KET1.projector())))

    def test_rejects_empty_and_non_positive_members(self):
        for members in ((), ((1.5, KET0.projector()), (-0.5, KET1.projector()))):
            with pytest.raises(DecompositionError):
                EnsembleDecomposition(maximally_mixed(2), members)

    def test_rejects_raw_array_member(self):
        # A bare matrix is not a validated density: a typed error, not an
        # AttributeError from a missing .dim.
        with pytest.raises(DecompositionError):
            EnsembleDecomposition(maximally_mixed(2), ((1.0, np.eye(2) / 2),))

    def test_rejects_raw_array_sigma_b(self):
        with pytest.raises(DecompositionError):
            EnsembleDecomposition(np.eye(2) / 2, ((1.0, maximally_mixed(2)),))

    def test_rejects_too_many_members(self):
        # MAX_MEMBERS members are steered; one more is refused, naming the cap.
        def decomposition(n):
            return EnsembleDecomposition(
                maximally_mixed(2), tuple((1 / n, maximally_mixed(2)) for _ in range(n)))
        assert hjw_assemblage(decomposition(MAX_MEMBERS)).n_outcomes == MAX_MEMBERS == 16
        with pytest.raises(DecompositionError, match=f"capped at {MAX_MEMBERS} members"):
            hjw_assemblage(decomposition(MAX_MEMBERS + 1))


class TestHjw:
    def test_computational_decomposition_of_mixed(self):
        d = EnsembleDecomposition(maximally_mixed(2),
                                  ((0.5, KET0.projector()), (0.5, KET1.projector())))
        asm = hjw_assemblage(d)
        for i, (w, target) in enumerate(d.members):
            p, rho = steer(asm, i)
            assert abs(p - w) < 1e-10
            assert trace_distance(rho, target) < 1e-9

    def test_hadamard_decomposition_of_mixed(self):
        d = EnsembleDecomposition(maximally_mixed(2),
                                  ((0.5, KET_PLUS.projector()), (0.5, KET_MINUS.projector())))
        asm = hjw_assemblage(d)
        for i, (w, target) in enumerate(d.members):
            p, rho = steer(asm, i)
            assert abs(p - w) < 1e-10
            assert trace_distance(rho, target) < 1e-9

    def test_four_member_two_basis_decomposition(self):
        members = ((0.25, KET0.projector()), (0.25, KET1.projector()),
                   (0.25, KET_PLUS.projector()), (0.25, KET_MINUS.projector()))
        d = EnsembleDecomposition(maximally_mixed(2), members)
        asm = hjw_assemblage(d)
        assert asm.n_outcomes == 4
        for i, (w, target) in enumerate(members):
            p, rho = steer(asm, i)
            assert abs(p - 0.25) < 1e-10
            assert trace_distance(rho, target) < 1e-9

    def test_biased_pure_decomposition(self):
        third = ket(np.sqrt(0.9), np.sqrt(0.1))
        sigma = DensityOperator(0.6 * KET0.projector().matrix
                                + 0.4 * third.projector().matrix)
        d = EnsembleDecomposition(sigma, ((0.6, KET0.projector()),
                                          (0.4, third.projector())))
        asm = hjw_assemblage(d)
        for i, (w, target) in enumerate(d.members):
            p, rho = steer(asm, i)
            assert abs(p - w) < 1e-9
            assert trace_distance(rho, target) < 1e-8

    def test_mixed_member_decomposition(self):
        half_mixed = DensityOperator(np.diag([0.75, 0.25]).astype(complex))
        sigma = DensityOperator(0.5 * half_mixed.matrix
                                + 0.5 * KET1.projector().matrix)
        d = EnsembleDecomposition(sigma, ((0.5, half_mixed),
                                          (0.5, KET1.projector())))
        asm = hjw_assemblage(d)
        for i, (w, target) in enumerate(d.members):
            p, rho = steer(asm, i)
            assert abs(p - w) < 1e-8
            assert trace_distance(rho, target) < 1e-8

    def test_marginal_preserved(self, rng):
        for _ in range(10):
            sigma = random_density(2, rng)
            u0 = random_density(2, rng, rank=1)
            # Build a valid two-member split: sigma = w*u0 + (1-w)*rest.
            w = 0.2
            rest = (sigma.matrix - w * u0.matrix) / (1 - w)
            eigs = np.linalg.eigvalsh(0.5 * (rest + rest.conj().T))
            if eigs.min() < 1e-6:
                continue
            rest = DensityOperator(0.5 * (rest + rest.conj().T))
            d = EnsembleDecomposition(sigma, ((w, u0), (1 - w, rest)))
            asm = hjw_assemblage(d)
            marg = b_marginal(asm.state_ab, asm.dim_a, asm.dim_b)
            assert trace_distance(marg, sigma) < 1e-8

    def test_roundtrip_property(self, rng):
        # Random pure decompositions in d = 2 and 3 are heralded exactly.
        from nlbox.rand import random_ket
        for dim in (2, 3):
            for _ in range(15):
                n = int(rng.integers(2, 5))
                kets = [random_ket(dim, rng) for _ in range(n)]
                w = rng.dirichlet(np.ones(n))
                sigma = DensityOperator(
                    sum(wi * k.projector().matrix for wi, k in zip(w, kets)))
                d = EnsembleDecomposition(
                    sigma, tuple((float(wi), k.projector()) for wi, k in zip(w, kets)))
                asm = hjw_assemblage(d)
                for i in range(n):
                    p, rho = steer(asm, i)
                    assert abs(p - w[i]) < 1e-8
                    assert trace_distance(rho, kets[i].projector()) < 1e-8

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 3), n=st.integers(1, 4),
           deficient=st.booleans())
    def test_mixed_roundtrip_property(self, seed, dim, n, deficient):
        # Members of random rank, some on a random proper subspace; when
        # `deficient`, all on one, so sigma_B is rank deficient.
        rng = np.random.default_rng(seed)
        shared = random_unitary(dim, rng).matrix[:, :int(rng.integers(1, dim))]
        members = [random_member(dim, rng, shared if deficient else None) for _ in range(n)]
        w = rng.dirichlet(np.ones(n))
        sigma = DensityOperator(sum(wi * m.matrix for wi, m in zip(w, members)))
        if deficient:
            assert np.linalg.eigvalsh(sigma.matrix)[0] <= RANK_CUT
        d = EnsembleDecomposition(sigma, tuple(zip(w.tolist(), members)))
        asm = hjw_assemblage(d)
        for i, member in enumerate(members):
            p, rho = steer(asm, i)
            assert abs(p - w[i]) <= 1e-8
            assert trace_distance(rho, member) <= 1e-8

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           dims=st.integers(2, 4).flatmap(lambda d: st.tuples(st.just(d), st.integers(2, d))))
    def test_one_shared_state_per_marginal(self, seed, dims):
        # sigma_B of rank r with distinct eigenvalues, full rank or not. Its
        # eigen-decomposition and a decomposition with a mixed member are
        # steered from the same state on a rank-space A.
        dim, rank = dims
        rng = np.random.default_rng(seed)
        u = random_unitary(dim, rng).matrix[:, :rank]
        lams = np.cumsum(0.05 + rng.random(rank))
        lams /= lams.sum()
        sigma = DensityOperator((u * lams) @ u.conj().T)
        eigen = EnsembleDecomposition(
            sigma, tuple((float(lam), KetVector(v).projector()) for lam, v in zip(lams, u.T)))
        # Rows sqrt(p_i) phi_i of a pure decomposition (an isometry applied to
        # the eigenvectors); its first two members merge into one mixed member.
        rows = random_unitary(rank + 2, rng).matrix[:, :rank] @ (np.sqrt(lams)[:, None] * u.T)
        parts = [rows[:2]] + [rows[i:i + 1] for i in range(2, rank + 2)]
        weights = [float(np.sum(np.abs(f) ** 2)) for f in parts]
        mixed = EnsembleDecomposition(sigma, tuple(
            (w, DensityOperator(f.T @ f.conj() / w)) for w, f in zip(weights, parts)))
        a, b = hjw_assemblage(eigen), hjw_assemblage(mixed)
        assert a.dim_a == b.dim_a == rank
        assert np.max(np.abs(a.state_ab.matrix - b.state_ab.matrix)) <= 1e-8

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 4), n=st.integers(1, 4))
    def test_member_eigenvalue_just_below_zero(self, seed, dim, n):
        # A density may have eigenvalues down to -ATOL; member 0 has one at
        # -5e-10. The effects still form a valid Povm and herald each member.
        rng = np.random.default_rng(seed)
        mus = np.append(rng.dirichlet(np.ones(dim - 1)) * (1 + 5e-10), -5e-10)
        u = random_unitary(dim, rng).matrix
        members = [DensityOperator((u * mus) @ u.conj().T)]
        members += [random_member(dim, rng) for _ in range(n - 1)]
        w = rng.dirichlet(np.ones(n))
        sigma = DensityOperator(sum(wi * m.matrix for wi, m in zip(w, members)))
        asm = hjw_assemblage(EnsembleDecomposition(sigma, tuple(zip(w.tolist(), members))))
        for i, member in enumerate(members):
            p, rho = steer(asm, i)
            assert abs(p - w[i]) <= 1e-8
            assert trace_distance(rho, member) <= 1e-8


class TestHjwAgainstPureReference:
    @pytest.mark.parametrize("name", sorted(DEGENERATE_PURE))
    def test_degenerate_decompositions(self, name):
        self.check(pure_decomposition(*DEGENERATE_PURE[name]),
                   same_basis=name not in NOISY_EIGENBASIS)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 4), n=st.integers(1, 5))
    def test_random_decompositions(self, seed, dim, n):
        rng = np.random.default_rng(seed)
        self.check(pure_decomposition([random_ket(dim, rng) for _ in range(n)],
                                      rng.dirichlet(np.ones(n))))

    @staticmethod
    def check(d, same_basis=True):
        state_ab, effects = reference_pure_hjw(d)
        asm = hjw_assemblage(d)
        assert asm.povm_a.effects.shape == effects.shape
        if same_basis:
            assert np.max(np.abs(asm.state_ab.matrix - state_ab)) <= 1e-10
            assert np.max(np.abs(asm.povm_a.effects - effects)) <= 1e-10
        # What each outcome heralds on B, p_i rho_i, does not depend on A's basis.
        dims = asm.dim_a, asm.dim_b
        for got, ref in zip(asm.povm_a.effects, effects):
            p, rho = reference_condition(asm.state_ab, *dims, got)
            ref_p, ref_rho = reference_condition(DensityOperator(state_ab), *dims, ref)
            assert np.max(np.abs(p * rho - ref_p * ref_rho)) <= 1e-10


class TestSteer:
    def test_singlet_computational(self):
        asm = assemblage_from(singlet().projector(), basis_povm((KET0, KET1)))
        p, rho = steer(asm, 0)
        assert abs(p - 0.5) < 1e-12
        assert trace_distance(rho, KET1.projector()) < 1e-12

    def test_singlet_hadamard(self):
        asm = assemblage_from(singlet().projector(), basis_povm((KET_PLUS, KET_MINUS)))
        p, rho = steer(asm, 0)
        assert abs(p - 0.5) < 1e-12
        assert trace_distance(rho, KET_MINUS.projector()) < 1e-12

    def test_product_state_no_steering(self):
        amps = np.kron(KET_PLUS.amplitudes, KET0.amplitudes)
        state = KetVector(amps).projector()
        for povm in (basis_povm((KET0, KET1)), basis_povm((KET_PLUS, KET_MINUS))):
            asm = assemblage_from(state, povm)
            for i in range(2):
                try:
                    p, rho = steer(asm, i)
                except MisuseError:
                    continue
                assert trace_distance(rho, KET0.projector()) < 1e-12

    def test_outcome_out_of_range(self):
        asm = assemblage_from(singlet().projector(), basis_povm((KET0, KET1)))
        with pytest.raises(MisuseError):
            steer(asm, 5)

    @pytest.mark.parametrize("outcome", [-1, 1.5, "0", True, False])
    def test_outcome_not_an_index(self, outcome):
        asm = assemblage_from(singlet().projector(), basis_povm((KET0, KET1)))
        with pytest.raises(MisuseError):
            steer(asm, outcome)

    def test_rejects_raw_array_state(self):
        with pytest.raises(ValidationError):
            assemblage_from(np.eye(4) / 4, basis_povm((KET0, KET1)))

    def test_rejects_raw_array_povm(self):
        with pytest.raises(ValidationError):
            assemblage_from(singlet().projector(), np.eye(2))

    def test_rejects_povm_dimension_not_dividing_the_state(self):
        with pytest.raises(ShapeError, match="POVM dimension 4 on A does not divide"):
            assemblage_from(maximally_mixed(6), computational_povm(4))

    @pytest.mark.parametrize("dim_ab,dim_a", [(4, 3), (9, 2), (2, 4)],
                             ids=["4_by_3", "9_by_2", "2_by_4"])
    def test_shape_rule_over_dimensions(self, dim_ab, dim_a):
        with pytest.raises(ShapeError, match=f"POVM dimension {dim_a} on A does not divide "
                                             f"the bipartite dimension {dim_ab}"):
            assemblage_from(maximally_mixed(dim_ab), computational_povm(dim_a))

    @pytest.mark.parametrize("dim_a,dim_b", [(2, 2), (2, 3), (3, 2)])
    def test_mixed_product_state_heralds_its_b_factor(self, dim_a, dim_b):
        # No outcome on A moves B when the state is rho_A (x) rho_B.
        rng = np.random.default_rng(10 * dim_a + dim_b)
        rho_a, rho_b = random_density(dim_a, rng), random_density(dim_b, rng)
        state = DensityOperator(np.kron(rho_a.matrix, rho_b.matrix))
        u = random_unitary(dim_a, rng).matrix
        povm = basis_povm(tuple(KetVector(u[:, j]) for j in range(dim_a)))
        asm = assemblage_from(state, povm)
        assert (asm.dim_a, asm.dim_b) == (dim_a, dim_b)
        assert len(asm.heralded) == dim_a
        for p, rho in asm.heralded:
            assert trace_distance(rho, rho_b) < 1e-9

    @pytest.mark.parametrize("dim_a,dim_b", [(2, 2), (2, 3), (3, 2)])
    def test_heralded_states_are_valid_densities(self, dim_a, dim_b):
        # Oracle: each heralded operator's eigenvalues are nonnegative and
        # sum to one, and the outcome probabilities sum to one.
        rng = np.random.default_rng(100 + 10 * dim_a + dim_b)
        for _ in range(20):
            asm = assemblage_from(random_density(dim_a * dim_b, rng), computational_povm(dim_a))
            assert abs(sum(p for p, _ in asm.heralded) - 1.0) < 1e-9
            for _, rho in asm.heralded:
                eigs = np.linalg.eigvalsh(rho.matrix)
                assert eigs.min() >= -1e-9
                assert abs(eigs.sum() - 1.0) < 1e-9

    def test_rare_outcome_heralds_its_state(self):
        # Outcome 2 fires with p = 1e-10 after cancellation among O(1) terms; 1/p scales
        # the blocks' rounding skew to ~1e-6, past the Hermitian check, so the assemblage
        # takes the Hermitian part before building the herald's DensityOperator.
        rng = np.random.default_rng(0)
        u = random_unitary(3, rng).matrix
        effects = [np.outer(u[:, k], u[:, k].conj()) for k in range(3)]
        sigmas = [random_density(2, rng).matrix for _ in range(3)]
        weights = (0.5, 0.5 - 1e-10, 1e-10)
        state = DensityOperator(sum(w * np.kron(e, s) for w, e, s in zip(weights, effects, sigmas)))
        povm = Povm(effects)
        blocks = np.einsum("kxa,ajxc->kjc", povm.effects, state.matrix.reshape(3, 2, 3, 2))
        assert np.abs(blocks[2] - blocks[2].conj().T).max() / 1e-10 > ATOL
        p, rho = assemblage_from(state, povm).outcomes[2]
        assert p == pytest.approx(1e-10, rel=1e-4)
        assert np.array_equal(rho.matrix, rho.matrix.conj().T)
        assert np.abs(rho.matrix - sigmas[2]).max() < 1e-4

    def test_zero_probability_outcome(self):
        state = KetVector(np.kron(KET0.amplitudes, KET0.amplitudes)).projector()
        asm = assemblage_from(state, basis_povm((KET0, KET1)))
        with pytest.raises(MisuseError):
            steer(asm, 1)

    def test_assemblage_drops_zero_probability_outcome(self):
        # |0>|+> under a three-outcome POVM on A whose middle effect never fires.
        state = KetVector(np.kron(KET0.amplitudes, KET_PLUS.amplitudes)).projector()
        half0 = 0.5 * KET0.projector().matrix
        asm = assemblage_from(state, Povm((half0, KET1.projector().matrix, half0)))
        assert len(asm.heralded) == 2
        for p, rho in asm.heralded:
            assert abs(p - 0.5) < 1e-12
            assert trace_distance(rho, KET_PLUS.projector()) < 1e-12
        with pytest.raises(MisuseError):
            steer(asm, 1)

    def test_batched_conditioning_matches_per_effect(self, rng):
        for dim_a, dim_b in ((2, 2), (2, 3), (3, 2)):
            state = random_density(dim_a * dim_b, rng)
            u = random_unitary(dim_a, rng).matrix
            povm = basis_povm(tuple(KetVector(u[:, j]) for j in range(dim_a)))
            asm = assemblage_from(state, povm)
            assert (asm.dim_a, asm.dim_b) == (dim_a, dim_b)
            assert len(asm.heralded) == dim_a
            for i, (effect, (p, rho)) in enumerate(zip(povm.effects, asm.heralded)):
                ref_p, ref_rho = reference_condition(state, dim_a, dim_b, effect)
                assert abs(p - ref_p) < 1e-12
                assert np.max(np.abs(rho.matrix - ref_rho)) < 1e-12
                assert steer(asm, i) is asm.outcomes[i]
            # The constructor relies on this without checking it: the
            # heralded set averages to the B marginal.
            average = sum(p * rho.matrix for p, rho in asm.heralded)
            marginal = b_marginal(state, dim_a, dim_b).matrix
            assert 0.5 * trace_norm(average - marginal) <= DTOL

    def test_steer_validates_no_density(self, monkeypatch):
        # The constructor builds each heralded state once; steer looks it up.
        state, povm = singlet().projector(), basis_povm((KET0, KET1))
        calls = []
        validate = DensityOperator.__post_init__

        def counting(self, *args):
            calls.append(self)
            validate(self, *args)

        monkeypatch.setattr(DensityOperator, "__post_init__", counting)
        asm = assemblage_from(state, povm)
        steer(asm, 0)
        steer(asm, 1)
        assert len(calls) == 2
