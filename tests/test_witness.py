import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BOX_EVENT, ensemble_prep, local_prep, make_box
from nlbox.boxes import LinearBoxConfig, Semantics, apply_box
from nlbox.errors import MisuseError, RankError, ValidationError
from nlbox.qcore import (
    COMPUTATIONAL_BASIS,
    KET0,
    KET1,
    KET_MINUS,
    KET_PLUS,
    DensityOperator,
    Povm,
    basis_povm,
    born_probabilities,
    computational_povm,
    ket,
    maximally_mixed,
)
from nlbox.rand import random_cptp_kraus, random_density, random_ket, random_unitary
from nlbox.witness import (
    StatsTable,
    _coords,
    _from_coords,
    affinity_violation,
    fit_linear_map,
    is_linear_explainable,
    sample_table,
    sampled_tolerance,
)

KET_I = ket(1 / np.sqrt(2), 1j / np.sqrt(2))

TOMO_INPUTS = (
    ("zero", KET0.projector()),
    ("one", KET1.projector()),
    ("plus", KET_PLUS.projector()),
    ("iplus", KET_I.projector()),
)


def channel_table(kraus, inputs=TOMO_INPUTS, povms=None):
    dout = kraus[0].shape[0]
    if povms is None:
        povms = (("comp", computational_povm(dout)),)
    probs = {}
    for pl, rho in inputs:
        out = sum(k @ rho.matrix @ k.conj().T for k in kraus)
        out = DensityOperator(0.5 * (out + out.conj().T))
        for ml, m in povms:
            probs[(pl, ml)] = tuple(born_probabilities(out, m))
    return StatsTable(preparations=inputs, measurements=povms, probabilities=probs)


def random_channel_table(channel, din, dout, rng):
    """din^2 + 2 random pure inputs through a LinearBoxConfig, measured in
    the computational basis and dout random bases (tomographically complete
    on both sides)."""
    inputs = tuple((f"in{i}", random_ket(din, rng).projector()) for i in range(din * din + 2))
    povms = (("comp", computational_povm(dout)),) + tuple(
        (f"rand{b}", Povm(tuple(np.outer(v[:, j], v[:, j].conj()) for j in range(dout))))
        for b, v in enumerate(random_unitary(dout, rng).matrix for _ in range(dout)))
    probs = {(pl, ml): tuple(born_probabilities(channel.apply(rho), m))
             for pl, rho in inputs for ml, m in povms}
    return StatsTable(preparations=inputs, measurements=povms, probabilities=probs)


def random_isometry_kraus(din, dout, rng, env_dim=3):
    """Kraus operators (dout x din) of a random channel din -> dout."""
    v = random_unitary(dout * env_dim, rng).matrix[:, :din]
    blocks = v.reshape(dout, env_dim, din)
    return tuple(blocks[:, k, :] for k in range(env_dim))


def hermitian_basis(n):
    """The orthonormal Hermitian basis the fit's coordinates refer to, built
    one element at a time: the diagonal units, then for each i < j the
    symmetric and the antisymmetric element."""
    basis = []
    for i in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[i, i] = 1.0
        basis.append(m)
    s = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = s
            m[j, i] = s
            basis.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = -1j * s
            m[j, i] = 1j * s
            basis.append(m)
    return basis


def reference_fit(table):
    """fit_linear_map computed with one trace(b @ op) per basis element:
    (choi, residual, choi_min_eig)."""
    din, dout = table.input_dim, table.output_dim
    basis = hermitian_basis(din * dout)
    meas = dict(table.measurements)
    preps = dict(table.preparations)
    rows, y = [], []
    for (pl, ml), probs in sorted(table.probabilities.items()):
        rho_t = preps[pl].matrix.T
        for e, p in zip(meas[ml].effects, probs):
            op = np.kron(e, rho_t)
            rows.append([float(np.trace(b @ op).real) for b in basis])
            y.append(float(p))
    a, y = np.array(rows), np.array(y)
    c_rows, b_vec = [], []
    for g in hermitian_basis(din):
        op = np.kron(np.eye(dout), g)
        c_rows.append([float(np.trace(b @ op).real) for b in basis])
        b_vec.append(float(np.trace(g).real))
    c, b_vec = np.array(c_rows), np.array(b_vec)
    h0, *_ = np.linalg.lstsq(c, b_vec, rcond=None)
    _, svals, vt = np.linalg.svd(c, full_matrices=True)
    null_mask = np.ones(len(basis), dtype=bool)
    null_mask[: len(svals)] = svals <= 1e-10
    nullspace = vt[null_mask].T
    z, *_ = np.linalg.lstsq(a @ nullspace, y - a @ h0, rcond=None)
    h = h0 + nullspace @ z
    choi = sum(h_a * b for h_a, b in zip(h, basis))
    return choi, float(np.max(np.abs(a @ h - y))), float(np.linalg.eigvalsh(choi)[0])


def brun_matched_table():
    """Two preparations share the input I/2 but demand opposite outputs on
    the first output qubit. A third input restores tomographic completeness."""
    first_qubit_povm = Povm((
        np.kron(np.diag([1.0, 0.0]), np.eye(2)).astype(complex),
        np.kron(np.diag([0.0, 1.0]), np.eye(2)).astype(complex),
    ))
    preparations = (
        ("psi_mix", maximally_mixed(2)),
        ("phi_mix", maximally_mixed(2)),
        ("zero", KET0.projector()),
        ("plus", KET_PLUS.projector()),
        ("iplus", KET_I.projector()),
    )
    measurements = (("first", first_qubit_povm),)
    probs = {
        ("psi_mix", "first"): (1.0, 0.0),
        ("phi_mix", "first"): (0.0, 1.0),
        ("zero", "first"): (1.0, 0.0),
        ("plus", "first"): (0.0, 1.0),
        ("iplus", "first"): (0.5, 0.5),
    }
    return StatsTable(preparations=preparations, measurements=measurements,
                      probabilities=probs)


class TestStatsTable:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError):
            StatsTable(preparations=(("a", KET0.projector()), ("a", KET1.projector())),
                       measurements=(("m", computational_povm(2)),),
                       probabilities={})

    def test_rejects_non_distribution_row(self):
        with pytest.raises(ValidationError):
            StatsTable(preparations=(("a", KET0.projector()),),
                       measurements=(("m", computational_povm(2)),),
                       probabilities={("a", "m"): (0.9, 0.3)})

    def test_rejects_unknown_label(self):
        with pytest.raises(ValidationError):
            StatsTable(preparations=(("a", KET0.projector()),),
                       measurements=(("m", computational_povm(2)),),
                       probabilities={("b", "m"): (1.0, 0.0)})


class TestFit:
    def test_identity_channel_exact(self):
        table = channel_table([np.eye(2, dtype=complex)])
        fit = fit_linear_map(table)
        assert fit.residual < 1e-10
        assert fit.choi_min_eig > -1e-10
        assert is_linear_explainable(table)

    def test_bit_flip_channel_exact(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        table = channel_table([x])
        fit = fit_linear_map(table)
        assert fit.residual < 1e-10
        out = fit.apply_matrix(KET0.projector().matrix)
        assert np.allclose(out, KET1.projector().matrix, atol=1e-8)

    def test_depolarizing_channel_exact(self):
        p = 0.3
        paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
                  np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
        kraus = [np.sqrt(1 - 3 * p / 4) * paulis[0].astype(complex)]
        kraus += [np.sqrt(p / 4) * m.astype(complex) for m in paulis[1:]]
        table = channel_table(kraus)
        assert fit_linear_map(table).residual < 1e-10

    def test_random_cptp_recovery(self, rng):
        for _ in range(10):
            kraus = random_cptp_kraus(2, rng)
            povms = (("comp", computational_povm(2)),
                     ("had", basis_povm((KET_PLUS, KET_MINUS))),
                     ("circ", basis_povm((KET_I, ket(1 / np.sqrt(2), -1j / np.sqrt(2))))))
            table = channel_table(kraus, povms=povms)
            fit = fit_linear_map(table)
            assert fit.residual < 1e-7
            assert fit.choi_min_eig > -1e-7
            rho = random_density(2, rng)
            expected = sum(k @ rho.matrix @ k.conj().T for k in kraus)
            assert np.allclose(fit.apply_matrix(rho.matrix), expected, atol=1e-6)

    def test_tomographically_incomplete_inputs(self):
        table = StatsTable(
            preparations=(("zero", KET0.projector()), ("one", KET1.projector())),
            measurements=(("m", computational_povm(2)),),
            probabilities={("zero", "m"): (1.0, 0.0), ("one", "m"): (0.0, 1.0)})
        with pytest.raises(RankError):
            fit_linear_map(table)

    def test_matched_density_rows_force_residual(self):
        fit = fit_linear_map(brun_matched_table())
        assert fit.residual >= 0.49
        assert not is_linear_explainable(brun_matched_table())


class TestCoords:
    def test_unit_coordinates_are_the_basis(self):
        for n in (1, 2, 3, 5):
            assert np.array_equal(_from_coords(np.eye(n * n), n), np.array(hermitian_basis(n)))

    def test_round_trip(self, rng):
        for n in (1, 2, 4, 8):
            g = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
            h = g + g.conj().transpose(0, 2, 1)
            assert np.allclose(_from_coords(_coords(h), n), h, rtol=0, atol=1e-14)
            assert np.allclose(_from_coords(_coords(h[0]), n), h[0], rtol=0, atol=1e-14)

    def test_coordinates_are_hilbert_schmidt_products(self, rng):
        n = 6
        g = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
        h = g + g.conj().transpose(0, 2, 1)
        basis = hermitian_basis(n)
        expected = [[np.trace(b @ m).real for b in basis] for m in h]
        assert np.allclose(_coords(h), expected, rtol=0, atol=1e-12)
        assert np.isclose(_coords(h[0]) @ _coords(h[1]), np.trace(h[0] @ h[1]).real)


def _square(d):
    return lambda rng: random_channel_table(LinearBoxConfig(random_cptp_kraus(d, rng)), d, d, rng)


# Stats tables on which the fit is compared with the per-basis reference.
REFERENCE_TABLES = {
    "d2": _square(2),
    "d3": _square(3),
    "d4": _square(4),
    "2to4_ancilla": lambda rng: random_channel_table(
        LinearBoxConfig(np.array(random_cptp_kraus(4, rng))[:, :, ::2]), 2, 4, rng),
    "3to2": lambda rng: random_channel_table(
        LinearBoxConfig(random_isometry_kraus(3, 2, rng)), 3, 2, rng),
    "1to3": lambda rng: random_channel_table(
        LinearBoxConfig(random_isometry_kraus(1, 3, rng)), 1, 3, rng),
    "brun_matched": lambda rng: brun_matched_table(),
    "d2_output_incomplete": lambda rng: channel_table(random_cptp_kraus(2, rng)),
}


class TestFitAgainstReference:
    @pytest.mark.parametrize("make", REFERENCE_TABLES.values(), ids=REFERENCE_TABLES.keys())
    def test_matches_per_basis_fit(self, rng, make):
        table = make(rng)
        choi, residual, choi_min_eig = reference_fit(table)
        fit = fit_linear_map(table)
        assert fit.choi.shape == choi.shape
        assert np.max(np.abs(fit.choi - choi)) <= 1e-12
        assert abs(fit.residual - residual) <= 1e-12
        assert abs(fit.choi_min_eig - choi_min_eig) <= 1e-12

    @settings(max_examples=20)
    @given(d=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    def test_random_cptp_channel_fits_exactly(self, d, seed):
        fit = fit_linear_map(_square(d)(np.random.default_rng(seed)))
        assert fit.residual <= 1e-9
        assert fit.choi_min_eig >= -1e-9


class TestSampled:
    def test_sampled_table_marks_itself(self, rng):
        table = channel_table([np.eye(2, dtype=complex)])
        sampled = sample_table(table, 10000, rng)
        assert sampled.is_sampled()
        assert type(sampled_tolerance(sampled)) is float
        assert sampled_tolerance(sampled) > 0

    def test_tolerance_requires_samples(self):
        table = channel_table([np.eye(2, dtype=complex)])
        with pytest.raises(MisuseError):
            sampled_tolerance(table)

    def test_linear_channel_stays_explainable_when_sampled(self, rng):
        table = channel_table([np.eye(2, dtype=complex)])
        hits = sum(is_linear_explainable(sample_table(table, 10000, rng))
                   for _ in range(20))
        assert hits >= 19

    def test_nonlinear_table_stays_unexplainable_when_sampled(self, rng):
        table = brun_matched_table()
        sampled = sample_table(table, 10000, rng)
        assert not is_linear_explainable(sampled)


class TestAffinity:
    def members(self):
        p1 = ensemble_prep([(0.5, KET0.projector()), (0.5, KET1.projector())], "comp")
        p2 = ensemble_prep([(0.5, KET_PLUS.projector()), (0.5, KET_MINUS.projector())], "had")
        return p1, p2

    def test_decomposition_semantics_violation_is_one(self, brun_config):
        box = make_box(brun_config, semantics=Semantics.DECOMPOSITION)
        p1, p2 = self.members()
        assert abs(affinity_violation(box, p1, p2) - 1.0) < 1e-12

    def test_state_semantics_violation_is_zero(self, brun_config):
        box = make_box(brun_config, semantics=Semantics.STATE)
        p1, p2 = self.members()
        assert affinity_violation(box, p1, p2) < 1e-12

    def test_linear_box_violation_is_zero(self):
        box = make_box(LinearBoxConfig((np.eye(2, dtype=complex),)))
        p1, p2 = self.members()
        assert affinity_violation(box, p1, p2) < 1e-12

    def test_requires_linear_equivalence(self, brun_config):
        box = make_box(brun_config)
        with pytest.raises(MisuseError):
            affinity_violation(box, local_prep(KET0.projector()),
                               local_prep(KET_PLUS.projector()))

    def test_requires_membership(self, brun_config):
        from nlbox.preparations import MembershipPolicy, PolicyKind
        policy = MembershipPolicy(PolicyKind.EXPLICIT_LIST, labels=frozenset({"comp"}))
        box = make_box(brun_config, policy=policy)
        p1, p2 = self.members()
        with pytest.raises(MisuseError):
            affinity_violation(box, p1, p2)

    def test_symmetric(self, brun_config):
        box = make_box(brun_config)
        p1, p2 = self.members()
        assert abs(affinity_violation(box, p1, p2)
                   - affinity_violation(box, p2, p1)) < 1e-12
