import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BOX_EVENT, ensemble_prep, local_prep, make_box
from nlbox.boxes import LinearBoxConfig, Semantics, apply_box
from nlbox.errors import ConfigurationError, MisuseError, RankError, ValidationError
from nlbox.qcore import (
    COMPUTATIONAL_BASIS,
    KET0,
    KET1,
    KET_MINUS,
    KET_PLUS,
    DensityOperator,
    Povm,
    _hermitian_basis,
    _traceless_basis,
    basis_povm,
    born_probabilities,
    computational_povm,
    ket,
    maximally_mixed,
)
from nlbox.rand import random_cptp_kraus, random_density, random_ket, random_unitary
from nlbox.witness import (
    StatsTable,
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
    (choi, residual, choi_min_eig, cond), cond being the condition number of
    the design restricted to trace-preserving maps, over its nonzero
    singular values."""
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
    s = np.linalg.svd(a @ nullspace, compute_uv=False)
    s = s[s > 1e-10 * s.max(initial=0.0)]
    return (choi, float(np.max(np.abs(a @ h - y))), float(np.linalg.eigvalsh(choi)[0]),
            s.max(initial=1.0) / s.min(initial=1.0))


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

    def test_rejects_a_missing_row(self):
        table = channel_table([np.eye(2, dtype=complex)])
        probs = dict(table.probabilities)
        del probs["plus", "comp"]
        with pytest.raises(ValidationError, match=r"no probability row for \('plus', 'comp'\)"):
            StatsTable(preparations=table.preparations, measurements=table.measurements,
                       probabilities=probs)

    @pytest.mark.parametrize("n", [2.5, True, 100.0])
    def test_rejects_a_count_that_is_not_a_positive_integer(self, n):
        # 2.5 would make sampled_tolerance divide by 2.5, and True by 1.
        with pytest.raises(ValidationError, match="integer >= 1"):
            StatsTable(preparations=(("a", KET0.projector()),),
                       measurements=(("m", computational_povm(2)),),
                       probabilities={("a", "m"): (1.0, 0.0)}, sample_counts={("a", "m"): n})

    @pytest.mark.parametrize("entry", [False, "0.0", 0j, None],
                             ids=["bool", "numeric_string", "complex", "none"])
    def test_rejects_an_entry_that_is_not_a_real_number(self, entry):
        with pytest.raises(ValidationError, match=r"row \(a, m\) is not a probability"):
            StatsTable(preparations=(("a", KET0.projector()),),
                       measurements=(("m", computational_povm(2)),),
                       probabilities={("a", "m"): (1.0, entry)})

    @pytest.mark.parametrize("field,value,match", [
        ("probabilities", {"a|m": (1.0, 0.0)}, r"'a\|m' is not a \(preparation, measurement\)"),
        ("probabilities", {("a", "m", "x"): (1.0, 0.0)}, "label pair"),
        ("probabilities", {("a", "m"): 1.0}, r"row \('a', 'm'\) is not a sequence"),
        ("preparations", (("a", np.eye(2) / 2),), "preparation 'a' is not a DensityOperator"),
        ("measurements", (("m", np.eye(2)),), "measurement 'm' is not a Povm"),
        ("measurements", (("m", tuple(computational_povm(2).effects)),), "not a Povm"),
    ], ids=["key_not_a_pair", "key_of_three", "scalar_row", "raw_matrix_preparation",
            "raw_matrix_measurement", "raw_effects_measurement"])
    def test_rejects_a_malformed_container(self, field, value, match):
        # Built through the Python API, each ends in a ValidationError, not a
        # bare ValueError, TypeError or AttributeError.
        args = {"preparations": (("a", KET0.projector()),),
                "measurements": (("m", computational_povm(2)),),
                "probabilities": {("a", "m"): (1.0, 0.0)}}
        args[field] = value
        with pytest.raises(ValidationError, match=match):
            StatsTable(**args)

    def test_stores_every_row_as_floats(self):
        table = StatsTable(preparations=(("a", KET0.projector()),),
                           measurements=(("m", computational_povm(2)),),
                           probabilities={("a", "m"): [1, np.float64(0.0)]})
        row = table.probabilities["a", "m"]
        assert row == (1.0, 0.0) and [type(x) for x in row] == [float, float]

    def test_accepts_a_numpy_integer_count(self):
        table = StatsTable(preparations=(("a", KET0.projector()),),
                           measurements=(("m", computational_povm(2)),),
                           probabilities={("a", "m"): (0.5, 0.5)},
                           sample_counts={("a", "m"): np.int64(100)})
        assert sampled_tolerance(table) == 3 * 0.05


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

    def test_solves_only_factor_sized_systems(self, rng, monkeypatch):
        # d = 4: 18 preparations x 5 four-outcome POVMs. The full design
        # matrix would have 360 rows; its Kronecker factors have 18 and 20.
        table = _square(4)(rng)
        rows = []
        lstsq = np.linalg.lstsq

        def spy(a, *args, **kwargs):
            rows.append(a.shape[0])
            return lstsq(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        fit_linear_map(table)
        outcomes = sum(m.n_outcomes for _, m in table.measurements)
        assert rows and max(rows) <= max(len(table.preparations), outcomes)


class TestCoords:
    def test_unit_coordinates_are_the_basis(self):
        for n in (1, 2, 3, 5):
            assert np.array_equal(_hermitian_basis(n).reshape(n * n, n, n),
                                  np.array(hermitian_basis(n)))

    def test_traceless_basis_is_orthonormal(self):
        for d in range(1, 6):
            t = _traceless_basis(d)
            assert _traceless_basis(d) is t
            assert not t.flags.writeable
            assert t.shape == (d * d - 1, d, d)
            assert np.allclose(t, t.conj().transpose(0, 2, 1), rtol=0, atol=1e-12)
            assert np.allclose(np.trace(t, axis1=1, axis2=2), 0, rtol=0, atol=1e-12)
            assert np.allclose(np.einsum("aij,bji->ab", t, t), np.eye(d * d - 1),
                               rtol=0, atol=1e-12)


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
    "2to1": lambda rng: random_channel_table(
        LinearBoxConfig(random_isometry_kraus(2, 1, rng)), 2, 1, rng),
    "brun_matched": lambda rng: brun_matched_table(),
    "d2_output_incomplete": lambda rng: channel_table(random_cptp_kraus(2, rng)),
    # Sampled, so Y leaves the range of the design; the second also has E
    # rank deficient, so pinv(E) cuts singular values.
    "d3_sampled_100": lambda rng: sample_table(_square(3)(rng), 100, rng),
    "d2_output_incomplete_sampled_1000": lambda rng: sample_table(
        channel_table(random_cptp_kraus(2, rng)), 1000, rng),
}


class TestFitAgainstReference:
    @pytest.mark.parametrize("make", REFERENCE_TABLES.values(), ids=REFERENCE_TABLES.keys())
    def test_matches_per_basis_fit(self, rng, make):
        table = make(rng)
        choi, residual, choi_min_eig, cond = reference_fit(table)
        fit = fit_linear_map(table)
        bound = 1e-12
        if table.is_sampled():
            # Sampled rows leave the range of the design. Rounding then moves
            # any float64 least-squares solution by up to about
            # eps * cond^2 * residual (Golub & Van Loan, Matrix Computations,
            # sec. 5.3), so two correct solvers may differ that much.
            bound += np.finfo(float).eps * cond**2 * residual
        assert fit.choi.shape == choi.shape
        assert np.max(np.abs(fit.choi - choi)) <= bound
        assert abs(fit.residual - residual) <= bound
        assert abs(fit.choi_min_eig - choi_min_eig) <= bound
        din, dout = table.input_dim, table.output_dim
        traced = np.einsum("aiaj->ij", fit.choi.reshape(dout, din, dout, din))
        assert np.max(np.abs(traced - np.eye(din))) <= 1e-12

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

    @pytest.mark.parametrize("n", [0, -1, 2.5, True])
    def test_sample_table_needs_a_shot(self, rng, n):
        # 0 divides by zero, -1 is a numpy ValueError, 2.5 draws 2 shots
        # but divides by 2.5, so the row no longer sums to 1, and True is
        # not a shot count.
        with pytest.raises(ConfigurationError, match="at least 1 shot"):
            sample_table(channel_table([np.eye(2, dtype=complex)]), n, rng)

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
