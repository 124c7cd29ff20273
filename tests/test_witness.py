import math
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BOX_EVENT, ensemble_prep, local_prep, make_box
from nlbox.boxes import LinearBoxConfig, Semantics, apply_box
from nlbox.errors import (ConfigurationError, MisuseError, RankError, ShapeError, ValidationError,
                          check_integer, finite_float)
from nlbox.qcore import (
    COMPUTATIONAL_BASIS,
    KET0,
    KET1,
    KET_MINUS,
    KET_PLUS,
    DensityOperator,
    KetVector,
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
from nlbox.tolerances import ATOL, COMPLETENESS_CUT, DTOL
from nlbox.witness import (
    StatsTable,
    affinity_violation,
    fit_linear_map,
    is_linear_explainable,
    linearity_verdict,
    sample_table,
    sampled_tolerance,
)

KET_I = ket(1 / np.sqrt(2), 1j / np.sqrt(2))


def old_y(table):
    """The fit's observations as fit_linear_map built them before a table
    kept its block: one row per preparation, in table order."""
    return np.array([[p for ml, _ in table.measurements for p in table.probabilities[pl, ml]]
                     for pl, _ in table.preparations], dtype=float)


def fit_bits(fit):
    return fit.choi.tobytes(), np.array([fit.residual, fit.choi_min_eig]).tobytes()


def assert_fit_reads_the_old_y(table):
    """fit_linear_map on the table, and on a twin whose block is the old y,
    agree in every bit, or both raise RankError."""
    twin = object.__new__(StatsTable)
    twin.__dict__.update(table.__dict__, _block=old_y(table))
    fits = []
    for t in (table, twin):
        try:
            fits.append(fit_bits(fit_linear_map(t)))
        except RankError:
            fits.append(RankError)
    assert fits[0] == fits[1]


@pytest.fixture(autouse=True, scope="module")
def every_table_fits_as_from_the_old_y():
    """Every table these tests build is also fitted from the old y, as it
    is built."""
    post_init = StatsTable.__post_init__

    def checked(self):
        post_init(self)
        assert_fit_reads_the_old_y(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(StatsTable, "__post_init__", checked)
        yield

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

    @pytest.mark.parametrize("row", [
        (math.nan, 1.0), (np.float64(math.nan), 1.0), (math.inf, 0.0), (1.0, -math.inf),
        (np.float64(math.inf), 0.0), (math.inf, -math.inf), (np.float64(-math.inf), 1.0),
        (True, False), (1.0, True), ("0.5", "0.5"), (0.5, "0.5"), (1, 0), (0, np.int64(1)),
        (10 ** 400, 0.0), (np.float32(0.25), 0.75), (0.25, np.float64(0.75)), (-0.0, 1.0),
        [0.5, 0.5], np.array([0.25, 0.75]),
    ], ids=lambda row: repr(row).replace(" ", ""))
    def test_rows_keep_the_verdict_of_the_per_entry_rule(self, row):
        # Rows of floats skip finite_float: their nan and inf entries fail the
        # min/sum check, as finite_float's nan did, with the same message.
        entries = tuple(map(finite_float, row))
        args = {"preparations": (("a", KET0.projector()),),
                "measurements": (("m", computational_povm(2)),),
                "probabilities": {("a", "m"): row}}
        if not (min(entries) >= -ATOL and abs(sum(entries) - 1.0) <= ATOL):
            with pytest.raises(ValidationError) as exc:
                StatsTable(**args)
            assert str(exc.value) == "row (a, m) is not a probability distribution"
        else:
            stored = StatsTable(**args).probabilities["a", "m"]
            assert [(type(x), np.float64(x).tobytes()) for x in stored] == [
                (float, np.float64(x).tobytes()) for x in entries]

    @staticmethod
    def ragged_table():
        """Measurements of 2, 3 and 1 outcomes; rows given in an order that is
        not preparations x measurements."""
        trine = Povm(tuple(2 / 3 * np.outer(v, v) for v in
                           ([1.0, 0.0], [-0.5, np.sqrt(3) / 2], [-0.5, -np.sqrt(3) / 2])))
        povms = (("comp", computational_povm(2)), ("trine", trine),
                 ("trivial", Povm((np.eye(2),))))
        probs = {(pl, ml): tuple(born_probabilities(rho, m))
                 for ml, m in reversed(povms) for pl, rho in reversed(TOMO_INPUTS)}
        return StatsTable(preparations=TOMO_INPUTS, measurements=povms, probabilities=probs)

    def test_block_is_the_old_y(self):
        table = self.ragged_table()
        assert list(table.probabilities) != [(pl, ml) for pl, _ in table.preparations
                                             for ml, _ in table.measurements]
        assert table._block.shape == (4, 6)
        assert table._block.tobytes() == old_y(table).tobytes()

    def test_block_is_read_only(self):
        with pytest.raises(ValueError):
            self.ragged_table()._block[0, 0] = 0.5

    def test_missing_row_error_names_the_first_missing_pair(self):
        table = self.ragged_table()
        probs = dict(table.probabilities)
        for cell in (("iplus", "comp"), ("one", "trivial"), ("one", "trine")):
            del probs[cell]
        first = [(pl, ml) for pl, _ in table.preparations for ml, _ in table.measurements
                 if (pl, ml) not in probs][0]
        assert first == ("one", "trine")
        with pytest.raises(ValidationError, match=re.escape(f"no probability row for {first};")):
            StatsTable(preparations=table.preparations, measurements=table.measurements,
                       probabilities=probs)

    def test_sampling_and_pickling_rebuild_the_block(self, rng):
        table = self.ragged_table()
        for copy in (sample_table(table, 100, rng), pickle.loads(pickle.dumps(table))):
            assert copy._block is not table._block
            assert not copy._block.flags.writeable
            assert copy._block.tobytes() == old_y(copy).tobytes()
        assert pickle.loads(pickle.dumps(table))._block.tobytes() == table._block.tobytes()

    def test_accepts_a_numpy_integer_count(self):
        table = StatsTable(preparations=(("a", KET0.projector()),),
                           measurements=(("m", computational_povm(2)),),
                           probabilities={("a", "m"): (0.5, 0.5)},
                           sample_counts={("a", "m"): np.int64(100)})
        assert sampled_tolerance(table) == 3 * 0.05
        assert type(table.sample_counts["a", "m"]) is int  # the int check_integer returned

    @staticmethod
    def from_lists():
        """A complete sampled qubit table built from lists and dicts the
        caller keeps, with the arguments themselves."""
        preps = [list(pair) for pair in TOMO_INPUTS]
        meas = [["comp", computational_povm(2)], ["x", basis_povm((KET_PLUS, KET_MINUS))]]
        probs = {(pl, ml): list(born_probabilities(rho, m)) for pl, rho in preps for ml, m in meas}
        counts = dict.fromkeys(probs, 100)
        return StatsTable(preps, meas, probs, counts), preps, meas, probs, counts

    def test_editing_the_callers_lists_changes_nothing(self):
        table, preps, meas, probs, _ = self.from_lists()
        fit, tol, verdict = linearity_verdict(table)
        preps[0] = ["zero", preps[1][1]]  # the inputs would span 3 of 4 directions
        meas.append(["z3", computational_povm(3)])
        probs["zero", "comp"] = [0.0, 1.0]
        again = linearity_verdict(table)
        assert (fit_bits(again[0]), again[1:]) == (fit_bits(fit), (tol, verdict))
        assert table.preparations == tuple(map(tuple, TOMO_INPUTS))
        assert [label for label, _ in table.measurements] == ["comp", "x"]
        assert all(type(pair) is tuple for pair in table.preparations + table.measurements)

    def test_editing_the_callers_counts_changes_nothing(self):
        table, _, _, _, counts = self.from_lists()
        tol = sampled_tolerance(table)
        counts["zero", "comp"] = 0  # sampled_tolerance would divide by it
        assert sampled_tolerance(table) == tol
        assert table.sample_counts == dict.fromkeys(table.probabilities, 100)

    def test_unpickles_through_its_constructor_with_every_field(self, rng):
        sampled = sample_table(self.ragged_table(), 100, rng)
        assert "__reduce__" not in vars(StatsTable)
        assert sampled.__reduce__() == (StatsTable, (
            sampled.preparations, sampled.measurements, sampled.probabilities,
            sampled.sample_counts))
        copy = pickle.loads(pickle.dumps(sampled))
        assert copy.sample_counts == sampled.sample_counts and copy.is_sampled()
        assert sampled_tolerance(copy) == sampled_tolerance(sampled)
        assert copy.probabilities == sampled.probabilities

    def test_a_one_field_value_pickles_as_before(self):
        rho, povm = KET0.projector(), computational_povm(2)
        assert rho.__reduce__() == (DensityOperator, (rho.matrix,))
        assert povm.__reduce__() == (Povm, (povm.effects,))


def reference_stats_checks(preparations, measurements, probabilities, sample_counts=None):
    """StatsTable's checks as they read with four per-side passes, before one
    loop over its two sides: the checked rows, the block and the counts."""
    for what, pairs in (("preparations", preparations), ("measurements", measurements)):
        if not (isinstance(pairs, (tuple, list)) and all(
                isinstance(e, (tuple, list)) and len(e) == 2 and isinstance(e[0], str)
                for e in pairs)):
            raise ValidationError(f"{what} must be a tuple of (string label, value) pairs")
    for what, cells in (("probabilities", probabilities), ("sample_counts", sample_counts or {})):
        if not isinstance(cells, dict):
            raise ValidationError(f"{what} must be a dict keyed by label pairs")
    preps = dict(preparations)
    meas = dict(measurements)
    if len(preps) != len(preparations) or len(meas) != len(measurements):
        raise ValidationError("duplicate preparation or measurement labels")
    for label, rho in preps.items():
        if not isinstance(rho, DensityOperator):
            raise ValidationError(f"preparation {label!r} is not a DensityOperator")
    for label, m in meas.items():
        if not isinstance(m, Povm):
            raise ValidationError(f"measurement {label!r} is not a Povm")
    outcomes = {label: m.n_outcomes for label, m in meas.items()}
    if len({rho.dim for rho in preps.values()}) != 1:
        raise ShapeError("all input densities must share one dimension")
    if len({m.dim for m in meas.values()}) != 1:
        raise ShapeError("all measurements must share one output dimension")
    rows = {}
    for cell, row in probabilities.items():
        if not (isinstance(cell, tuple) and len(cell) == 2):
            raise ValidationError(f"probability key {cell!r} is not a (preparation, "
                                  "measurement) label pair")
        try:
            row = tuple(row)
        except TypeError:
            raise ValidationError(f"row {cell} is not a sequence of probabilities") from None
        pl, ml = cell
        floats = tuple([float(x) for x in row if isinstance(x, float)])  # nan, inf fail below
        rows[cell] = row = floats if len(floats) == len(row) else tuple(map(finite_float, row))
        if pl not in preps or ml not in outcomes:
            raise ValidationError(f"probability row references unknown labels ({pl}, {ml})")
        if len(row) != outcomes[ml]:
            raise ShapeError(f"row ({pl}, {ml}) has wrong outcome count")
        if not min(row) >= -ATOL or not abs(sum(row) - 1.0) <= ATOL:  # a nan fails the sum
            raise ValidationError(f"row ({pl}, {ml}) is not a probability distribution")
    block = []
    for pl in preps:
        for ml in meas:
            row = rows.get((pl, ml))
            if row is None:
                raise ValidationError(f"no probability row for {(pl, ml)}; a table needs "
                                      "one for every preparation x measurement")
            block += row
    block = np.array(block, dtype=float).reshape(len(preps), -1)
    if sample_counts is not None and not sample_counts:
        raise ValidationError("sample_counts is empty")
    for cell, n in (sample_counts or {}).items():
        if cell not in rows:
            raise ValidationError(f"sample count for {cell} has no probability row")
        if math.isnan(finite_float(check_integer(n, f"sample count for {cell}", least=1))):
            raise ValidationError(f"sample count for {cell} exceeds the float range")
    return rows, block, sample_counts and {cell: int(n) for cell, n in sample_counts.items()}


def valid_table_args(rng, din, dout, n_preps, n_meas, sampled):
    """Constructor arguments of a valid table: random densities, the
    computational and random-basis measurements, Dirichlet rows."""
    preps = tuple((f"p{i}", random_density(din, rng)) for i in range(n_preps))
    meas = (("comp", computational_povm(dout)),) + tuple(
        (f"m{j}", basis_povm(tuple(KetVector(c) for c in random_unitary(dout, rng).matrix.T)))
        for j in range(n_meas - 1))
    probs = {(pl, ml): tuple(rng.dirichlet(np.ones(m.n_outcomes)).tolist())
             for pl, _ in preps for ml, m in meas}
    counts = {cell: int(rng.integers(1, 1000)) for cell in probs} if sampled else None
    return {"preparations": preps, "measurements": meas, "probabilities": probs,
            "sample_counts": counts}


def _edit_pair(args, side, pick, edit):
    pairs = list(args[side])
    i = pick(range(len(pairs)))
    pairs[i] = edit(*pairs[i])
    args[side] = tuple(pairs)


def _edit_row(args, pick, edit):
    probs = dict(args["probabilities"])
    cell = pick(sorted(probs))
    edit(probs, cell)
    args["probabilities"] = probs


def _edit_entry(probs, cell, pick, value):
    row = list(probs[cell])
    row[pick(range(len(row)))] = value
    probs[cell] = tuple(row)


def _off_by(probs, cell, pick):
    """Move one entry by +-ATOL (1 -+ 1e-3): the sum, or the least entry,
    just inside or just past its bound."""
    row = list(probs[cell])
    delta = pick([-1, 1]) * ATOL * pick([1 - 1e-3, 1 + 1e-3])
    if pick(["sum", "least"]) == "sum":
        row[0] += delta
    else:
        k = int(np.argmax(row))
        row[k] += row[-1 if k == 0 else 0] + abs(delta)
        row[-1 if k == 0 else 0] = -abs(delta)
    probs[cell] = tuple(row)


def _edit_count(args, pick, value):
    counts = dict(args["sample_counts"] or {("p0", "comp"): 10})
    counts[pick(sorted(counts))] = value
    args["sample_counts"] = counts


SIDES = ("preparations", "measurements")
MATRIX_OF = {"preparations": lambda v: v.matrix, "measurements": lambda v: v.effects}
OTHER_DIM = {"preparations": lambda v: maximally_mixed(v.dim + 1),
             "measurements": lambda v: computational_povm(v.dim + 1)}

# One fault each, put into a valid table's arguments in place; pick(seq)
# chooses one element of seq. "none" and "lists" leave the table valid.
STATS_FAULTS = {
    "none": lambda args, pick: None,
    "lists": lambda args, pick: args.update(
        {side: [list(pair) for pair in args[side]] for side in SIDES},
        probabilities={cell: pick([list, np.array])(row)
                       for cell, row in args["probabilities"].items()}),
    "side_not_a_sequence": lambda args, pick: args.update(
        {pick(SIDES): pick([None, "ab", 3, {"a": 1}, set()])}),
    "side_empty": lambda args, pick: args.update({pick(SIDES): pick([(), []])}),
    "not_a_pair": lambda args, pick: _edit_pair(
        args, pick(SIDES), pick, lambda label, value: pick(
            [(label,), (label, value, 0), (3, value), (None, value), "ab", None])),
    "duplicate_label": lambda args, pick: args.update(
        {(side := pick(SIDES)): args[side] + (pick(args[side]),)}),
    "wrong_value_type": lambda args, pick: _edit_pair(
        args, (side := pick(SIDES)), pick, lambda label, value: (label, pick(
            [MATRIX_OF[side](value), None, KET0, computational_povm(2), maximally_mixed(2)]))),
    "other_dimension": lambda args, pick: _edit_pair(
        args, (side := pick(SIDES)), pick, lambda label, value: (label, OTHER_DIM[side](value))),
    "cells_not_a_dict": lambda args, pick: args.update(
        {(what := pick(["probabilities", "sample_counts"])): pick(
            [list((args[what] or {1: 2}).items()), None, 0, "", [], "ab", 3])}),
    "key_not_a_pair": lambda args, pick: _edit_row(args, pick, lambda probs, cell: probs.update(
        {pick(["|".join(cell), cell[:1], cell + ("x",), 7]): probs.pop(cell)})),
    "unknown_label": lambda args, pick: _edit_row(args, pick, lambda probs, cell: probs.update(
        {pick([("nope", cell[1]), (cell[0], "nope")]): probs.pop(cell)})),
    "row_not_a_sequence": lambda args, pick: _edit_row(args, pick, lambda probs, cell: probs.update(
        {cell: pick([1.0, None, 5])})),
    "bad_entry": lambda args, pick: _edit_row(args, pick, lambda probs, cell: _edit_entry(
        probs, cell, pick, pick([math.nan, math.inf, -math.inf, "0.5", True, None, 1j,
                                 10 ** 400, np.float32(0.5), np.int64(1)]))),
    "outcome_count": lambda args, pick: _edit_row(args, pick, lambda probs, cell: probs.update(
        {cell: pick([probs[cell] + (0.0,), probs[cell][:-1]])})),
    "off_by_atol": lambda args, pick: _edit_row(
        args, pick, lambda probs, cell: _off_by(probs, cell, pick)),
    "missing_row": lambda args, pick: _edit_row(args, pick, lambda probs, cell: probs.pop(cell)),
    "counts_empty": lambda args, pick: args.update(sample_counts={}),
    "count_without_row": lambda args, pick: args.update(sample_counts={
        **(args["sample_counts"] or {}), pick([("nope", "comp"), ("p0", "nope"), "x"]): 10}),
    "bad_count": lambda args, pick: _edit_count(
        args, pick, pick([0, -1, 2.5, True, 10 ** 400, "3", None, 100.0, np.int64(7)])),
}


def table_outcome(build, args):
    """(None, build(**args)), or the type and message of its error; any
    warning is an error here, as it is in the whole suite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return None, build(**args)
        except Exception as exc:  # any type: the type is what is compared
            return type(exc), str(exc)


class TestChecksMatchTheirReference:
    @pytest.mark.parametrize("fault", sorted(STATS_FAULTS))
    @settings(max_examples=25)
    @given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1), din=st.integers(1, 3),
           dout=st.integers(1, 3), n_preps=st.integers(1, 3), n_meas=st.integers(1, 3),
           sampled=st.booleans())
    def test_a_single_fault_gives_the_reference_error(self, fault, data, seed, din, dout,
                                                      n_preps, n_meas, sampled):
        args = valid_table_args(np.random.default_rng(seed), din, dout, n_preps, n_meas, sampled)
        STATS_FAULTS[fault](args, lambda seq: data.draw(st.sampled_from(list(seq))))
        got, want = table_outcome(StatsTable, args), table_outcome(reference_stats_checks, args)
        assert got[0] is want[0]
        if want[0] is not None:
            assert got == want
            return
        table, (rows, block, counts) = got[1], want[1]
        assert table.probabilities == rows
        assert table._block.tobytes() == block.tobytes()
        assert table.sample_counts == counts
        for side in SIDES:
            assert getattr(table, side) == tuple(map(tuple, args[side]))


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
        # X (18 x 16) is factored once, by the SVD that also gives its rank;
        # E (20 x 15 traceless coordinates) by one lstsq.
        table = _square(4)(rng)
        calls = []

        def spy(name):
            solver = getattr(np.linalg, name)

            def spied(a, *args, **kwargs):
                calls.append((name, a.shape))
                return solver(a, *args, **kwargs)
            return spied

        for name in ("lstsq", "svd", "matrix_rank"):
            monkeypatch.setattr(np.linalg, name, spy(name))
        fit_linear_map(table)
        outcomes = sum(m.n_outcomes for _, m in table.measurements)
        assert (len(table.preparations), outcomes) == (18, 20)
        assert calls == [("svd", (18, 16)), ("lstsq", (20, 15))]

    def test_choi_is_read_only(self):
        fit = fit_linear_map(channel_table([np.eye(2, dtype=complex)]))
        assert not fit.choi.flags.writeable
        with pytest.raises(ValueError):
            fit.choi[0, 0] = 0.0

    def test_fits_compare_and_hash_by_identity(self):
        # Equal Choi arrays do not make equal fits: == is identity, as hashing is.
        table = channel_table([np.eye(2, dtype=complex)])
        fit, other = fit_linear_map(table), fit_linear_map(table)
        assert (fit == other) is False
        assert (fit == fit) is True
        assert len({fit, other, fit}) == 2

    @settings(max_examples=60)
    @given(din=st.sampled_from([2, 3]),
           eps=st.sampled_from([1e-6, 1e-7, 3e-8, 1e-8, 3e-9, 1e-10]),
           seed=st.integers(0, 2**32 - 1))
    def test_rank_decision_is_matrix_ranks(self, din, eps, seed):
        # d_in^2 - 1 inputs span the Hermitian matrices orthogonal to a unit
        # traceless h; one more input, I/d_in + eps h, leaves that span by eps.
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(din, din)) + 1j * rng.normal(size=(din, din))
        h = a + a.conj().T
        h -= np.trace(h).real / din * np.eye(din)
        h /= np.linalg.norm(h)
        mats = [0.2 * random_density(din, rng).matrix + 0.8 * np.eye(din) / din
                for _ in range(din * din - 1)]
        mats = [m - np.vdot(h, m).real * h for m in mats] + [np.eye(din) / din + eps * h]
        inputs = tuple((f"in{i}", DensityOperator(0.5 * (m + m.conj().T)))
                       for i, m in enumerate(mats))
        povm = computational_povm(din)
        table = StatsTable(preparations=inputs, measurements=(("comp", povm),),
                           probabilities={(pl, "comp"): tuple(born_probabilities(rho, povm))
                                          for pl, rho in inputs})
        # The fit's own coordinates Tr(B_k rho^T), ranked by numpy's rule.
        x = np.einsum("kij,pij->pk", _hermitian_basis(din).reshape(-1, din, din),
                      np.array([rho.matrix for _, rho in inputs])).real
        rank = np.linalg.matrix_rank(x, tol=COMPLETENESS_CUT)
        if rank < din * din:
            with pytest.raises(RankError, match=f"span only {rank} of the {din * din} "):
                fit_linear_map(table)
        else:
            assert fit_linear_map(table).residual <= 1e-9


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

    def test_deterministic_sampled_table_is_judged_like_the_exact_one(self, rng):
        # A reset channel measured in Z reads (1, 0) on every input, so every
        # sampled cell is 0 or 1 and three sigmas are 0; the fit still rounds
        # (residual ~2e-16, Choi eigenvalue ~ -3e-16), so the floor is DTOL.
        reset = [np.array([[1, 0], [0, 0]], dtype=complex),
                 np.array([[0, 1], [0, 0]], dtype=complex)]
        table = channel_table(reset)
        assert is_linear_explainable(table)
        sampled = sample_table(table, 100, rng)
        assert all(p in (0.0, 1.0) for row in sampled.probabilities.values() for p in row)
        assert sampled_tolerance(sampled) == DTOL
        assert is_linear_explainable(sampled)

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
