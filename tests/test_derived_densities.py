"""Densities derived from validated ones carry a bound on the trace of their
negative part and skip the eigenvalue check only when that bound, with its
rounding allowance, certifies positivity within ATOL / 2. Every density stores
the Hermitian part of its matrix, which the check, the bound and every
derivation read."""

import collections
import contextlib
import dataclasses
import inspect
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_box, skewed_plus
from nlbox import qcore, scenario
from nlbox.boxes import BrunBoxConfig, DeutschBoxConfig, LinearBoxConfig
from nlbox.errors import ValidationError
from nlbox.preparations import Preparation, Provenance, ProvenanceTag, SpacetimeEvent, _mix
from nlbox.protocols import run_bb84_attack
from nlbox.qcore import (
    COMPUTATIONAL_BASIS,
    HADAMARD_BASIS,
    DensityOperator,
    KetVector,
    Povm,
    Unitary,
    tensor,
)
from nlbox.rand import random_cptp_kraus, random_density, random_unitary
from nlbox.steering import (
    EnsembleDecomposition,
    SteeringAssemblage,
    assemblage_from,
    hjw_assemblage,
)
from nlbox.tolerances import ATOL, NEG_ROUND

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "nlbox" / "scenarios"
EIGVALSH = np.linalg.eigvalsh
CHECKING = {cls: cls.__post_init__.__code__ for cls in (DensityOperator, Povm)}


@contextlib.contextmanager
def counted_checks(*classes):
    """A list that gets one entry per eigenvalue check that a DensityOperator, or
    an instance of any of classes if given, runs inside the block."""
    checks = []
    codes = {CHECKING[cls] for cls in classes or (DensityOperator,)}

    def counting(m, *args, **kwargs):
        if sys._getframe(1).f_code in codes:
            checks.append(m)
        return EIGVALSH(m, *args, **kwargs)

    qcore.np.linalg.eigvalsh = counting
    try:
        yield checks
    finally:
        qcore.np.linalg.eigvalsh = EIGVALSH


def negative_trace(m):
    """Tr m_-, the trace of the negative part of the Hermitian matrix m."""
    return float(-np.minimum(EIGVALSH(m), 0.0).sum())


def diag(*values):
    return np.diag(np.array(values, dtype=complex))


# Each passes the public check, its lowest eigenvalue at or near -ATOL.
EPS = 0.9e-9
EDGE3 = diag(1 + 2 * EPS, -EPS, -EPS)        # Tr rho_- = 1.8e-9
EDGE2 = diag(1 + 0.5 * ATOL, -ATOL)          # trace 1 - 0.5 ATOL
EDGE2_UP = diag(1 + 1.5 * ATOL, -ATOL)       # trace 1 + 0.5 ATOL
HEAVY = diag(1 + 0.8 * ATOL, 0.0)            # PSD, trace 1 + 0.8 ATOL


class TestEdgeInputsStillRaise:
    """Derived outputs of inputs at the edge of the public check fail it; the
    derived site must run that check and raise."""

    def test_inputs_pass_the_public_check(self):
        for m in (EDGE3, EDGE2, EDGE2_UP, HEAVY):
            DensityOperator(m)

    def test_kraus_channel_concentrating_the_negative_part(self):
        # |0><0|, |1><1| and |1><2| send diag(1 + 2e, -e, -e) to diag(1 + 2e, -2e, 0).
        kraus = [np.zeros((3, 3)) for _ in range(3)]
        kraus[0][0, 0] = kraus[1][1, 1] = kraus[2][1, 2] = 1.0
        with pytest.raises(ValidationError, match="eigenvalue -1.8"):
            LinearBoxConfig(kraus).apply(DensityOperator(EDGE3))

    def test_tensor(self):
        # The product's lowest eigenvalue is -ATOL (1 + 1.5 ATOL).
        with pytest.raises(ValidationError, match="eigenvalue"):
            tensor(DensityOperator(EDGE2_UP), DensityOperator(EDGE2_UP))

    def test_mix(self):
        # Weights summing to 1 + 0.8 ATOL scale the lowest eigenvalue past -ATOL.
        w = 0.5 + 0.4 * ATOL
        rho = DensityOperator(EDGE2)
        with pytest.raises(ValidationError, match="eigenvalue"):
            _mix([(w, rho), (w, rho)])
        with pytest.raises(ValidationError, match="eigenvalue"):
            Preparation(((w, rho), (w, rho)),
                        Provenance(ProvenanceTag.LOCAL_ENSEMBLE, (SpacetimeEvent(0.0, 0.0),)),
                        "edge")

    def test_loop_channel(self):
        # With U = I the channel is rho Tr(star), so the loop's extra trace scales rho.
        config = DeutschBoxConfig(Unitary(np.eye(4)), 2)
        with pytest.raises(ValidationError, match="eigenvalue"):
            config.loop_channel(DensityOperator(HEAVY), DensityOperator(EDGE2))

    def test_bb84_receiver_table(self):
        # Bases of kets with squared norm 1 + 0.9 ATOL pass the ket check, yet each
        # row of the receiver's outcome table then sums to about 1 + 1.8 ATOL.
        scale = np.sqrt(1 + 0.9 * ATOL)
        psi, phi = (tuple(KetVector(k.amplitudes * scale) for k in basis)
                    for basis in (COMPUTATIONAL_BASIS, HADAMARD_BASIS))
        with pytest.raises(ValidationError, match="Born probabilities do not sum to 1") as exc:
            run_bb84_attack(make_box(BrunBoxConfig(psi, phi)), 10, seed=1)
        assert type(exc.value) is ValidationError
        assert exc.traceback[-1].name == "run_bb84_attack"


class TestAntiHermitianPartCounts:
    """The Hermitian check admits an anti-Hermitian part up to ATOL; the density
    stores the Hermitian part H = (M + M^dag) / 2, so that part is dropped and
    the verdict reads H whichever triangle holds the skew."""

    def test_both_triangles_are_rejected(self):
        # H has eigenvalue -1.5 * 0.99 ATOL; M alone reads a PSD lower triangle.
        m = skewed_plus()
        for given in (m, m.conj().T):
            with pytest.raises(ValidationError, match="eigenvalue -1.48"):
                DensityOperator(given)

    def test_input_passes_the_public_check_with_a_bound_past_half_atol(self):
        m = skewed_plus(0.3)
        rho = DensityOperator(m)
        assert np.array_equal(rho.matrix, 0.5 * (m + m.conj().T))
        assert np.array_equal(rho.matrix, DensityOperator(m.conj().T).matrix)
        assert rho._bound == 3 * -float(EIGVALSH(rho.matrix)[0]) > ATOL / 2
        assert float(EIGVALSH(rho.matrix)[0]) == pytest.approx(-1.5 * 0.3 * ATOL, rel=1e-3)

    def test_identity_kraus_channel(self):
        rho = DensityOperator(skewed_plus(0.3))
        with counted_checks() as checks:
            out = LinearBoxConfig([np.eye(4)]).apply(rho)
        assert len(checks) == 1
        assert np.array_equal(out.matrix, rho.matrix)

    @pytest.mark.parametrize("first", ["plus", "skewed"])
    def test_tensor(self, first):
        rho, plus = DensityOperator(skewed_plus(0.3)), qcore.KET_PLUS.projector()
        pair = (plus, rho) if first == "plus" else (rho, plus)
        with counted_checks() as checks:
            out = tensor(*pair)
        assert len(checks) == 1
        assert out.matrix.tobytes() == np.kron(pair[0].matrix, pair[1].matrix).tobytes()

    def test_loop_channel(self):
        # With U = I the channel is rho times Tr(star).
        rho, star = DensityOperator(skewed_plus(0.3)), qcore.maximally_mixed(2)
        config = DeutschBoxConfig(Unitary(np.eye(8)), 2)
        with counted_checks() as checks:
            out = config.loop_channel(star, rho)
        assert len(checks) == 1
        assert np.abs(out.matrix - rho.matrix).max() <= 1e-15


class TestExactlyHermitianInputsKeepTheirBits:
    """A matrix with no anti-Hermitian part is its own Hermitian part, so it is
    stored as given, signed zeros included, where (M + M^dag) / 2 would turn a
    -0.0 imaginary part on the diagonal into +0.0."""

    def test_public_constructor(self):
        m = np.diag([1.0, 0.0]).astype(complex)
        m[1, 1] = complex(0.0, -0.0)
        effects = np.array([m, np.eye(2) - m])
        assert DensityOperator(m).matrix.tobytes() == m.tobytes()
        assert qcore.Povm(effects).effects.tobytes() == effects.tobytes()

    def test_projector(self, rng):
        # Real amplitudes: numpy's complex multiply may fuse a * conj(a) into a
        # nonzero imaginary rounding residue, and such a projector is stored Hermitized.
        v = rng.normal(size=3)
        for ket in (qcore.KET_MINUS, KetVector(v / np.linalg.norm(v))):
            a = ket.amplitudes
            assert ket.projector().matrix.tobytes() == np.outer(a, a.conj()).tobytes()

    def test_tensor(self, rng):
        m = np.diag([1.0, 0.0]).astype(complex)
        m[1, 1] = complex(0.0, -0.0)
        for a, b in ((DensityOperator(m), random_density(3, rng)),
                     (random_density(2, rng), qcore.KET_PLUS.projector())):
            n = a.dim * b.dim
            want = (a.matrix[:, None, :, None] * b.matrix[None, :, None, :]).reshape(n, n)
            assert tensor(a, b).matrix.tobytes() == want.tobytes()

    def test_mix(self, rng):
        members = [(0.25, random_density(3, rng)), (0.75, random_density(3, rng, rank=1))]
        want = sum(w * rho.matrix for w, rho in members)
        assert _mix(members).matrix.tobytes() == want.tobytes()


class TestChainsCheckAgain:
    def test_kraus_chain_checks_once_its_allowances_pass_half_atol(self):
        rho = DensityOperator(diag(1 + 0.2 * ATOL, -0.2 * ATOL))
        identity = LinearBoxConfig([np.eye(2)])
        # The step at which the carried bound, one allowance per step, passes ATOL / 2.
        bound = rho._bound
        due = next(k for k in range(1, 10 ** 5) if not (bound := bound + NEG_ROUND * 2) <= ATOL / 2)
        with counted_checks() as checks:
            for step in range(1, due + 2):
                rho = identity.apply(rho)
                assert len(checks) == (step >= due), step
        assert rho._bound == pytest.approx(0.2 * ATOL)

    def test_tensor_chain_checks_the_third_factor(self):
        rho = DensityOperator(diag(1 + 0.2 * ATOL, -0.2 * ATOL))
        with counted_checks() as checks:
            pair = tensor(rho, rho)
            assert not checks and pair._bound <= ATOL / 2
            triple = tensor(pair, rho)
        assert len(checks) == 1
        assert triple._bound == 7 * -float(EIGVALSH(triple.matrix)[0])


def scenario_census():
    """[type, site module, site function, checked, hermitized, count] for every
    DensityOperator and Povm built while each bundled scenario runs once; checked:
    it ran eigvalsh; hermitized: it stores another array than the frozen copy of
    its input."""
    built = collections.Counter()
    validate, freeze = {cls: cls.__post_init__ for cls in CHECKING}, qcore._freeze
    frozen = []

    def counting(self, *args):
        code = sys._getframe(2).f_code
        before = len(checks)
        validate[type(self)](self, *args)
        stored = self.matrix if type(self) is DensityOperator else self.effects
        built[type(self).__name__, Path(code.co_filename).stem, code.co_name,
              len(checks) > before, stored is not frozen[-1]] += 1

    def recording(obj, name, arr):
        frozen.append(arr := freeze(obj, name, arr))
        return arr

    for cls in CHECKING:
        cls.__post_init__ = counting
    qcore._freeze = recording
    try:
        with counted_checks(*CHECKING) as checks:
            for path in sorted(SCENARIO_DIR.glob("*.scn")):
                scenario.run_scenario(scenario.parse_scenario(path))
    finally:
        for cls, original in validate.items():
            cls.__post_init__ = original
        qcore._freeze = freeze
    return sorted([*key, n] for key, n in built.items())


@pytest.fixture(scope="module")
def census():
    """scenario_census() run in a new interpreter, where no ket keeps a projector
    and no computational POVM is cached yet, as a {type: {key: count}} dict."""
    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    done = subprocess.run(
        [sys.executable, "-c", "import json, test_derived_densities as t; "
                               "print(json.dumps(t.scenario_census()))"],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    assert len(list(SCENARIO_DIR.glob("*.scn"))) == 9
    by_type = collections.defaultdict(dict)
    for kind, *key, n in json.loads(done.stdout):
        by_type[kind][tuple(key)] = n
    return by_type


def test_bundled_scenarios_check_only_fixed_points(census):
    """63 densities over the 9 bundled scenarios, 12 of them checked: the 12
    Deutsch fixed points. The 24 steering heralds (built in the assemblage
    constructor's generator) carry a bound from their state and POVM, and
    tensor, loop-channel and projector outputs one from their inputs, so none
    of them is. Only the 4 loop-channel outputs whose matrix rounding left not
    exactly Hermitian store a new array, their Hermitian part; every other
    density keeps its input's."""
    built = census["DensityOperator"]
    assert sum(built.values()) == 63
    assert sum(n for (_, _, checked, _), n in built.items() if checked) == 12
    assert sum(n for (*_, hermitized), n in built.items() if hermitized) == 4
    assert built == {
        ("steering", "<genexpr>", False, False): 24,
        ("boxes", "deutsch_fixed_point", True, False): 12,
        ("qcore", "tensor", False, False): 12,
        ("boxes", "loop_channel", False, False): 8,
        ("boxes", "loop_channel", False, True): 4,
        ("qcore", "projector", False, False): 3,
    }


def test_bundled_scenarios_check_no_povm(census):
    """14 POVMs over the 9 bundled scenarios, none of them checked: the sender's
    12 basis measurements in the signaling and preparation-problem scenarios
    (each effect a ket's projector) and the computational POVMs of dims 2 and
    4, each built once. None stores a new array: every product of two basis
    amplitudes rounds to an exactly Hermitian matrix."""
    assert census["Povm"] == {
        ("qcore", "basis_povm", False, False): 12,
        ("qcore", "computational_povm", False, False): 2,
    }


# -- every derived site, as a property over random inputs ----------------------

KINDS = ["full", "rank_deficient", "near_pure", "edge"]


@st.composite
def densities(draw, dims=st.integers(1, 4)):
    """A DensityOperator of dim 1-4: full rank, rank deficient, near pure, or at
    the edge, with up to d - 1 eigenvalues of -0.1 to -0.999 ATOL and the trace
    off by up to 0.9 ATOL. Half of them have the entries above the diagonal moved
    by up to 0.999 ATOL, which the constructor halves into the Hermitian part it
    stores. A matrix that rounding or that move pushes past the public check is
    not drawn."""
    dim = draw(dims)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    skew = draw(st.booleans()) * draw(st.floats(0.0, 0.999)) * ATOL
    shift = rng.normal(size=(dim, dim, 2)) @ np.array([1, 1j])
    shift = np.triu(shift / np.maximum(np.abs(shift), 1e-300), 1) * skew
    try:
        return DensityOperator(draw(hermitian_densities(dim, rng)) + shift)
    except ValidationError:
        assume(False)


@st.composite
def hermitian_densities(draw, dim, rng):
    """The Hermitian matrix of a density drawn as densities() describes."""
    kind = draw(st.sampled_from(KINDS))
    if kind == "full":
        return random_density(dim, rng).matrix
    if kind == "rank_deficient":
        return random_density(dim, rng, rank=draw(st.integers(1, dim))).matrix
    if kind == "near_pure":
        pure = random_density(dim, rng, rank=1).matrix
        t = draw(st.floats(0.0, 1e-6))
        return DensityOperator((1 - t) * pure + t * random_density(dim, rng).matrix).matrix
    n_neg = draw(st.integers(0, dim - 1))
    neg = draw(st.floats(0.1, 0.999)) * ATOL
    trace = 1 + draw(st.floats(-0.9, 0.9)) * ATOL
    lam = np.concatenate([np.full(n_neg, -neg),
                          rng.dirichlet(np.ones(dim - n_neg)) * (trace + n_neg * neg)])
    v = random_unitary(dim, rng).matrix
    m = (v * lam) @ v.conj().T
    try:
        return DensityOperator(0.5 * (m + m.conj().T)).matrix
    except ValidationError:
        assume(False)


def concentrating_kraus(rho):
    """Kraus operators of the channel that measures rho's eigenbasis and
    prepares |1> on a negative eigenvalue, |0> otherwise, so that its output
    has one eigenvalue -Tr rho_-."""
    lam, v = np.linalg.eigh(rho.matrix)
    return [np.outer(np.eye(2)[int(x < 0)], v[:, i].conj()) for i, x in enumerate(lam)]


def stored(value):
    """The array a DensityOperator or a Povm checks: its matrix or its effects."""
    return value.effects if isinstance(value, Povm) else value.matrix


def checked_bound(value):
    """The bound the eigenvalue check gives a DensityOperator or a Povm."""
    if isinstance(value, Povm):
        return value.dim * max(0.0, -float(np.minimum.reduce(EIGVALSH(value.effects)[:, 0])))
    return (value.dim - 1) * max(0.0, -float(EIGVALSH(value.matrix)[0]))


def assert_sound(build):
    """The derived site raises a ValidationError itself, or each value it returns
    (a density, a POVM, or an assemblage's POVM and heralds) is exactly Hermitian,
    passes the public constructor, has the checked bound unless its bound is
    within ATOL / 2, and has a bound that covers each of its matrices' negative part."""
    try:
        out = build()
    except ValidationError:
        return
    values = ([out.povm_a, *(rho for _, rho in out.heralded)]
              if isinstance(out, SteeringAssemblage) else [out])
    for value in values:
        type(value)(arr := stored(value))
        assert np.array_equal(arr, np.swapaxes(arr, -1, -2).conj())
        assert value._bound <= ATOL / 2 or value._bound == checked_bound(value)
        for m in arr.reshape(-1, *arr.shape[-2:]):
            assert negative_trace(m) <= value._bound + 1e-14


@st.composite
def edge_povms(draw, dim):
    """A two-outcome Povm on dim and the eigenvector v of E's first eigenvalue: E
    and I - E in one random eigenbasis, with E's eigenvalues drawn in [0, 1] and
    scaled by 1e-12 to 1, so that E fires with a probability down to ZERO_PROB.
    At the edge, E's first eigenvalue is moved to 0, to -0.1 to -0.999 ATOL, or
    to 1 plus that, where I - E has it."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lam = rng.uniform(size=dim) * 10 ** draw(st.floats(-12.0, 0.0))
    edge = draw(st.sampled_from(["none", "zero", "low", "high"]))
    neg = draw(st.floats(0.1, 0.999)) * ATOL
    lam[0] = {"none": lam[0], "zero": 0.0, "low": -neg, "high": 1 + neg}[edge]
    v = random_unitary(dim, rng).matrix
    try:
        return Povm([(v * x) @ v.conj().T for x in (lam, 1 - lam)]), v[:, 0]
    except ValidationError:
        assume(False)


class TestDerivedSitesAreSound:
    @settings(max_examples=150)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 4),
           stretch=st.floats(-0.45, 0.45))
    def test_projector(self, seed, dim, stretch):
        v = np.random.default_rng(seed).normal(size=(dim, 2)) @ np.array([1, 1j])
        amplitudes = v / np.linalg.norm(v) * np.sqrt(1 + stretch * ATOL)
        assert_sound(lambda: KetVector(amplitudes).projector())

    @settings(max_examples=150)
    @given(a=densities(), b=densities())
    def test_tensor(self, a, b):
        assert_sound(lambda: tensor(a, b))

    @settings(max_examples=150)
    @given(rho=densities(), seed=st.integers(0, 2 ** 32 - 1), concentrate=st.booleans())
    def test_kraus_channel(self, rho, seed, concentrate):
        kraus = (concentrating_kraus(rho) if concentrate
                 else random_cptp_kraus(rho.dim, np.random.default_rng(seed)))
        assert_sound(lambda: LinearBoxConfig(kraus).apply(rho))

    @settings(max_examples=150)
    @given(rho=densities(), star=densities(), seed=st.integers(0, 2 ** 32 - 1))
    def test_loop_channel(self, rho, star, seed):
        u = random_unitary(rho.dim * star.dim, np.random.default_rng(seed))
        assert_sound(lambda: DeutschBoxConfig(u, star.dim).loop_channel(star, rho))

    @settings(max_examples=150)
    @given(data=st.data(), dim=st.integers(1, 4), n=st.integers(1, 4))
    def test_mix(self, data, dim, n):
        members = [data.draw(densities(st.just(dim))) for _ in range(n)]
        w = np.array([data.draw(st.floats(0.01, 1.0)) for _ in range(n)])
        w = (w / w.sum()).tolist()
        assert_sound(lambda: _mix(list(zip(w, members))))


    @settings(max_examples=150)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 4),
           stretches=st.lists(st.floats(-0.999, 0.999), min_size=4, max_size=4))
    def test_basis_povm(self, seed, dim, stretches):
        v = random_unitary(dim, np.random.default_rng(seed)).matrix
        assert_sound(lambda: qcore.basis_povm(
            KetVector(v[:, k] * np.sqrt(1 + stretches[k] * ATOL)) for k in range(dim)))

    @settings(max_examples=150)
    @given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 4),
           n=st.integers(1, 4))
    def test_hjw_assemblage(self, data, seed, dim, n):
        # Members of any rank, full rank being mixed, weighted 1e-6 to 1 before normalizing.
        rng = np.random.default_rng(seed)
        w = np.array([10 ** data.draw(st.floats(-6.0, 0.0)) for _ in range(n)])
        members = tuple((float(wi), random_density(dim, rng, rank=data.draw(st.integers(1, dim))))
                        for wi in w / w.sum())
        sigma = DensityOperator(sum(wi * rho.matrix for wi, rho in members))
        assert_sound(lambda: hjw_assemblage(EnsembleDecomposition(sigma, members)))

    @settings(max_examples=300)
    @given(data=st.data(), dims=st.sampled_from([(1, 2), (2, 1), (2, 2), (4, 1), (2, 4), (4, 2)]))
    def test_heralds(self, data, dims):
        # In half the cases, mixing in weight 1 - w of |v><v| (x) |0><0|, where E reads its
        # first eigenvalue, leaves E's herald as it was when that eigenvalue is 0, but at a
        # p of order w, out of a block whose terms stay of order 1: its rounding grows as 1/p.
        povm, v = data.draw(edge_povms(dims[0]))
        state = data.draw(densities(st.just(dims[0] * dims[1])))
        w = 10 ** (data.draw(st.booleans()) * data.draw(st.floats(-12.0, 0.0)))
        rare = np.kron(np.outer(v, v.conj()), np.diag(np.eye(dims[1])[0]))
        try:
            state = DensityOperator(w * state.matrix + (1 - w) * rare)
        except ValidationError:
            assume(False)
        assert_sound(lambda: assemblage_from(state, povm))


class TestBoundStaysPrivate:
    def test_unpickling_runs_the_full_check(self):
        derived = tensor(DensityOperator(diag(1 + 0.1 * ATOL, -0.1 * ATOL)), qcore.QUBIT0)
        data = pickle.dumps(derived)
        with counted_checks() as checks:
            copy = pickle.loads(data)
        assert len(checks) == 1
        assert np.array_equal(copy.matrix, derived.matrix)
        assert copy._bound == 3 * -float(EIGVALSH(copy.matrix)[0]) > 0

    def test_replace_runs_the_full_check(self):
        derived = tensor(qcore.QUBIT0, qcore.QUBIT0)
        with pytest.raises(ValidationError, match="eigenvalue"):
            dataclasses.replace(derived, matrix=diag(1 + 2 * ATOL, -2 * ATOL, 0, 0))

    def test_povm_replace_runs_the_full_check(self):
        with pytest.raises(ValidationError, match="not positive semidefinite"):
            dataclasses.replace(qcore.computational_povm(2),
                                effects=[diag(1 + 2 * ATOL, 0), diag(-2 * ATOL, 1)])

    @staticmethod
    def derived_values():
        """A basis POVM of complex kets, an HJW POVM and one of its heralds, each
        built without eigvalsh, so each carries a bound from its inputs."""
        s = 1 / np.sqrt(2)
        kets = (qcore.ket(s, 1j * s), qcore.ket(s, -1j * s))
        sigma = qcore.maximally_mixed(2)
        with counted_checks(DensityOperator, Povm) as checks:
            basis = qcore.basis_povm(kets)
            asm = hjw_assemblage(EnsembleDecomposition(sigma, tuple((0.5, k.projector())
                                                                    for k in kets)))
        values = {"basis": basis, "hjw": asm.povm_a, "herald": asm.heralded[0][1]}
        assert not any(c is stored(v) for c in checks for v in values.values())
        return values

    @pytest.mark.parametrize("rebuild", ["pickle", "replace"])
    @pytest.mark.parametrize("name", ["basis", "hjw", "herald"])
    def test_a_rebuilt_derived_value_runs_the_full_check(self, name, rebuild):
        value = self.derived_values()[name]
        assert value._bound != checked_bound(value)
        data = pickle.dumps(value)
        with counted_checks(DensityOperator, Povm) as checks:
            copy = pickle.loads(data) if rebuild == "pickle" else dataclasses.replace(value)
        assert len(checks) == 1 and checks[0] is stored(copy)
        assert np.array_equal(stored(copy), stored(value))
        assert copy._bound == checked_bound(copy)

    @pytest.mark.parametrize("cls,arg", [(DensityOperator, np.eye(2) / 2),
                                         (Povm, [np.eye(2)])], ids=["density", "povm"])
    def test_repr_and_positional_signature(self, cls, arg):
        value = cls(arg)
        name = "matrix" if cls is DensityOperator else "effects"
        assert repr(value).startswith(f"{cls.__name__}({name}=array(")
        assert "_neg" not in repr(value) and "_bound" not in repr(value)
        params = list(inspect.signature(cls).parameters.values())
        assert [(p.name, p.kind) for p in params] == [
            (name, inspect.Parameter.POSITIONAL_OR_KEYWORD),
            ("_neg", inspect.Parameter.KEYWORD_ONLY)]
        with pytest.raises(TypeError):
            cls(arg, 0.0)
