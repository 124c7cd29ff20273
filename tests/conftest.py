import numpy as np
import pytest
from hypothesis import settings

from nlbox.boxes import BrunBoxConfig, NonlinearBox, Semantics
from nlbox.preparations import (
    MembershipPolicy,
    PolicyKind,
    Preparation,
    Provenance,
    ProvenanceTag,
    SpacetimeEvent,
)
from nlbox.qcore import COMPUTATIONAL_BASIS, HADAMARD_BASIS, DensityOperator
from nlbox.tolerances import ATOL

# Property tests draw the same examples on every run and keep no example
# database, so a tier-1 failure reproduces; examples have no deadline.
settings.register_profile("nlbox", derandomize=True, database=None, deadline=None)
settings.load_profile("nlbox")

BOX_EVENT = SpacetimeEvent(1.0, 0.0)
FAR_EVENT = SpacetimeEvent(0.0, 10.0)

SWAP = np.array([[1, 0, 0, 0],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1]], dtype=complex)
CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)


def reduced_matrix(mat, dims, keep):
    """The reference partial trace: the matrix of two factors of dims (d0, d1)
    with every factor but `keep` (0 or 1) traced out, by one einsum."""
    t = np.asarray(mat).reshape(dims + dims)
    if keep == 0:
        return np.einsum(t, [0, 1, 2, 1], [0, 2])
    return np.einsum(t, [0, 1, 0, 3], [1, 3])


def skewed_plus(scale=0.99):
    """|+><+| on 4 levels with each entry above the diagonal moved by +-scale ATOL.
    Its Hermitian part has eigenvalue -1.5 scale ATOL on (1, -1, 1, -1) / 2."""
    m = np.full((4, 4), 0.25, dtype=complex)
    iu, ju = np.triu_indices(4, 1)
    m[iu, ju] += scale * ATOL * np.array([1, -1, 1, 1, -1, 1])
    return m


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def brun_config():
    return BrunBoxConfig(COMPUTATIONAL_BASIS, HADAMARD_BASIS)


def make_box(config, semantics=Semantics.DECOMPOSITION,
             policy=None, box_event=BOX_EVENT):
    policy = policy or MembershipPolicy(PolicyKind.NAIVE_PURE)
    return NonlinearBox(config=config, box_event=box_event,
                        semantics=semantics, membership=policy)


def local_prep(state_density, label="p", record=BOX_EVENT,
               tag=ProvenanceTag.LOCAL_DETERMINISTIC):
    return Preparation(ensemble=((1.0, state_density),),
                       provenance=Provenance(tag, (record,)),
                       label=label)


def ensemble_prep(members, label="p", record=BOX_EVENT,
                  tag=ProvenanceTag.LOCAL_ENSEMBLE):
    return Preparation(ensemble=tuple(members),
                       provenance=Provenance(tag, (record,)),
                       label=label)


def remote_prep(state_density, unconditioned, label="r", record=FAR_EVENT):
    """A heralded preparation whose unconditioned state is the mixture of
    the (weight, density) pairs in `unconditioned`."""
    return Preparation(ensemble=((1.0, state_density),),
                       provenance=Provenance(ProvenanceTag.REMOTE_STEERED, (record,)),
                       label=label,
                       unconditioned=DensityOperator(sum(w * s.matrix for w, s in unconditioned)))
