import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import BOX_EVENT, FAR_EVENT, ensemble_prep, local_prep, remote_prep
from nlbox.errors import ConfigurationError, ShapeError, ValidationError
from nlbox.preparations import (
    MembershipPolicy,
    PolicyKind,
    Preparation,
    Provenance,
    ProvenanceTag,
    SpacetimeEvent,
    classify_membership,
    effective_density,
    in_past_light_cone,
    linearly_equivalent,
)
from nlbox.qcore import (
    KET0,
    KET1,
    KET_MINUS,
    KET_PLUS,
    DensityOperator,
    maximally_mixed,
    trace_distance,
)
from nlbox.rand import random_density


class TestTypes:
    def test_event_rejects_nan(self):
        with pytest.raises(ValidationError):
            SpacetimeEvent(float("nan"), 0.0)

    def test_provenance_needs_record(self):
        with pytest.raises(ValidationError):
            Provenance(ProvenanceTag.LOCAL_DETERMINISTIC, ())

    def test_weights_must_be_positive(self):
        with pytest.raises(ValidationError):
            ensemble_prep([(-0.5, KET0.projector()), (1.5, KET1.projector())])

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            ensemble_prep([(0.5, KET0.projector()), (0.4, KET1.projector())])

    def test_policy_parameter_checks(self):
        with pytest.raises(ConfigurationError):
            MembershipPolicy(PolicyKind.KENT_LIGHT_CONE)
        with pytest.raises(ConfigurationError):
            MembershipPolicy(PolicyKind.EXPLICIT_LIST)

    @pytest.mark.parametrize("labels", ["remote_psi_0", ["remote_psi_0", 1]],
                             ids=["one_string", "non_string_label"])
    def test_explicit_list_labels_are_strings(self, labels):
        # frozenset of one string would be the set of its characters.
        with pytest.raises(ConfigurationError, match="labels"):
            MembershipPolicy(PolicyKind.EXPLICIT_LIST, labels=labels)
        ok = MembershipPolicy(PolicyKind.EXPLICIT_LIST, labels=["remote_psi_0"])
        assert ok.labels == frozenset({"remote_psi_0"})


class TestEffectiveDensity:
    def test_singleton(self):
        p = local_prep(KET0.projector())
        assert trace_distance(effective_density(p), KET0.projector()) < 1e-12
        # A lone weight-1 member is its own mixture: the same object.
        assert effective_density(p) is KET0.projector()

    def test_computational_mixture(self):
        p = ensemble_prep([(0.5, KET0.projector()), (0.5, KET1.projector())])
        assert trace_distance(effective_density(p), maximally_mixed(2)) < 1e-12
        assert effective_density(p) is effective_density(p)

    def test_hadamard_mixture(self):
        # Oracle: (|+><+| + |-><-|)/2 summed entrywise is I/2.
        p = ensemble_prep([(0.5, KET_PLUS.projector()), (0.5, KET_MINUS.projector())])
        expected = 0.5 * (KET_PLUS.projector().matrix + KET_MINUS.projector().matrix)
        assert np.allclose(effective_density(p).matrix, expected)
        assert trace_distance(effective_density(p), maximally_mixed(2)) < 1e-12

    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 4), k=st.integers(1, 4))
    def test_matches_weighted_sum(self, seed, dim, k):
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.ones(k))
        states = [random_density(dim, rng) for _ in range(k)]
        p = ensemble_prep(list(zip(weights, states)))
        expected = np.einsum("k,kij->ij", weights, np.array([s.matrix for s in states]))
        assert np.max(np.abs(effective_density(p).matrix - expected)) <= 1e-15

    def test_invalid_mixture_of_valid_members_rejected(self):
        # Each member and the weights pass alone (off by 0.9e-9 <= ATOL),
        # but the mixture's trace is off by 1.8e-9.
        big = 1 + 0.9e-9
        members = [(0.5 + 0.45e-9, DensityOperator(np.diag([big, 0]).astype(complex))),
                   (0.5 + 0.45e-9, DensityOperator(np.diag([0, big]).astype(complex)))]
        with pytest.raises(ValidationError, match="trace"):
            ensemble_prep(members)


class TestLinearEquivalence:
    def test_same_state_different_provenance(self):
        deterministic = local_prep(KET1.projector(), "not_gate")
        postselected = ensemble_prep([(1.0, KET1.projector())], "postselect")
        assert linearly_equivalent(deterministic, postselected)

    def test_equal_mixtures(self):
        p1 = ensemble_prep([(0.5, KET0.projector()), (0.5, KET1.projector())])
        p2 = ensemble_prep([(0.5, KET_PLUS.projector()), (0.5, KET_MINUS.projector())])
        assert linearly_equivalent(p1, p2)

    def test_distinct_pure_states(self):
        assert not linearly_equivalent(local_prep(KET0.projector()),
                                       local_prep(KET_PLUS.projector()))

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            linearly_equivalent(local_prep(maximally_mixed(2)),
                                local_prep(maximally_mixed(4)))

    def test_equivalence_relation_properties(self, rng):
        base = random_density(2, rng)
        preps = [ensemble_prep([(1.0, base)], f"p{i}") for i in range(3)]
        for p in preps:
            assert linearly_equivalent(p, p)
        assert linearly_equivalent(preps[0], preps[1]) == linearly_equivalent(preps[1], preps[0])
        if linearly_equivalent(preps[0], preps[1]) and linearly_equivalent(preps[1], preps[2]):
            assert trace_distance(effective_density(preps[0]),
                                  effective_density(preps[2])) <= 2e-8


class TestLightCone:
    def test_timelike(self):
        assert in_past_light_cone(SpacetimeEvent(0, 0), SpacetimeEvent(1, 0))

    def test_spacelike(self):
        assert not in_past_light_cone(SpacetimeEvent(0, 5), SpacetimeEvent(1, 0))

    def test_lightlike_boundary(self):
        # Boundary case: t separation exactly equals spatial separation.
        assert in_past_light_cone(SpacetimeEvent(0, 1), SpacetimeEvent(1, 0))

    def test_future_excluded(self):
        assert not in_past_light_cone(SpacetimeEvent(2, 0), SpacetimeEvent(1, 0))


class TestMembership:
    def test_naive_pure_admits_remote_pure(self):
        p = remote_prep(KET0.projector(), [(0.5, KET0.projector()), (0.5, KET1.projector())])
        assert classify_membership(p, MembershipPolicy(PolicyKind.NAIVE_PURE))

    def test_naive_pure_rejects_mixed_member(self):
        p = ensemble_prep([(1.0, maximally_mixed(2))])
        assert not classify_membership(p, MembershipPolicy(PolicyKind.NAIVE_PURE))

    def test_kent_rejects_spacelike_record(self):
        p = remote_prep(KET0.projector(), [(1.0, KET0.projector())], record=FAR_EVENT)
        policy = MembershipPolicy(PolicyKind.KENT_LIGHT_CONE, box_event=BOX_EVENT)
        assert not classify_membership(p, policy)

    def test_kent_admits_record_in_cone(self):
        p = remote_prep(KET0.projector(), [(1.0, KET0.projector())],
                        record=SpacetimeEvent(0.0, 0.5))
        policy = MembershipPolicy(PolicyKind.KENT_LIGHT_CONE, box_event=BOX_EVENT)
        assert classify_membership(p, policy)

    def test_deterministic_experimenter_rejects_ensemble(self):
        p = ensemble_prep([(0.5, KET0.projector()), (0.5, KET1.projector())])
        assert not classify_membership(
            p, MembershipPolicy(PolicyKind.DETERMINISTIC_EXPERIMENTER))

    def test_deterministic_experimenter_admits_local_singleton(self):
        p = local_prep(KET_PLUS.projector())
        assert classify_membership(
            p, MembershipPolicy(PolicyKind.DETERMINISTIC_EXPERIMENTER))

    def test_explicit_list(self):
        policy = MembershipPolicy(PolicyKind.EXPLICIT_LIST, labels=frozenset({"a"}))
        assert classify_membership(local_prep(KET0.projector(), "a"), policy)
        assert not classify_membership(local_prep(KET0.projector(), "b"), policy)

    def test_classification_is_pure(self):
        p = remote_prep(KET0.projector(), [(1.0, KET0.projector())])
        policy = MembershipPolicy(PolicyKind.KENT_LIGHT_CONE, box_event=BOX_EVENT)
        results = {classify_membership(p, policy) for _ in range(5)}
        assert len(results) == 1

    def test_kent_translation_invariance(self, rng):
        for _ in range(20):
            dt, dx = rng.normal(size=2) * 10
            record = SpacetimeEvent(float(rng.normal()), float(rng.normal() * 3))
            box = SpacetimeEvent(float(rng.normal() + 1), float(rng.normal()))
            p1 = remote_prep(KET0.projector(), [(1.0, KET0.projector())], record=record)
            p2 = remote_prep(KET0.projector(), [(1.0, KET0.projector())],
                             record=SpacetimeEvent(record.t + dt, record.x + dx))
            pol1 = MembershipPolicy(PolicyKind.KENT_LIGHT_CONE, box_event=box)
            pol2 = MembershipPolicy(
                PolicyKind.KENT_LIGHT_CONE,
                box_event=SpacetimeEvent(box.t + dt, box.x + dx))
            assert classify_membership(p1, pol1) == classify_membership(p2, pol2)

    def test_class_split_exists(self):
        # Linearly equivalent preparations of the same pure state, one local
        # and one remote, that a light-cone policy separates.
        local = local_prep(KET_PLUS.projector(), "local")
        remote = remote_prep(KET_PLUS.projector(),
                             [(0.5, KET_PLUS.projector()), (0.5, KET_MINUS.projector())],
                             "remote")
        assert linearly_equivalent(local, remote)
        policy = MembershipPolicy(PolicyKind.KENT_LIGHT_CONE, box_event=BOX_EVENT)
        assert classify_membership(local, policy) != classify_membership(remote, policy)


def test_unconditioned_defaults_to_the_mixture():
    p = local_prep(KET0.projector())
    assert p.unconditioned is effective_density(p)
    p = ensemble_prep([(0.5, KET0.projector()), (0.5, KET_MINUS.projector())])
    assert p.unconditioned is effective_density(p)


def test_unconditioned_for_remote():
    p = remote_prep(KET0.projector(), [(0.5, KET0.projector()), (0.5, KET1.projector())])
    assert trace_distance(p.unconditioned, maximally_mixed(2)) < 1e-12
    assert trace_distance(effective_density(p), KET0.projector()) < 1e-12


@pytest.mark.parametrize("unconditioned,error", [
    (((1.0, KET0.projector()),), ValidationError),
    (np.eye(2) / 2, ValidationError),
    (maximally_mixed(3), ShapeError),
])
def test_unconditioned_must_be_a_density_of_the_ensemble_dim(unconditioned, error):
    with pytest.raises(error):
        Preparation(ensemble=((1.0, KET0.projector()),),
                    provenance=Provenance(ProvenanceTag.REMOTE_STEERED, (FAR_EVENT,)),
                    label="r", unconditioned=unconditioned)
