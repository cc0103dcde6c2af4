"""Guarantee constants, root solver, envelope grid, and instance generators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmech import bounds
from sigmech.bounds import (
    correlated_upper_bound,
    independence_guarantee,
    join_envelope,
    make_correlated_instance,
    make_tightness_instance,
    max_join_bound,
    solve_balanced_share,
    union_guarantee_gap,
)
from sigmech.centralized import solve_centralized
from sigmech.decentralized import compose_optimal
from sigmech.model import InputError, validate
from sigmech.oracle import grid_search_decentralized


def test_guarantee_reference_values():
    assert independence_guarantee(1) == 1.0
    assert independence_guarantee(2) == pytest.approx(0.75, abs=1e-12)
    assert independence_guarantee(3) == pytest.approx(19.0 / 27.0, abs=1e-12)
    assert independence_guarantee(10**6) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-6)
    with pytest.raises(InputError):
        independence_guarantee(0)


def test_guarantee_decreasing_and_bounded_below():
    ks = list(range(1, 101)) + [200, 500, 1000, 5000, 10000]
    values = [independence_guarantee(k) for k in ks]
    floor = 1.0 - math.exp(-1.0)
    for previous, current in zip(values, values[1:]):
        assert current < previous + 1e-15
    assert all(v >= floor - 1e-12 for v in values)


def test_union_gap_reference_values():
    assert union_guarantee_gap((0.5, 0.1)) == pytest.approx(0.10, abs=1e-12)
    assert abs(union_guarantee_gap((0.25,) * 4)) <= 1e-12
    assert union_guarantee_gap((0.0, 0.0, 0.0)) == 0.0
    with pytest.raises(InputError):
        union_guarantee_gap((0.8, 0.4))
    with pytest.raises(InputError):
        union_guarantee_gap((1.2,))
    with pytest.raises(InputError):
        union_guarantee_gap(())
    for shares in ((float("nan"),), (0.5, float("nan"))):
        with pytest.raises(InputError):
            union_guarantee_gap(shares)


@settings(max_examples=200, deadline=None)
@given(
    raw=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    scale=st.floats(0.0, 1.0),
)
def test_union_gap_nonnegative(raw, scale):
    total = sum(raw)
    shares = [v / total * scale for v in raw] if total > 0 else [0.0] * len(raw)
    assert union_guarantee_gap(shares) >= -1e-12


def test_union_gap_nonnegative_bulk():
    rng = np.random.default_rng(41)
    for k in range(2, 7):
        raw = rng.uniform(0.0, 1.0, (10_000, k))
        shares = raw / raw.sum(axis=1, keepdims=True) * rng.uniform(
            0.0, 1.0, (10_000, 1)
        )
        for row in shares:
            assert union_guarantee_gap(tuple(row)) >= -1e-12


def test_balanced_share_reference_values():
    assert solve_balanced_share(2) == 0.5
    assert solve_balanced_share(3) == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-12)
    with pytest.raises(InputError):
        solve_balanced_share(1)


def test_balanced_share_residuals_tiny():
    for k in range(2, 129):
        z = solve_balanced_share(k)
        assert abs(z - (1.0 - z) ** (k - 1)) <= 1e-12


def test_correlated_upper_bound_values_and_decay():
    assert correlated_upper_bound(2) == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert correlated_upper_bound(10) == pytest.approx(0.2507, abs=1.5e-2)
    assert correlated_upper_bound(100) == pytest.approx(0.043, abs=1.5e-2)
    k = 2
    while k <= 2**16:
        assert correlated_upper_bound(2 * k) < correlated_upper_bound(k)
        k *= 2


def test_max_join_bound_pair_grid():
    profile, value = max_join_bound(2, 0.01)
    assert value == pytest.approx(1.0, abs=1e-9)
    assert len(profile) == 2


def test_join_envelope_at_the_balanced_profile_is_k_times_the_share():
    for k in range(2, 33):
        share = solve_balanced_share(k)
        assert float(join_envelope(np.full(k, share))) == pytest.approx(k * share, abs=1e-12)
    # each share is capped by what the others leave: (0.8, 0.8) scores 0.2 + 0.2
    assert join_envelope(np.array([[0.5, 0.5], [0.8, 0.8]])) == pytest.approx([1.0, 0.4])


def test_max_join_bound_full_grid_agrees_with_symmetric():
    for k, resolution in ((2, 0.01), (3, 0.01), (4, 0.05)):
        profile, full = max_join_bound(k, resolution)
        assert abs(full - k * solve_balanced_share(k)) <= k * resolution
        assert float(join_envelope(np.array(profile))) == full


def test_max_join_bound_zero_profile_scores_zero():
    # the objective at the all-zero profile: sum_k min(0, 1) = 0
    k = 3
    zero = np.zeros(k)
    value = sum(
        min(zero[j], (1.0 - (zero.sum() - zero[j]) / (k - 1)) ** (k - 1))
        for j in range(k)
    )
    assert value == 0.0
    _, best = max_join_bound(k, 0.5)
    assert best >= value


def test_max_join_bound_input_errors():
    with pytest.raises(InputError):
        max_join_bound(2, 0.0)
    with pytest.raises(InputError):
        max_join_bound(2, 0.6)
    with pytest.raises(InputError):
        max_join_bound(5, 0.1)
    with pytest.raises(InputError):
        max_join_bound(1, 0.1)


def test_max_join_bound_refuses_a_full_grid_above_the_candidate_limit(monkeypatch):
    # At resolution 0.001 the first of the four 1001^4 grid arrays alone
    # would take 7.31 TiB; at the default 0.01 the grid takes several GiB.
    def no_grid(*args):
        raise AssertionError("a grid was built before the guard")

    monkeypatch.setattr(bounds, "_location_combos", no_grid)
    with pytest.raises(InputError, match="1004006004001 at resolution 0.001"):
        max_join_bound(4, 0.001)
    with pytest.raises(InputError, match="104060401 at resolution 0.01"):
        max_join_bound(4)


def test_tightness_instance_reference_values():
    inst = make_tightness_instance(2, 3.0)
    assert validate(inst.system) == []
    assert inst.good_state_prior == pytest.approx(0.1339746, abs=1e-6)
    assert inst.predicted_decentralized == pytest.approx(0.7846097, abs=1e-6)
    with pytest.raises(InputError):
        make_tightness_instance(2, 1.0)
    with pytest.raises(InputError):
        make_tightness_instance(1, 3.0)


def test_generators_refuse_a_non_finite_scale():
    # NaN passed the old `x <= limit` guards; inf passed them too.
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError, match="finite"):
            make_tightness_instance(2, x)
        with pytest.raises(InputError, match="finite"):
            make_correlated_instance(2, x)


def test_tightness_prior_stable_at_huge_scale():
    inst = make_tightness_instance(2, 1e6)
    p = inst.good_state_prior
    assert 0.0 < p < 1e-5
    # composition ratio approaches the guarantee constant from above
    assert inst.predicted_decentralized <= 1.0 - (1.0 - 1.0001 / 2.0) ** 2
    assert inst.predicted_decentralized >= independence_guarantee(2)


def test_tightness_instances_match_closed_form():
    for k in range(2, 7):
        for x in (2.0, 3.0, 10.0, 100.0):
            inst = make_tightness_instance(k, x)
            _, _, report = compose_optimal(inst.system)
            assert abs(report.throughput - inst.predicted_decentralized) <= 1e-6


def test_tightness_centralized_three_locations():
    for k in (3, 5, 6):
        inst = make_tightness_instance(k, 3.0)
        _, report = solve_centralized(inst.system)
        assert report.throughput == pytest.approx(1.0, abs=1e-7)


def test_correlated_instance_structure():
    system = make_correlated_instance(3, 10.0)
    assert validate(system) == []
    masses = sorted(v for v in system.joint if v > 0)
    assert masses == pytest.approx([1 / 12] * 3 + [1 / 4] * 3, abs=1e-15)
    with pytest.raises(InputError):
        make_correlated_instance(2, 2.0)
    with pytest.raises(InputError):
        make_correlated_instance(1, 10.0)


def test_correlated_instance_centralized_throughput_is_one():
    system = make_correlated_instance(2, 10.0)
    _, report = solve_centralized(system)
    assert report.throughput == pytest.approx(1.0, abs=1e-7)


def test_correlated_instance_grid_respects_upper_bound():
    # Empirical check only: the finite penalty softens the worst case, and
    # exploratory runs at resolutions 0.05 and 0.1 both top out at 2/3.
    system = make_correlated_instance(2, 10.0)
    _, found = grid_search_decentralized(system, 0.1)
    assert found <= correlated_upper_bound(2) + 0.01
