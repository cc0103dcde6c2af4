"""Guarantee constants, root solvers, and worst-case instance generators.

The constants relate optimal decentralized throughput to optimal
centralized throughput: independent systems lose at most a factor
1 - (1 - 1/K)^K, correlated systems at most 1/K, and the correlated
factor cannot beat (1 + K z)/(1 + K) where z solves z = (1-z)^(K-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import InputError, LocationModel, SystemModel, require_joint_size
from .oracle import GRID_CANDIDATE_LIMIT, _grid_values, _location_combos


def independence_guarantee(num_locations: int) -> float:
    """1 - (1 - 1/K)^K: guaranteed decentralized share of the centralized
    throughput when location states are independent.

    Evaluated through exp/log so it stays accurate for very large K,
    where it decreases toward 1 - 1/e.
    """
    k = int(num_locations)
    if k < 1:
        raise InputError(f"need at least one location, got {num_locations}")
    if k == 1:
        return 1.0
    return -math.expm1(k * math.log1p(-1.0 / k))


def union_guarantee_gap(shares: Sequence[float]) -> float:
    """(1 - prod(1 - x_k)) - guarantee * sum(x_k) for x in [0,1]^K, sum <= 1.

    The gap is nonnegative up to rounding; equality holds at the uniform
    vector (1/K, ..., 1/K) and at zero.
    """
    xs = [float(v) for v in shares]
    if not xs:
        raise InputError("need at least one share")
    for v in xs:
        if not 0.0 <= v <= 1.0:
            raise InputError(f"share {v} outside [0, 1]")
    total = sum(xs)
    if total > 1.0 + 1e-12:
        raise InputError(f"shares sum to {total}, above 1")
    miss = 1.0
    for v in xs:
        miss *= 1.0 - v
    return (1.0 - miss) - independence_guarantee(len(xs)) * total


def solve_balanced_share(num_locations: int) -> float:
    """Unique z in [0, 1] with z = (1 - z)^(K - 1), by bisection.

    The residual z - (1 - z)^(K - 1) is strictly increasing, so plain
    bisection is exact to machine precision.
    """
    k = int(num_locations)
    if k < 2:
        raise InputError(f"need at least two locations, got {num_locations}")

    def residual(z: float) -> float:
        return z - (1.0 - z) ** (k - 1)

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = residual(mid)
        if val == 0.0:
            return mid
        if val < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def correlated_upper_bound(num_locations: int) -> float:
    """(1 + K z) / (1 + K) with z the balanced share: no decentralized
    mechanism on the correlated worst-case instance can beat this share
    of the centralized throughput."""
    k = int(num_locations)
    if k < 2:
        raise InputError(f"need at least two locations, got {num_locations}")
    return (1.0 + k * solve_balanced_share(k)) / (1.0 + k)


def join_envelope(profiles: np.ndarray) -> np.ndarray:
    """sum_k min(u_k, (1 - mean of the other u)^(K-1)) for each profile.

    ``profiles`` has the K shares on its last axis; the result drops it.
    """
    profiles = np.asarray(profiles, dtype=float)
    k = profiles.shape[-1]
    totals = profiles.sum(axis=-1)
    score = np.zeros(totals.shape)
    for j in range(k):
        base = np.maximum(1.0 - (totals - profiles[..., j]) / (k - 1), 0.0)
        score += np.minimum(profiles[..., j], base ** (k - 1))
    return score


def max_join_bound(
    num_locations: int, resolution: float = 0.01
) -> tuple[tuple[float, ...], float]:
    """Maximize :func:`join_envelope` over the grid {0, resolution, ..., 1}^K.

    A brute-force reference for K <= 4 and at most
    ``oracle.GRID_CANDIDATE_LIMIT`` points, checked before any grid is
    built.  The symmetric reduction max{K z : z <= (1-z)^(K-1)} needs no
    grid: its optimum is K times :func:`solve_balanced_share`.  Returns
    (maximizer, value).
    """
    k = int(num_locations)
    if k < 2:
        raise InputError(f"need at least two locations, got {num_locations}")
    if not 0.0 < resolution <= 0.5:
        raise InputError(f"resolution must lie in (0, 0.5], got {resolution}")
    if k > 4:
        raise InputError("the join-envelope grid is capped at 4 locations")
    values = _grid_values(resolution)
    if len(values) ** k > GRID_CANDIDATE_LIMIT:
        raise InputError(
            f"the join-envelope grid scores at most {GRID_CANDIDATE_LIMIT} candidates, "
            f"got {len(values) ** k} at resolution {resolution}"
        )

    grid = _location_combos(values, k)
    score = join_envelope(grid)
    arg = int(np.argmax(score))
    return tuple(float(v) for v in grid[arg]), float(score[arg])


@dataclass(frozen=True)
class TightnessInstance:
    """Independent instance on which the guarantee constant is attained
    in the limit, with its predicted optimal throughputs attached."""

    system: SystemModel
    good_state_prior: float
    predicted_throughput: float
    predicted_decentralized: float


def make_tightness_instance(num_locations: int, good_utility: float) -> TightnessInstance:
    """Binary-state independent instance with centralized throughput 1.

    Each location is good (utility ``good_utility``) with the critical
    prior p = 1 - (X/(X+1))^(1/K) and bad (utility -1) otherwise.  The
    optimal decentralized throughput is 1 - (1 - p(X+1))^K, which
    approaches the guarantee constant as ``good_utility`` grows.
    """
    k = int(num_locations)
    x = float(good_utility)
    if k < 2:
        raise InputError(f"need at least two locations, got {num_locations}")
    if not 1.0 < x < math.inf:  # NaN fails too
        raise InputError(f"good-state utility must be finite and exceed 1, got {good_utility}")
    # 1 - (x/(x+1))**(1/k) without the cancellation at large x.
    p_star = -math.expm1(math.log1p(-1.0 / (x + 1.0)) / k)
    locations = tuple(
        LocationModel(
            name=f"loc{i + 1}",
            states=("bad", "good"),
            prior=(1.0 - p_star, p_star),
            utility=(-1.0, x),
        )
        for i in range(k)
    )
    predicted = -math.expm1(k * math.log1p(-p_star * (x + 1.0)))
    return TightnessInstance(
        system=SystemModel(locations),
        good_state_prior=p_star,
        predicted_throughput=1.0,
        predicted_decentralized=predicted,
    )


def make_correlated_instance(num_locations: int, penalty: float) -> SystemModel:
    """Correlated instance on which decentralization loses almost 1/K.

    States are good/ok/bad with utilities (K, -1, -penalty).  With
    probability 1/(K+1) one uniformly chosen location is good and the
    rest ok; otherwise one uniformly chosen location is ok and the rest
    bad.  ``penalty`` stands in for an unboundedly bad state and must
    exceed K, which keeps the centralized throughput at 1.
    """
    k = int(num_locations)
    x = float(penalty)
    if k < 2:
        raise InputError(f"need at least two locations, got {num_locations}")
    if not k < x < math.inf:  # NaN fails too
        raise InputError(
            f"penalty must be finite and exceed the location count {k}, got {penalty}"
        )
    require_joint_size((3,) * k)

    good = 1.0 / (k * (k + 1.0))
    ok = (2.0 * k - 1.0) / (k * (k + 1.0))
    bad = (k - 1.0) / (k + 1.0)
    locations = tuple(
        LocationModel(
            name=f"loc{i + 1}",
            states=("good", "ok", "bad"),
            prior=(good, ok, bad),
            utility=(float(k), -1.0, -x),
        )
        for i in range(k)
    )
    sizes = (3,) * k
    table = np.zeros(3 ** k)
    for spot in range(k):
        one_good = [1] * k
        one_good[spot] = 0
        table[np.ravel_multi_index(one_good, sizes, order="F")] = 1.0 / (k * (k + 1.0))
        one_ok = [2] * k
        one_ok[spot] = 1
        table[np.ravel_multi_index(one_ok, sizes, order="F")] = 1.0 / (k + 1.0)
    return SystemModel(locations, joint=tuple(table))
