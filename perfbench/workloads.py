"""Seeded instances, the sigmech call sequence run on each, and its reference check.

Every operation replays the library calls one CLI command makes on one
instance (``verify``, ``sweep``, ``compare`` or ``solve``).  Checks use
the tolerances of the test suite and look only at an operation's
outputs and the instance, never at sigmech internals.

Instance shapes (location count, states per location) come from a fixed
schedule, so every seed solves LPs of the same sizes; ``--seed`` draws
the priors, utilities and payoffs.  That keeps run-to-run spread down to
what the numbers, not the sizes, do to the solver.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from sigmech import bounds, centralized, decentralized, instances, oracle
from sigmech.model import SystemModel

# Draws the shape schedule; changing it changes every workload.
SHAPE_SEED = 20250417
# Full-info and no-info oracles enumerate states x states signals; cap S.
FULL_INFO_STATE_CAP = 1500
TOL = 1e-7
EXACT_TOL = 1e-9
CLOSED_FORM_TOL = 1e-6


@dataclass
class Instance:
    name: str
    kind: str
    system: SystemModel
    predicted: dict = field(default_factory=dict)
    known_failure: str = ""  # why the instance fails at the seed commit, if it does


def guarantee(num_locations: int) -> float:
    """Independence guarantee 1 - (1 - 1/K)^K, computed here as the reference."""
    return 1.0 - (1.0 - 1.0 / num_locations) ** num_locations


def lp_vars(system: SystemModel) -> int:
    """Variables of the centralized obedience LP: S * (K + 1)."""
    return system.state_count * (system.num_locations + 1)


# -- generation --------------------------------------------------------

def _shapes(stream: int, count: int, k_range: tuple[int, int], n_range: tuple[int, int]):
    rng = np.random.default_rng([SHAPE_SEED, stream])
    out = []
    for _ in range(count):
        k = int(rng.integers(k_range[0], k_range[1] + 1))
        out.append(tuple(int(n) for n in rng.integers(n_range[0], n_range[1] + 1, k)))
    return out


def _independent(rng, sizes, **options) -> SystemModel:
    """Independent system of the given shape, one generated location at a time."""
    locations = []
    for k, n in enumerate(sizes):
        loc = instances.random_independent_system(rng, 1, n, **options).locations[0]
        locations.append(dataclasses.replace(loc, name=f"loc{k + 1}"))
    return SystemModel(tuple(locations))


def _tag(kind: str, t: int, system: SystemModel) -> str:
    return f"{kind}#{t} K={system.num_locations} S={system.state_count}"


def verify_mix(seed: int) -> list[Instance]:
    out = []
    for t, sizes in enumerate(_shapes(1, 200, (2, 5), (2, 3))):
        system = _independent(np.random.default_rng([seed, 1, t]), sizes)
        out.append(Instance(_tag("independent", t, system), "independent", system))
    for t, sizes in enumerate(_shapes(2, 100, (2, 5), (2, 2))):
        rng = np.random.default_rng([seed, 2, t])
        system = instances.random_joint_system(rng, len(sizes), 2)
        out.append(Instance(_tag("joint", t, system), "joint", system))
    for t, sizes in enumerate(_shapes(3, 100, (2, 5), (2, 3))):
        system = _independent(
            np.random.default_rng([seed, 3, t]), sizes,
            require_negative_mean=True, payoff_range=(0.0, 3.0),
        )
        out.append(Instance(_tag("weighted", t, system), "weighted", system))
    return out


def large_lp(seed: int, with_known_failures: bool = False) -> list[Instance]:
    """The sweep ladder; its generators are deterministic, so ``seed`` is unused."""
    out = []
    for k in range(2, 11):
        for x in (10.0, 1000.0):
            if k == 10 and x == 10.0:
                continue
            inst = bounds.make_tightness_instance(k, x)
            out.append(Instance(
                f"tightness K={k} X={x:g}", "tightness", inst.system,
                {"th": inst.predicted_throughput, "th_d": inst.predicted_decentralized},
                "hand simplex returns Th=0.99999988 after about 17 s" if k == 10 else "",
            ))
    for k in range(2, 6):
        for penalty in (k + 1.0, 1000.0):
            system = bounds.make_correlated_instance(k, penalty)
            out.append(Instance(f"correlated K={k} X={penalty:g}", "correlated", system))
    stall = instances.random_independent_system(np.random.default_rng([0, 1, 0]), (6, 6), (2, 3))
    out.append(Instance(
        "stall random_independent_system([0,1,0], K=6)", "independent", stall,
        known_failure="simplex stalls for 60-80 s, then raises SolverError at its pivot cap",
    ))
    return [i for i in out if with_known_failures or not i.known_failure]


def decentral_oracle(seed: int) -> list[Instance]:
    out = []
    for t, sizes in enumerate(_shapes(4, 150, (6, 9), (2, 3))):
        system = _independent(
            np.random.default_rng([seed, 4, t]), sizes,
            require_negative_mean=True, payoff_range=(0.5, 2.0),
        )
        out.append(Instance(_tag("decentral", t, system), "decentral", system))
    for t in range(6):
        system = instances.random_joint_system(np.random.default_rng([seed, 5, t]), 2, 2)
        out.append(Instance(_tag("grid-joint", t, system), "grid-joint", system))
    for t in range(6):
        system = instances.random_independent_system(np.random.default_rng([seed, 6, t]), 2, 3)
        out.append(Instance(_tag("grid-independent", t, system), "grid-independent", system))
    return out


WORKLOADS = {
    "verify-mix": verify_mix,
    "large-lp": large_lp,
    "decentral-oracle": decentral_oracle,
}


# -- operations ----------------------------------------------------------
# Each returns plain numbers for the check.  Module attributes are looked
# up at call time so the traced run's wrappers apply.

def _ones(mech) -> list[np.ndarray]:
    return [np.array(part.table[:, 1]) for part in mech.parts]


def _fallback(system, central_mech) -> float:
    fb = decentralized.correlated_fallback(system, central_mech)
    return oracle.evaluate(system, fb, oracle.best_response(system, fb)).throughput


def op_independent(system, inst):
    _, central = centralized.solve_centralized(system)
    mech, _, dec = decentralized.compose_optimal(system)
    return {"th": central.throughput, "th_d": dec.throughput, "ones": _ones(mech),
            "lp_vars": lp_vars(system)}


def op_joint(system, inst):
    mech, central = centralized.solve_centralized(system)
    return {"th": central.throughput, "fallback": _fallback(system, mech),
            "lp_vars": lp_vars(system)}


def op_weighted(system, inst):
    _, central = centralized.solve_centralized(system, weighted=True)
    mech, strategy, value = decentralized.heterogeneous_compose(system)
    report = oracle.evaluate(system, mech, strategy)
    return {"central_value": central.value, "value": value, "evaluated": report.value,
            "lp_vars": lp_vars(system)}


def op_decentral(system, inst):
    mech, _, dec = decentralized.compose_optimal(system)
    het_mech, strategy, value = decentralized.heterogeneous_compose(system)
    out = {"th_d": dec.throughput, "ones": _ones(mech), "value": value,
           "evaluated": oracle.evaluate(system, het_mech, strategy).value}
    if system.state_count <= FULL_INFO_STATE_CAP:
        for key, make in (("full_info", oracle.full_information),
                          ("no_info", oracle.no_information)):
            baseline = make(system)
            out[key] = oracle.evaluate(
                system, baseline, oracle.best_response(system, baseline)
            ).throughput
    return out


def op_grid_joint(system, inst):
    _, central = centralized.solve_centralized(system)
    _, found = oracle.grid_search_decentralized(system, 0.02)
    return {"th": central.throughput, "grid": found, "lp_vars": lp_vars(system)}


def op_grid_independent(system, inst):
    _, _, dec = decentralized.compose_optimal(system)
    _, found = oracle.grid_search_decentralized(system, 0.1)
    return {"th_d": dec.throughput, "grid": found}


OPERATIONS = {
    "independent": op_independent,
    "joint": op_joint,
    "weighted": op_weighted,
    "tightness": op_independent,
    "correlated": op_joint,
    "decentral": op_decentral,
    "grid-joint": op_grid_joint,
    "grid-independent": op_grid_independent,
}


# -- reference checks ------------------------------------------------------

def _product_misses(inst: Instance, out: dict) -> list[str]:
    """compose_optimal's throughput must equal 1 - prod_k (1 - th_iso_k)."""
    miss = 1.0
    for loc, ones in zip(inst.system.locations, out["ones"]):
        miss *= 1.0 - float(np.dot(loc.prior, ones))
    gap = abs(out["th_d"] - (1.0 - miss))
    return [f"product formula off by {gap:.3g}"] if not gap <= EXACT_TOL else []


def check(inst: Instance, out: dict) -> list[str]:
    """Messages for every reference the outputs miss; empty when they pass."""
    k = inst.system.num_locations
    bad: list[str] = []

    def need(ok: bool, message: str) -> None:
        if not ok:  # also catches NaN
            bad.append(message)

    if inst.kind in ("independent", "tightness"):
        th, th_d = out["th"], out["th_d"]
        need(th >= th_d - TOL, f"Th={th!r} below Th_D={th_d!r}")
        need(th_d >= guarantee(k) * th - TOL, f"Th_D={th_d!r} below g(K)*Th")
        bad += _product_misses(inst, out)
    if inst.kind == "tightness":
        need(abs(out["th"] - inst.predicted["th"]) <= TOL, f"Th={out['th']!r} is not 1")
        need(abs(out["th_d"] - inst.predicted["th_d"]) <= CLOSED_FORM_TOL,
             f"Th_D={out['th_d']!r} misses the closed form {inst.predicted['th_d']!r}")
    if inst.kind in ("joint", "correlated"):
        need(out["fallback"] >= out["th"] / k - TOL,
             f"fallback={out['fallback']!r} below Th/K={out['th'] / k!r}")
    if inst.kind == "correlated":
        need(abs(out["th"] - 1.0) <= TOL, f"Th={out['th']!r} is not 1")
    if inst.kind in ("weighted", "decentral"):
        need(abs(out["value"] - out["evaluated"]) <= EXACT_TOL,
             f"closed-form value {out['value']!r} != evaluated {out['evaluated']!r}")
    if inst.kind == "weighted":
        need(out["value"] >= guarantee(k) * out["central_value"] - TOL,
             f"value={out['value']!r} below g(K)*central value")
    if inst.kind == "decentral":
        bad += _product_misses(inst, out)
        for key in ("full_info", "no_info"):
            if key in out:
                need(out[key] <= out["th_d"] + TOL, f"{key}={out[key]!r} above Th_D")
    if inst.kind == "grid-joint":
        need(out["grid"] <= out["th"] + TOL, f"grid={out['grid']!r} above Th")
    if inst.kind == "grid-independent":
        need(out["grid"] <= out["th_d"] + TOL, f"grid={out['grid']!r} above Th_D")
    return bad


def fresh(system: SystemModel) -> SystemModel:
    """An equal system whose cached tables (joint_vector, ...) start cold."""
    return dataclasses.replace(system)


def tail_index(count: int) -> int:
    """Index into sorted samples of the highest rank with 10 samples beyond it."""
    return max(count - 11, 0)


def tail_percentile(count: int) -> float:
    return 100.0 * (tail_index(count) + 1) / count if count else math.nan
