"""Command-line front end: solve instances, compare mechanism families,
verify the guarantee suites on random instances, and sweep the bound
constants to CSV.

Exit codes: 0 success, 1 verify-suite failure, 2 any invalid argument or
instance (parse or validation error), an instance too large for the
available memory or an ``--output`` file that cannot be written, 3
precondition error (e.g. payoff-weighted mode without negative
prior-mean utilities, decentralized mode on a joint-prior instance
without --fallback, or a nonpositive payoff in decentralized mode or
compare), 4 LP solver failure; under
``verify`` the offending instance is printed too.
"""

from __future__ import annotations

import csv
import io
import math
import sys

import click
import numpy as np

from . import bounds, centralized, decentralized, oracle
from .instances import (
    format_instance,
    random_independent_system,
    random_joint_system,
    read_instance,
)
from .model import (
    CentralizedMechanism,
    CustomerStrategy,
    DecentralizedMechanism,
    EvaluationReport,
    InputError,
    PreconditionError,
    SolverError,
    SystemModel,
    binary_mechanism,
    require_valid,
)

# Largest K for which sweep runs the centralized LP on the correlated
# generator.  The K locations are interchangeable, so the LP is solved
# over orbits (centralized.orbit_lp): 153 columns and 3 rows at K=8
# instead of 59049 columns and 72 rows.  `sweep correlated --K 2..8`
# runs in about 0.3 s with a 71 MiB peak (2-vCPU x86 VM, fresh
# interpreter), and K=8 gives Th = 1 within 1e-9 at all 25 penalties
# spaced evenly in log from 10 to 1e7.  K=9 solves too (about 0.1 s per
# penalty), but the full LP that is built before the reduction has a
# 90 x 196830 matrix (142 MB) there, and it and the generator's dense
# 3^K joint prior grow more than threefold with each K.
LP_SIZE_CAP = 8


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load(path: str) -> SystemModel:
    system = read_instance(path)
    require_valid(system)
    return system


def _deliver(ctx: click.Context, text: str) -> None:
    output = ctx.obj.get("output")
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        click.echo(text, nl=False)


def _parse_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError:
        raise InputError(f"bad range {text!r}; expected forms like 3 or 2..5") from None
    if lo < 1 or hi < lo:
        raise InputError(f"bad range {text!r}")
    return lo, hi


def _parse_floats(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InputError(f"bad number list {text!r}") from None
    if not values:
        raise InputError(f"empty number list {text!r}")
    if not all(map(math.isfinite, values)):
        raise InputError(f"number list {text!r} holds a NaN or an infinity")
    return values


def _fmt(value: float) -> str:
    return format(value, ".9g")


def _line(name: str, *values: float) -> str:
    return f"{name} = " + " ".join(f"{v:.6f}" for v in values)


def _ratio(th: float, central_th: float) -> float:
    """``th / central_th``, reading 0/0 as 1."""
    if central_th > 0.0:
        return th / central_th
    return 1.0 if th <= 0.0 else float("inf")


def _respond(system: SystemModel, mech: oracle.Mechanism) -> EvaluationReport:
    """Evaluate ``mech`` under the customer's best response to it."""
    return oracle.evaluate(system, mech, oracle.best_response(system, mech))


def _compare(system: SystemModel) -> tuple[
    CentralizedMechanism, EvaluationReport, DecentralizedMechanism, EvaluationReport
]:
    """The optimal centralized mechanism and its decentralized counterpart,
    each with its report: the product composition on an independent prior,
    the single-location fallback under best response on a joint one."""
    central_mech, central = centralized.solve_centralized(system)
    if system.prior_mode == "independent":
        dec_mech, _, dec = decentralized.compose_optimal(system)
    else:
        dec_mech = decentralized.correlated_fallback(system, central_mech)
        dec = _respond(system, dec_mech)
    return central_mech, central, dec_mech, dec


def _centralized_lines(system: SystemModel, mech: CentralizedMechanism) -> list[str]:
    lines = ["mechanism (rows are state tuples, columns signals "
             f"{' '.join(str(s) for s in mech.signals)}):"]
    for flat in range(system.state_count):
        labels = tuple(
            loc.states[i]
            for loc, i in zip(system.locations, system.state_index_matrix[flat])
        )
        row = " ".join(f"{v:.6f}" for v in mech.table[flat])
        lines.append(f"  {'/'.join(labels)}: {row}")
    return lines


def _decentralized_lines(system: SystemModel, mech: DecentralizedMechanism) -> list[str]:
    lines = []
    for loc, part in zip(system.locations, mech.parts):
        lines.append(
            f"location {loc.name} (signals {' '.join(str(s) for s in part.signals)}):"
        )
        for i, state in enumerate(loc.states):
            row = " ".join(f"{v:.6f}" for v in part.table[i])
            lines.append(f"  {state}: {row}")
    return lines


class _Main(click.Group):
    """Command group that reports the library's typed errors as one
    ``error:`` line on stderr and an exit code: 3 for a failed
    precondition, 2 for any other invalid input, for running out of
    memory or for a file that cannot be read or written, 4 for a solver
    failure (followed by the offending instance when ``verify`` attached
    one)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except PreconditionError as err:
            _fail(str(err), 3)
        except InputError as err:
            _fail(str(err), 2)
        except SolverError as err:
            message = f"LP solver failed: {err}"
            if getattr(err, "instance", None) is not None:
                message += "\noffending instance:\n" + format_instance(err.instance)
            _fail(message, 4)
        except MemoryError as err:
            _fail(f"out of memory: {err}", 2)
        except OSError as err:
            _fail(str(err), 2)


@click.group(cls=_Main)
@click.option("--tolerance", type=float, default=1e-7, show_default=True,
              help="Slack tolerance for guarantee checks.")
@click.option("--summary", is_flag=True, help="Suppress mechanism tables.")
@click.option("--output", type=click.Path(dir_okay=False), default=None,
              help="Write the report or CSV to this file instead of stdout.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for randomized suites.")
@click.pass_context
def main(ctx, tolerance, summary, output, seed):
    """Optimal centralized and decentralized signaling for multi-location systems."""
    ctx.obj = {
        "tolerance": tolerance,
        "summary": summary,
        "output": output,
        "seed": seed,
    }


@main.command()
@click.argument("instance", type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice(
    ["centralized", "decentralized", "heterogeneous", "full-info", "no-info"]),
    default="centralized", show_default=True)
@click.option("--fallback", is_flag=True,
              help="On joint-prior instances, run the guaranteed-fraction "
                   "fallback instead of refusing decentralized mode.")
@click.option("--summary", "summary_here", is_flag=True,
              help="Suppress mechanism tables (same as the global flag).")
@click.pass_context
def solve(ctx, instance, mode, fallback, summary_here):
    """Solve one instance and print throughput/value and the mechanism."""
    system = _load(instance)
    lines = [f"mode: {mode}"]
    report: EvaluationReport | None = None  # its T_k line follows the mode's lines
    tables: list[str] = []
    if mode == "centralized":
        mech, report = centralized.solve_centralized(system)
        lines.append(_line("Th", report.throughput))
        tables = _centralized_lines(system, mech)
    elif mode == "decentralized" and system.prior_mode == "joint":
        if not fallback:
            raise PreconditionError(
                "decentralized mode on a joint-prior instance is only a "
                "guaranteed-fraction construction; pass --fallback to run it"
            )
        _, central, mech, fb = _compare(system)
        lines.append(_line("Th_fallback", fb.throughput))
        lines.append(_line("Th_centralized", central.throughput))
        lines.append(_line("guarantee = Th_centralized/K",
                           central.throughput / system.num_locations))
        tables = _decentralized_lines(system, mech)
    elif mode == "decentralized":
        mech, _, report = decentralized.compose_optimal(system)
        lines.append(_line("Th_D", report.throughput))
        lines.append(_line("Th_iso", *(
            float(loc.prior_array() @ part.table[:, 1])
            for loc, part in zip(system.locations, mech.parts)
        )))
        tables = _decentralized_lines(system, mech)
    elif mode == "heterogeneous":
        mech, strategy, value = decentralized.heterogeneous_compose(system)
        report = oracle.evaluate(system, mech, strategy)
        lines.append(_line("Val", value))
        lines.append(_line("Th", report.throughput))
        tables = _decentralized_lines(system, mech)
    else:
        mech = (
            oracle.full_information(system)
            if mode == "full-info"
            else oracle.no_information(system)
        )
        report = _respond(system, mech)
        lines.append(_line("Th", report.throughput))
    if report is not None:
        lines.append(_line("T_k", *report.per_location_throughput))
    if not (ctx.obj["summary"] or summary_here):
        lines += tables
    _deliver(ctx, "\n".join(lines) + "\n")


@main.command()
@click.argument("instance", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
def compare(ctx, instance):
    """CSV comparison of mechanism families on one instance."""
    system = _load(instance)
    k = system.num_locations
    _, central, _, dec = _compare(system)
    rows = [("centralized", central.throughput, "")]
    if system.prior_mode == "independent":
        rows.append(("decentralized", dec.throughput,
                     _fmt(bounds.independence_guarantee(k))))
    else:
        rows.append(("fallback", dec.throughput, _fmt(1.0 / k)))
    for name, mech in (
        ("full-info", oracle.full_information(system)),
        ("no-info", oracle.no_information(system)),
    ):
        rows.append((name, _respond(system, mech).throughput, ""))

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["name", "throughput", "ratio_to_centralized", "guarantee"])
    for name, th, guarantee in rows:
        writer.writerow(
            [name, _fmt(th), _fmt(_ratio(th, central.throughput)), guarantee]
        )
    _deliver(ctx, buffer.getvalue())


@main.command()
@click.argument("suite", type=click.Choice(
    ["independent-bound", "tightness", "correlated-bound", "lemmas"]))
@click.option("--K", "k_range", default="2..4", show_default=True,
              help="Location-count range, e.g. 3 or 2..5.")
@click.option("--X", "x_list", default="2,3,10", show_default=True,
              help="Utility scale list for the tightness suite.")
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--seed", "seed_override", type=int, default=None,
              help="Override the global --seed.")
@click.pass_context
def verify(ctx, suite, k_range, x_list, trials, seed_override):
    """Run a property suite on seeded random instances; exit 1 on failure."""
    tol = ctx.obj["tolerance"]
    if not 0.0 <= tol < math.inf:  # NaN fails too
        raise InputError(f"--tolerance must be finite and nonnegative, got {tol}")
    seed = ctx.obj["seed"] if seed_override is None else seed_override
    k_lo, k_hi = _parse_range(k_range)
    xs = _parse_floats(x_list)
    if suite in ("tightness", "correlated-bound") and k_lo < 2:
        raise InputError(f"the {suite} suite needs at least two locations (--K 2..)")
    if trials < 1:
        raise InputError(f"--trials must be at least 1, got {trials}")

    lines: list[str] = []
    failures: list[str] = []
    suite_ok = True

    def compared(system: SystemModel):
        """``_compare(system)``, with ``system`` attached to a solver failure."""
        try:
            return _compare(system)
        except SolverError as err:
            err.instance = system
            raise

    def check(results: list, slack: float, limit: float, system=None) -> None:
        """Record one slack against ``-limit`` and the first failing instance."""
        results.append((slack >= -limit, slack))
        if slack < -limit and system is not None and not failures:
            failures.append(format_instance(system))

    def record(name: str, results: list[tuple[bool, float]]) -> None:
        nonlocal suite_ok
        passed = sum(1 for ok, _ in results if ok)
        suite_ok = suite_ok and passed == len(results)
        lines.append(f"{name}: {passed}/{len(results)} pass")
        if results:
            worst = min(slack for _, slack in results) + 0.0  # normalize -0.0
            lines.append(f"worst slack: {format(worst, '.9e')}")

    if suite == "independent-bound":
        lines.append(
            f"suite independent-bound seed={seed} trials={trials} "
            f"K={k_range} tolerance={tol:.0e}"
        )
        results = []
        for t in range(trials):
            rng = np.random.default_rng([seed, 1, t])
            system = random_independent_system(rng, (k_lo, k_hi), (2, 3))
            _, central, _, dec = compared(system)
            guarantee = bounds.independence_guarantee(system.num_locations)
            check(results, dec.throughput - guarantee * central.throughput, tol, system)
        record("decentralized >= guarantee * centralized", results)
    elif suite == "tightness":
        lines.append(
            f"suite tightness K={k_range} X={x_list} tolerance={tol:.0e}"
        )
        central_results = []
        closed_results = []
        for k in range(k_lo, k_hi + 1):
            for x in xs:
                inst = bounds.make_tightness_instance(k, x)
                _, central, _, dec = compared(inst.system)
                check(central_results,
                      -abs(central.throughput - inst.predicted_throughput),
                      tol, inst.system)
                check(closed_results,
                      -abs(dec.throughput - inst.predicted_decentralized),
                      1e-6, inst.system)
        record("centralized throughput = 1", central_results)
        record("closed-form decentralized match (1e-06)", closed_results)
    elif suite == "correlated-bound":
        lines.append(
            f"suite correlated-bound seed={seed} trials={trials} "
            f"K={k_range} tolerance={tol:.0e}"
        )
        results = []
        for t in range(trials):
            rng = np.random.default_rng([seed, 2, t])
            k = int(rng.integers(k_lo, k_hi + 1))
            system = random_joint_system(rng, k, 2)
            _, central, _, fb = compared(system)
            check(results, fb.throughput - central.throughput / k, tol, system)
        record("fallback >= centralized / K", results)
    else:  # lemmas
        lines.append(f"suite lemmas seed={seed} trials={trials}")
        product_trials = min(500, trials)
        product_results = []
        for t in range(product_trials):
            rng = np.random.default_rng([seed, 3, t])
            system = random_independent_system(rng, (2, 4), (2, 3))
            probs = [
                rng.uniform(0.0, 1.0, loc.num_states) for loc in system.locations
            ]
            mech = binary_mechanism(probs)
            strategy = _random_join_on_one(rng, system, mech)
            report = oracle.evaluate(system, mech, strategy)
            closed = 1.0
            for loc, p in zip(system.locations, probs):
                closed *= 1.0 - float(np.dot(loc.prior_array(), p))
            check(product_results, -abs(report.throughput - (1.0 - closed)), 1e-9)
        record("product throughput formula (1e-09)", product_results)

        gap_results = []
        for t in range(trials):
            rng = np.random.default_rng([seed, 4, t])
            k = int(rng.integers(2, 7))
            raw = rng.uniform(0.0, 1.0, k)
            shares = raw / raw.sum() * rng.uniform(0.0, 1.0)
            check(gap_results, bounds.union_guarantee_gap(tuple(shares)), 1e-12)
        record("union guarantee gap >= -1e-12", gap_results)

        envelope_results = []
        for k in range(2, 33):
            share = bounds.solve_balanced_share(k)
            value = float(bounds.join_envelope(np.full(k, share)))
            check(envelope_results, -abs(value - k * share), 1e-9)
        record("symmetric envelope (1e-09)", envelope_results)

    if failures:
        lines.append("offending instance:")
        lines.append(failures[0])
    lines.append("RESULT " + ("PASS" if suite_ok else "FAIL"))
    _deliver(ctx, "\n".join(lines) + "\n")
    if not suite_ok:
        sys.exit(1)


def _random_join_on_one(rng, system, mech) -> CustomerStrategy:
    """Random strategy that joins a uniformly drawn location among those
    signaling 1 and leaves only on the all-zero vector."""
    labels = mech.joint_signals
    rows = np.zeros((len(labels), system.num_locations + 1))
    for row, u in enumerate(labels):
        ones = [k for k, bit in enumerate(u) if bit == 1]
        if not ones:
            rows[row, 0] = 1.0
        else:
            rows[row, int(rng.choice(ones)) + 1] = 1.0
    return CustomerStrategy(labels, rows, class_fd=True)


@main.command()
@click.argument("generator", type=click.Choice(["tightness", "correlated"]))
@click.option("--K", "k_range", default="2..4", show_default=True)
@click.option("--X", "x_list", default="1000", show_default=True,
              help="Utility scale (tightness) or penalty (correlated).")
@click.pass_context
def sweep(ctx, generator, k_range, x_list):
    """CSV sweep of computed throughputs against the bound constants."""
    k_lo, k_hi = _parse_range(k_range)
    xs = _parse_floats(x_list)
    if k_lo < 2:
        raise InputError("sweeps need at least two locations (--K 2..)")
    if generator == "tightness" and any(x <= 1.0 for x in xs):
        raise InputError("tightness sweeps need utility scales above 1 (--X)")

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["K", "X", "Th", "Th_D", "ratio", "independence_guarantee",
         "one_over_K", "correlated_upper_bound"]
    )
    for k in range(k_lo, k_hi + 1):
        consts = [
            _fmt(bounds.independence_guarantee(k)),
            _fmt(1.0 / k),
            _fmt(bounds.correlated_upper_bound(k)),
        ]
        if generator == "tightness":
            cases = [(x, bounds.make_tightness_instance(k, x).system) for x in xs]
        elif k <= LP_SIZE_CAP:
            cases = [(x, bounds.make_correlated_instance(k, x)) for x in xs if x > k]
        else:
            cases = []
        if not cases:
            writer.writerow([k, "", "", "", ""] + consts)
        for x, system in cases:
            _, central, _, dec = _compare(system)
            th, th_d = central.throughput, dec.throughput
            writer.writerow([k] + [_fmt(v) for v in (x, th, th_d, _ratio(th_d, th))]
                            + consts)
    _deliver(ctx, buffer.getvalue())


if __name__ == "__main__":
    main()
