"""Core domain types for multi-location signaling systems.

A system is a list of service locations, each with a finite state space,
a prior over states, a customer utility per state, and an operator
payoff.  Signaling mechanisms are conditional probability tables over
signals given states; customer strategies are conditional tables over
actions given signals (action 0 means "leave").

State tuples are enumerated in mixed-radix order with the first
location's index varying fastest, and every table in the package
indexes states and joint signals in that order, so solvers and oracles
agree bit-exactly on layouts.  That order is numpy's Fortran order:
:func:`state_indices` lists the tuples, ``np.ravel_multi_index`` and
``np.unravel_index`` with ``order="F"`` convert between tuples and flat
indices, and :func:`kron_rows` multiplies per-location tables out into
joint ones.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

# Stochasticity tolerance for all probability tables.  LP outputs
# accumulate rounding at ~1e-12 per pivot, so 1e-9 is comfortably loose.
PROB_TOL = 1e-9
# Signals with probability at or below this are treated as never sent.
ZERO_MASS = 1e-12
# Dense joint tables above this size are refused.
JOINT_TABLE_LIMIT = 1 << 20


class InputError(ValueError):
    """Bad arguments or malformed instance data."""


class PreconditionError(InputError):
    """A documented operation precondition does not hold."""


class SolverError(RuntimeError):
    """Internal solver failure that should never occur on valid input."""


def joint_index(sizes: Sequence[int], idxs: Sequence[int]) -> int:
    """Flat index of a state tuple, first coordinate fastest."""
    flat = 0
    stride = 1
    for size, idx in zip(sizes, idxs):
        if not 0 <= idx < size:
            raise InputError(f"state index {idx} out of range [0, {size})")
        flat += idx * stride
        stride *= size
    return flat


def state_indices(sizes: Sequence[int]) -> np.ndarray:
    """(prod(sizes), K) int matrix of all index tuples, first coordinate fastest."""
    return np.stack(np.unravel_index(np.arange(math.prod(sizes)), sizes, order="F"), axis=1)


def kron_rows(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Row-by-row Kronecker product of 2-D blocks with equal row counts.

    Row r is ``np.kron(blocks[-1][r], ... np.kron(blocks[1][r], blocks[0][r]))``:
    the first block's columns vary fastest.
    """
    out = blocks[0]
    for block in blocks[1:]:
        out = (block[:, :, None] * out[:, None, :]).reshape(len(out), -1)
    return out


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class LocationModel:
    """One service location: states, prior, customer utility, payoff."""

    name: str
    states: tuple[str, ...]
    prior: tuple[float, ...]
    utility: tuple[float, ...]
    payoff: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(str(s) for s in self.states))
        object.__setattr__(self, "prior", tuple(float(p) for p in self.prior))
        object.__setattr__(self, "utility", tuple(float(h) for h in self.utility))
        object.__setattr__(self, "payoff", float(self.payoff))

    @property
    def num_states(self) -> int:
        return len(self.states)

    def prior_array(self) -> np.ndarray:
        return np.asarray(self.prior, dtype=float)

    def utility_array(self) -> np.ndarray:
        return np.asarray(self.utility, dtype=float)

    def expected_utility(self) -> float:
        return float(np.dot(self.prior_array(), self.utility_array()))


@dataclass(frozen=True)
class SystemModel:
    """A multi-location system with an independent or explicit joint prior.

    ``joint`` is a dense table over all state tuples (mixed-radix order,
    location 1 fastest); ``None`` means the joint prior is the product
    of the locations' marginals.
    """

    locations: tuple[LocationModel, ...]
    joint: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "locations", tuple(self.locations))
        if not self.locations:
            raise InputError("a system needs at least one location")
        if self.joint is not None:
            if self.state_count > JOINT_TABLE_LIMIT:
                raise InputError(
                    f"joint table with {self.state_count} entries exceeds the "
                    f"{JOINT_TABLE_LIMIT}-entry guard"
                )
            object.__setattr__(self, "joint", tuple(float(p) for p in self.joint))

    @property
    def num_locations(self) -> int:
        return len(self.locations)

    @property
    def prior_mode(self) -> str:
        return "independent" if self.joint is None else "joint"

    @property
    def state_sizes(self) -> tuple[int, ...]:
        return tuple(loc.num_states for loc in self.locations)

    @property
    def state_count(self) -> int:
        return math.prod(self.state_sizes)

    @property
    def payoffs(self) -> tuple[float, ...]:
        return tuple(loc.payoff for loc in self.locations)

    def joint_prior(self, state: Sequence[int]) -> float:
        """Probability of one state tuple (indices, one per location)."""
        if len(state) != self.num_locations:
            raise InputError(
                f"state tuple has {len(state)} entries, expected {self.num_locations}"
            )
        flat = joint_index(self.state_sizes, state)
        if self.joint is not None:
            return self.joint[flat]
        out = 1.0
        for loc, idx in zip(self.locations, state):
            out *= loc.prior[idx]
        return out

    @cached_property
    def joint_vector(self) -> np.ndarray:
        """Dense joint prior over all state tuples in mixed-radix order."""
        if self.joint is not None:
            return _readonly(self.joint)
        return _readonly(kron_rows([loc.prior_array()[None] for loc in self.locations])[0])

    @cached_property
    def state_index_matrix(self) -> np.ndarray:
        """(state_count, K) int matrix of per-location state indices."""
        mat = state_indices(self.state_sizes)
        mat.flags.writeable = False
        return mat

    @cached_property
    def location_classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes of interchangeable locations, each in increasing order.

        Two locations are interchangeable when their states, prior,
        utility and payoff are equal and, on a joint prior, swapping them
        leaves ``joint_vector`` exactly unchanged.  A location joins the
        first class whose last member it is interchangeable with, so
        every class's joint prior is invariant under its adjacent swaps,
        which generate all permutations of the class.  Classes are
        ordered by their first member; with no two locations alike every
        class is a singleton.
        """
        tensor = None
        if self.joint is not None:
            tensor = self.joint_vector.reshape(self.state_sizes, order="F")

        def alike(k: int, other: int) -> bool:
            a, b = self.locations[k], self.locations[other]
            if (a.states, a.prior, a.utility, a.payoff) != (b.states, b.prior, b.utility, b.payoff):
                return False
            if tensor is None:
                return True
            swapped = np.swapaxes(tensor, k, other)
            return bool(np.array_equal(tensor, swapped))

        classes: list[list[int]] = []
        for k in range(self.num_locations):
            home = next((members for members in classes if alike(members[-1], k)), None)
            if home is None:
                classes.append([k])
            else:
                home.append(k)
        return tuple(tuple(members) for members in classes)

    @cached_property
    def utility_matrix(self) -> np.ndarray:
        """(state_count, K) matrix with entry (w, k) = h_k(w_k)."""
        cols = [
            loc.utility_array()[self.state_index_matrix[:, k]]
            for k, loc in enumerate(self.locations)
        ]
        return _readonly(np.column_stack(cols))

    def marginal(self, k: int) -> np.ndarray:
        """Marginal of location k computed from the joint prior."""
        index = self.state_index_matrix[:, k]
        return np.bincount(index, self.joint_vector, self.locations[k].num_states)


def joint_prior(system: SystemModel, state: Sequence[int]) -> float:
    """Module-level alias for :meth:`SystemModel.joint_prior`."""
    return system.joint_prior(state)


def validate(system: SystemModel) -> list[str]:
    """Diagnose invariant violations; empty list means the system is valid."""
    problems: list[str] = []
    for k, loc in enumerate(system.locations):
        tag = f"locations[{k}] ({loc.name!r})"
        if loc.num_states == 0:
            problems.append(f"{tag}: empty state list")
            continue
        if len(set(loc.states)) != loc.num_states:
            problems.append(f"{tag}: duplicate state labels")
        if len(loc.prior) != loc.num_states:
            problems.append(
                f"{tag}: prior has {len(loc.prior)} entries for {loc.num_states} states"
            )
            continue
        if len(loc.utility) != loc.num_states:
            problems.append(
                f"{tag}: utility has {len(loc.utility)} entries for {loc.num_states} states"
            )
            continue
        low = min(loc.prior)
        if low < 0.0:
            problems.append(f"{tag}: negative prior entry {low}")
        gap = abs(sum(loc.prior) - 1.0)
        if gap > PROB_TOL:
            problems.append(f"{tag}: prior sums to {sum(loc.prior)} (off by {gap:.3g})")
    if problems:
        return problems

    if system.joint is not None:
        joint = system.joint
        if len(joint) != system.state_count:
            problems.append(
                f"joint table has {len(joint)} entries, expected {system.state_count}"
            )
            return problems
        low = min(joint)
        if low < 0.0:
            problems.append(f"joint table has negative entry {low}")
        gap = abs(sum(joint) - 1.0)
        if gap > PROB_TOL:
            problems.append(f"joint table sums to {sum(joint)} (off by {gap:.3g})")
        for k, loc in enumerate(system.locations):
            diff = float(np.max(np.abs(system.marginal(k) - loc.prior_array())))
            if diff > PROB_TOL:
                problems.append(
                    f"locations[{k}] ({loc.name!r}): joint marginal differs from "
                    f"stored prior by {diff:.3g}"
                )
    return problems


def require_valid(system: SystemModel) -> None:
    """Raise :class:`InputError` listing violations, if any."""
    problems = validate(system)
    if problems:
        raise InputError("invalid system: " + "; ".join(problems))


def _shape_problems(table: np.ndarray, what: str, num_signals: int, signal_axis: int) -> list[str]:
    """A problem unless ``table`` is 2-D with one entry per signal along ``signal_axis``."""
    if table.ndim == 2 and table.shape[signal_axis] == num_signals:
        return []
    return [f"{what}: shape {table.shape} for {num_signals} signals"]


def _row_stochastic_problems(table: np.ndarray, what: str) -> list[str]:
    problems = []
    if table.size == 0:
        return [f"{what}: empty table"]
    low = float(table.min())
    if low < -1e-12:
        problems.append(f"{what}: negative entry {low}")
    gaps = np.abs(table.sum(axis=1) - 1.0)
    worst = float(gaps.max())
    if worst > PROB_TOL:
        problems.append(f"{what}: row sums off by up to {worst:.3g}")
    return problems


@dataclass(frozen=True, eq=False)
class CentralizedMechanism:
    """Conditional signal table sigma(s|w) over the full state space.

    Rows are state tuples in mixed-radix order; columns follow
    ``signals``.  Direct mechanisms use signals (0, 1, ..., K) where
    signal k recommends action k.
    """

    signals: tuple
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "signals", tuple(self.signals))
        table = np.array(self.table, dtype=float)
        # Tiny negative entries are LP rounding; clamp them on the way in.
        table[(table < 0.0) & (table >= -1e-12)] = 0.0
        object.__setattr__(self, "table", _readonly(table))

    @property
    def num_signals(self) -> int:
        return len(self.signals)

    def violations(self) -> list[str]:
        what = "mechanism table"
        shape = _shape_problems(self.table, what, self.num_signals, 1)
        return shape or _row_stochastic_problems(self.table, what)


@dataclass(frozen=True, eq=False)
class LocationSignaling:
    """One location's conditional signal table sigma_k(s_k|w_k)."""

    signals: tuple
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "signals", tuple(self.signals))
        object.__setattr__(self, "table", _readonly(self.table))

    @property
    def is_binary(self) -> bool:
        return self.signals == (0, 1)


@dataclass(frozen=True, eq=False)
class DecentralizedMechanism:
    """Per-location signal tables whose product defines the joint mechanism."""

    parts: tuple[LocationSignaling, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))

    @property
    def num_locations(self) -> int:
        return len(self.parts)

    @property
    def is_binary(self) -> bool:
        return all(part.is_binary for part in self.parts)

    @cached_property
    def joint_signals(self) -> tuple[tuple, ...]:
        """Joint signal labels in mixed-radix order (location 1 fastest)."""
        reversed_labels = itertools.product(*(part.signals for part in self.parts[::-1]))
        return tuple(labels[::-1] for labels in reversed_labels)

    def joint_table(self) -> np.ndarray:
        """Induced sigma(s|w) table over joint states and joint signals."""
        # A plain np.kron fold, apart from kron_rows: the oracle tests use it
        # as their dense reference.
        return reduce(lambda out, part: np.kron(part.table, out), self.parts, np.ones((1, 1)))

    def to_centralized(self) -> CentralizedMechanism:
        return CentralizedMechanism(self.joint_signals, self.joint_table())

    def violations(self) -> list[str]:
        problems = []
        for k, part in enumerate(self.parts):
            what = f"location {k} table"
            shape = _shape_problems(part.table, what, len(part.signals), 1)
            problems += shape or _row_stochastic_problems(part.table, what)
        return problems


def binary_mechanism(signal_one_probs: Sequence[Sequence[float]]) -> DecentralizedMechanism:
    """Build a binary-signal decentralized mechanism from sigma_k(1|w_k) vectors."""
    parts = []
    for probs in signal_one_probs:
        ones = np.asarray(probs, dtype=float)
        parts.append(LocationSignaling((0, 1), np.column_stack([1.0 - ones, ones])))
    return DecentralizedMechanism(tuple(parts))


@dataclass(frozen=True, eq=False)
class CustomerStrategy:
    """Conditional action table f(a|s) with action 0 meaning "leave".

    ``signals`` lists the mechanism's signal labels in the row order of
    ``table``; rows have K+1 columns (leave plus one per location).
    ``class_fd`` marks strategies over binary signal vectors that never
    leave when some location signals 1 and never join a location that
    signaled 0.
    """

    signals: tuple
    table: np.ndarray
    class_fd: bool = False

    def __post_init__(self):
        object.__setattr__(self, "signals", tuple(self.signals))
        object.__setattr__(self, "table", _readonly(self.table))

    @property
    def num_actions(self) -> int:
        return self.table.shape[1]

    def violations(self) -> list[str]:
        shape = _shape_problems(self.table, "strategy table", len(self.signals), 0)
        if shape:
            return shape
        problems = _row_stochastic_problems(self.table, "strategy table")
        if self.class_fd:
            for row, signal in enumerate(self.signals):
                u = tuple(signal)
                if any(u) and self.table[row, 0] > ZERO_MASS:
                    problems.append(f"class-Fd: leaves on nonzero signal {u}")
                for k, bit in enumerate(u):
                    if bit == 0 and self.table[row, k + 1] > ZERO_MASS:
                        problems.append(
                            f"class-Fd: joins location {k} on signal {u} with bit 0"
                        )
        return problems


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    """Throughput, value, and diagnostics for one (mechanism, strategy) pair.

    ``worst_slack`` is the most negative probability-weighted optimality
    gap over (signal, played action) pairs; ``strategy_optimal`` is True
    when it clears -1e-7 (the LP feasibility scale).
    """

    throughput: float
    value: float
    per_location_throughput: tuple[float, ...]
    strategy_optimal: bool
    worst_slack: float
