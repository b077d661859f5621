"""Shared domain types: typed datasets, bitset node subsets, parent constraints, DAGs.

Nodes are dense integer indices. A set of nodes is a :class:`NodeSubset`,
an integer bitmask, which doubles as the key type of every DP table.
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"
SURVIVAL = "survival"

_KINDS = (CONTINUOUS, CATEGORICAL, SURVIVAL)


class StructureError(ValueError):
    """Structurally invalid graph, constraint set, or dataset."""


class NodeSubset(int):
    """An immutable set of node indices stored as a bitmask.

    Subclasses ``int`` so instances hash and compare like the underlying
    mask; raw integer masks and NodeSubsets are interchangeable as dict
    keys. A NodeSubset adds membership, ascending iteration and a readable
    ``repr``. Set algebra is the int's (``|``, ``&``, ``& ~``,
    ``bit_count()``) and returns ints; ``-`` is integer subtraction.
    """

    __slots__ = ()

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "NodeSubset":
        bits = 0
        for i in indices:
            if i < 0:
                raise StructureError(f"negative node index {i}")
            bits |= 1 << i
        return cls(bits)

    def __contains__(self, i: int) -> bool:
        return (self >> i) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        m = int(self)
        while m:
            lsb = m & -m
            yield lsb.bit_length() - 1
            m ^= lsb

    def __repr__(self) -> str:
        return f"NodeSubset({{{', '.join(map(str, self))}}})"


def subsets_up_to(pool: int, d: int) -> Iterator[int]:
    """Every subset of ``pool`` with at most ``d`` members, as a bitmask.

    Ordered by size, and within a size lexicographically by member index
    (``itertools.combinations`` over the ascending members); the empty set
    comes first. These are a node's candidate parent sets when ``pool`` is
    its possible parents and ``d`` the in-degree bound.
    """
    members = list(NodeSubset(pool))
    for size in range(min(d, len(members)) + 1):
        for combo in combinations(members, size):
            mask = 0
            for j in combo:
                mask |= 1 << j
            yield mask


def _is_names(x) -> bool:
    """Whether ``x`` is a list of strings, as a list of column names is."""
    return isinstance(x, list) and all(isinstance(v, str) for v in x)


def _constant(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Range 0 along ``axis``; a constant column's std can round to nonzero."""
    return np.ptp(values, axis=axis) == 0


def _may_parent(parent, child):
    """The parent-kind rule: whether a column of kind ``parent`` may be a
    parent of one of kind ``child``. A survival column is never a parent,
    and a categorical node takes only categorical parents, the only ones its
    multinomial score can condition on. Takes two kinds, or arrays of kinds
    that broadcast to a boolean array."""
    return (parent != SURVIVAL) & ((child != CATEGORICAL) | (parent == CATEGORICAL))


@dataclass(frozen=True)
class Column:
    """One dataset column.

    ``values`` is a float vector for continuous columns, an integer code
    vector for categorical columns (codes in ``0..levels-1``), and an
    ``(n, 2)`` array of (time, status) pairs, at least one of them an
    event, for the survival column.
    """

    name: str
    kind: str
    values: np.ndarray
    levels: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise StructureError(f"unknown column kind {self.kind!r}")
        vals = np.asarray(self.values)
        if self.kind == SURVIVAL:
            if vals.ndim != 2 or vals.shape[1] != 2:
                raise StructureError("survival column needs (n, 2) time/status values")
            if not np.all(vals[:, 0] > 0):
                raise StructureError(f"survival column {self.name!r} has non-positive times")
            if not np.all(np.isin(vals[:, 1], (0.0, 1.0))):
                raise StructureError(f"survival column {self.name!r} has status outside {{0,1}}")
            if not np.any(vals[:, 1] == 1.0):
                raise StructureError(f"survival column {self.name!r} has no event (status = 1)")
        elif vals.ndim != 1:
            raise StructureError(f"column {self.name!r} must be one-dimensional")
        if np.any(~np.isfinite(vals)):
            raise StructureError(f"column {self.name!r} contains missing or non-finite values")
        if self.kind == CATEGORICAL:
            if self.levels is None or self.levels < 2:
                raise StructureError(f"categorical column {self.name!r} needs level_count >= 2")
            if vals.size and (vals.min() < 0 or vals.max() >= self.levels):
                raise StructureError(f"categorical column {self.name!r} has out-of-range codes")
            if np.any(vals != np.round(vals)):
                raise StructureError(f"categorical column {self.name!r} has non-integer codes")
        object.__setattr__(self, "values", vals)


class Dataset:
    """A column-typed data table with no missing values.

    At most one survival column is allowed and it may only ever be a sink
    in any learned network.
    """

    def __init__(self, columns: Sequence[Column]):
        if not columns:
            raise StructureError("dataset needs at least one column")
        n = len(columns[0].values)
        names = set()
        survival = [i for i, c in enumerate(columns) if c.kind == SURVIVAL]
        if len(survival) > 1:
            raise StructureError("at most one survival column is allowed")
        for c in columns:
            if len(c.values) != n:
                raise StructureError(f"column {c.name!r} has {len(c.values)} rows, expected {n}")
            if c.name in names:
                raise StructureError(f"duplicate column name {c.name!r}")
            names.add(c.name)
        self.columns: tuple[Column, ...] = tuple(columns)
        self.n_rows: int = n
        self.survival_index: int | None = survival[0] if survival else None

    @property
    def p(self) -> int:
        return len(self.columns)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def column(self, i: int) -> Column:
        return self.columns[i]

    def index_of(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise StructureError(f"no column named {name!r}")

    def numeric_values(self, i: int) -> np.ndarray:
        """Column as a float regressor. Of a categorical column only a binary
        one is read this way: its codes 0 and 1 are its level-1 indicator.
        One of three or more levels enters as indicator columns
        (``scoring._regressors``), and nothing reads its codes as numbers."""
        c = self.columns[i]
        if c.kind == SURVIVAL:
            raise StructureError("survival column cannot be used as a regressor")
        return c.values.astype(float)

    def restrict(self, indices: Sequence[int]) -> "Dataset":
        """Dataset reduced to the given columns, preserving order."""
        return Dataset([self.columns[i] for i in indices])


@dataclass(frozen=True)
class ParentConstraints:
    """Per-node possible-parent sets plus the derived inverse relation.

    ``pp[i]`` holds the nodes allowed to be direct parents of node ``i``;
    ``po`` is derived so that ``j in pp[i]`` iff ``i in po[j]``.
    """

    pp: tuple[NodeSubset, ...]
    indegree: int
    po: tuple[NodeSubset, ...] = field(init=False)

    def __post_init__(self) -> None:
        p = len(self.pp)
        if self.indegree < 1:
            raise StructureError("indegree must be a positive integer")
        po = [0] * p
        for i, mask in enumerate(self.pp):
            if mask >> p:
                raise StructureError(f"pp[{i}] references a node index out of range")
            if (mask >> i) & 1:
                raise StructureError(f"node {i} lists itself as a possible parent")
            for j in NodeSubset(mask):
                po[j] |= 1 << i
        object.__setattr__(self, "pp", tuple(NodeSubset(m) for m in self.pp))
        object.__setattr__(self, "po", tuple(NodeSubset(m) for m in po))

    @property
    def n_nodes(self) -> int:
        return len(self.pp)

    @classmethod
    def complete(cls, p: int, indegree: int) -> "ParentConstraints":
        """Unconstrained limit: every node may parent every other node."""
        full = (1 << p) - 1
        return cls(tuple(NodeSubset(full & ~(1 << i)) for i in range(p)), indegree)


def find_cycle(parents: Sequence[int]) -> tuple[int, ...] | None:
    """A cycle of a parent-mask vector, or None when it is acyclic.

    The cycle is a node sequence in which each node is a parent of the
    next and the last a parent of the first.
    """
    p = len(parents)
    graph = {}
    for i, m in enumerate(parents):
        m = int(m)
        if m < 0 or m >> p:
            raise StructureError(f"parents[{i}] references a node index out of range")
        graph[i] = NodeSubset(m)
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        return tuple(exc.args[1][:-1])  # the first node is repeated at the end
    return None


def edges(parents: Sequence[int]) -> list[tuple[int, int]]:
    """Directed edges of a parent-mask vector as (parent, child) pairs, sorted."""
    return sorted((par, child) for child, m in enumerate(parents) for par in NodeSubset(m))


def skeleton(parents: Sequence[int]) -> set[tuple[int, int]]:
    """Undirected edge set: ``{min(i,j), max(i,j)}`` for every edge j -> i."""
    return {(min(e), max(e)) for e in edges(parents)}


@dataclass(frozen=True)
class Network:
    """A DAG with per-node parent sets, local scores, and its build order.

    ``ordering`` is the generational construction order that produced the
    network: :meth:`build` checks that it lists every node once, each
    after its parents. ``total_score`` is the exact sum of
    ``local_scores``.
    """

    parents: tuple[NodeSubset, ...]
    local_scores: tuple[float, ...]
    ordering: tuple[int, ...]
    total_score: float

    @classmethod
    def build(
        cls,
        parents: Sequence[int],
        local_scores: Sequence[float],
        ordering: Sequence[int],
    ) -> "Network":
        p, placed = len(parents), 0
        for v in map(int, ordering):
            if not 0 <= v < p or placed >> v & 1 or int(parents[v]) & ~placed:
                break
            placed |= 1 << v
        if len(ordering) != p or placed != (1 << p) - 1:
            cycle = find_cycle(parents)  # only a failed check pays for the search
            if cycle is not None:
                raise StructureError(f"network contains a cycle: {cycle}")
            raise StructureError(
                f"ordering {tuple(ordering)} is not each of the {p} nodes once, after its parents"
            )
        total = 0.0
        for s in local_scores:
            total += s
        return cls(
            parents=tuple(NodeSubset(m) for m in parents),
            local_scores=tuple(float(s) for s in local_scores),
            ordering=tuple(ordering),
            total_score=total,
        )

    @property
    def n_nodes(self) -> int:
        return len(self.parents)

    def edges(self) -> list[tuple[int, int]]:
        """Directed edges as (parent, child) pairs, sorted."""
        return edges(self.parents)

    def skeleton(self) -> set[tuple[int, int]]:
        return skeleton(self.parents)

    def check_constraints(self, constraints: ParentConstraints) -> None:
        for i, mask in enumerate(self.parents):
            if mask & ~constraints.pp[i]:
                raise StructureError(f"node {i} has parents outside its possible-parent set")
            if mask.bit_count() > constraints.indegree:
                raise StructureError(f"node {i} exceeds the in-degree bound")
