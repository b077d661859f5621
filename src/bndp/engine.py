"""Dynamic programming over generational orderings.

A subset of nodes is reachable when it can be built one node at a time,
each added node having at least one possible parent already in the set.
The search sweeps reachable subsets by cardinality, records best sinks,
and recovers every optimal network by peeling sinks. Its inner step, the
best parent set of s within ``pp[s] & (W - s)``, is a first-fit lookup
in s's score-sorted parent sets (:class:`BestParentsTable` states the tie
rule; the report's ``n_pools`` counts the pools it scored). An
order-based exhaustive oracle over at most six nodes backs the tests.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from itertools import permutations
from typing import Iterator

from .assoc import ScreenOptions, build_constraints
from .core import Dataset, Network, NodeSubset, ParentConstraints, subsets_up_to
from .scoring import (
    NEG_INF,
    LocalScoreTable,
    ScoreConfig,
    compute_local_scores,
)

TIE_EPS = 1e-9
DEFAULT_MAX_SUBSETS = 2_000_000


class EngineError(RuntimeError):
    """Search failed: inconsistent tables or exceeded resource caps."""


def _close(a: float, b: float) -> bool:
    """Score equality within the relative tie tolerance."""
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= TIE_EPS * max(1.0, abs(a), abs(b))


def _best_subsets_in_pool(
    table: dict[int, float], pool: int, d: int
) -> tuple[float, list[int]]:
    """Direct enumeration of the best parent subsets within a pool."""
    candidates = subsets_up_to(pool, d)
    empty = next(candidates)  # the empty set comes first
    best, acc = table[empty], [empty]
    for g in candidates:
        score = table[g]
        if score > best and not _close(score, best):
            best, acc = score, [g]
        elif _close(score, best):
            acc.append(g)
    return best, acc


class BestParentsTable:
    """Best parent sets of each node within any pool of its possible parents.

    Each node's parent sets are sorted once by score, best first. The best
    score within a pool U is that of the first listed set g that fits,
    ``g & ~U == 0`` (Yuan & Malone 2013, JAIR; Teyssier & Koller 2005, UAI).
    Tie rule: the best sets within U are the maximum and every fitting set
    within ``TIE_EPS`` of it, whatever the order of the list. They are found
    by scanning on from the first fit and returned in ascending order.
    Scores and tie sets are memoised per node and pool; :meth:`pool_count`
    counts the pools scored.
    """

    def __init__(self, local: LocalScoreTable, constraints: ParentConstraints):
        if local.n_nodes != constraints.n_nodes:
            raise EngineError("local-score table and constraints disagree on node count")
        self._pp = [int(m) for m in constraints.pp]
        self._ranked = [
            sorted(local.subsets(i).items(), key=lambda kv: -kv[1]) for i in range(local.n_nodes)
        ]
        self._pools: list[dict[int, float]] = [{} for _ in self._pp]
        self._ties: list[dict[int, tuple[int, ...]]] = [{} for _ in self._pp]

    def _first_fit(self, node: int, pool: int) -> int:
        """Index of the first listed set of ``node`` inside ``pool``; the empty set fits any."""
        if pool & ~self._pp[node]:
            raise EngineError(f"pool outside the possible parents of node {node}")
        outside = ~pool
        for k, (g, _) in enumerate(self._ranked[node]):
            if not g & outside:
                return k

    def score(self, node: int, pool: int) -> float:
        hit = self._pools[node].get(pool)
        if hit is None:
            hit = self._ranked[node][self._first_fit(node, pool)][1]
            self._pools[node][pool] = hit
        return hit

    def best_subsets(self, node: int, pool: int) -> tuple[int, ...]:
        hit = self._ties[node].get(pool)
        if hit is None:
            ranked = self._ranked[node]
            k = self._first_fit(node, pool)
            best, acc = ranked[k][1], []
            for g, score in ranked[k:]:
                if not _close(score, best):
                    break
                if not g & ~pool:
                    acc.append(g)
            hit = tuple(sorted(acc))
            self._ties[node][pool] = hit
        return hit

    def pool_count(self) -> int:
        return sum(len(t) for t in self._pools)


def best_parents(
    local: LocalScoreTable, constraints: ParentConstraints
) -> BestParentsTable:
    """Build the best-parents table for all feasible-set nodes."""
    return BestParentsTable(local, constraints)


@dataclass
class BestSinkTable:
    """Best score and best sinks for every reachable subset.

    ``maximal`` lists the reachable subsets that no node can extend, in
    sweep order.
    """

    entries: dict[int, tuple[float, tuple[int, ...]]]
    maximal: list[int]

    @property
    def n_subsets(self) -> int:
        return len(self.entries)

    def score(self, mask: int) -> float:
        return self.entries[mask][0]

    def sinks(self, mask: int) -> tuple[int, ...]:
        return self.entries[mask][1]


def best_sinks(
    bpt: BestParentsTable,
    constraints: ParentConstraints,
    local: LocalScoreTable,
    max_subsets: int | None = DEFAULT_MAX_SUBSETS,
) -> BestSinkTable:
    """Sweep reachable subsets in cardinality order recording best sinks.

    Level one is all singletons; each later level extends a reachable
    subset by one node that has a possible parent inside it. A node s is
    admissible as the sink of W when W minus s is itself reachable and
    contains a possible parent of s (singletons score their empty-parent
    local score). Subsets with no such extension are recorded as
    maximal.
    """
    p = constraints.n_nodes
    pp = [int(m) for m in constraints.pp]
    po = [int(m) for m in constraints.po]
    entries: dict[int, tuple[float, tuple[int, ...]]] = {}
    maximal: list[int] = []
    pools = bpt._pools
    score_fn = bpt.score
    entries_get = entries.get

    level: list[int] = []
    for v in range(p):
        w = 1 << v
        entries[w] = (local.empty_score(v), (v,))
        level.append(w)
    total = p

    while level:
        nxt: set[int] = set()
        nxt_add = nxt.add
        for w in level:
            multi = w & (w - 1)  # more than one member
            best = NEG_INF
            sinks: list[int] = []
            po_acc = 0
            m = w
            while m:
                lsb = m & -m
                s = lsb.bit_length() - 1
                m ^= lsb
                po_acc |= po[s]
                if not multi:
                    continue
                prev = w ^ lsb
                pool = pp[s] & prev
                if not pool:
                    continue
                prev_entry = entries_get(prev)
                if prev_entry is None:
                    continue
                cached = pools[s].get(pool)
                if cached is None:
                    cached = score_fn(s, pool)
                score = prev_entry[0] + cached
                # inline tie handling, same semantics as _close
                if score == best:
                    sinks.append(s)
                elif score > best:
                    if best != NEG_INF and score - best <= TIE_EPS * max(
                        1.0, abs(score), abs(best)
                    ):
                        sinks.append(s)
                    else:
                        best = score
                        sinks = [s]
                elif best != NEG_INF and best - score <= TIE_EPS * max(
                    1.0, abs(score), abs(best)
                ):
                    sinks.append(s)
            if multi:
                if not sinks:
                    raise EngineError(f"no admissible sink for reachable subset {w:#x}")
                entries[w] = (best, tuple(sinks))
            cands = po_acc & ~w
            if not cands:
                maximal.append(w)
            while cands:
                lsb = cands & -cands
                nxt_add(w | lsb)
                cands ^= lsb
        if not nxt:
            break
        total += len(nxt)
        if max_subsets is not None and total > max_subsets:
            raise EngineError(
                f"reachable-subset count exceeded the cap ({max_subsets}); "
                "use a stricter screening cutoff or raise max_subsets"
            )
        level = sorted(nxt)
    return BestSinkTable(entries, maximal)


@dataclass
class RecoveryResult:
    networks: list[Network]
    truncated: bool
    covered: tuple[int, ...] = field(default_factory=tuple)  # chosen subset masks


def recover_networks(
    bst: BestSinkTable,
    bpt: BestParentsTable,
    constraints: ParentConstraints,
    local: LocalScoreTable,
    cap: int = 32,
) -> RecoveryResult:
    """Peel best sinks into reverse orderings and assign best parents.

    Starts from the full feasible set when it is reachable. Otherwise
    the maximal reachable subsets are packed greedily by score gain into
    a disjoint cover; uncovered nodes keep empty parent sets. The greedy
    cover is a heuristic, not an exact max-weight packing: another
    disjoint set of reachable subsets can score higher. All distinct
    optimal networks of the chosen cover are emitted up to ``cap``, with
    a truncation flag when the cap is hit.
    """
    p = constraints.n_nodes
    pp = [int(m) for m in constraints.pp]
    full = (1 << p) - 1

    if full in bst.entries:
        chosen = [full]
    else:
        ranked = []
        for w in bst.maximal:
            base = 0.0
            for v in NodeSubset(w):
                base += local.empty_score(v)
            gain = bst.entries[w][0] - base
            if math.isnan(gain):
                gain = 0.0
            ranked.append((-gain, -w.bit_count(), w))
        ranked.sort()
        used = 0
        chosen = []
        for _, _, w in ranked:
            if w & used:
                continue
            chosen.append(w)
            used |= w

    isolated = full
    for w in chosen:
        isolated &= ~w

    def orderings(mask: int) -> Iterator[tuple[list[int], list[tuple[int, int]]]]:
        """Yield (ordering, [(node, parent mask)]) choices for a subset."""
        if mask == 0:
            yield [], []
            return
        score, sinks = bst.entries[mask]
        for s in sinks:
            prev = mask ^ (1 << s)
            pool = pp[s] & prev
            for parent_mask in bpt.best_subsets(s, pool):
                for order, assign in orderings(prev):
                    yield order + [s], assign + [(s, parent_mask)]

    def all_covers() -> Iterator[tuple[list[int], list[tuple[int, int]]]]:
        def rec(k: int) -> Iterator[tuple[list[int], list[tuple[int, int]]]]:
            if k == len(chosen):
                yield [], []
                return
            for order, assign in orderings(chosen[k]):
                for rest_order, rest_assign in rec(k + 1):
                    yield order + rest_order, assign + rest_assign

        return rec(0)

    networks: dict[tuple[int, ...], Network] = {}
    truncated = False
    for order, assign in all_covers():
        parents = [0] * p
        for node, mask in assign:
            parents[node] = mask
        key = tuple(parents)
        if key in networks:
            continue
        if len(networks) >= cap:
            truncated = True
            break
        ordering = order + sorted(NodeSubset(isolated))
        scores = [local.score(v, parents[v]) for v in range(p)]
        net = Network.build(parents, scores, ordering)
        net.check_constraints(constraints)
        networks[key] = net
    del orderings  # a recursive closure is a reference cycle that would keep bst and bpt alive
    return RecoveryResult(list(networks.values()), truncated, tuple(chosen))


@dataclass
class LearnResult:
    networks: list[Network]
    report: dict
    data: Dataset
    constraints: ParentConstraints
    truncated: bool


def learn(
    data: Dataset,
    screen_opts: ScreenOptions,
    score_cfg: ScoreConfig,
    indegree: int,
    optima_cap: int = 32,
    max_subsets: int | None = DEFAULT_MAX_SUBSETS,
) -> LearnResult:
    """End-to-end search: screen, score, sweep, recover.

    The report records feasible-set membership, table sizes, the
    reachable-subset count, and wall time per stage.
    """
    report: dict = {}
    caught: list[str] = []

    def _stage(name: str):
        return _StageTimer(name, report)

    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        with _stage("screen"):
            constraints, reduced = build_constraints(data, screen_opts, indegree)
        with _stage("local_scores"):
            local = compute_local_scores(reduced, constraints, score_cfg)
        with _stage("best_parents"):
            bpt = best_parents(local, constraints)
        with _stage("best_sinks"):
            bst = best_sinks(bpt, constraints, local, max_subsets=max_subsets)
        with _stage("recover"):
            recovery = recover_networks(bst, bpt, constraints, local, cap=optima_cap)
        caught = [str(w.message) for w in rec]

    report.update(
        {
            "feas_set_size": reduced.p,
            "feas_names": list(reduced.names),
            "indegree": indegree,
            "score_family": score_cfg.family,
            "n_local_entries": local.entry_count(),
            "n_pools": bpt.pool_count(),
            "n_reachable_subsets": bst.n_subsets,
            "n_networks": len(recovery.networks),
            "optimal_score": recovery.networks[0].total_score if recovery.networks else None,
            "truncated": recovery.truncated,
            "covered_subsets": [list(NodeSubset(m)) for m in recovery.covered],
            "warnings": caught,
        }
    )
    return LearnResult(recovery.networks, report, reduced, constraints, recovery.truncated)


class _StageTimer:
    def __init__(self, name: str, report: dict):
        self.name = name
        self.report = report

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        ms = (time.perf_counter() - self.t0) * 1000.0
        self.report.setdefault("stage_ms", {})[self.name] = round(ms, 3)
        if exc is not None and exc.args:
            exc.args = (f"{self.name}: {exc.args[0]}",) + exc.args[1:]
        return False


@dataclass
class ExhaustiveResult:
    networks: list[Network]
    optimal_score: float | None
    truncated: bool = False


def exhaustive_search(
    data: Dataset,
    score_cfg: ScoreConfig,
    indegree: int,
    constraints: ParentConstraints | None = None,
    generational_only: bool = False,
    max_optima: int = 512,
) -> ExhaustiveResult:
    """Test oracle: optimal networks by enumeration of all node orders.

    Every DAG is consistent with some order, and for a fixed order the
    nodes pick their best preceding parent sets independently, so the
    order maximum equals the DAG-space maximum. With
    ``generational_only`` orders are restricted to complete generational
    orderings, the space the sweep searches. Refuses more than 6 nodes.
    """
    p = data.p
    if p > 6:
        raise EngineError("exhaustive search is limited to at most 6 nodes")
    if constraints is None:
        constraints = ParentConstraints.complete(p, indegree)
    elif constraints.indegree != indegree:
        raise EngineError("indegree argument disagrees with the constraints")
    local = compute_local_scores(data, constraints, score_cfg)
    pp = [int(m) for m in constraints.pp]
    d = indegree

    best_total = NEG_INF
    found: dict[tuple[int, ...], Network] = {}
    truncated = False

    for perm in permutations(range(p)):
        prefix = 0
        total = 0.0
        choices: list[tuple[int, list[int]]] = []
        feasible = True
        for k, v in enumerate(perm):
            if generational_only and k > 0 and not (pp[v] & prefix):
                feasible = False
                break
            pool = pp[v] & prefix
            score, masks = _best_subsets_in_pool(local.subsets(v), pool, d)
            total += score
            choices.append((v, masks))
            prefix |= 1 << v
        if not feasible:
            continue
        if total > best_total and not _close(total, best_total):
            best_total = total
            found.clear()
            truncated = False
        elif not _close(total, best_total):
            continue

        def expand(k: int, parents: list[int]) -> None:
            nonlocal truncated
            if truncated:
                return
            if k == len(choices):
                key = tuple(parents)
                if key not in found:
                    if len(found) >= max_optima:
                        truncated = True
                        return
                    scores = [local.score(v, parents[v]) for v in range(p)]
                    found[key] = Network.build(parents, scores, perm)
                return
            v, masks = choices[k]
            for mask in masks:
                parents[v] = mask
                expand(k + 1, parents)
            parents[v] = 0

        expand(0, [0] * p)

    if not found:
        return ExhaustiveResult([], None, False)
    return ExhaustiveResult(list(found.values()), best_total, truncated)


def enumerate_dags(
    p: int, constraints: ParentConstraints | None = None
) -> Iterator[tuple[int, ...]]:
    """Brute-force enumeration of constraint-consistent parent vectors.

    Yields each labeled DAG exactly once as a tuple of parent bitmasks;
    a counting and cross-checking oracle, limited to 6 nodes.
    """
    if p > 6:
        raise EngineError("DAG enumeration is limited to at most 6 nodes")
    if constraints is None:
        pp = [((1 << p) - 1) & ~(1 << i) for i in range(p)]
        d = p - 1 if p > 1 else 1
    else:
        pp = [int(m) for m in constraints.pp]
        d = constraints.indegree

    per_node = [list(subsets_up_to(pp[i], d)) for i in range(p)]

    from .core import validate_dag

    def rec(i: int, parents: list[int]) -> Iterator[tuple[int, ...]]:
        if i == p:
            if validate_dag(parents).acyclic:
                yield tuple(parents)
            return
        for mask in per_node[i]:
            parents[i] = mask
            yield from rec(i + 1, parents)
        parents[i] = 0

    yield from rec(0, [0] * p)
