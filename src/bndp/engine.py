"""Dynamic programming over generational orderings.

A subset of nodes is reachable when it can be built one node at a time,
each added node having at least one possible parent already in the set.
The search sweeps reachable subsets level by level, one level per
cardinality, and records best sinks. Each level is held as arrays: its
subsets as one sorted mask array, their best scores and a bitmask of
their tied best sinks (Silander & Myllymäki 2006, UAI; Malone, Yuan &
Hansen 2011, AAAI). Masks are ``uint64`` for up to 64 nodes and Python
ints (``object`` arrays) above that; both take the same code path.

A level is built from its extension pairs (W, v), W in the level below
and v outside W with a possible parent in W. As ``po`` is the transpose
of ``pp``, each pair is one admissible (subset, sink) candidate and the
pairs are all of them; a subset's score is the candidate of its
lowest-numbered best sink, found as a minimum over its pairs. The inner
step, the best parent set of v within ``pp[v] & W``, is a first-fit
lookup in v's score-sorted parent sets (:class:`BestParentsTable` states
the tie rule; the report's ``n_pools`` counts the pools it scored).
Recovery memoises the distinct partial networks of each subset that best
sinks peel down to, so ties cost no tied-ordering enumeration.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .assoc import ScreenOptions, build_constraints
from .core import Dataset, Network, NodeSubset, ParentConstraints
from .scoring import LocalScoreTable, ScoreConfig, compute_local_scores

TIE_EPS = 1e-9
DEFAULT_MAX_SUBSETS = 2_000_000
_PAIR_CHUNK = 32768  # (subset, sink) pairs scored per pass, which bounds the per-pair temporaries
_TIE_ROWS = 256  # (node, pool) pairs per tie-set pass, each a row as wide as the longest list


class EngineError(RuntimeError):
    """Search failed: inconsistent tables or exceeded resource caps."""


def _near(x: np.ndarray, best: np.ndarray) -> np.ndarray:
    """Score equality within the relative tie tolerance, elementwise over
    two broadcastable float arrays: equal values, or finite values within
    ``TIE_EPS`` times the larger magnitude (at least 1)."""
    with np.errstate(invalid="ignore"):  # inf - inf compares False: an inf ties only itself
        tol = TIE_EPS * np.maximum(1.0, np.maximum(np.abs(x), np.abs(best)))
        return (x == best) | ((np.abs(x - best) <= tol) & np.isfinite(x) & np.isfinite(best))


def _mask_array(masks, p: int) -> np.ndarray:
    """Node-set bitmasks as ``uint64`` for up to 64 nodes, else Python ints."""
    return np.array(masks, dtype=np.uint64 if p <= 64 else object)


class BestParentsTable:
    """Best parent sets of each node within any pool of its possible parents.

    Each node's parent sets are sorted once by score, best first, and held
    as two arrays, the set masks and their scores. The best score within a
    pool U is that of the first listed set g that fits, ``g & ~U == 0``
    (Yuan & Malone 2013, JAIR; Teyssier & Koller 2005, UAI); one
    vectorised first fit serves single lookups and the sweep's batches of
    pools. Tie rule: the best sets within U are the maximum and every
    fitting set within ``TIE_EPS`` of it, whatever the order of the list,
    returned in ascending order. Scores and tie sets are memoised per node
    and pool; :meth:`pool_count` counts the pools scored.
    """

    def __init__(self, local: LocalScoreTable, constraints: ParentConstraints):
        if local.n_nodes != constraints.n_nodes:
            raise EngineError("local-score table and constraints disagree on node count")
        p = local.n_nodes
        ranked = [sorted(local.subsets(i).items(), key=lambda kv: -kv[1]) for i in range(p)]
        width = max((len(r) for r in ranked), default=0)
        pad = [((1 << p) - 1, -math.inf)]  # holds every node, so it fits no pool
        rows = [r + pad * (width - len(r)) for r in ranked]
        self._pp = _mask_array([int(m) for m in constraints.pp], p)
        self._sets = _mask_array([[g for g, _ in r] for r in rows], p).reshape(p, width)
        self._scores = np.array([[x for _, x in r] for r in rows], dtype=float).reshape(p, width)
        # The pool-score memo: sorted keys ``node << p | pool`` with their best
        # scores, plus the pairs scored since the last merge. The keys are
        # uint64 while they fit in 64 bits (p <= 58), Python ints above.
        self._key_dtype = np.dtype(np.uint64 if p + 6 <= 64 else object)
        self._memo_keys = np.empty(0, dtype=self._key_dtype)
        self._memo_scores = np.empty(0)
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []
        self._ties: list[dict[int, tuple[int, ...]]] = [{} for _ in range(p)]

    def _first_fit(self, nodes: np.ndarray, pools: np.ndarray) -> np.ndarray:
        """Index of the first listed set of each node inside its pool; the empty set fits any.

        The lists are scanned in blocks of doubling width, so that a pool
        that fits early in its list costs little.
        """
        outside = np.flatnonzero(pools & ~self._pp[nodes])
        if len(outside):
            raise EngineError(f"pool outside the possible parents of node {nodes[outside[0]]}")
        index = np.empty(len(nodes), dtype=np.intp)
        todo = np.arange(len(nodes))
        lo, width = 0, 16
        while len(todo) and lo < self._sets.shape[1]:
            fits = (self._sets[nodes[todo], lo : lo + width] & ~pools[todo, None]) == 0
            found = fits.any(axis=1)
            index[todo[found]] = lo + fits[found].argmax(axis=1)
            todo = todo[~found]
            lo, width = lo + width, 2 * width
        if len(todo):
            raise EngineError(f"no parent set of node {nodes[todo[0]]} fits, not even the empty set")
        return index

    def _score_pairs(self, nodes: np.ndarray, pools: np.ndarray) -> np.ndarray:
        """Best scores of (node, pool) pairs: memo hits, and a first fit for the rest.

        Newly scored pairs wait in ``_pending`` until :meth:`_merge`, which
        the sweep calls once per level. A new pair met again in a later
        pair chunk of the same level is scored again. That is rare: a pool
        U of s first shows up with the one subset ``U | bit(s)`` when that
        subset is reachable (on the ``sweep`` benchmark no pair is scored
        twice).
        """
        kd = self._key_dtype
        keys = (nodes.astype(kd) << kd.type(len(self._pp))) | pools.astype(kd)
        at = np.searchsorted(self._memo_keys, keys)
        known = at < len(self._memo_keys)
        known[known] = self._memo_keys[at[known]] == keys[known]
        scores = np.empty(len(keys))
        scores[known] = self._memo_scores[at[known]]
        miss = np.flatnonzero(~known)
        if len(miss):
            distinct, first, inverse = np.unique(keys[miss], return_index=True, return_inverse=True)
            fresh = miss[first]
            new = self._scores[nodes[fresh], self._first_fit(nodes[fresh], pools[fresh])]
            scores[miss] = new[inverse.ravel()]
            self._pending.append((distinct, new))
        return scores

    def _merge(self) -> None:
        """Fold the pending pairs, all absent from the memo, into it.

        Each new key goes straight to its merged position, its rank among
        the new keys plus the memo keys below it, in one pass that holds
        no index array larger than the new keys.
        """
        if self._pending:
            keys = np.concatenate([k for k, _ in self._pending])
            order = keys.argsort()  # a pair scored in two chunks has one score, so either copy will do
            keys = keys[order]
            scores = np.concatenate([s for _, s in self._pending])[order]
            self._pending = []
            fresh = np.ones(len(keys), dtype=bool)
            fresh[1:] = keys[1:] != keys[:-1]
            keys, scores = keys[fresh], scores[fresh]
            at = np.searchsorted(self._memo_keys, keys) + np.arange(len(keys))
            old = np.ones(len(self._memo_keys) + len(keys), dtype=bool)
            old[at] = False
            merged_keys = np.empty(len(old), dtype=keys.dtype)
            merged_keys[at], merged_keys[old] = keys, self._memo_keys
            self._memo_keys = merged_keys
            merged_scores = np.empty(len(old))
            merged_scores[at], merged_scores[old] = scores, self._memo_scores
            self._memo_scores = merged_scores

    def score(self, node: int, pool: int) -> float:
        pools = np.array([pool], dtype=self._pp.dtype)
        hit = float(self._score_pairs(np.array([node]), pools)[0])
        self._merge()
        return hit

    def best_subsets(self, node: int, pool: int) -> tuple[int, ...]:
        hit = self._ties[node].get(pool)
        if hit is None:
            hit = self._tie_sets(np.array([node]), np.array([pool], dtype=self._pp.dtype))[0]
        return hit

    def _tie_sets(self, nodes: np.ndarray, pools: np.ndarray) -> list[tuple[int, ...]]:
        """The best parent sets of each (node, pool) pair, memoised; ``_TIE_ROWS`` pairs a pass."""
        out = []
        for at in range(0, len(nodes), _TIE_ROWS):
            rows, under = nodes[at : at + _TIE_ROWS], pools[at : at + _TIE_ROWS]
            sets, scores = self._sets[rows], self._scores[rows]
            best = scores[np.arange(len(rows)), self._first_fit(rows, under)]
            tied = _near(scores, best[:, None]) & ((sets & ~under[:, None]) == 0)
            for node, pool, row, keep in zip(rows.tolist(), under.tolist(), sets, tied):
                out.append(tuple(sorted(row[keep].tolist())))
                self._ties[node][pool] = out[-1]
        return out

    def pool_count(self) -> int:
        self._merge()
        return len(self._memo_keys)


def best_parents(
    local: LocalScoreTable, constraints: ParentConstraints
) -> BestParentsTable:
    """Build the best-parents table for all feasible-set nodes."""
    return BestParentsTable(local, constraints)


@dataclass
class BestSinkTable:
    """Best score and best sinks for every reachable subset.

    ``levels[k]`` holds the reachable subsets of k + 1 nodes as three
    parallel arrays: their masks in ascending order, their best scores and
    the bitmasks of their best sinks. ``maximal`` lists the reachable
    subsets that no node can extend, in sweep order, and ``level_ms[k]``
    the milliseconds taken to generate and score ``levels[k]``.
    :meth:`score` and :meth:`sinks` look up one subset; ``entries`` decodes
    every subset, in sweep order, into a dict ``mask -> (score, sinks)`` on
    first use.
    """

    levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    maximal: list[int]
    level_ms: list[float]

    @property
    def n_subsets(self) -> int:
        return sum(len(masks) for masks, _, _ in self.levels)

    @cached_property
    def entries(self) -> dict[int, tuple[float, tuple[int, ...]]]:
        return {
            w: (score, tuple(NodeSubset(sinks)))
            for level in self.levels
            for w, score, sinks in zip(*(a.tolist() for a in level))
        }

    def _find(self, mask: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], int]:
        """The level holding ``mask`` and its index there; KeyError when unreachable."""
        k = int(mask).bit_count() - 1
        if 0 <= k < len(self.levels) and not mask >> len(self.levels[0][0]):
            level = self.levels[k]
            masks = level[0]
            i = int(np.searchsorted(masks, masks.dtype.type(mask)))
            if i < len(masks) and int(masks[i]) == mask:
                return level, i
        raise KeyError(mask)

    def score(self, mask: int) -> float:
        (_, scores, _), i = self._find(mask)
        return float(scores[i])

    def sinks(self, mask: int) -> tuple[int, ...]:
        (_, _, sinks), i = self._find(mask)
        return tuple(NodeSubset(int(sinks[i])))


def best_sinks(
    bpt: BestParentsTable,
    constraints: ParentConstraints,
    local: LocalScoreTable,
    max_subsets: int | None = DEFAULT_MAX_SUBSETS,
) -> BestSinkTable:
    """Sweep reachable subsets level by level recording best sinks.

    Level one is all singletons, each its own sink at its empty-parent
    local score. Level k + 1 comes from the extension pairs (W, v): W a
    level-k subset and v a node outside W with a possible parent in W (v in
    ``po_acc & ~W``, ``po_acc`` being the union of the possible offspring of
    W's members). ``po`` is the transpose of ``pp``, so v is in ``po_acc``
    exactly when ``pp[v] & W != 0``: each pair is one admissible (subset,
    sink) candidate ``(W | bit(v), v)``, and the pairs are all of them, so
    nothing is looked up in the level below. One sort on ``W | bit(v)``
    groups each new subset's pairs; the group starts are the new level,
    and the cap on the reachable-subset count is checked there, before the
    level is scored. Subsets with no extension are recorded as maximal, in
    sweep order.

    A pair's candidate is W's best score plus the first-fit score of v
    within ``pp[v] & W``. A subset's best sinks are the maximum and every
    candidate within ``TIE_EPS`` of it (the rule :class:`BestParentsTable`
    states), and its score is the candidate of its lowest-numbered best
    sink, as in the per-subset sweep this replaced, so every score keeps
    every bit. That sink is found as a minimum over the group: the sort is
    not stable, since a stable argsort needs a buffer of half the level's
    pairs. Pairs are scored in chunks of whole groups. ``level_ms`` records
    the time to generate and score each level.
    """
    p = constraints.n_nodes
    pp = _mask_array([int(m) for m in constraints.pp], p)
    po = _mask_array([int(m) for m in constraints.po], p)
    bit = _mask_array([1 << v for v in range(p)], p)
    node_type = np.min_scalar_type(p)
    levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    maximal: list[int] = []
    level_ms: list[float] = []
    start = time.perf_counter()
    masks, po_acc, sinks = bit, po, bit
    scores = np.array([local.empty_score(v) for v in range(p)], dtype=float)
    while len(masks):
        levels.append((masks, scores, sinks))
        level_ms.append((time.perf_counter() - start) * 1000.0)
        start = time.perf_counter()
        free = po_acc & ~masks
        maximal.extend(masks[free == 0].tolist())
        # the extension pairs (row of W, v), in compact dtypes, since a
        # level's pairs are held at once
        rows = [np.flatnonzero(free & b).astype(np.min_scalar_type(len(masks))) for b in bit]
        node = np.repeat(np.arange(p, dtype=node_type), [len(r) for r in rows])
        src = np.concatenate(rows)
        del rows
        key = masks[src]
        key |= bit[node]
        order = key.argsort()
        key.sort()
        lead = np.ones(len(key), dtype=bool)  # each new subset's first pair
        lead[1:] = key[1:] != key[:-1]
        new_masks = key[lead]
        del key
        sizes = [len(m) for m, _, _ in levels] + [len(new_masks)]
        if max_subsets is not None and sum(sizes) > max_subsets:
            raise EngineError(
                f"reachable-subset count exceeded the cap ({max_subsets}) at level "
                f"{len(sizes)} ({sizes[-1]} subsets of {len(sizes)} nodes, not scored); "
                f"subsets per level: {sizes}; "
                "use a stricter screening cutoff or raise max_subsets"
            )
        src, node = src[order], node[order]
        del order
        starts = np.flatnonzero(lead)
        po_acc = po_acc[src[starts]] | po[node[starts]]
        new_scores = np.empty(len(starts))
        new_sinks = np.empty_like(new_masks)
        # chunks of whole subsets, about _PAIR_CHUNK pairs each
        edges = np.append(starts, len(src))
        cuts = np.unique(np.searchsorted(starts, np.arange(0, len(src), _PAIR_CHUNK)))
        for lo, hi in zip(cuts.tolist(), cuts[1:].tolist() + [len(starts)]):
            at = slice(edges[lo], edges[hi])
            w, v = src[at], node[at]
            by_node = v.argsort(kind="stable")  # the memo is searched faster node by node
            cand = scores[w]
            cand[by_node] += bpt._score_pairs(v[by_node], (masks[w] & pp[v])[by_node])
            group = np.cumsum(lead[at]) - 1
            offsets = starts[lo:hi] - edges[lo]
            best = np.maximum.reduceat(cand, offsets)
            tied = _near(cand, best[group])
            low = np.minimum.reduceat(np.where(tied, v, p), offsets)  # lowest tied sink
            lowest = tied & (v == low[group])
            new_scores[lo:hi] = best
            new_scores[lo + group[lowest]] = cand[lowest]
            tied_bits = bit[v]
            tied_bits[~tied] = 0
            new_sinks[lo:hi] = np.bitwise_or.reduceat(tied_bits, offsets)
        masks, scores, sinks = new_masks, new_scores, new_sinks
        del src, node, lead  # freed before the merge, which has large temporaries too
        bpt._merge()
    return BestSinkTable(levels, maximal, level_ms)


@dataclass
class RecoveryResult:
    networks: list[Network]
    truncated: bool
    covered: tuple[int, ...]  # chosen subset masks
    n_subsets: int  # subsets the recovery DP filled


def _extend(moves, ties: dict, nets: dict, p: int, limit: int) -> dict[int, tuple[int, ...]]:
    """The first ``limit`` distinct entries of ``nets(W)``, from W's ``(s, W - s)`` moves."""
    out: dict[int, tuple[int, ...]] = {}
    for s, prev in moves:
        for g in ties[s, prev]:
            shift = g << s * p
            for part, order in nets[prev].items():
                key = part | shift
                if key not in out:
                    out[key] = order + (s,)
                    if len(out) == limit:
                        return out
    return out


def recover_networks(
    bst: BestSinkTable,
    bpt: BestParentsTable,
    constraints: ParentConstraints,
    local: LocalScoreTable,
    cap: int = 32,
) -> RecoveryResult:
    """Peel best sinks into the distinct optimal networks, memoised per subset.

    Starts from the full feasible set when it is reachable. Otherwise
    the maximal reachable subsets are packed greedily by score gain into
    a disjoint cover; uncovered nodes keep empty parent sets. The greedy
    cover is a heuristic, not an exact max-weight packing: another
    disjoint set of reachable subsets can score higher.

    A DP over the subsets that best sinks peel the parts down to fills
    ``nets(W)``, the distinct parent assignments on W: over each best sink
    s of W, each best parent set g of s within ``pp[s] & (W - s)`` and each
    entry of ``nets(W - s)``, that entry plus ``s <- g``. An entry is one
    int, the parents of v in bits ``[v * p, (v + 1) * p)``, with the first
    peeling order that reached it. ``nets(W)`` keeps its first ``cap + 1``
    entries: one (s, g) maps distinct entries to distinct ones, so a
    truncated ``nets(W - s)`` still gives W ``cap + 1``. Disjoint parts
    combine as a product, truncated alike. Up to ``cap`` networks come
    back, flagged truncated when there are more: the first in peeling
    order, so which ``cap`` of a larger tie set is not canonical.
    """
    if cap < 0:
        raise EngineError(f"the network cap must be at least 0, got {cap}")
    p = constraints.n_nodes
    full = (1 << p) - 1

    if p and len(bst.levels) == p:  # the level of p nodes holds only the full set
        chosen = [full]
    else:
        ranked = []
        for w in bst.maximal:
            base = 0.0
            for v in NodeSubset(w):
                base += local.empty_score(v)
            gain = bst.score(w) - base
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

    # the subsets W that best sinks peel the cover down to, their moves (s, W - s), their tie sets
    moves: dict[int, list[tuple[int, int]]] = {}
    todo = list(chosen)
    while todo:
        w = todo.pop()
        if w and w not in moves:
            moves[w] = [(s, w ^ (1 << s)) for s in bst.sinks(w)]
            todo.extend(prev for _, prev in moves[w])
    pairs = [move for w in moves for move in moves[w]]
    pools = _mask_array([int(constraints.pp[s]) & prev for s, prev in pairs], p)
    ties = dict(zip(pairs, bpt._tie_sets(np.array([s for s, _ in pairs], dtype=np.intp), pools)))

    nets: dict[int, dict[int, tuple[int, ...]]] = {0: {0: ()}}
    for w in sorted(moves, key=int.bit_count):
        nets[w] = _extend(moves[w], ties, nets, p, cap + 1)
    combined = {0: ()}
    for w in chosen:  # disjoint parts: every pair is a distinct network
        product = ((a | b, x + y) for a, x in combined.items() for b, y in nets[w].items())
        combined = dict(islice(product, cap + 1))

    tail = tuple(NodeSubset(full - sum(chosen)))  # the uncovered nodes; the parts are disjoint
    networks = []
    for key, order in islice(combined.items(), cap):
        parents = [key >> (v * p) & full for v in range(p)]
        scores = [local.score(v, parents[v]) for v in range(p)]
        net = Network.build(parents, scores, order + tail)
        net.check_constraints(constraints)
        networks.append(net)
    return RecoveryResult(networks, len(combined) > cap, tuple(chosen), len(moves))


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
    reachable-subset count, the subset count and sweep time per level
    (``level_sizes``, ``level_ms``), the subsets recovery filled, wall
    time per stage, and the warnings raised: every message in order
    (``warnings``) and, per warning category, their count and the first
    message (``warning_counts``).
    """
    report: dict = {}

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
        counts: dict[str, dict] = {}
        for w in rec:
            entry = counts.setdefault(w.category.__name__, {"count": 0, "first": str(w.message)})
            entry["count"] += 1

    report.update(
        {
            "feas_set_size": reduced.p,
            "feas_names": list(reduced.names),
            "indegree": indegree,
            "score_family": score_cfg.family,
            "n_local_entries": local.entry_count(),
            "n_pools": bpt.pool_count(),
            "n_reachable_subsets": bst.n_subsets,
            "level_sizes": [len(masks) for masks, _, _ in bst.levels],
            "level_ms": [round(ms, 3) for ms in bst.level_ms],
            "n_networks": len(recovery.networks),
            "n_recover_subsets": recovery.n_subsets,
            "optimal_score": recovery.networks[0].total_score if recovery.networks else None,
            "truncated": recovery.truncated,
            "covered_subsets": [list(NodeSubset(m)) for m in recovery.covered],
            "warnings": caught,
            "warning_counts": counts,
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
