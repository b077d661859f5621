"""Dynamic programming over generational orderings.

A subset of nodes is reachable when it can be built one node at a time,
each added node having at least one possible parent already in the set.
The search sweeps reachable subsets level by level, one level per
cardinality, and records best sinks. Each level is held as arrays: its
subsets as one sorted mask array, their best scores and a bitmask of
their tied best sinks (Silander & Myllymäki 2006, UAI; Malone, Yuan &
Hansen 2011, AAAI). Masks are ``uint32`` for up to 32 nodes, ``uint64``
for up to 64 and Python ints (``object`` arrays) above that; all take
the same code path.

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

import contextlib
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
    """Node-set bitmasks: ``uint32`` up to 32 nodes, ``uint64`` up to 64, else Python ints."""
    return np.array(masks, dtype=np.uint32 if p <= 32 else np.uint64 if p <= 64 else object)


class BestParentsTable:
    """Best parent sets of each node within any pool of its possible parents.

    Each node's parent sets are sorted once by score, best first, and held
    as two arrays, the set masks and their scores. The best score within a
    pool U is that of the first listed set g that fits, ``g & ~U == 0``
    (Yuan & Malone 2013, JAIR; Teyssier & Koller 2005, UAI); one
    vectorised first fit serves single lookups and the sweep's batches of
    pools. Tie rule: the best sets within U are the maximum and every
    fitting set within ``TIE_EPS`` of it, whatever the order of the list,
    returned in ascending order. First fits are memoised per node and
    pool; :meth:`pool_count` counts the pools scored.
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
        # The pool memo: sorted keys ``node << p | pool`` with the index of
        # their first fit in the node's list, plus the pairs scored since the
        # last merge. The keys are uint32 while they fit in 32 bits (p <= 27),
        # uint64 in 64 (p <= 58) and Python ints above; the indices take the
        # narrowest dtype that holds the list width.
        bits = p + (p - 1).bit_length()
        self._key_dtype = np.dtype(np.uint32 if bits <= 32 else np.uint64 if bits <= 64 else object)
        self._fit_dtype = np.min_scalar_type(width)
        self._memo_keys = np.empty(0, dtype=self._key_dtype)
        self._memo_fits = np.empty(0, dtype=self._fit_dtype)
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []

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

    def _fit_pairs(self, nodes: np.ndarray, pools: np.ndarray) -> np.ndarray:
        """First-fit indices of (node, pool) pairs: memo hits, and a first fit for the rest.

        A pair's best score is ``_scores[node, index]``. Newly scored pairs
        wait in ``_pending`` until :meth:`_merge`, which the sweep calls
        once per level. A new pair met again in a later pair chunk of the
        same level is scored again. That is rare: a pool U of s first shows
        up with the one subset ``U | bit(s)`` when that subset is reachable
        (the ``sweep`` benchmark makes 10,263 first fits for its 10,248
        pools).
        """
        kd = self._key_dtype
        keys = (nodes.astype(kd) << kd.type(len(self._pp))) | pools.astype(kd)
        if len(self._memo_keys):
            at = np.searchsorted(self._memo_keys, keys)
            np.minimum(at, len(self._memo_keys) - 1, out=at)  # a key past the last one misses
            fits = self._memo_fits[at]
            miss = np.flatnonzero(self._memo_keys[at] != keys)
        else:
            fits = np.empty(len(keys), dtype=self._fit_dtype)
            miss = np.arange(len(keys))
        if len(miss):
            distinct, first, inverse = np.unique(keys[miss], return_index=True, return_inverse=True)
            fresh = miss[first]
            new = self._first_fit(nodes[fresh], pools[fresh]).astype(self._fit_dtype)
            fits[miss] = new[inverse.ravel()]
            self._pending.append((distinct, new))
        return fits

    def _merge(self) -> None:
        """Fold the pending pairs, all absent from the memo, into it, in key order."""
        if self._pending:
            keys = np.concatenate([k for k, _ in self._pending])
            # a pair fitted in two chunks has one first fit: either copy will do
            keys, first = np.unique(keys, return_index=True)
            fits = np.concatenate([f for _, f in self._pending])[first]
            self._pending = []
            at = np.searchsorted(self._memo_keys, keys)
            self._memo_keys = np.insert(self._memo_keys, at, keys)
            self._memo_fits = np.insert(self._memo_fits, at, fits)

    def score(self, node: int, pool: int) -> float:
        pools = np.array([pool], dtype=self._pp.dtype)
        fit = self._fit_pairs(np.array([node]), pools)[0]
        self._merge()
        return float(self._scores[node, fit])

    def best_subsets(self, node: int, pool: int) -> tuple[int, ...]:
        return self._tie_sets(np.array([node]), np.array([pool], dtype=self._pp.dtype))[0]

    def _tie_sets(self, nodes: np.ndarray, pools: np.ndarray) -> list[tuple[int, ...]]:
        """The best parent sets of each (node, pool) pair; ``_TIE_ROWS`` pairs a pass."""
        out = []
        for at in range(0, len(nodes), _TIE_ROWS):
            rows, under = nodes[at : at + _TIE_ROWS], pools[at : at + _TIE_ROWS]
            sets, scores = self._sets[rows], self._scores[rows]
            best = scores[np.arange(len(rows)), self._first_fit(rows, under)]
            tied = _near(scores, best[:, None]) & ((sets & ~under[:, None]) == 0)
            out.extend(tuple(sorted(row[keep].tolist())) for row, keep in zip(sets, tied))
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
    within ``pp[v] & W``. The first fits are looked up after the cap check,
    in the order the pairs were generated, which is node by node, as the
    memo is sorted; they are kept as one index a pair into v's list and
    permuted with the pairs. A subset's best sinks are the maximum and
    every candidate within ``TIE_EPS`` of it (the rule
    :class:`BestParentsTable` states), and its score is the candidate of
    its lowest-numbered best sink, as in the per-subset sweep this
    replaced, so every score keeps every bit. That sink is found as a
    minimum over the group: the sort is not stable, since a stable argsort
    needs more memory at the cap. Candidates are formed in chunks of whole
    groups. ``level_ms`` records the time to generate and score each level.
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
    scores = np.array([local.score(v, 0) for v in range(p)], dtype=float)
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
        fit = np.empty(len(src), dtype=bpt._fit_dtype)  # first fits, in generation order
        for lo in range(0, len(src), _PAIR_CHUNK):
            at = slice(lo, lo + _PAIR_CHUNK)
            fit[at] = bpt._fit_pairs(node[at], masks[src[at]] & pp[node[at]])
        src, node, fit = src[order], node[order], fit[order]
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
            v = node[at]
            cand = scores[src[at]] + bpt._scores[v, fit[at]]
            group = np.cumsum(lead[at]) - 1
            offsets = starts[lo:hi] - edges[lo]
            tied = _near(cand, np.maximum.reduceat(cand, offsets)[group])
            low = np.minimum.reduceat(np.where(tied, v, p), offsets)  # lowest tied sink
            new_scores[lo:hi] = cand[v == low[group]]  # a subset has one pair per sink
            tied_bits = bit[v]
            tied_bits[~tied] = 0
            new_sinks[lo:hi] = np.bitwise_or.reduceat(tied_bits, offsets)
        masks, scores, sinks = new_masks, new_scores, new_sinks
        del src, node, fit, lead  # freed before the merge, which has large temporaries too
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
                base += local.score(v, 0)
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
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        with _stage(report, "screen"):
            constraints, reduced = build_constraints(data, screen_opts, indegree)
        with _stage(report, "local_scores"):
            local = compute_local_scores(reduced, constraints, score_cfg)
        with _stage(report, "best_parents"):
            bpt = best_parents(local, constraints)
        with _stage(report, "best_sinks"):
            bst = best_sinks(bpt, constraints, local, max_subsets=max_subsets)
        with _stage(report, "recover"):
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


@contextlib.contextmanager
def _stage(report: dict, name: str):
    """Time a stage into ``report["stage_ms"][name]``; an error raised in it names the stage."""
    t0 = time.perf_counter()
    try:
        yield
    except Exception as exc:
        if exc.args:
            exc.args = (f"{name}: {exc.args[0]}",) + exc.args[1:]
        raise
    finally:
        report.setdefault("stage_ms", {})[name] = round((time.perf_counter() - t0) * 1000.0, 3)
