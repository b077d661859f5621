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
lowest-numbered best sink. The inner step, the best parent set of v
within ``pp[v] & W``, is a first fit in v's score-sorted parent sets,
read off prefix bitsets (:class:`BestParentsTable` states the lookup and
the tie rule; the report's ``n_pool_lookups`` counts the lookups).
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
from .core import Dataset, Network, NodeSubset, ParentConstraints, StructureError
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


def _group_ties(cand: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Ascending indices of the candidates that tie their group's maximum b.

    Groups are the runs starting at ``offsets``; candidates are finite or
    -inf. A tie needs ``cand >= b - 2 TIE_EPS max(1, |b|)``, checked per
    group, and :func:`_near` decides the candidates past that bound."""
    sizes = np.diff(offsets, append=len(cand))
    best = np.maximum.reduceat(cand, offsets)
    bound = best - 2 * TIE_EPS * np.maximum(1.0, np.abs(best))  # -inf for -inf
    near = np.flatnonzero(cand >= np.repeat(bound, sizes))
    return near[_near(cand[near], np.repeat(best, sizes)[near])]


def _mask_array(masks, p: int) -> np.ndarray:
    """Node-set bitmasks: ``uint32`` up to 32 nodes, ``uint64`` up to 64, else Python ints."""
    return np.array(masks, dtype=np.uint32 if p <= 32 else np.uint64 if p <= 64 else object)


class BestParentsTable:
    """Best parent sets of each node within any pool of its possible parents.

    Each node's parent sets are sorted once by score, best first, and held
    as two arrays, the set masks and their scores. The best score within a
    pool U is that of the first listed set g that fits, ``g & ~U == 0``
    (Yuan & Malone 2013, JAIR; Teyssier & Koller 2005, UAI). The empty set
    fits every pool, so a first fit lies in the prefix of the list through
    it, and each set of that prefix is one bit of a bitset. For each byte
    of the masks that ``pp[v]`` touches and each of the byte's 256 values,
    node v has the bitset of its prefix sets with a member in that byte
    that the value lacks. The first fit within U is the lowest bit clear in
    the OR of the bitsets of U's bytes. Nodes of U outside ``pp[v]`` set no
    bit, so the sweep looks up a subset W for the pool ``pp[v] & W``. Tie
    rule: the best sets within U are the maximum and every fitting set
    within ``TIE_EPS`` of it, whatever the order of the list, returned in
    ascending order. :meth:`pool_count` counts the first fits looked up.
    """

    def __init__(self, local: LocalScoreTable, constraints: ParentConstraints):
        if local.n_nodes != constraints.n_nodes:
            raise EngineError("local-score table and constraints disagree on node count")
        p = local.n_nodes
        ranked = [sorted(local.subsets(i).items(), key=lambda kv: -kv[1]) for i in range(p)]
        ends = [next((k for k, (g, _) in enumerate(r) if not g), None) for r in ranked]
        if None in ends:
            raise EngineError(f"node {ends.index(None)} lists no empty parent set")
        width = max((len(r) for r in ranked), default=0)
        pad = [((1 << p) - 1, -math.inf)]  # holds every node, so it fits no pool
        rows = [r + pad * (width - len(r)) for r in ranked]
        pp = [int(m) for m in constraints.pp]
        self._pp = _mask_array(pp, p)
        self._sets = _mask_array([[g for g, _ in r] for r in rows], p).reshape(p, width)
        self._scores = np.array([[x for _, x in r] for r in rows], dtype=float).reshape(p, width)
        if not np.all(self._scores < math.inf):
            raise EngineError("local scores must be finite or -inf, not NaN or +inf")
        self._lookups = 0
        # The lists cut or padded to whole 64-bit words: no bit past the
        # empty set's is read. ``_bitsets[k, r]`` is word k of row r, and
        # ``_base[j, v]`` the first of v's 256 rows for byte ``_bytes[j]``,
        # one a byte value; rows 0-255 are zeros, for bytes v does not touch.
        words = max(ends, default=-1) // 64 + 1
        prefix = np.zeros((p, 64 * words), dtype=self._sets.dtype)
        prefix[:, :width] = self._sets[:, : 64 * words]
        self._bytes = [b for b in range((p + 7) // 8) if any(m >> 8 * b & 255 for m in pp)]
        self._base = np.zeros((len(self._bytes), p), dtype=np.intp)
        own = [np.zeros(64 * words, dtype=np.uint8)]  # each block's byte of each set
        for j, b in enumerate(self._bytes):
            nodes = [v for v in range(p) if pp[v] >> 8 * b & 255]
            self._base[j, nodes] = 256 * np.arange(len(own), len(own) + len(nodes))
            own.extend(((prefix[nodes] >> 8 * b) & 255).astype(np.uint8))
        bits = np.arange(8, dtype=np.uint8)[:, None]
        holds = np.packbits(np.stack(own)[:, None, :] >> bits & 1, axis=2, bitorder="little")
        holds = holds.view("<u8").T  # word, bit, block: the sets that hold the bit
        # doubling over the byte's bits: values lacking bit k take the sets holding it
        table = np.zeros((words, len(own), 1), dtype=np.uint64)
        for k in range(8):
            table = np.concatenate([table | holds[:, k, :, None], table], axis=2)
        self._bitsets = table.reshape(words, 256 * len(own))

    def byte_columns(self, masks: np.ndarray) -> list[np.ndarray]:
        """The bytes of ``masks`` that some node's possible parents touch, as ``uint8`` arrays."""
        return [((masks >> 8 * b) & 255).astype(np.uint8) for b in self._bytes]

    def best_scores(self, nodes: np.ndarray, columns: list[np.ndarray]) -> np.ndarray:
        """Each node's best score within its pool, given by the pool's :meth:`byte_columns`."""
        self._lookups += len(nodes)
        rows = [base[nodes] + col for base, col in zip(self._base, columns)]
        fit = self._first_fits(rows, len(nodes))
        return self._scores.ravel()[nodes * self._scores.shape[1] + fit]  # faster than 2-D

    def _first_fits(self, rows: list[np.ndarray], n: int, word: int = 0) -> np.ndarray:
        """The first fits of n pools, from bit 0 of ``word``; later words only where it is full."""
        acc = np.zeros(n, dtype=np.uint64)
        for r in rows:
            acc |= self._bitsets[word][r]
        fit = np.frexp(~acc & (acc + 1))[1] - 1  # the lowest clear bit; -1 when none
        rest = np.flatnonzero(fit < 0)
        if len(rest):
            fit[rest] = 64 + self._first_fits([r[rest] for r in rows], len(rest), word + 1)
        return fit

    def _best(self, nodes: np.ndarray, pools: np.ndarray) -> np.ndarray:
        """Best scores of (node, pool) pairs whose pools lie within the nodes' possible parents."""
        outside = np.flatnonzero(pools & ~self._pp[nodes])
        if len(outside):
            raise EngineError(f"pool outside the possible parents of node {nodes[outside[0]]}")
        return self.best_scores(nodes, self.byte_columns(pools))

    def score(self, node: int, pool: int) -> float:
        return float(self._best(np.array([node]), np.array([pool], dtype=self._pp.dtype))[0])

    def best_subsets(self, node: int, pool: int) -> tuple[int, ...]:
        return self._tie_sets(np.array([node]), np.array([pool], dtype=self._pp.dtype))[0]

    def _tie_sets(self, nodes: np.ndarray, pools: np.ndarray) -> list[tuple[int, ...]]:
        """The best parent sets of each (node, pool) pair; ``_TIE_ROWS`` pairs a pass."""
        out = []
        for at in range(0, len(nodes), _TIE_ROWS):
            rows, under = nodes[at : at + _TIE_ROWS], pools[at : at + _TIE_ROWS]
            sets, scores = self._sets[rows], self._scores[rows]
            best = self._best(rows, under)
            tied = _near(scores, best[:, None]) & ((sets & ~under[:, None]) == 0)
            out.extend(tuple(sorted(row[keep].tolist())) for row, keep in zip(sets, tied))
        return out

    def pool_count(self) -> int:
        return self._lookups


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
    max_subsets: int = DEFAULT_MAX_SUBSETS,
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

    A pair's candidate is W's best score plus the best score of v within
    ``pp[v] & W``, which :class:`BestParentsTable` looks up from W's bytes
    after the cap check. The pairs are generated node by node and the sort
    is stable, so each group lists its pairs in node order. A subset's
    best sinks are the maximum and every candidate within ``TIE_EPS`` of it
    (the rule :class:`BestParentsTable` states), and its score is the
    candidate of its lowest-numbered best sink, the group's first tied
    pair, as in the per-subset sweep this replaced, so every score keeps
    every bit. Candidates are formed in chunks of whole groups.
    ``level_ms`` records the time to generate and score each level.
    """
    p = constraints.n_nodes
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
        # level's pairs are held at once, and their keys W | bit(v), gathered
        # by np.flatnonzero's intp rows (the fastest index dtype); filled in
        # place, as per-node pieces to concatenate fragment the heap
        sizes = [np.count_nonzero(free & b) for b in bit]
        node = np.repeat(np.arange(p, dtype=node_type), sizes)
        src = np.empty(len(node), dtype=np.min_scalar_type(len(masks)))
        key = np.empty(len(node), dtype=masks.dtype)
        ends = np.cumsum(sizes).tolist()
        for b, lo, hi in zip(bit, [0] + ends, ends):
            r = np.flatnonzero(free & b)
            src[lo:hi] = r
            np.bitwise_or(masks[r], b, out=key[lo:hi])
        order = key.argsort(kind="stable")  # each group's pairs stay in node order
        key = key[order]
        lead = np.ones(len(key), dtype=bool)  # each new subset's first pair
        lead[1:] = key[1:] != key[:-1]
        new_masks = key[lead]
        del key
        sizes = [len(m) for m, _, _ in levels] + [len(new_masks)]
        if sum(sizes) > max_subsets:
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
        columns = bpt.byte_columns(masks)
        new_scores = np.empty(len(starts))
        new_sinks = np.empty_like(new_masks)
        # chunks of whole subsets, about _PAIR_CHUNK pairs each
        edges = np.append(starts, len(src))
        cuts = np.unique(np.searchsorted(starts, np.arange(0, len(src), _PAIR_CHUNK)))
        for lo, hi in zip(cuts.tolist(), cuts[1:].tolist() + [len(starts)]):
            at = slice(edges[lo], edges[hi])
            w, v = src[at].astype(np.intp), node[at].astype(np.intp)  # the fastest index dtype
            cand = scores[w] + bpt.best_scores(v, [c[w] for c in columns])
            offsets = starts[lo:hi] - edges[lo]
            tied = _group_ties(cand, offsets)
            first = np.searchsorted(tied, offsets)  # each group's lowest tied sink
            new_scores[lo:hi] = cand[tied[first]]
            new_sinks[lo:hi] = np.bitwise_or.reduceat(bit[v[tied]], first)
        masks, scores, sinks = new_masks, new_scores, new_sinks
        del src, node, lead, columns
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
    max_subsets: int = DEFAULT_MAX_SUBSETS,
) -> LearnResult:
    """End-to-end search: screen, score, sweep, recover.

    The report records feasible-set membership, table sizes, the
    reachable-subset count, the subset count and sweep time per level
    (``level_sizes``, ``level_ms``), the subsets recovery filled, wall
    time per stage, and the warnings raised: every message in order
    (``warnings``) and, per warning category, their count and the first
    message (``warning_counts``). Arguments out of range are rejected
    before screening starts.
    """
    if indegree < 1:
        raise StructureError("indegree must be a positive integer")
    for name, cap in (("network", optima_cap), ("reachable-subset", max_subsets)):
        if cap < 1:
            raise EngineError(f"the {name} cap must be at least 1, got {cap}")
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
            "n_pool_lookups": bpt.pool_count(),
            "n_reachable_subsets": bst.n_subsets,
            "level_sizes": [len(masks) for masks, _, _ in bst.levels],
            "level_ms": [round(ms, 3) for ms in bst.level_ms],
            "n_networks": len(recovery.networks),
            "n_recover_subsets": recovery.n_subsets,
            "optimal_score": recovery.networks[0].total_score,
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
