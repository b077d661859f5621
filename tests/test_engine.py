import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import bndp.engine
from bndp.assoc import ScreenOptions
from bndp.core import (
    Column,
    Dataset,
    Network,
    NodeSubset,
    ParentConstraints,
    StructureError,
    subsets_up_to,
)
from bndp.engine import (
    TIE_EPS,
    EngineError,
    best_parents,
    best_sinks,
    learn,
    recover_networks,
)
from bndp.scoring import LocalScoreTable, ScoreConfig, compute_local_scores
from bndp.simulate import simulate_survival
from oracles import _close, best_subsets_in_pool, enumerate_dags, exhaustive_search

PAPER_PP = ([1, 3], [2, 0], [1], [0])  # 0-indexed worked-example pp sets


def paper_constraints(indegree=2):
    return ParentConstraints(
        tuple(NodeSubset.from_indices(m) for m in PAPER_PP), indegree
    )


def cont(matrix, names=None):
    names = names or [f"V{i}" for i in range(matrix.shape[1])]
    return Dataset(
        [Column(n, "continuous", matrix[:, i].copy()) for i, n in enumerate(names)]
    )


def random_local_table(pp, d, rng):
    """Random score tables over all parent subsets within pp and d."""
    p = len(pp)
    scores = []
    for i in range(p):
        members = sorted(NodeSubset(pp[i]))
        table = {}
        for size in range(min(d, len(members)) + 1):
            for combo in itertools.combinations(members, size):
                mask = 0
                for j in combo:
                    mask |= 1 << j
                table[mask] = float(rng.normal())
        scores.append(table)
    return LocalScoreTable(scores)


def random_constraints(p, rng, density=0.5, indegree=2):
    pp = []
    for i in range(p):
        mask = 0
        for j in range(p):
            if j != i and rng.random() < density:
                mask |= 1 << j
        pp.append(NodeSubset(mask))
    return ParentConstraints(tuple(pp), indegree)


def brute_force_best(table, pool, d):
    """Independent max over all parent subsets within the pool."""
    members = sorted(NodeSubset(pool))
    best, best_masks = -math.inf, []
    for size in range(min(d, len(members)) + 1):
        for combo in itertools.combinations(members, size):
            mask = 0
            for j in combo:
                mask |= 1 << j
            s = table[mask]
            if s > best + 1e-12:
                best, best_masks = s, [mask]
            elif abs(s - best) <= 1e-12:
                best_masks.append(mask)
    return best, sorted(best_masks)


def dict_best_sinks(constraints, local):
    """Reference sweep: a dict of reachable subsets, filled one subset at a time.

    This is the per-subset loop the engine used before its level arrays,
    kept as an oracle. Pool scores come from the direct enumeration
    ``best_subsets_in_pool``. Sinks keep a running best, so the answer
    depends on the visiting order only when candidates chain within
    ``TIE_EPS`` of each other without all lying within ``TIE_EPS`` of the
    maximum. Returns the entries ``mask -> (score, sinks)`` in sweep order
    and the maximal subsets in sweep order.
    """
    p, d = constraints.n_nodes, constraints.indegree
    pp = [int(m) for m in constraints.pp]
    po = [int(m) for m in constraints.po]
    entries, maximal = {}, []
    level = []
    for v in range(p):
        entries[1 << v] = (local.score(v, 0), (v,))
        level.append(1 << v)
    while level:
        nxt = set()
        for w in level:
            best, sinks, po_acc = -math.inf, [], 0
            for s in NodeSubset(w):
                po_acc |= po[s]
                prev = w ^ (1 << s)
                pool = pp[s] & prev
                if not prev or not pool or prev not in entries:
                    continue
                score = entries[prev][0] + best_subsets_in_pool(local.subsets(s), pool, d)[0]
                if score > best and not _close(score, best):
                    best, sinks = score, [s]
                elif _close(score, best):
                    sinks.append(s)
            if w & (w - 1):
                assert sinks, f"no admissible sink for {w:#x}"
                entries[w] = (best, tuple(sinks))
            cands = po_acc & ~w
            if not cands:
                maximal.append(w)
            nxt.update(w | (1 << v) for v in NodeSubset(cands))
        level = sorted(nxt)
    return entries, maximal


def ordering_recover(bst, c, local, cap):
    """Reference recovery: enumerate every tied peeling order, drop repeated DAGs after.

    This is the recovery the engine used before its memoised DP, kept as
    an oracle. It picks the same greedy cover and walks the same best
    sinks, but takes the best parent sets of each sink from the direct
    enumeration ``best_subsets_in_pool`` and visits every tied ordering,
    so its time grows with the number of peeling paths, not of networks.
    """
    p, d = c.n_nodes, c.indegree
    pp = [int(m) for m in c.pp]
    full = (1 << p) - 1
    if p and len(bst.levels) == p:
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
        used, chosen = 0, []
        for _, _, w in sorted(ranked):
            if not w & used:
                chosen.append(w)
                used |= w
    isolated = sorted(NodeSubset(full - sum(chosen)))

    def orderings(mask):
        """Yield (ordering, [(node, parent mask)]) choices for a subset."""
        if mask == 0:
            yield [], []
            return
        for s in bst.sinks(mask):
            prev = mask ^ (1 << s)
            for g in best_subsets_in_pool(local.subsets(s), pp[s] & prev, d)[1]:
                for order, assign in orderings(prev):
                    yield order + [s], assign + [(s, g)]

    def covers(k):
        if k == len(chosen):
            yield [], []
            return
        for order, assign in orderings(chosen[k]):
            for rest_order, rest_assign in covers(k + 1):
                yield order + rest_order, assign + rest_assign

    networks, truncated = {}, False
    for order, assign in covers(0):
        parents = [0] * p
        for node, mask in assign:
            parents[node] = mask
        key = tuple(parents)
        if key in networks:
            continue
        if len(networks) >= cap:
            truncated = True
            break
        scores = [local.score(v, parents[v]) for v in range(p)]
        networks[key] = Network.build(parents, scores, order + isolated)
    return list(networks.values()), truncated, tuple(chosen)


def peeling_paths(bst, bpt, c, cover):
    """The (sink, parent set) peeling paths over ``cover``: the orderings the oracle walks."""
    pp = [int(m) for m in c.pp]
    memo = {0: 1}

    def paths(w):
        if w not in memo:
            memo[w] = sum(
                len(bpt.best_subsets(s, pp[s] & (w ^ (1 << s)))) * paths(w ^ (1 << s))
                for s in bst.sinks(w)
            )
        return memo[w]

    return math.prod(paths(w) for w in cover)


def path_case(p, seed):
    """Path constraints ``pp[i] = {i - 1, i + 1}`` over p nodes, random scores."""
    pp = [(1 << (i - 1) if i else 0) | (1 << (i + 1) if i + 1 < p else 0) for i in range(p)]
    c = ParentConstraints(tuple(NodeSubset(m) for m in pp), indegree=2)
    return c, random_local_table(pp, 2, np.random.default_rng(seed))


def reachable_in_sweep_order(c, seed=0):
    """The subsets ``best_sinks`` reaches, in the order it records them."""
    local = random_local_table([int(m) for m in c.pp], c.indegree, np.random.default_rng(seed))
    return list(best_sinks(best_parents(local, c), c, local).entries)


def brute_reachable_and_maximal(pp, p):
    """Reachable and maximal subsets, brute force from the definition.

    A generational sequence is a node sequence, of any length, whose nodes
    after the first each have a possible parent earlier in it. Reachable
    subsets are the node sets of generational sequences; maximal ones are
    the node set of no sequence's proper prefix.
    """
    reachable, prefixes = set(), set()
    for k in range(1, p + 1):
        for perm in itertools.permutations(range(p), k):
            prefix = 0
            for i, v in enumerate(perm):
                if i > 0 and not (pp[v] & prefix):
                    break
                prefix |= 1 << v
            else:
                reachable.add(prefix)
                prefixes.add(prefix ^ (1 << perm[-1]))
    return reachable, reachable - prefixes


def complete_generational_orderings(pp, p):
    """Brute-force enumeration straight from the definition."""
    out = []
    for perm in itertools.permutations(range(p)):
        prefix = 0
        ok = True
        for k, v in enumerate(perm):
            if k > 0 and not (pp[v] & prefix):
                ok = False
                break
            prefix |= 1 << v
        if ok:
            out.append(perm)
    return out


# ------------------------------------------------------------ best parents


class TestBestParents:
    def test_empty_pool(self):
        rng = np.random.default_rng(0)
        c = random_constraints(4, rng)
        local = random_local_table([int(m) for m in c.pp], 2, rng)
        bpt = best_parents(local, c)
        for i in range(4):
            assert bpt.score(i, 0) == local.score(i, 0)
            assert bpt.best_subsets(i, 0) == (0,)

    def test_full_pool_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for trial in range(30):
            gen = np.random.default_rng(trial)
            p = int(gen.integers(2, 7))
            d = int(gen.integers(1, p))
            c = random_constraints(p, gen, density=0.6, indegree=d)
            local = random_local_table([int(m) for m in c.pp], d, gen)
            bpt = best_parents(local, c)
            for i in range(p):
                pool = int(c.pp[i])
                score, subsets = bpt.score(i, pool), bpt.best_subsets(i, pool)
                b_score, b_masks = brute_force_best(local.subsets(i), pool, d)
                assert abs(score - b_score) < 1e-12
                assert sorted(subsets) == b_masks

    def test_sub_pools_match_brute_force(self):
        gen = np.random.default_rng(5)
        c = random_constraints(5, gen, density=0.8, indegree=2)
        local = random_local_table([int(m) for m in c.pp], 2, gen)
        bpt = best_parents(local, c)
        for i in range(5):
            pool_full = int(c.pp[i])
            sub = pool_full
            while sub:
                score, subsets = bpt.score(i, sub), bpt.best_subsets(i, sub)
                b_score, b_masks = brute_force_best(local.subsets(i), sub, 2)
                assert abs(score - b_score) < 1e-12
                assert sorted(subsets) == b_masks
                sub = (sub - 1) & pool_full

    def test_monotone_in_pool(self):
        gen = np.random.default_rng(13)
        c = random_constraints(6, gen, density=0.7, indegree=2)
        local = random_local_table([int(m) for m in c.pp], 2, gen)
        bpt = best_parents(local, c)
        for i in range(6):
            pool = int(c.pp[i])
            sub = pool
            while sub:
                smaller = (sub - 1) & pool
                if smaller & ~sub == 0:
                    assert bpt.score(i, smaller) <= bpt.score(i, sub) + 1e-12
                sub = smaller

    def test_exact_ties_all_kept(self):
        local = LocalScoreTable(
            [{0: -1.0, 0b10: -0.5, 0b100: -0.5, 0b110: -3.0}, {0: 0.0}, {0: 0.0}]
        )
        c = ParentConstraints(
            (NodeSubset(0b110), NodeSubset(0), NodeSubset(0)), indegree=2
        )
        bpt = best_parents(local, c)
        assert bpt.score(0, 0b110) == -0.5
        assert bpt.best_subsets(0, 0b110) == (0b10, 0b100)

    def test_pool_outside_possible_parents_rejected(self):
        rng = np.random.default_rng(2)
        c = ParentConstraints(
            (NodeSubset(0b110), NodeSubset(0b001), NodeSubset(0b001)), indegree=2
        )
        bpt = best_parents(random_local_table([int(m) for m in c.pp], 2, rng), c)
        for lookup in (bpt.score, bpt.best_subsets):
            with pytest.raises(EngineError, match="pool outside the possible parents"):
                lookup(1, 0b101)


# -inf or a multiple of 1/8: sums of these are exact, so ties are exact
SCORE_VALUES = st.one_of(st.just(-math.inf), st.integers(-40, 40).map(lambda k: k / 8))


@st.composite
def score_tables(draw):
    """Constraints and a local-score table with exact duplicates and -inf.

    Each table draws its scores from a few values, so exact ties are
    common; finite values are multiples of 1/8, so no two distinct ones
    lie within ``TIE_EPS`` of each other, where the running-best rule of
    the direct enumeration could depend on the order it visits sets in.
    """
    p = draw(st.integers(min_value=1, max_value=6))
    d = draw(st.integers(min_value=1, max_value=max(1, p - 1)))
    pp = []
    for i in range(p):
        others = [j for j in range(p) if j != i]
        members = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
        pp.append(NodeSubset.from_indices(members))
    values = draw(st.lists(SCORE_VALUES, min_size=1, max_size=6))
    tables = [
        {g: draw(st.sampled_from(values)) for g in subsets_up_to(int(pp[i]), d)}
        for i in range(p)
    ]
    c = ParentConstraints(tuple(pp), indegree=d)
    return c, LocalScoreTable(tables)


class TestFirstFitLookup:
    @settings(max_examples=150, deadline=None)
    @given(score_tables())
    def test_matches_direct_enumeration(self, case):
        # every sub-pool of every node: first-fit score and tie set against
        # the direct enumeration exhaustive_search uses
        c, local = case
        bpt = best_parents(local, c)
        for i in range(c.n_nodes):
            full = int(c.pp[i])
            sub = full
            while True:
                ref_score, ref_sets = best_subsets_in_pool(local.subsets(i), sub, c.indegree)
                assert bpt.score(i, sub) == ref_score
                assert bpt.best_subsets(i, sub) == tuple(sorted(ref_sets))
                if sub == 0:
                    break
                sub = (sub - 1) & full

    def test_near_ties_are_within_eps_of_the_maximum(self):
        # a chain of near-ties: 1 is within TIE_EPS of 0 and of 2, but 0 is
        # not within TIE_EPS of 2; the tie set is taken about the maximum
        eps = TIE_EPS
        local = LocalScoreTable(
            [{0: 0.0, 0b10: 0.6 * eps, 0b100: 1.2 * eps}, {0: 0.0}, {0: 0.0}]
        )
        c = ParentConstraints((NodeSubset(0b110), NodeSubset(0), NodeSubset(0)), indegree=1)
        bpt = best_parents(local, c)
        assert bpt.score(0, 0b110) == 1.2 * eps
        assert bpt.best_subsets(0, 0b110) == (0b10, 0b100)
        assert bpt.best_subsets(0, 0b010) == (0, 0b10)


# node 0's eight possible parents, spread over the bytes of a p-node mask
PREFIX_PARENTS = {9: (1, 2, 3, 4, 5, 6, 7, 8), 33: (1, 7, 8, 15, 16, 24, 31, 32),
                  70: (1, 8, 30, 31, 32, 63, 64, 69)}


def prefix_case(p, prefix, seed):
    """Node 0 takes any subset of its eight possible parents (256 listed
    sets); ``prefix - 1`` of them score above its empty set and the rest
    below, so its list through the empty set holds ``prefix`` sets. Scores
    are multiples of 1/8 from a few values, so ties are exact and common.
    The other nodes have no possible parents."""
    rng = np.random.default_rng(seed)
    pp = [NodeSubset.from_indices(PREFIX_PARENTS[p])] + [NodeSubset(0)] * (p - 1)
    sets = [g for g in subsets_up_to(int(pp[0]), 8) if g]
    above = set(rng.choice(len(sets), prefix - 1, replace=False).tolist())
    table = {0: 0.0}
    for k, g in enumerate(sets):
        table[g] = int(rng.integers(1, 5)) / 8 if k in above else int(rng.integers(-4, 0)) / 8
    local = LocalScoreTable([table] + [{0: 0.0}] * (p - 1))
    return ParentConstraints(tuple(pp), indegree=8), local


class TestPrefixBitsets:
    @pytest.mark.parametrize("p", [9, 33, 70])
    @pytest.mark.parametrize("prefix", [63, 64, 65, 130])
    def test_every_sub_pool_matches_direct_enumeration(self, p, prefix):
        # prefixes of one word less one bit, one word, one word and a bit,
        # and three words; masks of uint32, uint64 and Python ints
        c, local = prefix_case(p, prefix, seed=p + prefix)
        table = local.subsets(0)
        assert sorted(table, key=lambda g: -table[g]).index(0) + 1 == prefix
        bpt = best_parents(local, c)
        full = int(c.pp[0])
        subs, sub = [full], full
        while sub:
            sub = (sub - 1) & full
            subs.append(sub)
        refs = [best_subsets_in_pool(table, sub, 8) for sub in subs]
        for sub, (ref_score, ref_sets) in zip(subs, refs):
            assert bpt.score(0, sub) == ref_score
            assert bpt.best_subsets(0, sub) == tuple(sorted(ref_sets))
        # the sweep's batched lookup, by pools that also hold every node
        # outside node 0's possible parents but node 0 itself
        others = ((1 << p) - 1) & ~full & ~1
        pools = bndp.engine._mask_array([sub | others for sub in subs], p)
        nodes = np.zeros(len(subs), dtype=np.intp)
        got = bpt.best_scores(nodes, bpt.byte_columns(pools))
        assert got.tolist() == [score for score, _ in refs]

    def test_no_nodes(self):
        c, local = ParentConstraints((), indegree=1), LocalScoreTable([])
        assert best_sinks(best_parents(local, c), c, local).levels == []

    def test_list_without_empty_set_rejected(self):
        local = LocalScoreTable([{0: 0.0}, {0b01: -1.0}])
        c = ParentConstraints((NodeSubset(0), NodeSubset(0b01)), indegree=1)
        with pytest.raises(EngineError, match="node 1 lists no empty parent set"):
            best_parents(local, c)

    def test_node_count_mismatch_rejected(self):
        local = LocalScoreTable([{0: 0.0}, {0: 0.0}])
        c = ParentConstraints((NodeSubset(0),), indegree=1)
        with pytest.raises(EngineError, match="disagree on node count"):
            best_parents(local, c)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nan_or_positive_inf_score_rejected(self, bad):
        local = LocalScoreTable([{0: 0.0, 0b10: bad}, {0: 0.0}])
        c = ParentConstraints((NodeSubset(0b10), NodeSubset(0)), indegree=1)
        with pytest.raises(EngineError, match="finite or -inf"):
            best_parents(local, c)


# ---------------------------------------------------------------- expansion


class TestGenerationalExpansion:
    def test_worked_example_lattice(self):
        reach = set(reachable_in_sweep_order(paper_constraints()))

        def mask(*xs):
            return sum(1 << x for x in xs)

        # all singletons
        for v in range(4):
            assert mask(v) in reach
        # reachable pairs {1,2},{2,3},{1,4} (1-indexed)
        assert mask(0, 1) in reach
        assert mask(1, 2) in reach
        assert mask(0, 3) in reach
        # excluded: {1,3},{3,4},{1,3,4} and the figure's spurious {2,4}
        assert mask(0, 2) not in reach
        assert mask(2, 3) not in reach
        assert mask(0, 2, 3) not in reach
        assert mask(1, 3) not in reach
        # reachable triples and the full set
        assert mask(0, 1, 2) in reach
        assert mask(0, 1, 3) in reach
        assert mask(0, 1, 2, 3) in reach
        assert len(reach) == 10

    def test_complete_pp_all_subsets(self):
        c = ParentConstraints.complete(4, 3)
        reach = reachable_in_sweep_order(c)
        assert len(reach) == 2**4 - 1
        assert len(set(reach)) == len(reach)

    def test_empty_pp_only_singletons(self):
        c = ParentConstraints((NodeSubset(0),) * 3, indegree=1)
        reach = reachable_in_sweep_order(c)
        assert sorted(reach) == [1, 2, 4]

    def test_emitted_once_level_order(self):
        rng = np.random.default_rng(3)
        c = random_constraints(6, rng, density=0.5)
        seen = reachable_in_sweep_order(c)
        assert len(seen) == len(set(seen))
        sizes = [m.bit_count() for m in seen]
        assert sizes == sorted(sizes)

    def test_cap_enforced(self):
        c = ParentConstraints.complete(10, 2)
        local = random_local_table([int(m) for m in c.pp], 2, np.random.default_rng(0))
        with pytest.raises(EngineError, match="cap"):
            best_sinks(best_parents(local, c), c, local, max_subsets=50)

    def test_cap_error_names_level_sizes(self):
        # levels of 10 and 45 subsets cross a cap of 50 at level 2
        c = ParentConstraints.complete(10, 2)
        local = random_local_table([int(m) for m in c.pp], 2, np.random.default_rng(0))
        with pytest.raises(EngineError, match=r"at level 2 \(45 subsets .*per level: \[10, 45\]"):
            best_sinks(best_parents(local, c), c, local, max_subsets=50)

    def test_over_cap_level_never_scored(self):
        # complete pp over 6 nodes: levels of 6, 15 and 20 subsets. Scoring
        # level 2 fills the 30 pools (s, {t}), t != s, and a cap crossed at
        # level 3 stops the sweep before it scores any pool there.
        c = ParentConstraints.complete(6, 2)
        local = random_local_table([int(m) for m in c.pp], 2, np.random.default_rng(1))
        for cap, level, pools in ((20, 2, 0), (40, 3, 30)):
            bpt = best_parents(local, c)
            with pytest.raises(EngineError, match=f"cap \\({cap}\\) at level {level} "):
                best_sinks(bpt, c, local, max_subsets=cap)
            assert bpt.pool_count() == pools

    def test_reachable_and_maximal_match_brute_force(self):
        for trial in range(40):
            gen = np.random.default_rng(700 + trial)
            p = int(gen.integers(2, 7))
            c = random_constraints(p, gen, density=0.35)
            pp = [int(m) for m in c.pp]
            reachable, maximal = brute_reachable_and_maximal(pp, p)
            local = random_local_table(pp, 2, gen)
            bst = best_sinks(best_parents(local, c), c, local)
            assert set(bst.entries) == reachable
            assert sorted(bst.maximal) == sorted(maximal)


# ---------------------------------------------------------------- best sinks


class TestBestSinks:
    def test_singletons_score_empty_set(self):
        rng = np.random.default_rng(0)
        c = paper_constraints()
        local = random_local_table([int(m) for m in c.pp], 2, rng)
        bst = best_sinks(best_parents(local, c), c, local)
        for v in range(4):
            score, sinks = bst.entries[1 << v]
            assert score == local.score(v, 0)
            assert sinks == (v,)

    def test_counting_theorem_p3_p4(self):
        rng = np.random.default_rng(1)
        for p, expected in ((3, 48), (4, 1536)):
            c = ParentConstraints.complete(p, p - 1)
            local = random_local_table([int(m) for m in c.pp], p - 1, rng)
            bst = best_sinks(best_parents(local, c), c, local)
            # (ordering, parent-set) combinations through each subset: a
            # sink s of W adds a free choice of parents within pp[s] & (W - s)
            combos = {}
            for w in bst.entries:
                if w.bit_count() == 1:
                    combos[w] = 1
                    continue
                combos[w] = sum(
                    combos[w ^ (1 << s)] << (int(c.pp[s]) & (w ^ (1 << s))).bit_count()
                    for s in NodeSubset(w)
                )
            full = (1 << p) - 1
            assert combos[full] == expected
            assert expected == math.factorial(p) * 2 ** math.comb(p, 2)

    def test_table_has_seven_entries_p3(self):
        rng = np.random.default_rng(2)
        c = ParentConstraints.complete(3, 2)
        local = random_local_table([int(m) for m in c.pp], 2, rng)
        bst = best_sinks(best_parents(local, c), c, local)
        assert bst.n_subsets == 7

    def test_recursion_identity(self):
        # Every entry equals the max over admissible sink decompositions.
        rng = np.random.default_rng(4)
        for trial in range(20):
            gen = np.random.default_rng(100 + trial)
            p = int(gen.integers(2, 7))
            c = random_constraints(p, gen, density=0.6, indegree=2)
            local = random_local_table([int(m) for m in c.pp], 2, gen)
            bpt = best_parents(local, c)
            bst = best_sinks(bpt, c, local)
            for w, (score, sinks) in bst.entries.items():
                if w.bit_count() == 1:
                    continue
                cands = {}
                for s in NodeSubset(w):
                    prev = w ^ (1 << s)
                    pool = int(c.pp[s]) & prev
                    if pool and prev in bst.entries:
                        cands[s] = bst.entries[prev][0] + bpt.score(s, pool)
                assert cands
                best = max(cands.values())
                assert abs(score - best) < 1e-9
                for s in sinks:
                    assert abs(cands[s] - best) <= 1e-9 * max(1.0, abs(best))

    def test_near_tie_chain_sinks_within_eps_of_maximum(self):
        # The full set's candidates by sink are 0.5, 0.5 + 0.6 eps and
        # 0.5 + 1.2 eps. Sink 1 lies within TIE_EPS of the maximum (sink 2),
        # sink 0 does not. A running best drops sink 1: sink 0 held the best
        # when sink 1 came, and sink 2 then replaced both.
        eps = TIE_EPS
        local = LocalScoreTable(
            [{0: 0.6 * eps, 0b010: 0.25}, {0: 1.2 * eps, 0b100: 0.25}, {0: 0.0, 0b001: 0.25}]
        )
        c = ParentConstraints(
            (NodeSubset(0b010), NodeSubset(0b100), NodeSubset(0b001)), indegree=1
        )
        bst = best_sinks(best_parents(local, c), c, local)
        assert bst.sinks(0b111) == (1, 2)
        assert abs(bst.score(0b111) - (0.5 + 1.2 * eps)) <= eps

    def test_unreachable_subset_is_a_key_error(self):
        # only 0 -> 1 is possible, so {0, 2} is never built; the empty set
        # and a node outside the table are not subsets it holds either
        local = LocalScoreTable([{0: 0.0}, {0: 0.0, 0b001: 0.5}, {0: 0.0}])
        c = ParentConstraints((NodeSubset(0), NodeSubset(0b001), NodeSubset(0)), indegree=1)
        bst = best_sinks(best_parents(local, c), c, local)
        assert bst.score(0b011) == 0.5
        for mask in (0b101, 0, 0b1000):
            with pytest.raises(KeyError):
                bst.score(mask)

    def test_figure_best_sink_chain(self):
        # local scores crafted so the best network is the chain
        # 2 -> 1 -> 0 -> 3 with unique best sinks peeling 3,0,1,2
        c = paper_constraints()
        bonus = 5.0
        scores = [
            {0: -1.0, 0b0010: -1.0 + bonus, 0b1000: -1.5, 0b1010: -1.2},
            {0: -1.0, 0b0100: -1.0 + bonus, 0b0001: -1.5, 0b0101: -1.2},
            {0: -1.0, 0b0010: -10.0},
            {0: -1.0, 0b0001: -1.0 + bonus},
        ]
        local = LocalScoreTable(scores)
        bpt = best_parents(local, c)
        bst = best_sinks(bpt, c, local)
        full = 0b1111
        assert bst.sinks(full) == (3,)
        assert bst.sinks(full ^ 0b1000) == (0,)
        assert bst.sinks(0b0110) == (1,)
        result = recover_networks(bst, bpt, c, local)
        assert len(result.networks) == 1
        net = result.networks[0]
        assert net.ordering == (2, 1, 0, 3)
        assert net.edges() == [(0, 3), (1, 0), (2, 1)]
        assert abs(net.total_score - (-4.0 + 3 * bonus)) < 1e-12


@st.composite
def sweep_cases(draw):
    """Constraints over up to 10 nodes, with scores drawn as in ``score_tables``."""
    p = draw(st.integers(min_value=1, max_value=10))
    d = draw(st.integers(min_value=1, max_value=max(1, min(3, p - 1))))
    density = draw(st.sampled_from([0.15, 0.3, 0.5, 0.8]))
    rnd = draw(st.randoms(use_true_random=False))
    pp = [
        NodeSubset.from_indices(j for j in range(p) if j != i and rnd.random() < density)
        for i in range(p)
    ]
    values = draw(st.lists(SCORE_VALUES, min_size=1, max_size=6))
    tables = [{g: rnd.choice(values) for g in subsets_up_to(int(pp[i]), d)} for i in range(p)]
    c = ParentConstraints(tuple(pp), indegree=d)
    return c, LocalScoreTable(tables)


class TestSweepAgainstDictOracle:
    @settings(max_examples=80, deadline=None)
    @given(sweep_cases())
    def test_matches_dict_sweep(self, case):
        # scores, tie sets and subsets in sweep order, and the maximal
        # subsets in order; finite scores are multiples of 1/8, so ties are
        # exact and the oracle's running best is exact too
        c, local = case
        bst = best_sinks(best_parents(local, c), c, local)
        entries, maximal = dict_best_sinks(c, local)
        assert list(bst.entries.items()) == list(entries.items())
        assert bst.maximal == maximal

    @pytest.mark.parametrize("p", [27, 28, 32, 33, 64, 70])
    def test_path_constraints(self, p):
        # the dtype edges: masks are uint32 up to p = 32 (32 uses their top
        # bit), uint64 from 33 to 64 and Python ints at 70
        c, local = path_case(p, seed=p)
        bpt = best_parents(local, c)
        bst = best_sinks(bpt, c, local)
        entries, maximal = dict_best_sinks(c, local)
        full = (1 << p) - 1
        assert bst.levels[0][0].dtype == (np.uint32 if p <= 32 else np.uint64 if p <= 64 else object)
        assert bst.n_subsets == p * (p + 1) // 2  # the intervals of the path
        assert list(bst.entries.items()) == list(entries.items())
        assert bst.maximal == maximal == [full]

    def test_wide_lists_take_wide_indices(self):
        # node 0 may take any one or two of nodes 1-23, which have no possible
        # parents: its 277 listed sets span five 64-bit words of bitsets.
        # Every two-parent set ranks first (list positions 0-252), then the
        # singletons (253-275), then the empty set, so every pool {u} of
        # node 0 first fits past index 255, in the fourth or fifth word.
        p = 24
        pairs = [g for g in subsets_up_to((1 << p) - 2, 2) if g.bit_count() == 2]
        table = {g: -k / 8 for k, g in enumerate(pairs)}
        table.update({1 << u: -32 - u / 8 for u in range(1, p)})
        table[0] = -40.0
        local = LocalScoreTable([table] + [{0: -1.0}] * (p - 1))
        c = ParentConstraints((NodeSubset((1 << p) - 2),) + (NodeSubset(0),) * (p - 1), indegree=2)
        bpt = best_parents(local, c)
        bst = best_sinks(bpt, c, local)
        entries, maximal = dict_best_sinks(c, local)
        assert bst.n_subsets == p + (p - 1)  # the singletons and each {0, u}
        assert list(bst.entries.items()) == list(entries.items())
        assert bst.maximal == maximal
        for u in range(1, p):
            assert bpt.score(0, 1 << u) == best_subsets_in_pool(table, 1 << u, 2)[0] == -32 - u / 8

    def test_recovery_with_python_int_masks(self):
        # 70 nodes, a path over the top ten and no possible parents elsewhere:
        # the cover is the path's interval plus 60 singletons
        p, top = 70, range(60, 70)
        pp = [0] * 60 + [(1 << (i - 1) if i > 60 else 0) | (1 << (i + 1) if i < 69 else 0) for i in top]
        c = ParentConstraints(tuple(NodeSubset(m) for m in pp), indegree=2)
        local = random_local_table(pp, 2, np.random.default_rng(3))
        bpt = best_parents(local, c)
        bst = best_sinks(bpt, c, local)
        interval = sum(1 << i for i in top)
        result = recover_networks(bst, bpt, c, local, cap=4)
        assert sorted(result.covered) == sorted([1 << v for v in range(60)] + [interval])
        expected = bst.score(interval) + sum(local.score(v, 0) for v in range(60))
        for net in result.networks:
            assert abs(net.total_score - expected) <= 1e-9 * abs(expected)


def sweeps_by_chunk_size(c, local):
    """``levels`` (values and dtypes), ``maximal`` and ``pool_count()`` at each pair-chunk size.

    The sizes are one pair, three pairs and more pairs than any level has,
    so the small ones put chunk boundaries inside the pairs of one subset
    unless the chunks keep each subset's pairs whole.
    """
    out = []
    for size in (1, 3, 1 << 40):
        with mock.patch.object(bndp.engine, "_PAIR_CHUNK", size):
            bpt = best_parents(local, c)
            bst = best_sinks(bpt, c, local)
        levels = [[(a.dtype, a.tolist()) for a in level] for level in bst.levels]
        out.append((levels, bst.maximal, bpt.pool_count()))
    return out


class TestPairChunks:
    @settings(max_examples=60, deadline=None)
    @given(sweep_cases())
    def test_chunk_size_does_not_change_the_sweep(self, case):
        first, *rest = sweeps_by_chunk_size(*case)
        assert all(other == first for other in rest)

    def test_chunk_size_with_python_int_masks(self):
        # p = 70 takes object arrays of Python-int masks
        c, local = path_case(70, seed=5)
        first, *rest = sweeps_by_chunk_size(c, local)
        assert first[0][0][0][0] == np.dtype(object)
        assert all(other == first for other in rest)


# ------------------------------------------------------------------ recover

ORACLE_PATHS = 20_000  # peeling paths the ordering oracle may walk per case
ORACLE_NETWORKS = 300  # distinct networks it may emit


def check_peeling_order(net, c):
    """Every node follows its parents in the network's ordering."""
    at = {v: k for k, v in enumerate(net.ordering)}
    assert sorted(at) == list(range(c.n_nodes))
    assert all(at[u] < at[v] for u, v in net.edges())


class TestRecoveryAgainstOrderingOracle:
    @settings(max_examples=80, deadline=None)
    @given(sweep_cases())
    def test_matches_ordering_enumeration(self, case):
        # finite scores are multiples of 1/8, so ties are exact and the
        # oracle's direct parent-set enumeration ties exactly as the table
        c, local = case
        bpt = best_parents(local, c)
        bst = best_sinks(bpt, c, local)
        _, _, cover = ordering_recover(bst, c, local, cap=0)
        assume(peeling_paths(bst, bpt, c, cover) <= ORACLE_PATHS)
        oracle, truncated, _ = ordering_recover(bst, c, local, cap=ORACLE_NETWORKS)
        assume(not truncated)
        optima = {net.parents for net in oracle}
        got = recover_networks(bst, bpt, c, local, cap=ORACLE_NETWORKS)
        assert (got.truncated, got.covered) == (False, cover)
        assert len(got.networks) == len(optima)
        assert {net.parents for net in got.networks} == optima
        for net in got.networks:
            check_peeling_order(net, c)
        for cap in (0, 1, 3):
            _, ref_truncated, _ = ordering_recover(bst, c, local, cap=cap)
            res = recover_networks(bst, bpt, c, local, cap=cap)
            assert (res.truncated, res.covered) == (ref_truncated, cover)
            parents = [net.parents for net in res.networks]
            assert len(set(parents)) == len(parents) == min(cap, len(optima))
            assert set(parents) <= optima


class TestRecoverNetworks:
    def test_single_node(self):
        c = ParentConstraints((NodeSubset(0),), indegree=1)
        local = LocalScoreTable([{0: -2.0}])
        bpt = best_parents(local, c)
        bst = best_sinks(bpt, c, local)
        result = recover_networks(bst, bpt, c, local)
        assert len(result.networks) == 1
        net = result.networks[0]
        assert net.parents == (NodeSubset(0),)
        assert net.total_score == -2.0

    def test_exact_tie_returns_both(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(200)
        y = 0.9 * x + 0.5 * rng.standard_normal(200)
        data = cont(np.column_stack([x, y]))
        c = ParentConstraints.complete(2, 1)
        local = compute_local_scores(data, c, ScoreConfig("bic"))
        bpt = best_parents(local, c)
        bst = best_sinks(bpt, c, local)
        result = recover_networks(bst, bpt, c, local)
        edge_sets = {tuple(int(m) for m in net.parents) for net in result.networks}
        assert edge_sets == {(0, 0b01), (0b10, 0)}  # both orientations

    def test_disconnected_packing(self):
        # two independent pp components recovered as a union graph
        pp = (
            NodeSubset.from_indices([1]),
            NodeSubset.from_indices([0]),
            NodeSubset.from_indices([3]),
            NodeSubset.from_indices([2]),
        )
        c = ParentConstraints(pp, indegree=1)
        rng = np.random.default_rng(8)
        x = rng.standard_normal(300)
        y = 1.2 * x + 0.4 * rng.standard_normal(300)
        z = rng.standard_normal(300)
        w = 1.2 * z + 0.4 * rng.standard_normal(300)
        data = cont(np.column_stack([x, y, z, w]))
        local = compute_local_scores(data, c, ScoreConfig("bic"))
        bpt = best_parents(local, c)
        bst = best_sinks(bpt, c, local)
        assert (0b1111 not in bst.entries)
        result = recover_networks(bst, bpt, c, local)
        net = result.networks[0]
        assert net.skeleton() == {(0, 1), (2, 3)}
        assert len(result.covered) == 2

    def test_overlapping_maximal_subsets(self):
        # pp: node 0 can take 1 or 2 as parent; 1 and 2 are sources with
        # empty pp, so {0,1,2} is unreachable and maximal subsets overlap
        pp = (NodeSubset.from_indices([1, 2]), NodeSubset(0), NodeSubset(0))
        c = ParentConstraints(pp, indegree=2)
        rng = np.random.default_rng(9)
        a = rng.standard_normal(300)
        b = rng.standard_normal(300)
        y = 1.0 * a + 0.3 * rng.standard_normal(300)
        data = cont(np.column_stack([y, a, b]))
        local = compute_local_scores(data, c, ScoreConfig("bic"))
        bpt = best_parents(local, c)
        bst = best_sinks(bpt, c, local)
        result = recover_networks(bst, bpt, c, local)
        net = result.networks[0]
        # the stronger component {y,a} wins; b is isolated
        assert net.edges() == [(1, 0)]
        assert net.parents[2] == 0

    def test_cover_disjoint_and_maximal(self):
        # asymmetric constraints with the full set unreachable: the greedy
        # cover must pick pairwise disjoint maximal reachable subsets
        checked = 0
        for trial in range(60):
            gen = np.random.default_rng(800 + trial)
            p = int(gen.integers(3, 7))
            c = random_constraints(p, gen, density=0.3)
            pp = [int(m) for m in c.pp]
            reachable, maximal = brute_reachable_and_maximal(pp, p)
            if (1 << p) - 1 in reachable:
                continue
            checked += 1
            local = random_local_table(pp, 2, gen)
            bpt = best_parents(local, c)
            bst = best_sinks(bpt, c, local)
            used = 0
            for w in recover_networks(bst, bpt, c, local, cap=0).covered:
                assert w & used == 0
                assert w in maximal
                used |= w
        assert checked >= 30

    def test_negative_cap_rejected(self):
        c = ParentConstraints.complete(3, 2)
        local = random_local_table([int(m) for m in c.pp], 2, np.random.default_rng(13))
        bpt = best_parents(local, c)
        bst = best_sinks(bpt, c, local)
        with pytest.raises(EngineError, match="at least 0"):
            recover_networks(bst, bpt, c, local, cap=-1)

    def test_tables_freed_by_refcount(self):
        # recovery must not leave a reference cycle holding the tables: a
        # cycle keeps them alive until a full collection, which raised
        # peak memory over repeated learn calls
        import gc
        import weakref

        rng = np.random.default_rng(12)
        c = ParentConstraints.complete(4, 2)
        local = random_local_table([int(m) for m in c.pp], 2, rng)
        gc.disable()
        try:
            bpt = best_parents(local, c)
            bst = best_sinks(bpt, c, local)
            refs = weakref.ref(bpt), weakref.ref(bst)
            recover_networks(bst, bpt, c, local)
            del bpt, bst
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_cap_truncation(self):
        # a strong chain V0 - V1 - V2 - V3 - V4: its five orientations
        # without a collider are Markov equivalent, so BIC ties them
        rng = np.random.default_rng(10)
        M = rng.standard_normal((200, 5))
        for j in range(1, 5):
            M[:, j] += M[:, j - 1]
        data = cont(M)
        c = ParentConstraints.complete(5, 2)
        local = compute_local_scores(data, c, ScoreConfig("bic"))
        bpt = best_parents(local, c)
        bst = best_sinks(bpt, c, local)
        result = recover_networks(bst, bpt, c, local, cap=3)
        assert result.truncated is True
        assert len({net.parents for net in result.networks}) == len(result.networks) == 3
        optimum = bst.score(0b11111)
        assert all(_close(net.total_score, optimum) for net in result.networks)


# ---------------------------------------------------------------- orderings


class TestOrderingSemantics:
    def test_paths_equal_complete_orderings(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            gen = np.random.default_rng(trial)
            p = int(gen.integers(2, 6))
            c = random_constraints(p, gen, density=0.45)
            pp = [int(m) for m in c.pp]
            orderings = complete_generational_orderings(pp, p)
            reach = set(reachable_in_sweep_order(c, seed=trial))
            # walk every path through the emitted lattice
            paths = []

            def walk(prefix_mask, order):
                if len(order) == p:
                    paths.append(tuple(order))
                    return
                for v in range(p):
                    bit = 1 << v
                    if prefix_mask & bit:
                        continue
                    if prefix_mask and not (pp[v] & prefix_mask):
                        continue
                    if (prefix_mask | bit) not in reach:
                        continue
                    walk(prefix_mask | bit, order + [v])

            walk(0, [])
            assert sorted(paths) == sorted(orderings)


# --------------------------------------------------------------- exhaustive


class TestExhaustive:
    def test_dag_count_p3(self):
        assert sum(1 for _ in enumerate_dags(3)) == 25

    def test_dag_count_p4(self):
        assert sum(1 for _ in enumerate_dags(4)) == 543

    def test_refuses_large(self):
        rng = np.random.default_rng(0)
        data = cont(rng.standard_normal((30, 7)))
        with pytest.raises(EngineError):
            exhaustive_search(data, ScoreConfig("bic"), 2)

    def test_matches_enumeration(self):
        # order-based oracle equals direct DAG enumeration scoring
        rng = np.random.default_rng(1)
        for trial in range(10):
            gen = np.random.default_rng(200 + trial)
            p = int(gen.integers(2, 5))
            M = gen.standard_normal((80, p))
            if p >= 2:
                M[:, 1] += gen.uniform(0.5, 1.5) * M[:, 0]
            data = cont(M)
            d = int(gen.integers(1, p + 1)) if p > 1 else 1
            c = random_constraints(p, gen, density=0.7, indegree=d)
            local = compute_local_scores(data, c, ScoreConfig("bic"))
            best_enum = -math.inf
            for parents in enumerate_dags(p, c):
                total = sum(local.score(i, parents[i]) for i in range(p))
                best_enum = max(best_enum, total)
            result = exhaustive_search(data, ScoreConfig("bic"), d, c)
            assert abs(result.optimal_score - best_enum) < 1e-9

    def test_empty_graph_optimal_on_noise(self):
        wins = 0
        reps = 30
        for k in range(reps):
            rng = np.random.default_rng(300 + k)
            data = cont(rng.standard_normal((150, 2)))
            result = exhaustive_search(data, ScoreConfig("bic"), 1)
            if all(int(m) == 0 for m in result.networks[0].parents):
                wins += 1
        assert wins >= 0.8 * reps

    def test_generational_restriction_smaller_space(self):
        # with a collider-only pp star, the generational space cannot
        # express both roots before the center
        rng = np.random.default_rng(12)
        a = rng.standard_normal(400)
        b = rng.standard_normal(400)
        y = a + b + 0.5 * rng.standard_normal(400)
        data = cont(np.column_stack([y, a, b]))
        pp = (NodeSubset.from_indices([1, 2]), NodeSubset.from_indices([0]),
              NodeSubset.from_indices([0]))
        c = ParentConstraints(pp, indegree=2)
        unrestricted = exhaustive_search(data, ScoreConfig("bic"), 2, c)
        restricted = exhaustive_search(
            data, ScoreConfig("bic"), 2, c, generational_only=True
        )
        collider = (0b110, 0, 0)
        assert any(
            tuple(int(m) for m in net.parents) == collider
            for net in unrestricted.networks
        )
        assert restricted.optimal_score < unrestricted.optimal_score


# -------------------------------------------------------------------- learn


class TestLearn:
    def test_chain_recovery(self):
        hits = 0
        reps = 20
        for k in range(reps):
            rng = np.random.default_rng(400 + k)
            n = 1000
            x = rng.standard_normal(n)
            y = 1.1 * x + 0.6 * rng.standard_normal(n)
            z = 1.1 * y + 0.6 * rng.standard_normal(n)
            data = cont(np.column_stack([x, y, z]), list("xyz"))
            res = learn(data, ScreenOptions(alpha=0.001), ScoreConfig("bic"), 2)
            names = res.data.names
            skel = {
                tuple(sorted((names[a], names[b])))
                for a, b in res.networks[0].edges()
            }
            if skel == {("x", "y"), ("y", "z")}:
                hits += 1
        assert hits >= 0.9 * reps

    def test_dp_equals_oracle_small(self):
        rng = np.random.default_rng(17)
        compared = 0
        for trial in range(15):
            gen = np.random.default_rng(500 + trial)
            p = int(gen.integers(2, 6))
            M = gen.standard_normal((120, p))
            for _ in range(p - 1):
                i, j = gen.integers(0, p, 2)
                if i != j:
                    M[:, j] += gen.uniform(0.4, 1.2) * M[:, i]
            data = cont(M)
            res = learn(data, ScreenOptions(corr_cutoff=0.0), ScoreConfig("bic"), 2)
            oracle = exhaustive_search(
                res.data, ScoreConfig("bic"), 2, res.constraints
            )
            got = res.networks[0].total_score
            assert abs(got - oracle.optimal_score) <= 1e-9 * max(1.0, abs(got))
            generational = exhaustive_search(
                res.data, ScoreConfig("bic"), 2, res.constraints, generational_only=True
            )
            if not (res.truncated or generational.truncated):
                compared += 1
                got_set = {net.parents for net in res.networks}
                assert got_set == {net.parents for net in generational.networks}
        assert compared >= 10

    def test_survival_sink_equals_oracle(self):
        # Cox screening and Cox-BIC scores end to end: the survival node is
        # a sink and the optima are exactly the generational oracle's.
        rng = np.random.default_rng(600)
        n = 200
        M = rng.standard_normal((n, 5))
        for j in range(1, 5):
            M[:, j] += rng.uniform(0.7, 0.8) * M[:, j - 1]
        time, status = simulate_survival(0.8 * M[:, 2] - 0.6 * M[:, 4], seed=600)
        cols = [Column(f"V{i}", "continuous", M[:, i].copy()) for i in range(5)]
        data = Dataset(cols + [Column("T", "survival", np.column_stack([time, status]))])
        cfg = ScoreConfig("bic")
        res = learn(data, ScreenOptions(alpha=0.05), cfg, 2)
        s = res.data.survival_index
        assert res.data.p == 6 and s is not None and not res.truncated
        for net in res.networks:
            assert not any(int(m) >> s & 1 for m in net.parents)
        oracle = exhaustive_search(res.data, cfg, 2, res.constraints, generational_only=True)
        assert {net.parents for net in res.networks} == {net.parents for net in oracle.networks}
        got = res.networks[0].total_score
        assert abs(got - oracle.optimal_score) <= 1e-9 * abs(got)

    def test_report_contents(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal(300)
        y = x + 0.5 * rng.standard_normal(300)
        data = cont(np.column_stack([x, y]))
        res = learn(data, ScreenOptions(alpha=0.01), ScoreConfig("bic"), 2)
        report = res.report
        assert report["feas_set_size"] == 2
        assert set(report["stage_ms"]) == {
            "screen",
            "local_scores",
            "best_parents",
            "best_sinks",
            "recover",
        }
        assert report["n_reachable_subsets"] == 3
        assert report["level_sizes"] == [2, 1]
        assert sum(report["level_sizes"]) == report["n_reachable_subsets"]
        assert len(report["level_ms"]) == len(report["level_sizes"])
        assert all(ms >= 0 for ms in report["level_ms"])
        assert report["optimal_score"] == res.networks[0].total_score
        # the orientations tie: recovery fills {x, y} and both singletons
        assert report["n_recover_subsets"] == 3
        assert report["warnings"] == [] and report["warning_counts"] == {}

        # two constant columns: warnings counted by category, first message kept
        data = cont(np.column_stack([x, y, np.ones(300), np.zeros(300)]), ["x", "y", "K", "L"])
        report = learn(data, ScreenOptions(alpha=0.01), ScoreConfig("bic"), 2).report
        assert report["warning_counts"] == {
            "ScreeningWarning": {
                "count": 2,
                "first": "column 'K' is constant; treated as unassociated",
            }
        }
        assert len(report["warnings"]) == 2

    def test_tied_sinks_recover_in_one_pass(self):
        # 10 independent columns, complete possible parents: every node is a
        # best sink of every subset, so there are 10! peeling orders but one
        # network, the empty graph, filled from the 1,023 subsets once each
        rng = np.random.default_rng(1)
        names = [f"Z{i}" for i in range(10)]
        data = cont(rng.standard_normal((1000, 10)), names)
        pp = {a: [b for b in names if b != a] for a in names}
        res = learn(data, ScreenOptions(user_pp=pp), ScoreConfig("bic"), 2)
        assert len(res.networks) == 1 and not res.truncated
        assert res.networks[0].edges() == []
        assert res.report["n_recover_subsets"] == 2**10 - 1
        assert res.report["stage_ms"]["recover"] < 1000

    def test_every_network_validates(self):
        rng = np.random.default_rng(19)
        M = rng.standard_normal((200, 5))
        M[:, 3] += M[:, 0]
        M[:, 4] += M[:, 3]
        data = cont(M)
        res = learn(data, ScreenOptions(alpha=0.05), ScoreConfig("bic"), 2)
        from bndp.core import find_cycle

        for net in res.networks:
            assert find_cycle(net.parents) is None
            net.check_constraints(res.constraints)
            assert net.total_score == sum(net.local_scores)

    def test_prefix_scores_telescope(self):
        rng = np.random.default_rng(20)
        M = rng.standard_normal((150, 4))
        M[:, 1] += 0.9 * M[:, 0]
        M[:, 2] += 0.9 * M[:, 1]
        data = cont(M)
        res = learn(data, ScreenOptions(corr_cutoff=0.0), ScoreConfig("bic"), 2)
        local = compute_local_scores(res.data, res.constraints, ScoreConfig("bic"))
        bpt = best_parents(local, res.constraints)
        bst = best_sinks(bpt, res.constraints, local)
        net = res.networks[0]
        prefix = 0
        running = 0.0
        for v in net.ordering:
            prefix |= 1 << v
            running += net.local_scores[v]
            stored = bst.entries[prefix][0]
            assert abs(stored - running) <= 1e-9 * max(1.0, abs(stored))

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            ({"indegree": 0}, StructureError),
            ({"optima_cap": 0}, EngineError),
            ({"optima_cap": -1}, EngineError),
            ({"max_subsets": 0}, EngineError),
        ],
    )
    def test_bad_arguments_rejected_before_screening(self, monkeypatch, kwargs, error):
        def never(*args, **kw):
            raise AssertionError("screening ran")

        monkeypatch.setattr(bndp.engine, "build_constraints", never)
        data = cont(np.random.default_rng(22).standard_normal((50, 3)))
        args = {"indegree": 2, **kwargs}
        with pytest.raises(error):
            learn(data, ScreenOptions(alpha=0.01), ScoreConfig("bic"), **args)


class TestTracerContract:
    """The benchmark tracer (benchmarks/tracer.py) reaches into ``bndp`` by
    name: it swaps the five stage functions on ``bndp.engine``, wraps the
    ``cox_fit`` names of ``bndp.assoc`` and ``bndp.scoring``, and the
    benchmark scripts import their names from ``bndp``."""

    STAGES = (
        "build_constraints",
        "compute_local_scores",
        "best_parents",
        "best_sinks",
        "recover_networks",
    )

    @pytest.mark.parametrize("survival", [False, True])
    def test_learn_calls_each_stage_once(self, monkeypatch, survival):
        calls = dict.fromkeys(self.STAGES, 0)
        for name in self.STAGES:
            def counted(*args, _name=name, _real=getattr(bndp.engine, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(bndp.engine, name, counted)
        rng = np.random.default_rng(21)
        M = rng.standard_normal((200, 4))
        M[:, 1] += M[:, 0]
        M[:, 2] += M[:, 1]
        cols = list(cont(M).columns)
        if survival:
            time, status = simulate_survival(M[:, 2], seed=21)
            cols.append(Column("os", "survival", np.column_stack([time, status])))
        learn(Dataset(cols), ScreenOptions(alpha=0.01), ScoreConfig("bic"), 2)
        assert calls == dict.fromkeys(self.STAGES, 1)

    def test_cox_fit_names_resolve(self):
        import bndp.assoc
        import bndp.scoring

        assert callable(bndp.assoc.cox_fit)
        assert callable(bndp.scoring.cox_fit)

    def test_public_names_cover_benchmark_imports(self):
        import ast
        import re
        import types
        from pathlib import Path

        import bndp

        assert all(hasattr(bndp, name) for name in bndp.__all__)
        root = Path(__file__).resolve().parents[1]
        used = set()
        for path in sorted((root / "benchmarks").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.module == "bndp":
                    used.update(alias.name for alias in node.names)
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "bndp"
                ):
                    used.add(node.attr)
        ci = (root / ".github" / "workflows" / "tests.yml").read_text()
        for names in re.findall(r"from bndp import ([\w, ]+)", ci):
            used.update(name.strip() for name in names.split(","))
        # submodules (``bndp.engine``) and dunders (``bndp.__file__``) are not exports
        used = {
            name
            for name in used
            if not name.startswith("__")
            and not isinstance(getattr(bndp, name, None), types.ModuleType)
        }
        assert {"learn", "EngineError", "CONTINUOUS", "SimSpec", "simulate_survival"} <= used
        assert used <= set(bndp.__all__)
