import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bndp.core import (
    Column,
    Dataset,
    Network,
    NodeSubset,
    ParentConstraints,
    StructureError,
    find_cycle,
    skeleton,
    subsets_up_to,
)

indices = st.sets(st.integers(min_value=0, max_value=40), max_size=12)


class TestNodeSubset:
    """A NodeSubset adds membership and iteration to an int mask; its set
    algebra is the int's bitwise algebra, which returns plain ints."""

    def test_roundtrip(self):
        s = NodeSubset.from_indices([0, 3, 7])
        assert list(s) == [0, 3, 7]
        assert s.bit_count() == 3
        assert 3 in s and 4 not in s
        assert repr(s) == "NodeSubset({0, 3, 7})"

    def test_int_interop(self):
        s = NodeSubset.from_indices([1, 2])
        assert s == 0b110
        assert hash(s) == hash(0b110)
        assert {0b110: "x"}[s] == "x"

    @given(indices, indices)
    def test_union_commutes(self, a, b):
        sa, sb = NodeSubset.from_indices(a), NodeSubset.from_indices(b)
        assert sa | sb == sb | sa
        assert type(sa | sb) is int
        assert set(NodeSubset(sa | sb)) == a | b

    @given(indices, indices)
    def test_intersection_commutes(self, a, b):
        sa, sb = NodeSubset.from_indices(a), NodeSubset.from_indices(b)
        assert sa & sb == sb & sa
        assert set(NodeSubset(sa & sb)) == a & b

    @given(indices)
    def test_idempotence(self, a):
        s = NodeSubset.from_indices(a)
        assert s | s == s
        assert s & s == s
        assert s & ~s == 0

    @given(indices, indices)
    def test_difference(self, a, b):
        sa, sb = NodeSubset.from_indices(a), NodeSubset.from_indices(b)
        assert set(NodeSubset(sa & ~sb)) == a - b
        assert sa - sb == int(sa) - int(sb)  # integer subtraction, not set difference

    @given(indices, indices)
    def test_subset_relation(self, a, b):
        sa, sb = NodeSubset.from_indices(a), NodeSubset.from_indices(b)
        assert (sa & ~sb == 0) == a.issubset(b)

    @given(st.integers(min_value=0, max_value=(1 << 200) - 1))
    def test_iteration_lists_the_set_bits(self, m):
        # the sweep keeps masks of more than 64 nodes as Python ints
        assert list(NodeSubset(m)) == [i for i in range(m.bit_length()) if m >> i & 1]

    def test_negative_index_rejected(self):
        with pytest.raises(StructureError):
            NodeSubset.from_indices([-1])


class TestSubsetsUpTo:
    @given(indices, st.integers(min_value=1, max_value=5))
    def test_count_distinct_inside_and_ordered(self, members, d):
        pool = int(NodeSubset.from_indices(members))
        masks = list(subsets_up_to(pool, d))
        k = len(members)
        assert len(masks) == sum(math.comb(k, i) for i in range(min(d, k) + 1))
        assert len(set(masks)) == len(masks)
        assert all(m & ~pool == 0 and m.bit_count() <= d for m in masks)
        # by size, then lexicographically by ascending member index
        keys = [(m.bit_count(), sorted(NodeSubset(m))) for m in masks]
        assert keys == sorted(keys)

    def test_small_pool_order(self):
        assert list(subsets_up_to(0b1011, 2)) == [
            0, 0b0001, 0b0010, 0b1000, 0b0011, 0b1001, 0b1010
        ]
        assert list(subsets_up_to(0, 3)) == [0]


def _acyclic_by_peeling(parents) -> bool:
    """Acyclicity oracle: remove nodes whose parents are all removed until none is left."""
    left = set(range(len(parents)))
    while True:
        free = {v for v in left if not any(u in left for u in NodeSubset(parents[v]))}
        if not free:
            return not left
        left -= free


class TestValidateDag:
    def test_chain_order(self):
        # edges 1->0, 2->1, 0->3 (paper's four-node configuration)
        parents = [0b0010, 0b0100, 0, 0b0001]
        assert find_cycle(parents) is None

    def test_empty_graph(self):
        assert find_cycle([0] * 5) is None

    def test_two_cycle(self):
        assert sorted(find_cycle([0b10, 0b01])) == [0, 1]

    def test_three_cycle_witness_orientation(self):
        # 0 -> 1 -> 2 -> 0
        parents = [0b100, 0b001, 0b010]
        cyc = find_cycle(parents)
        assert sorted(cyc) == [0, 1, 2]
        # each node is a parent of the next, cyclically
        for k, v in enumerate(cyc):
            nxt = cyc[(k + 1) % len(cyc)]
            assert v in NodeSubset(parents[nxt])

    def test_out_of_range_rejected(self):
        with pytest.raises(StructureError):
            find_cycle([0b100])  # only one node

    @given(st.integers(min_value=1, max_value=7), st.randoms())
    def test_random_lower_triangular_is_acyclic(self, p, rnd):
        # arbitrary masks (a few self-loops among them) agree with the
        # peeling oracle, and any witness is a cycle of distinct nodes
        q = rnd.random() / 2
        parents = [
            sum(1 << j for j in range(p) if rnd.random() < (q if j != i else 0.05))
            for i in range(p)
        ]
        cyc = find_cycle(parents)
        assert (cyc is None) == _acyclic_by_peeling(parents)
        if cyc is not None:
            assert len(set(cyc)) == len(cyc) >= 1
            for k, v in enumerate(cyc):
                assert v in NodeSubset(parents[cyc[(k + 1) % len(cyc)]])
        # parents drawn only from earlier indices can never cycle
        assert find_cycle([m & ((1 << i) - 1) for i, m in enumerate(parents)]) is None


class TestSkeleton:
    def test_duplicate_collapse(self):
        assert skeleton([0b10, 0b01]) == {(0, 1)}

    def test_chain(self):
        assert skeleton([0b010, 0b100, 0]) == {(0, 1), (1, 2)}

    def test_empty(self):
        assert skeleton([0, 0, 0]) == set()


class TestParentConstraints:
    def test_paper_duality_example(self):
        pp = tuple(
            NodeSubset.from_indices(m) for m in ([1, 3], [2, 0], [1], [0])
        )
        c = ParentConstraints(pp, indegree=2)
        assert [sorted(m) for m in c.po] == [[1, 3], [0, 2], [1], [0]]

    @given(st.integers(min_value=1, max_value=10), st.randoms())
    def test_duality_random(self, p, rnd):
        pp = []
        for i in range(p):
            mask = 0
            for j in range(p):
                if j != i and rnd.random() < 0.4:
                    mask |= 1 << j
            pp.append(NodeSubset(mask))
        c = ParentConstraints(tuple(pp), indegree=2)
        for i in range(p):
            for j in range(p):
                assert (j in c.pp[i]) == (i in c.po[j])

    def test_self_loop_rejected(self):
        with pytest.raises(StructureError):
            ParentConstraints((NodeSubset(0b01), NodeSubset(0)), indegree=1)

    def test_out_of_range_rejected(self):
        with pytest.raises(StructureError):
            ParentConstraints((NodeSubset(0b100), NodeSubset(0)), indegree=1)

    def test_indegree_below_one_rejected(self):
        with pytest.raises(StructureError, match="indegree must be a positive integer"):
            ParentConstraints((NodeSubset(0b10), NodeSubset(0)), indegree=0)

    def test_complete(self):
        c = ParentConstraints.complete(3, 2)
        assert [sorted(m) for m in c.pp] == [[1, 2], [0, 2], [0, 1]]


class TestDataset:
    def test_rejects_missing(self):
        with pytest.raises(StructureError):
            Column("x", "continuous", np.array([1.0, np.nan]))

    def test_rejects_length_mismatch(self):
        cols = [
            Column("x", "continuous", np.zeros(3)),
            Column("y", "continuous", np.zeros(4)),
        ]
        with pytest.raises(StructureError):
            Dataset(cols)

    def test_rejects_two_survival(self):
        surv = np.column_stack([np.ones(3), np.ones(3)])
        cols = [Column("a", "survival", surv), Column("b", "survival", surv)]
        with pytest.raises(StructureError):
            Dataset(cols)

    def test_categorical_levels(self):
        with pytest.raises(StructureError):
            Column("x", "categorical", np.array([0.0, 1.0]), levels=1)
        with pytest.raises(StructureError):
            Column("x", "categorical", np.array([0.0, 5.0]), levels=3)

    def test_categorical_codes_are_integers(self):
        # a code of 0.5 would be truncated to level 0 by the categorical
        # score and match no level's indicator; integer-valued floats, as
        # load_dataset writes them, stay valid
        with pytest.raises(StructureError, match="non-integer codes"):
            Column("K", "categorical", np.array([0, 0.5, 1.0]), levels=2)
        assert Column("K", "categorical", np.array([0.0, 2.0, 1.0]), levels=3).levels == 3
        assert Column("K", "categorical", np.array([0, 1, 1]), levels=2).levels == 2

    def test_survival_validation(self):
        with pytest.raises(StructureError):
            Column("s", "survival", np.column_stack([np.zeros(3), np.ones(3)]))
        with pytest.raises(StructureError):
            Column("s", "survival", np.column_stack([np.ones(3), 2 * np.ones(3)]))
        # no event: no Cox fit of the column is defined
        with pytest.raises(StructureError, match="survival column 's' has no event"):
            Column("s", "survival", np.column_stack([np.ones(3), np.zeros(3)]))

    @pytest.mark.parametrize(
        "kind, values, message",
        [
            ("ordinal", np.zeros(3), "unknown column kind 'ordinal'"),
            ("survival", np.ones((3, 3)), r"survival column needs \(n, 2\)"),
            ("survival", np.ones(3), r"survival column needs \(n, 2\)"),
            ("continuous", np.zeros((3, 2)), "'x' must be one-dimensional"),
        ],
    )
    def test_column_shape_and_kind_rejected(self, kind, values, message):
        with pytest.raises(StructureError, match=message):
            Column("x", kind, values)

    def test_survival_column_is_not_a_regressor(self):
        data = Dataset([Column("s", "survival", np.ones((3, 2)))])
        with pytest.raises(StructureError, match="cannot be used as a regressor"):
            data.numeric_values(0)

    def test_rejects_no_columns(self):
        with pytest.raises(StructureError, match="at least one column"):
            Dataset([])

    def test_rejects_duplicate_names(self):
        cols = [Column("x", "continuous", np.zeros(3)), Column("x", "continuous", np.ones(3))]
        with pytest.raises(StructureError, match="duplicate column name 'x'"):
            Dataset(cols)

    def test_restrict(self):
        cols = [Column(n, "continuous", np.arange(4.0)) for n in "abc"]
        d = Dataset(cols).restrict([2, 0])
        assert d.names == ("c", "a")


class TestNetwork:
    def test_build_checks_acyclicity(self):
        with pytest.raises(StructureError):
            Network.build([0b10, 0b01], [0.0, 0.0], (0, 1))

    def test_cycle_error_names_the_cycle(self):
        # 0 -> 1 -> 2 -> 0, and node 3 hangs off the cycle as a child of 0
        with pytest.raises(StructureError, match=r"cycle: \((0, 1, 2|1, 2, 0|2, 0, 1)\)$"):
            Network.build([0b100, 0b001, 0b010, 0b001], [0.0] * 4, (0, 1, 2, 3))

    def test_ordering_must_be_topological(self):
        # 0 -> 1 -> 2 is acyclic, but (1, 0, 2) places 1 before its parent 0
        Network.build([0, 0b001, 0b010], [0.0] * 3, (0, 1, 2))
        with pytest.raises(StructureError, match=r"ordering \(1, 0, 2\)"):
            Network.build([0, 0b001, 0b010], [0.0] * 3, (1, 0, 2))

    @pytest.mark.parametrize("ordering", [(0, 1), (0, 1, 1), (0, 1, 2, 0), (0, 1, 3)])
    def test_ordering_must_list_every_node_once(self, ordering):
        with pytest.raises(StructureError, match="ordering"):
            Network.build([0, 0b001, 0], [0.0] * 3, ordering)

    def test_total_is_sum(self):
        net = Network.build([0, 0b01], [-1.5, -2.5], (0, 1))
        assert net.total_score == -4.0
        assert net.edges() == [(0, 1)]

    def test_constraint_check(self):
        c = ParentConstraints((NodeSubset(0), NodeSubset(0b01)), indegree=1)
        net = Network.build([0b10, 0], [0.0, 0.0], (1, 0))
        with pytest.raises(StructureError):
            net.check_constraints(c)

    def test_constraint_check_indegree(self):
        # node 2 may take both 0 and 1 as parents, but only one under indegree 1
        pp = (NodeSubset(0), NodeSubset(0), NodeSubset(0b011))
        net = Network.build([0, 0, 0b011], [0.0] * 3, (0, 1, 2))
        net.check_constraints(ParentConstraints(pp, indegree=2))
        with pytest.raises(StructureError, match="node 2 exceeds the in-degree bound"):
            net.check_constraints(ParentConstraints(pp, indegree=1))
