import numpy as np
import pytest
from hypothesis import given, strategies as st

from bndp.core import edges, skeleton
from bndp.metrics import (
    DIRECTED,
    UNDIRECTED,
    MetricsError,
    fdr,
    hamming,
)


def masks_from_edges(p, edges):
    out = [0] * p
    for a, b in edges:
        out[b] |= 1 << a
    return out


class TestFdr:
    def test_perfect_prediction(self):
        g = masks_from_edges(4, [(0, 1), (1, 2)])
        assert fdr(g, g, DIRECTED) == 0.0
        assert fdr(g, g, UNDIRECTED) == 0.0

    def test_half_false(self):
        truth = masks_from_edges(4, [(0, 1)])
        pred = masks_from_edges(4, [(0, 1), (2, 3)])
        assert fdr(pred, truth, DIRECTED) == 0.5

    def test_zero_predictions_defined_as_zero(self):
        truth = masks_from_edges(3, [(0, 1)])
        pred = masks_from_edges(3, [])
        assert fdr(pred, truth, DIRECTED) == 0.0

    def test_reversed_edge_directed_vs_undirected(self):
        truth = masks_from_edges(2, [(0, 1)])
        pred = masks_from_edges(2, [(1, 0)])
        assert fdr(pred, truth, DIRECTED) == 1.0
        assert fdr(pred, truth, UNDIRECTED) == 0.0

    def test_node_universe_mismatch(self):
        with pytest.raises(MetricsError):
            fdr([0, 0], [0, 0, 0], DIRECTED)

    def test_unknown_mode_rejected(self):
        with pytest.raises(MetricsError, match="unknown mode 'skeleton'"):
            fdr([0, 0], [0, 0], "skeleton")

    def test_negative_mask_rejected(self):
        # -1 has every bit set, so a loop over its set bits never ends
        with pytest.raises(MetricsError, match="outside the 2-node universe"):
            fdr([-1, 0], [0, 0], DIRECTED)


class TestHamming:
    def test_mask_beyond_universe_rejected(self):
        # bit 2 is a third node in a 2-node universe, in either graph
        with pytest.raises(MetricsError, match="outside the 2-node universe"):
            hamming([0b100, 0], [0, 0], DIRECTED)
        with pytest.raises(MetricsError, match="outside the 2-node universe"):
            hamming([0, 0], [0, 0b100], UNDIRECTED)

    def test_identical(self):
        g = masks_from_edges(5, [(0, 1), (2, 3)])
        assert hamming(g, g, DIRECTED) == 0

    def test_empty_prediction_counts_truth(self):
        truth = masks_from_edges(8, [(i, i + 1) for i in range(7)])
        assert hamming([0] * 8, truth, DIRECTED) == 7
        assert hamming([0] * 8, truth, UNDIRECTED) == 7

    def test_triangle_reversal(self):
        tri = masks_from_edges(3, [(0, 1), (1, 2), (2, 0)])
        rev = masks_from_edges(3, [(1, 0), (2, 1), (0, 2)])
        assert hamming(tri, rev, DIRECTED) == 6
        assert hamming(tri, rev, UNDIRECTED) == 0

    def test_symmetry_undirected(self):
        a = masks_from_edges(4, [(0, 1), (1, 2)])
        b = masks_from_edges(4, [(1, 0), (2, 3)])
        assert hamming(a, b, UNDIRECTED) == hamming(b, a, UNDIRECTED)


random_graph = st.builds(
    lambda seed: _random_masks(seed),
    st.integers(min_value=0, max_value=10_000),
)


def _random_masks(seed):
    # random DAGs: parents drawn below a random relabeling
    rng = np.random.default_rng(seed)
    p = 5
    order = rng.permutation(p)
    masks = [0] * p
    for i in range(p):
        for j in range(i):
            if rng.random() < 0.35:
                masks[order[i]] |= 1 << order[j]
    return masks


class TestProperties:
    @given(random_graph, random_graph, random_graph)
    def test_triangle_inequality(self, a, b, c):
        for mode in (DIRECTED, UNDIRECTED):
            assert hamming(a, c, mode) <= hamming(a, b, mode) + hamming(b, c, mode)

    @given(random_graph)
    def test_self_distance_zero(self, g):
        assert hamming(g, g, DIRECTED) == 0

    @given(random_graph, random_graph)
    def test_undirected_tp_at_least_directed(self, a, b):
        # a DAG's skeleton has as many edges as the DAG, so more true
        # positives show as a lower FDR and Hamming distance
        assert fdr(a, b, UNDIRECTED) <= fdr(a, b, DIRECTED)
        assert hamming(a, b, UNDIRECTED) <= hamming(a, b, DIRECTED)

    @given(random_graph, random_graph)
    def test_confusion_counts_consistent(self, a, b):
        for mode in (DIRECTED, UNDIRECTED):
            tp, fp, fn = confusion(a, b, mode)
            assert hamming(a, b, mode) == fp + fn
            assert fdr(a, b, mode) == (fp / (fp + tp) if fp + tp else 0.0)


def confusion(a, b, mode):
    """Oracle (TP, FP, FN) edge counts of prediction ``a`` against truth ``b``."""
    pred, true = (set(edges(g)) if mode == DIRECTED else skeleton(g) for g in (a, b))
    tp = len(pred & true)
    return tp, len(pred) - tp, len(true) - tp
