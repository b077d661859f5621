"""Structure-recovery metrics: FDR and Hamming distance, directed and
undirected (skeleton) variants."""

from __future__ import annotations

from typing import Sequence

from .core import edges, skeleton

DIRECTED = "directed"
UNDIRECTED = "undirected"


class MetricsError(ValueError):
    """Predicted and true graphs disagree on the node universe, or a parent
    mask names a node outside it."""


def _parent_masks(graph) -> Sequence[int]:
    masks = [int(m) for m in getattr(graph, "parents", graph)]
    for i, m in enumerate(masks):
        if m < 0 or m >> len(masks):
            raise MetricsError(
                f"parents[{i}] = {m} names a node outside the {len(masks)}-node universe"
            )
    return masks


def _edge_sets(predicted, truth, mode: str) -> tuple[set, set]:
    pred = _parent_masks(predicted)
    true = _parent_masks(truth)
    if len(pred) != len(true):
        raise MetricsError(
            f"graphs live on different node universes ({len(pred)} vs {len(true)})"
        )
    if mode == DIRECTED:
        return set(edges(pred)), set(edges(true))
    if mode == UNDIRECTED:
        return skeleton(pred), skeleton(true)
    raise MetricsError(f"unknown mode {mode!r}")


def fdr(predicted, truth, mode: str = DIRECTED) -> float:
    """False discovery rate: the share of predicted edges not in the truth,
    zero when nothing is predicted. A reversed edge is a false discovery
    in directed mode; undirected mode compares skeletons."""
    pred, true = _edge_sets(predicted, truth, mode)
    return len(pred - true) / len(pred) if pred else 0.0


def hamming(predicted, truth, mode: str = DIRECTED) -> int:
    """Hamming distance: the edges in one graph only. A reversed edge
    counts twice in directed mode (a false positive and a false
    negative); undirected mode compares skeletons."""
    pred, true = _edge_sets(predicted, truth, mode)
    return len(pred ^ true)
