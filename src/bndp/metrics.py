"""Structure-recovery metrics: FDR and Hamming distance, directed and
undirected (skeleton) variants."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import edges, skeleton

DIRECTED = "directed"
UNDIRECTED = "undirected"


class MetricsError(ValueError):
    """Predicted and true graphs disagree on the node universe, or a parent
    mask names a node outside it."""


@dataclass(frozen=True)
class EdgeConfusion:
    tp: int
    fp: int
    fn: int
    mode: str


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


def edge_confusion(predicted, truth, mode: str = DIRECTED) -> EdgeConfusion:
    """Edge-level confusion counts.

    In directed mode a reversed edge counts as one false positive and
    one false negative; undirected mode compares skeletons.
    """
    p_edges, t_edges = _edge_sets(predicted, truth, mode)
    tp = len(p_edges & t_edges)
    return EdgeConfusion(tp=tp, fp=len(p_edges) - tp, fn=len(t_edges) - tp, mode=mode)


def fdr(predicted, truth, mode: str = DIRECTED) -> float:
    """False discovery rate FP / (FP + TP); zero when nothing is predicted."""
    c = edge_confusion(predicted, truth, mode)
    if c.fp + c.tp == 0:
        return 0.0
    return c.fp / (c.fp + c.tp)


def hamming(predicted, truth, mode: str = DIRECTED) -> int:
    """Hamming distance FP + FN between edge sets."""
    c = edge_confusion(predicted, truth, mode)
    return c.fp + c.fn
