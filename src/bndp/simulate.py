"""Synthetic benchmark generator: random role-structured DAGs and
linear-Gaussian data with controllable effect sizes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Column, Dataset, NodeSubset, edges, find_cycle

INDEPENDENT = "independent"
SOURCE = "source"
INTERMEDIATE = "intermediate"
SINK = "sink"

_ORDER_TRIES = 1000
_CENSOR_QUANTILE = 0.8


class SimError(ValueError):
    """Invalid or unsatisfiable simulation specification."""


@dataclass(frozen=True)
class SimSpec:
    """Node-role counts and generation parameters for one replicate.

    ``p0`` nodes stay completely independent; the remaining nodes are
    sources / intermediates / sinks connected through a random ordering.
    ``effect_size`` is a fixed magnitude or a (low, high) range; signs
    are random either way.
    """

    p: int
    p0: int
    p1: int
    p2: int
    p3: int
    n: int
    effect_size: float | tuple[float, float] = (0.5, 1.5)
    noise_sd: float = 1.0
    max_parents: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        counts = (self.p0, self.p1, self.p2, self.p3)
        if any(c < 0 for c in counts):
            raise SimError("role counts must be nonnegative")
        if sum(counts) != self.p:
            raise SimError(f"role counts {counts} must sum to p = {self.p}")
        if self.n < 10:
            raise SimError("sample size must be at least 10")
        if self.noise_sd <= 0:
            raise SimError("noise_sd must be positive")
        if self.max_parents < 1:
            raise SimError("max_parents must be at least 1")
        if (self.p2 > 0 or self.p3 > 0) and self.p1 == 0:
            raise SimError("intermediates and sinks need at least one source")
        if self.p2 > 0 and self.p3 == 0:
            raise SimError("intermediates need a sink to feed into")
        if isinstance(self.effect_size, tuple):
            lo, hi = self.effect_size
            if lo < 0 or hi < lo:
                raise SimError("effect range must satisfy 0 <= low <= high")
        elif self.effect_size < 0:
            raise SimError("fixed effect size must be nonnegative")


@dataclass(frozen=True)
class Dag:
    """Ground-truth graph with node roles and the generating order."""

    parents: tuple[NodeSubset, ...]
    roles: tuple[str, ...]
    order: tuple[int, ...]  # connected nodes, generation order

    def edges(self) -> list[tuple[int, int]]:
        """Directed edges as (parent, child) pairs, sorted."""
        return edges(self.parents)


def simulate_dag(spec: SimSpec) -> Dag:
    """Draw a random role-respecting DAG.

    Connected nodes get a random ordering (rejection-sampled so a source
    comes first and every intermediate precedes a potential child); each
    non-source draws 1..max_parents parents from earlier non-sink nodes,
    and childless intermediates are patched with one outgoing edge.
    """
    rng = np.random.default_rng([spec.seed, 0])
    k = spec.p1 + spec.p2 + spec.p3
    roles = [INDEPENDENT] * spec.p
    order: tuple[int, ...] = ()
    parents = [0] * spec.p

    if k > 0:
        connected = rng.permutation(spec.p)[:k]
        shuffled = rng.permutation(connected)
        for v in shuffled[: spec.p1]:
            roles[v] = SOURCE
        for v in shuffled[spec.p1 : spec.p1 + spec.p2]:
            roles[v] = INTERMEDIATE
        for v in shuffled[spec.p1 + spec.p2 :]:
            roles[v] = SINK

        for _ in range(_ORDER_TRIES):
            cand = [int(v) for v in rng.permutation(connected)]
            if roles[cand[0]] != SOURCE:
                continue
            ok = True
            seen_nonsource_after = False
            for v in reversed(cand):
                if roles[v] == INTERMEDIATE and not seen_nonsource_after:
                    ok = False
                    break
                if roles[v] != SOURCE:
                    seen_nonsource_after = True
            if ok:
                order = tuple(cand)
                break
        else:
            raise SimError("could not draw a role-consistent ordering")

        for pos in range(1, k):
            v = order[pos]
            if roles[v] == SOURCE:
                continue
            pool = [u for u in order[:pos] if roles[u] != SINK]
            m = int(rng.integers(1, spec.max_parents + 1))
            m = min(m, len(pool))
            for u in rng.choice(len(pool), size=m, replace=False):
                parents[v] |= 1 << pool[u]

        child_count = [0] * spec.p
        for m in parents:
            for u in NodeSubset(m):
                child_count[u] += 1
        for pos, v in enumerate(order):
            if roles[v] != INTERMEDIATE or child_count[v] > 0:
                continue
            later = [u for u in order[pos + 1 :] if roles[u] != SOURCE]
            open_slots = [u for u in later if parents[u].bit_count() < spec.max_parents]
            target = open_slots if open_slots else later
            u = target[int(rng.integers(0, len(target)))]
            parents[u] |= 1 << v
            child_count[v] += 1

    dag = Dag(tuple(NodeSubset(m) for m in parents), tuple(roles), order)
    if find_cycle(dag.parents) is not None:
        raise SimError("internal error: generated graph has a cycle")
    return dag


def simulate_data(dag: Dag, spec: SimSpec) -> Dataset:
    """Linear-Gaussian data along the generation order.

    Sources and independent nodes are standard normal; a child is the
    effect-weighted sum of its parents plus N(0, noise_sd^2) noise.
    Deterministic under the spec seed.
    """
    rng = np.random.default_rng([spec.seed, 1])
    n, p = spec.n, spec.p
    X = np.zeros((n, p))
    for v in range(p):
        if dag.roles[v] in (INDEPENDENT, SOURCE):
            X[:, v] = rng.standard_normal(n)
    for v in dag.order:
        mask = dag.parents[v]
        if not mask:
            continue
        acc = spec.noise_sd * rng.standard_normal(n)
        for par in mask:
            if isinstance(spec.effect_size, tuple):
                mag = rng.uniform(spec.effect_size[0], spec.effect_size[1])
            else:
                mag = float(spec.effect_size)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            acc = acc + sign * mag * X[:, par]
        X[:, v] = acc
    cols = [Column(f"V{i}", "continuous", X[:, i].copy()) for i in range(p)]
    return Dataset(cols)


def simulate_survival(eta: np.ndarray, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Exponential survival times with log-hazard ``eta`` and uniform censoring.

    Used by the Cox scoring tests; returns (time, status) with censoring
    times uniform on (0, c), c twice the ``_CENSOR_QUANTILE`` = 0.8
    quantile of the survival times, so a reasonable fraction of events
    is observed.
    """
    rng = np.random.default_rng([seed, 2])
    n = eta.shape[0]
    rate = np.exp(np.clip(eta, -30, 30))
    t_event = rng.exponential(1.0 / rate)
    c = np.quantile(t_event, _CENSOR_QUANTILE) * 2.0
    t_cens = rng.uniform(0, c, size=n)
    time = np.minimum(t_event, t_cens)
    status = (t_event <= t_cens).astype(float)
    time = np.maximum(time, 1e-12)
    return time, status
