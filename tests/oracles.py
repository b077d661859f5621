"""Brute-force oracles the tests check the engine and the numerics against.

None of these is part of the package: each enumerates what the engine
computes by dynamic programming, or evaluates a closed form the package
itself no longer needs. ``_close`` is the engine's tie rule for one pair
of scores, which the package applies only elementwise (``engine._near``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Iterator

from scipy import special

from bndp.core import Dataset, Network, ParentConstraints, find_cycle, subsets_up_to
from bndp.engine import TIE_EPS, EngineError
from bndp.numeric import NumericError
from bndp.scoring import NEG_INF, ScoreConfig, compute_local_scores


def _close(a: float, b: float) -> bool:
    """Score equality within the engine's relative tie tolerance."""
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= TIE_EPS * max(1.0, abs(a), abs(b))


def student_t_sf(t: float, df: float) -> float:
    """P(T > t) for Student's t with ``df`` degrees of freedom."""
    if df <= 0:
        raise NumericError(f"degrees of freedom must be positive, got {df}")
    # regularized incomplete beta: P(T > t) = I_{df/(df+t^2)}(df/2, 1/2) / 2 for t >= 0
    x = df / (df + t * t)
    half_tail = 0.5 * float(special.betainc(0.5 * df, 0.5, x))
    return half_tail if t >= 0 else 1.0 - half_tail


def best_subsets_in_pool(
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
    """Optimal networks by enumeration of all node orders.

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
            score, masks = best_subsets_in_pool(local.subsets(v), pool, d)
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

    def rec(i: int, parents: list[int]) -> Iterator[tuple[int, ...]]:
        if i == p:
            if find_cycle(parents) is None:
                yield tuple(parents)
            return
        for mask in per_node[i]:
            parents[i] = mask
            yield from rec(i + 1, parents)
        parents[i] = 0

    yield from rec(0, [0] * p)
