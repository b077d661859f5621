"""Correctness gate: a learn result against the stored reference answer.

Answers are compared by column name, so one reference holds for every
row shuffle the seed picks. The optimum must match within the
engine's relative tie tolerance. An untruncated result must also match
the reference network set exactly (a hash of the name-labelled parent
sets). A truncated result returns some ``optima_cap`` members of a larger
tie set, and which ones is not canonical, so it is checked instead for
exactly ``optima_cap`` distinct acyclic networks inside the constraints,
each scoring the optimum.

Every network's continuous local scores are also recomputed here by
least squares, independently of ``bndp.scoring``; survival nodes are not
rescored.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from bndp import CONTINUOUS, StructureError
from bndp.engine import TIE_EPS

RESCORE_RTOL = 1e-7  # least squares here vs the Gram/Cholesky path in bndp


def close(a: float, b: float) -> bool:
    """Equality within ``engine.TIE_EPS``, relative as in the engine."""
    return a == b or abs(a - b) <= TIE_EPS * max(1.0, abs(a), abs(b))


def network_key(net, names: tuple[str, ...]) -> tuple:
    """A network as sorted ``(child, parents)`` pairs of column names."""
    return tuple(
        sorted((names[v], tuple(sorted(names[u] for u in mask))) for v, mask in enumerate(net.parents))
    )


def answer(result) -> dict:
    """The comparable answer of a ``LearnResult``."""
    keys = sorted(network_key(net, result.data.names) for net in result.networks)
    digest = hashlib.sha256(json.dumps(keys).encode()).hexdigest()
    score = float(result.networks[0].total_score) if result.networks else None
    return {
        "optimal_score": score,
        "truncated": bool(result.truncated),
        "n_networks": len(result.networks),
        "networks_sha256": digest,
    }


def _acyclic(parents) -> bool:
    placed, remaining = 0, list(range(len(parents)))
    while remaining:
        ready = [v for v in remaining if int(parents[v]) & ~placed == 0]
        if not ready:
            return False
        for v in ready:
            placed |= 1 << v
        remaining = [v for v in remaining if v not in ready]
    return True


def _bic_gaussian(y: np.ndarray, X: np.ndarray) -> float:
    n = y.shape[0]
    design = np.column_stack([np.ones(n), X])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    rss = float(np.sum((y - design @ coef) ** 2))
    ll = -0.5 * n * (math.log(2.0 * math.pi * rss / n) + 1.0)
    return ll - 0.5 * (X.shape[1] + 2) * math.log(n)


def _rescore_problems(net, data) -> list[str]:
    out = []
    for v, mask in enumerate(net.parents):
        if data.column(v).kind != CONTINUOUS:
            continue
        X = np.column_stack([data.numeric_values(u) for u in mask]) if mask else np.zeros((data.n_rows, 0))
        mine = _bic_gaussian(data.numeric_values(v), X)
        if abs(mine - net.local_scores[v]) > RESCORE_RTOL * max(1.0, abs(mine)):
            out.append(f"local score of {data.names[v]} is {net.local_scores[v]}, recomputed {mine}")
    if not close(sum(net.local_scores), net.total_score):
        out.append("total score is not the sum of the local scores")
    return out


def check(result, ref: dict, optima_cap: int) -> list[str]:
    """Problems with ``result`` against reference ``ref``; empty when correct."""
    got = answer(result)
    problems = []
    if got["optimal_score"] is None or not close(got["optimal_score"], ref["optimal_score"]):
        problems.append(f"optimal score {got['optimal_score']} != reference {ref['optimal_score']}")
    if ref["truncated"]:
        if not got["truncated"] or got["n_networks"] != optima_cap:
            problems.append(f"expected a truncated set of {optima_cap}, got {got['n_networks']}")
    elif got["truncated"] or got["networks_sha256"] != ref["networks_sha256"]:
        problems.append(
            f"network set differs from the reference ({got['n_networks']} vs {ref['n_networks']} networks)"
        )
    names = result.data.names
    if len({network_key(net, names) for net in result.networks}) != len(result.networks):
        problems.append("duplicate networks")
    for i, net in enumerate(result.networks):
        if not _acyclic(net.parents):
            problems.append(f"network {i} has a cycle")
        try:
            net.check_constraints(result.constraints)
        except StructureError as exc:
            problems.append(f"network {i}: {exc}")
        if not close(net.total_score, ref["optimal_score"]):
            problems.append(f"network {i} scores {net.total_score}, not the optimum")
        problems += [f"network {i}: {p}" for p in _rescore_problems(net, result.data)]
    return problems
