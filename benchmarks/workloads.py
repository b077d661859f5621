"""Benchmark inputs: one fixed base dataset per workload, rows shuffled by the seed.

Each workload has one base dataset, built with ``bndp``'s own simulator
from the seeds in ``BASES``. The benchmark's ``--seed`` shuffles the rows
(samples) of that dataset and leaves the columns in place. Every
statistic ``learn`` computes is invariant under a row shuffle up to
rounding, and node labels do not change, so the amount of work is the
same for every seed: the reachable subsets, the order in which recovery
visits tied sinks (33,976 ``best_subsets`` lookups on ``sweep`` for seeds
0-4), and the Cox fits and their Newton iterations (41 and 153 on
``cox``). That keeps run-to-run spread down to host noise, and it keeps
one stored reference answer valid for every seed.

Two other uses of the seed were measured and rejected. Drawing fresh
data per seed moved ``sweep``'s reachable-subset count between 73,659
and 83,436 (data seeds 0-5) and recovery time by 4x. Permuting the
columns relabels the nodes; on ``sweep`` recovery stops at the network
cap, and how many tied orderings it visits before that depends on the
labels (1,063 to 22,286 ``best_subsets`` lookups over seeds 0-9).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from bndp import (
    Column,
    Dataset,
    ScoreConfig,
    ScreenOptions,
    SimSpec,
    simulate_dag,
    simulate_data,
    simulate_survival,
)

INDEGREE = 2
OPTIMA_CAP = 32
SCORE = ScoreConfig(family="bic")

BASES = {"sweep": 5, "ties": 0, "cox": 0}  # seeds of the base datasets


@dataclass(frozen=True)
class Workload:
    name: str
    data: Dataset
    screen: ScreenOptions


def _sim(p: int, seed: int):
    """``SimSpec(p, *roles, n=1000, seed)`` with the CLI's default roles.

    The role split equals ``bndp.cli._default_roles(p)`` for p >= 5; it is
    restated here so the benchmark depends on no private name.
    """
    p0 = round(0.2 * p)
    base, rem = divmod(p - p0, 3)
    spec = SimSpec(p, p0, base + (rem > 0), base + (rem > 1), base, n=1000, seed=seed)
    dag = simulate_dag(spec)
    return dag, simulate_data(dag, spec)


def _sweep_base() -> tuple[Dataset, ScreenOptions]:
    # 19 screened nodes and 83,436 reachable subsets: the subset sweep
    # dominates, the full set is unreachable (greedy-cover recovery) and
    # recovery stops at the 32-network cap.
    _, data = _sim(26, BASES["sweep"])
    return data, ScreenOptions(alpha=1e-5)


def _ties_base() -> tuple[Dataset, ScreenOptions]:
    # Independent columns: every ordering ties, so recovery walks all 9!
    # sink peelings to emit one network while the sweep has 511 subsets.
    rng = np.random.default_rng(BASES["ties"])
    X = rng.standard_normal((1000, 9))
    names = [f"Z{i}" for i in range(9)]
    data = Dataset([Column(z, "continuous", X[:, i].copy()) for i, z in enumerate(names)])
    return data, ScreenOptions(user_pp={a: [b for b in names if b != a] for a in names})


def _cox_base() -> tuple[Dataset, ScreenOptions]:
    # The only workload that reaches numeric.cox_fit: Cox screening of the
    # survival column plus Cox-BIC local scores of its parent subsets.
    dag, data = _sim(12, 0)
    a, b = [v for v, role in enumerate(dag.roles) if role == "sink"][:2]

    def z(x: np.ndarray) -> np.ndarray:
        return (x - x.mean()) / x.std()

    eta = 0.5 * (z(data.column(a).values) + z(data.column(b).values))
    time, status = simulate_survival(eta, seed=BASES["cox"])
    surv = Column("T", "survival", np.column_stack([time, status]))
    return Dataset(list(data.columns) + [surv]), ScreenOptions(alpha=1e-5)


_BASES = {"sweep": _sweep_base, "ties": _ties_base, "cox": _cox_base}
NAMES = tuple(_BASES)


def build(name: str, seed: int) -> Workload:
    """The workload's base dataset with its rows shuffled by ``seed``."""
    data, screen = _BASES[name]()
    perm = np.random.default_rng(seed).permutation(len(data.columns[0].values))
    return Workload(name, Dataset([replace(c, values=c.values[perm]) for c in data.columns]), screen)


def build_sim(p: int, seed: int) -> Workload:
    """``sim<p>/s<seed>``: the ROADMAP recipe, rows as simulated (probe only)."""
    _, data = _sim(p, seed)
    return Workload(f"sim{p}/s{seed}", data, ScreenOptions(alpha=1e-5))
