"""What ``learn``'s answer must not depend on, over small simulated data.

Each test applies one transform to the data and names what stays fixed:
the screened possible parents (by column name), the optimum within
``TIE_EPS`` and the set of optimal networks (by column name). The data has
up to six continuous columns, a three-level categorical K that shifts x0
by (0, 1.5, 0)[K] and a survival column driven by the last continuous one,
so every kind of pair and every score is exercised. BGe's answer depends
on the data's units, as ``ScoreConfig`` states; the last test checks that.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from bndp import Column, Dataset, ScoreConfig, ScreenOptions, SimSpec, learn
from bndp import simulate_dag, simulate_data, simulate_survival
from bndp.engine import TIE_EPS

N = 300
OPTS = ScreenOptions(alpha=1e-3)


def simulated(seed: int, p: int, categorical: bool, survival: bool) -> Dataset:
    """``p`` continuous columns, each but x0 shifted by one or two earlier
    ones, plus K and T when asked for."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, p))
    k = rng.integers(0, 3, N)
    if categorical:
        X[:, 0] += np.array([0.0, 1.5, 0.0])[k]
    for j in range(1, p):
        extra = rng.choice(j, size=min(j - 1, int(rng.integers(0, 2))), replace=False)
        for i in [j - 1, *extra.tolist()]:
            X[:, j] += rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0) * X[:, i]
    cols = [Column(f"x{j}", "continuous", X[:, j].copy()) for j in range(p)]
    if categorical:
        cols.append(Column("K", "categorical", k.astype(float), levels=3))
    if survival:
        eta = X[:, -1] / X[:, -1].std()
        time, status = simulate_survival(eta, seed=seed)
        cols.append(Column("T", "survival", np.column_stack([time, status])))
    return Dataset(cols)


def answer(data: Dataset, score: str = "bic", opts: ScreenOptions = OPTS) -> dict:
    """The named possible parents, optimum and optimal networks of ``learn``."""
    result = learn(data, opts, ScoreConfig(score), 2)
    names = result.data.names

    def named(masks):
        return {names[v]: frozenset(names[u] for u in m) for v, m in enumerate(masks)}

    return {
        "pp": named(result.constraints.pp),
        "optimum": result.networks[0].total_score,
        "networks": {frozenset(named(net.parents).items()) for net in result.networks},
        "truncated": result.truncated,
    }


def close(a: float, b: float) -> bool:
    """Equality within ``TIE_EPS``, relative as in the engine."""
    return abs(a - b) <= TIE_EPS * max(1.0, abs(a), abs(b))


def assert_same(got: dict, expect: dict, shift: float = 0.0) -> None:
    assert got["pp"] == expect["pp"]
    assert close(got["optimum"], expect["optimum"] + shift)
    assert got["truncated"] == expect["truncated"]
    if not expect["truncated"]:
        assert got["networks"] == expect["networks"]


def with_values(data: Dataset, changes: dict[str, np.ndarray]) -> Dataset:
    return Dataset([dataclasses.replace(c, values=changes.get(c.name, c.values)) for c in data.columns])


datasets = st.builds(
    simulated,
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(3, 6),
    categorical=st.booleans(),
    survival=st.booleans(),
)
FEW = settings(max_examples=20, deadline=None, derandomize=True)


@FEW
@given(datasets, st.randoms(use_true_random=False))
def test_row_permutation(data, random):
    perm = np.array(random.sample(range(N), N))
    assert_same(answer(with_values(data, {c.name: c.values[perm] for c in data.columns})), answer(data))


@FEW
@given(datasets, st.randoms(use_true_random=False))
def test_column_permutation(data, random):
    permuted = Dataset(random.sample(list(data.columns), data.p))
    assert_same(answer(permuted), answer(data))


@FEW
@given(datasets, st.randoms(use_true_random=False))
def test_affine_map_of_continuous_columns_under_bic(data, random):
    """Each continuous node's Gaussian BIC shifts by -n ln|a_v|; every other
    score, and so every network, stays."""
    maps = {
        c.name: (random.choice([-1.0, 1.0]) * 10.0 ** random.uniform(-3, 3), random.uniform(-100, 100))
        for c in data.columns
        if c.kind == "continuous"
    }
    mapped = with_values(data, {name: a * data.column(data.index_of(name)).values + b for name, (a, b) in maps.items()})
    expect = answer(data)
    shift = -N * sum(math.log(abs(a)) for name, (a, _) in maps.items() if name in expect["pp"])
    assert_same(answer(mapped), expect, shift)


@FEW
@given(
    datasets.filter(lambda d: d.survival_index is not None),
    st.sampled_from([lambda t: t**3, lambda t: 2.0 * t + 1.0, np.log1p, np.sqrt]),
)
def test_increasing_map_of_survival_times(data, f):
    time, status = data.column(data.survival_index).values.T
    assert_same(answer(with_values(data, {"T": np.column_stack([f(time), status])})), answer(data))


@FEW
@given(datasets.filter(lambda d: "K" in d.names), st.permutations(range(3)))
def test_level_relabelling(data, codes):
    k = data.column(data.index_of("K")).values.astype(int)
    assert_same(answer(with_values(data, {"K": np.array(codes, dtype=float)[k]})), answer(data))


def test_bge_depends_on_units():
    """BGe's prior scale is fixed in data units: rescaling one column of the
    ``sweep`` benchmark data by 10^6 or 10^-6 changes BGe's networks, and
    leaves Gaussian BIC's."""
    spec = SimSpec(26, 5, 7, 7, 7, n=1000, seed=5)
    data = simulate_data(simulate_dag(spec), spec)
    opts = ScreenOptions(alpha=1e-5)
    v2 = data.column(data.index_of("V2")).values
    base = {score: answer(data, score, opts) for score in ("bge", "bic")}
    for scale in (1e6, 1e-6):
        scaled = with_values(data, {"V2": scale * v2})
        assert answer(scaled, "bge", opts)["networks"] != base["bge"]["networks"]
        bic = answer(scaled, "bic", opts)
        assert bic["networks"] == base["bic"]["networks"]
        assert close(bic["optimum"], base["bic"]["optimum"] - 1000 * math.log(scale))
