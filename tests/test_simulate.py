import numpy as np
import pytest

from bndp.core import find_cycle
from bndp.simulate import (
    INDEPENDENT,
    INTERMEDIATE,
    SINK,
    SOURCE,
    SimError,
    SimSpec,
    simulate_dag,
    simulate_data,
)


class TestSimSpec:
    def test_counts_must_sum(self):
        with pytest.raises(SimError):
            SimSpec(p=5, p0=1, p1=1, p2=1, p3=1, n=100)

    def test_sink_needs_source(self):
        with pytest.raises(SimError):
            SimSpec(p=2, p0=1, p1=0, p2=0, p3=1, n=100)

    def test_intermediate_needs_sink(self):
        with pytest.raises(SimError):
            SimSpec(p=3, p0=0, p1=1, p2=2, p3=0, n=100)

    def test_minimum_rows(self):
        with pytest.raises(SimError):
            SimSpec(p=2, p0=2, p1=0, p2=0, p3=0, n=5)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"p": 2, "p0": 3, "p1": -1}, "role counts must be nonnegative"),
            ({"noise_sd": 0.0}, "noise_sd must be positive"),
            ({"max_parents": 0}, "max_parents must be at least 1"),
            ({"effect_size": (1.5, 0.5)}, "effect range must satisfy"),
            ({"effect_size": (-0.5, 1.0)}, "effect range must satisfy"),
            ({"effect_size": -1.0}, "fixed effect size must be nonnegative"),
        ],
    )
    def test_invalid_settings_rejected(self, kwargs, message):
        spec = {"p": 4, "p0": 1, "p1": 1, "p2": 1, "p3": 1, "n": 100, **kwargs}
        with pytest.raises(SimError, match=message):
            SimSpec(**spec)


class TestSimulateDag:
    def test_all_independent_empty_graph(self):
        spec = SimSpec(p=4, p0=4, p1=0, p2=0, p3=0, n=50)
        dag = simulate_dag(spec)
        assert dag.edges() == []
        assert all(r == INDEPENDENT for r in dag.roles)

    def test_forced_single_edge(self):
        spec = SimSpec(p=2, p0=0, p1=1, p2=0, p3=1, n=50, seed=4)
        dag = simulate_dag(spec)
        assert len(dag.edges()) == 1
        (a, b) = dag.edges()[0]
        assert dag.roles[a] == SOURCE and dag.roles[b] == SINK

    def test_property_sweep(self):
        # spot-check structural invariants across many draws
        for seed in range(2000):
            spec = SimSpec(p=6, p0=1, p1=2, p2=2, p3=1, n=20, seed=seed)
            dag = simulate_dag(spec)
            assert find_cycle(dag.parents) is None
            out_deg = [0] * 6
            for child, mask in enumerate(dag.parents):
                for par in mask:
                    out_deg[par] += 1
            for v, role in enumerate(dag.roles):
                ind = dag.parents[v].bit_count()
                if role == SOURCE:
                    assert ind == 0
                elif role == SINK:
                    assert out_deg[v] == 0 and ind >= 1
                elif role == INTERMEDIATE:
                    assert ind >= 1 and out_deg[v] >= 1
                else:
                    assert ind == 0 and out_deg[v] == 0

    def test_deterministic(self):
        spec = SimSpec(p=8, p0=2, p1=2, p2=2, p3=2, n=30, seed=123)
        assert simulate_dag(spec).edges() == simulate_dag(spec).edges()


class TestSimulateData:
    def test_shape_and_determinism(self):
        spec = SimSpec(p=5, p0=1, p1=2, p2=1, p3=1, n=100, seed=7)
        dag = simulate_dag(spec)
        d1 = simulate_data(dag, spec)
        d2 = simulate_data(dag, spec)
        assert d1.n_rows == 100 and d1.p == 5
        for i in range(5):
            assert np.array_equal(d1.column(i).values, d2.column(i).values)

    def test_zero_effect_independence(self):
        spec = SimSpec(
            p=6, p0=0, p1=2, p2=2, p3=2, n=4000, effect_size=0.0, seed=11
        )
        dag = simulate_dag(spec)
        data = simulate_data(dag, spec)
        M = np.column_stack([data.column(i).values for i in range(6)])
        R = np.corrcoef(M, rowvar=False)
        off = R[~np.eye(6, dtype=bool)]
        assert np.max(np.abs(off)) < 0.08

    def test_single_edge_correlation_closed_form(self):
        # child = parent + noise with unit variances: corr = 1/sqrt(2)
        spec = SimSpec(
            p=2, p0=0, p1=1, p2=0, p3=1, n=2000, effect_size=1.0, noise_sd=1.0, seed=3
        )
        dag = simulate_dag(spec)
        data = simulate_data(dag, spec)
        (a, b) = dag.edges()[0]
        r = np.corrcoef(data.column(a).values, data.column(b).values)[0, 1]
        assert abs(abs(r) - 1 / np.sqrt(2)) < 0.05

    def test_columns_nearly_centered(self):
        spec = SimSpec(p=6, p0=1, p1=2, p2=2, p3=1, n=2500, seed=19)
        dag = simulate_dag(spec)
        data = simulate_data(dag, spec)
        for i in range(6):
            col = data.column(i).values
            scale = max(1.0, col.std())
            assert abs(col.mean()) < 4 * scale / np.sqrt(2500)

    def test_effect_range_respected(self):
        spec = SimSpec(
            p=2, p0=0, p1=1, p2=0, p3=1, n=3000,
            effect_size=(0.8, 0.9), noise_sd=0.01, seed=5,
        )
        dag = simulate_dag(spec)
        data = simulate_data(dag, spec)
        (a, b) = dag.edges()[0]
        beta = np.linalg.lstsq(
            data.column(a).values[:, None], data.column(b).values, rcond=None
        )[0][0]
        assert 0.75 <= abs(beta) <= 0.95
