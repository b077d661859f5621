import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import special, stats

import bndp
from bndp.assoc import (
    AssocError,
    EmptyFeasSetError,
    ScreenOptions,
    ScreeningWarning,
    _betacf,
    _chi2_sf,
    _corr_against,
    _corr_pvalue,
    _passes,
    _screen_level,
    _statistic,
    bh_adjust,
    build_constraints,
    cox_screen,
)
from bndp.core import Column, Dataset, NodeSubset, StructureError
from bndp.numeric import NumericError, cox_fit
from bndp.scoring import _regressors
from bndp.simulate import simulate_survival


def screen_level(data, targets, excluded, opts):
    """One level's screen on the columns build_constraints gives it."""
    R, cols = _regressors(data, [j for j in range(data.p) if j != data.survival_index])
    return _screen_level(data, R.T.copy(), cols, targets, excluded, opts)


def continuous_dataset(matrix, names=None):
    names = names or [f"V{i}" for i in range(matrix.shape[1])]
    return Dataset(
        [Column(n, "continuous", matrix[:, i].copy()) for i, n in enumerate(names)]
    )


def corr_one(x, y):
    """Pearson r of two vectors through the screening kernel."""
    return float(_corr_against(np.asarray(y, dtype=float)[:, None], np.asarray(x, dtype=float)[:, None])[0, 0])


def _pvalues_from_r(r, n):
    """Two-sided correlation-test p-values of ``r`` over ``n`` rows: the
    screening statistic under ``alpha``."""
    return _statistic(np.asarray(r, dtype=float), n, ScreenOptions(alpha=0.05))


def pvalue_one(x, y):
    """Two-sided correlation-test p-value through the screening kernels."""
    return float(_pvalues_from_r(np.array([corr_one(x, y)]), len(x))[0])


class TestPearson:
    def test_identity(self):
        x = np.arange(10.0)
        assert corr_one(x, x) == 1.0

    def test_negation(self):
        x = np.arange(10.0)
        assert corr_one(x, -x) == -1.0

    def test_matches_covariance_formula(self):
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(100), rng.standard_normal(100)
        direct = np.cov(x, y, bias=True)[0, 1] / (x.std() * y.std())
        assert abs(corr_one(x, y) - direct) < 1e-10
        M = rng.standard_normal((100, 4))
        r = _corr_against(y[:, None], M)[0]
        for k in range(4):
            assert abs(r[k] - np.corrcoef(M[:, k], y)[0, 1]) < 1e-12

    def test_constant_rejected(self):
        # a constant column, or a constant target, has no correlation: its
        # test is undefined (NaN)
        M = np.column_stack([np.ones(5), np.arange(5.0)])
        r = _corr_against(np.array([[1.0], [3.0], [2.0], [5.0], [4.0]]), M)[0]
        assert np.isnan(r[0]) and np.isfinite(r[1])
        assert np.all(np.isnan(_corr_against(np.ones((5, 1)), M)))
        assert np.isnan(_pvalues_from_r(r, 5)[0])


class TestCorrTest:
    def test_zero_correlation(self):
        x = np.array([1.0, -1.0, 1.0, -1.0])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        assert abs(corr_one(x, y)) < 1e-12
        assert abs(pvalue_one(x, y) - 1.0) < 1e-9

    def test_perfect_correlation(self):
        x = np.arange(6.0)
        assert pvalue_one(x, 2 * x + 1) == 0.0
        assert pvalue_one(x, -x) == 0.0

    def test_known_value_n20_r05(self):
        # r = 0.5, n = 20 -> t = 0.5 * sqrt(18 / 0.75), p ~ 0.0249
        from oracles import student_t_sf

        t = 0.5 * math.sqrt(18 / 0.75)
        expect = 2 * student_t_sf(t, 18)
        assert abs(expect - 0.0249) < 5e-4
        # construct two vectors with sample correlation exactly 0.5
        rng = np.random.default_rng(4)
        x = rng.standard_normal(20)
        z = rng.standard_normal(20)
        xc = (x - x.mean()) / x.std()
        zc = z - z.mean()
        zc -= (zc @ xc) / (xc @ xc) * xc  # orthogonal to x
        zc /= zc.std()
        r = 0.5
        y = r * xc + math.sqrt(1 - r * r) * zc
        assert abs(corr_one(x, y) - 0.5) < 1e-12
        assert abs(pvalue_one(x, y) - expect) < 1e-12
        assert abs(_pvalues_from_r(np.array([0.5, -0.5]), 20) - expect).max() < 1e-12

    @pytest.mark.parametrize(
        "r, n, expect",
        [
            (np.nan, 20, np.nan),  # a constant column: undefined
            (1.0, 20, 0.0),
            (-1.0, 20, 0.0),
            (1.0, 2, np.nan),  # two rows: no degrees of freedom
            (0.5, 1, np.nan),
            (0.0, 3, 1.0),
            (0.0, 100_000, 1.0),
            (-1.0, 100_000, 0.0),
            (np.nan, 3, np.nan),
        ],
    )
    def test_edge_values(self, r, n, expect):
        np.testing.assert_array_equal(_pvalues_from_r(np.array([r]), n), [expect])


# r = k / 2**20: r * r and 1 - r * r are exact, so the kernel and the
# oracle, special.betainc(df/2, 1/2, 1 - r*r), see the same x
_R_SCALE = 2**20


def _r_grid(df):
    """r dense in [0, 1], plus 300 steps on each side of the switch point
    x = (a+1)/(a+b+2) of the continued fraction."""
    a = df / 2
    k_switch = round(math.sqrt(1 - (a + 1) / (a + 2.5)) * _R_SCALE)
    k = np.arange(0, _R_SCALE + 1, 64)
    return np.unique(np.concatenate([k, np.arange(k_switch - 300, k_switch + 301)])) / _R_SCALE


def _t_pvalue(r, df):
    """The t test's p-value of r on df degrees of freedom through the kernel."""
    return _corr_pvalue(np.square(r), df / 2, 0.5)


def _t_pvalue_closed_form(r, df):
    """The kernel written out for b = 1/2 alone: log B(a, 1/2) is
    log sqrt(pi) - (lgamma(a + 1/2) - lgamma(a)), the difference by
    Stirling's series from a = 50 as a log1p of 1/(2a). The general
    kernel must give these bits at b = 1/2."""
    r2 = np.square(r)
    a, b = 0.5 * df, 0.5
    if a < 50.0:
        step = math.lgamma(a + 0.5) - math.lgamma(a)
    else:
        def series(z):
            return 1.0 / (12.0 * z) - 1.0 / (360.0 * z**3) + 1.0 / (1260.0 * z**5)

        step = 0.5 * math.log(a) + (a * math.log1p(0.5 / a) - 0.5) + series(a + 0.5) - series(a)
    log_beta = 0.5 * math.log(math.pi) - step
    with np.errstate(divide="ignore"):
        front = np.exp(a * np.log1p(-r2) + b * np.log(r2) - log_beta)
    x = 1.0 - r2
    direct = x < (a + 1.0) / (a + b + 2.0)
    p = np.empty(r2.shape)
    p[direct] = front[direct] * _betacf(a, b, x[direct], 64) / a
    p[~direct] = 1.0 - front[~direct] * _betacf(b, a, r2[~direct], 16) / b
    return p


_T_DFS = [1, 2, 3, 10, 98, 498, 998, 4_998, 19_998, 99_998]


class TestCorrPValueKernel:
    """_corr_pvalue, the t and F tests' p-value, against scipy."""

    @pytest.mark.parametrize("df", _T_DFS)
    def test_against_betainc(self, df):
        r = _r_grid(df)
        x = 1 - r * r
        switch = (df / 2 + 1) / (df / 2 + 2.5)
        assert (x < switch).sum() > 300 and (x >= switch).sum() > 300
        expect = special.betainc(df / 2, 0.5, x)
        got = _t_pvalue(r, df)
        tested = expect >= 1e-300
        rel = np.abs(got[tested] - expect[tested]) / expect[tested]
        assert rel.max() <= 1e-12 * max(1, df / 1000)

    @pytest.mark.parametrize("df", _T_DFS)
    def test_b_half_keeps_the_t_test_bits(self, df):
        r = np.concatenate([_r_grid(df), [np.nan]])
        got = _t_pvalue(r, df)
        assert got.tobytes() == _t_pvalue_closed_form(r, df).tobytes()

    @pytest.mark.parametrize("levels", range(3, 11))
    @pytest.mark.parametrize("n", [20, 21, 99, 500, 999, 2_000, 5_000])
    def test_f_test_against_f_sf(self, levels, n):
        # R^2 = k / 2**20, dense in [0, 1] and next to the switch point
        a, b = (n - levels) / 2, (levels - 1) / 2
        k_switch = round((1 - (a + 1) / (a + b + 2)) * _R_SCALE)
        k = np.arange(0, _R_SCALE + 1, 64)
        r2 = np.unique(np.concatenate([k, np.arange(k_switch - 300, k_switch + 301)])) / _R_SCALE
        with np.errstate(divide="ignore"):
            f = (r2 / (levels - 1)) / ((1 - r2) / (n - levels))
        expect = stats.f.sf(f, levels - 1, n - levels)
        got = _corr_pvalue(r2, a, b)
        tested = expect >= 1e-300
        assert tested.sum() > 300
        assert (np.abs(got[tested] - expect[tested]) / expect[tested]).max() <= 1e-12

    @pytest.mark.parametrize("df", [1, 10, 998, 99_998])
    def test_monotone_and_even_in_r(self, df):
        r = _r_grid(df)
        p = _t_pvalue(r, df)
        assert np.all(np.diff(p) <= 0)
        np.testing.assert_array_equal(_t_pvalue(-r, df), p)

    def test_keeps_shape(self):
        r = np.random.default_rng(3).uniform(-1, 1, (4, 7))
        r[1, 2] = np.nan
        got = _t_pvalue(r, 30)
        assert got.shape == (4, 7)
        np.testing.assert_array_equal(got, _t_pvalue(r.ravel(), 30).reshape(4, 7))

    def test_no_degrees_of_freedom_is_nan(self):
        for a, b in ((0.0, 0.5), (-0.5, 1.0), (10.0, 0.0)):
            assert np.isnan(_corr_pvalue(np.array([0.3]), a, b)).all()

    def test_deeper_start_agrees(self):
        # starting the continued fraction shallow forces the depth to double
        # until the convergents agree
        for a, b in ((10.0, 0.5), (0.5, 10.0), (10.0, 4.5)):
            x = np.linspace(0, (a + 1) / (a + b + 2), 30, endpoint=False)
            shallow = _betacf(a, b, x, 2)
            assert np.abs(shallow / _betacf(a, b, x, 64) - 1).max() < 1e-14

    def test_no_convergence_raises(self, monkeypatch):
        monkeypatch.setattr("bndp.assoc._CF_MAX_DEPTH", 32)
        with pytest.raises(NumericError, match="did not converge"):
            _t_pvalue(np.array([0.3]), 998)


class TestChi2SfKernel:
    """_chi2_sf, the Cox and G tests' p-value, against scipy: k up to 81,
    the G test's degrees of freedom for two ten-level columns."""

    @pytest.mark.parametrize("k", [*range(1, 13), 16, 20, 27, 35, 48, 63, 64, 80, 81])
    def test_against_chdtrc(self, k):
        x = np.concatenate([[0.0], np.logspace(-8, 3.5, 2000)])
        expect = special.chdtrc(k, x)
        got = _chi2_sf(k, x)
        tested = expect >= 1e-300
        assert (np.abs(got[tested] - expect[tested]) / expect[tested]).max() <= 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3, 12])
    def test_zero_and_nan(self, k):
        np.testing.assert_array_equal(_chi2_sf(k, np.array([0.0, np.nan])), [1.0, np.nan])


class TestBhAdjust:
    def test_hand_computed(self):
        out = bh_adjust(np.array([0.01, 0.02, 0.03]))
        assert np.allclose(out, [0.03, 0.03, 0.03])

    def test_zeros(self):
        assert np.all(bh_adjust(np.zeros(4)) == 0)

    def test_single(self):
        assert bh_adjust(np.array([0.2]))[0] == 0.2

    def test_textbook_example(self):
        p = np.array([0.005, 0.04, 0.03, 0.9])
        out = bh_adjust(p)
        # ranked: 0.02, 0.06, 0.0533, 0.9 -> step-up cummin from the right
        assert np.allclose(out, [0.02, 0.16 / 3, 0.16 / 3, 0.9])

    @given(
        st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=30)
    )
    def test_monotone_in_rank(self, ps):
        arr = np.array(ps)
        adj = bh_adjust(arr)
        order = np.argsort(arr, kind="stable")
        sorted_adj = adj[order]
        assert all(a <= b + 1e-12 for a, b in zip(sorted_adj, sorted_adj[1:]))
        assert np.all(adj >= arr - 1e-12)
        assert np.all(adj <= 1.0)

    def test_domain(self):
        # NaN is outside [0, 1] too: one would turn every adjusted value into NaN
        for bad in ([-0.1], [1.5], [0.01, np.nan, 0.02]):
            with pytest.raises(AssocError, match=r"must lie in \[0, 1\]"):
                bh_adjust(np.array(bad))
        with pytest.raises(AssocError, match="must be a vector"):
            bh_adjust(np.full((2, 2), 0.5))


class TestCoxScreen:
    def _survival_dataset(self, x, time, status, extra=None):
        cols = [Column("g0", "continuous", x)]
        if extra is not None:
            cols.append(Column("g1", "continuous", extra))
        cols.append(Column("os", "survival", np.column_stack([time, status])))
        return Dataset(cols)

    def test_null_uniformish(self):
        hits = 0
        reps = 200
        for k in range(reps):
            rng = np.random.default_rng(1000 + k)
            x = rng.standard_normal(80)
            time, status = simulate_survival(np.zeros(80), seed=2000 + k)
            data = self._survival_dataset(x, time, status)
            p = cox_screen(data, 1, [0])[0]
            if p > 0.05:
                hits += 1
        # ~95% expected above 0.05 under the null
        assert hits >= 0.88 * reps

    def test_determinism_on_duplicate(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(100)
        time, status = simulate_survival(0.4 * x, seed=3)
        data = self._survival_dataset(x, time, status, extra=x.copy())
        p = cox_screen(data, 2, [0, 1])
        assert p[0] == p[1]

    def test_power(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(500)
        time, status = simulate_survival(1.0 * x, seed=9)
        data = self._survival_dataset(x, time, status)
        assert cox_screen(data, 1, [0])[0] < 1e-3

    def test_failure_becomes_nan_with_warning(self):
        # perfectly separating covariate makes the fit diverge
        n = 50
        time = np.arange(1.0, n + 1)
        status = np.ones(n)
        x = np.arange(n, dtype=float)
        data = self._survival_dataset(x, time, status)
        with pytest.warns(ScreeningWarning):
            p = cox_screen(data, 1, [0])
        assert np.isnan(p[0])


    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=30, max_value=150),
        m=st.integers(min_value=1, max_value=12),
        n_times=st.sampled_from([4, 25, None]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_batched_screen_equals_solo_fits(self, n, m, n_times, seed):
        """Each candidate's p-value is its solo ``cox_fit`` test, and the BH
        pass set is the solo tests' pass set.

        A p-value within rounding of the BH cutoff could pass on one side
        and fail on the other, so examples with an adjusted p-value within
        a relative 1e-6 of alpha are discarded (``assume``): the pass sets
        are compared where the decision is not a question of rounding.
        """
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((n, m))
        G[:, rng.random(m) < 0.2] = 0.5  # constant candidates
        eta = (G - G.mean(axis=0)) @ rng.choice([0.0, 0.4, 0.8], size=m)
        time, status = simulate_survival(eta, seed=seed % 1000)
        if n_times is not None:  # tied times
            time = np.ceil(time * n_times / time.max())
        names = [f"g{j}" for j in range(m)]
        cols = [Column(name, "continuous", G[:, j].copy()) for j, name in enumerate(names)]
        data = Dataset(cols + [Column("os", "survival", np.column_stack([time, status]))])

        solo, failed = [], []
        for j in range(m):
            x = G[:, j]
            if np.ptp(x) == 0:
                solo.append(np.nan)
                continue
            try:
                fit = cox_fit(time, status, ((x - x.mean()) / x.std())[:, None])
            except NumericError:
                solo.append(np.nan)
                failed.append(names[j])
                continue
            lr = 2.0 * (fit.log_likelihood - fit.null_log_likelihood)
            solo.append(stats.chi2.sf(max(lr, 0.0), 1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            p = cox_screen(data, m, list(range(m)))
        np.testing.assert_allclose(p, solo, rtol=1e-10, atol=0)
        assert [str(w.message).split("'")[1] for w in caught] == failed

        alpha = 0.05
        adjusted = bh_adjust(np.where(np.isnan(solo), 1.0, solo))
        assume(np.all(np.abs(adjusted - alpha) > 1e-6 * alpha))
        expected = {names[j] for j in range(m) if adjusted[j] <= alpha and not np.isnan(solo[j])}
        opts = ScreenOptions(mode="phenotype", outcome="os", alpha=alpha, levels=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ScreeningWarning)
            if not expected:
                with pytest.raises(EmptyFeasSetError):
                    build_constraints(data, opts, indegree=2)
                return
            constraints, reduced = build_constraints(data, opts, indegree=2)
        io = reduced.index_of("os")
        assert {reduced.names[i] for i in constraints.pp[io]} == expected

    def test_categorical_relabelling_screens_alike(self):
        """A three-level candidate is tested on its indicator columns, two
        degrees of freedom, whatever its level codes: with hazard (0, 1, 0)[K]
        a one-column test of the codes (0, 1, 2) reads p = 0.848."""
        rng = np.random.default_rng(49)
        n = 300
        K = rng.integers(0, 3, n)
        time, status = simulate_survival(np.array([0.0, 1.0, 0.0])[K], seed=3)
        surv = Column("os", "survival", np.column_stack([time, status]))
        p = [
            cox_screen(Dataset([Column("K", "categorical", np.array(perm)[K], levels=3), surv]), 1, [0])[0]
            for perm in itertools.permutations(range(3))
        ]
        Z = np.column_stack([K == 1, K == 2]).astype(float)
        fit = cox_fit(time, status, (Z - Z.mean(axis=0)) / Z.std(axis=0))
        direct = stats.chi2.sf(2.0 * (fit.log_likelihood - fit.null_log_likelihood), 2)
        assert direct == pytest.approx(2.43e-11, rel=1e-3)
        np.testing.assert_allclose(p, direct, rtol=1e-9, atol=0)


class TestBuildConstraints:
    def test_user_pp_paper_example(self):
        rng = np.random.default_rng(0)
        data = continuous_dataset(rng.standard_normal((30, 4)), list("abcd"))
        user_pp = {"a": ["b", "d"], "b": ["c", "a"], "c": ["b"], "d": ["a"]}
        opts = ScreenOptions(user_pp=user_pp)
        constraints, reduced = build_constraints(data, opts, indegree=2)
        assert reduced.names == ("a", "b", "c", "d")
        assert [sorted(m) for m in constraints.pp] == [[1, 3], [0, 2], [1], [0]]
        assert [sorted(m) for m in constraints.po] == [[1, 3], [0, 2], [1], [0]]

    def test_user_pp_skips_screening(self):
        # constant column would break screening; user pp must bypass it
        data = Dataset(
            [
                Column("a", "continuous", np.ones(20)),
                Column("b", "continuous", np.arange(20.0)),
            ]
        )
        constraints, reduced = build_constraints(
            data, ScreenOptions(user_pp={"a": ["b"]}), indegree=1
        )
        assert reduced.names == ("a", "b")
        assert sorted(constraints.pp[0]) == [1]

    def test_independent_columns_empty(self):
        rng = np.random.default_rng(5)
        data = continuous_dataset(rng.standard_normal((200, 6)))
        with pytest.raises(EmptyFeasSetError):
            build_constraints(data, ScreenOptions(alpha=1e-6), indegree=2)

    def test_chain_recovered(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(500)
        y = 1.2 * x + 0.5 * rng.standard_normal(500)
        z = 1.2 * y + 0.5 * rng.standard_normal(500)
        w = rng.standard_normal(500)  # independent
        data = continuous_dataset(np.column_stack([x, y, z, w]), list("xyzw"))
        constraints, reduced = build_constraints(
            data, ScreenOptions(alpha=0.001), indegree=2
        )
        assert set(reduced.names) == {"x", "y", "z"}
        iy = reduced.index_of("y")
        ix = reduced.index_of("x")
        assert ix in constraints.pp[iy]

    def test_symmetry_all_pairs(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(300)
        y = x + 0.8 * rng.standard_normal(300)
        data = continuous_dataset(np.column_stack([x, y]), ["x", "y"])
        constraints, _ = build_constraints(data, ScreenOptions(alpha=0.01), indegree=1)
        assert sorted(constraints.pp[0]) == [1]
        assert sorted(constraints.pp[1]) == [0]

    def test_corr_cutoff_zero_gives_complete(self):
        rng = np.random.default_rng(2)
        data = continuous_dataset(rng.standard_normal((50, 4)))
        constraints, reduced = build_constraints(
            data, ScreenOptions(corr_cutoff=0.0), indegree=3
        )
        assert reduced.p == 4
        p = reduced.p
        for i in range(p):
            assert constraints.pp[i].bit_count() == p - 1

    def test_survival_never_a_parent(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal(200)
        y = 1.0 * x + 0.7 * rng.standard_normal(200)
        time, status = simulate_survival(0.9 * x, seed=21)
        data = Dataset(
            [
                Column("x", "continuous", x),
                Column("y", "continuous", y),
                Column("os", "survival", np.column_stack([time, status])),
            ]
        )
        constraints, reduced = build_constraints(
            data, ScreenOptions(alpha=0.05), indegree=2
        )
        si = reduced.index_of("os")
        for i in range(reduced.p):
            assert si not in constraints.pp[i]
        assert constraints.pp[si].bit_count() >= 1

    def test_phenotype_levels(self):
        rng = np.random.default_rng(31)
        n = 600
        a = rng.standard_normal(n)  # great-grandparent
        b = 1.1 * a + 0.6 * rng.standard_normal(n)  # grandparent
        c = 1.1 * b + 0.6 * rng.standard_normal(n)  # parent
        out = 1.1 * c + 0.6 * rng.standard_normal(n)  # outcome
        noise = rng.standard_normal(n)
        data = continuous_dataset(
            np.column_stack([a, b, c, out, noise]), ["a", "b", "c", "out", "nz"]
        )
        opts = ScreenOptions(mode="phenotype", alpha=1e-4, outcome="out", levels=3)
        constraints, reduced = build_constraints(data, opts, indegree=2)
        names = set(reduced.names)
        assert "out" in names and "c" in names
        io = reduced.index_of("out")
        # outcome appears in nobody's pp
        for i in range(reduced.p):
            assert io not in constraints.pp[i]
        assert constraints.pp[io].bit_count() >= 1

    def test_phenotype_top_k(self):
        rng = np.random.default_rng(41)
        n = 400
        parents = rng.standard_normal((n, 6))
        out = parents @ np.array([1.0, 0.9, 0.8, 0.7, 0.6, 0.5]) + rng.standard_normal(n)
        data = continuous_dataset(
            np.column_stack([parents, out]), [f"g{i}" for i in range(6)] + ["out"]
        )
        # p-values fall as |r| rises, so both cutoffs keep the three largest |r|
        r = [abs(np.corrcoef(parents[:, i], out)[0, 1]) for i in range(6)]
        strongest = {f"g{i}" for i in np.argsort(r)[-3:]}
        for cutoff in ({"alpha": 0.01}, {"corr_cutoff": 0.05}):
            opts = ScreenOptions(
                mode="phenotype", outcome="out", levels=2, top_k=3, **cutoff
            )
            constraints, reduced = build_constraints(data, opts, indegree=2)
            io = reduced.index_of("out")
            kept = {reduced.names[i] for i in constraints.pp[io]}
            assert kept == strongest

    def test_phenotype_top_k_survival_fits_each_candidate_once(self, monkeypatch):
        import bndp.scoring

        rng = np.random.default_rng(43)
        n = 300
        genes = rng.standard_normal((n, 5))
        time, status = simulate_survival(genes @ np.array([1.0, 0.8, 0.6, 0.0, 0.0]), seed=43)
        cols = [Column(f"g{i}", "continuous", genes[:, i].copy()) for i in range(5)]
        data = Dataset(cols + [Column("os", "survival", np.column_stack([time, status]))])
        fits = []
        real_fit = bndp.scoring.cox_fit_batch

        def counting_fit(time, status, X, *args, **kwargs):
            fits.extend(X.shape[1] * [1])  # X is (covariates, models, rows)
            return real_fit(time, status, X, *args, **kwargs)

        monkeypatch.setattr(bndp.scoring, "cox_fit_batch", counting_fit)
        opts = ScreenOptions(mode="phenotype", alpha=0.01, outcome="os", levels=2, top_k=2)
        constraints, reduced = build_constraints(data, opts, indegree=2)
        io = reduced.index_of("os")
        assert {reduced.names[i] for i in constraints.pp[io]} == {"g0", "g1"}
        assert len(fits) == 5  # one univariate fit per candidate, none repeated

    def test_single_column(self):
        data = continuous_dataset(np.random.default_rng(0).standard_normal((30, 1)))
        constraints, reduced = build_constraints(
            data, ScreenOptions(alpha=0.05), indegree=2
        )
        assert reduced.p == 1
        assert constraints.pp[0] == 0

    def test_single_survival_column(self):
        # no candidate to fit: the survival column is learned alone
        time, status = simulate_survival(np.zeros(30), seed=1)
        data = Dataset([Column("os", "survival", np.column_stack([time, status]))])
        constraints, reduced = build_constraints(data, ScreenOptions(alpha=0.05), indegree=2)
        assert reduced.names == ("os",)
        assert constraints.pp[0] == 0

    def test_single_constant_column_warns(self):
        data = continuous_dataset(np.full((30, 1), 0.1))
        with pytest.warns(ScreeningWarning, match="'V0' is constant"):
            _, reduced = build_constraints(data, ScreenOptions(alpha=0.05), indegree=2)
        assert reduced.p == 1

    def test_two_rows_pass_nothing(self):
        # a correlation test on two rows has no degrees of freedom
        data = continuous_dataset(np.array([[0.5, 1.0], [2.0, 3.5]]))
        with pytest.raises(EmptyFeasSetError):
            build_constraints(data, ScreenOptions(alpha=1.0), indegree=1)

    def test_user_pp_survival_parent_rejected(self):
        time, status = simulate_survival(np.zeros(30), seed=1)
        data = Dataset(
            [
                Column("x", "continuous", np.random.default_rng(1).standard_normal(30)),
                Column("os", "survival", np.column_stack([time, status])),
            ]
        )
        with pytest.raises(StructureError):
            build_constraints(
                data, ScreenOptions(user_pp={"x": ["os"]}), indegree=1
            )

    def test_user_pp_self_parent_rejected(self):
        data = continuous_dataset(np.random.default_rng(1).standard_normal((30, 2)), ["a", "b"])
        with pytest.raises(StructureError, match="'a' lists itself as a possible parent"):
            build_constraints(data, ScreenOptions(user_pp={"a": ["b", "a"]}), indegree=1)

    def test_corr_cutoff_with_survival_rejected(self, monkeypatch):
        # wherever the survival column is screened, before any test runs
        import bndp.assoc

        time, status = simulate_survival(np.zeros(50), seed=2)
        rng = np.random.default_rng(2)
        data = Dataset(
            [
                Column("x", "continuous", rng.standard_normal(50)),
                Column("y", "continuous", rng.standard_normal(50)),
                Column("os", "survival", np.column_stack([time, status])),
            ]
        )
        calls = []
        real = bndp.assoc._corr_against
        monkeypatch.setattr(
            bndp.assoc, "_corr_against", lambda *a: calls.append(1) or real(*a)
        )
        for opts in (
            ScreenOptions(corr_cutoff=0.3),
            ScreenOptions(mode="phenotype", outcome="os", corr_cutoff=0.0, levels=2),
        ):
            with pytest.raises(AssocError, match="use alpha, not corr_cutoff"):
                build_constraints(data, opts, indegree=1)
        assert not calls
        # a phenotype outcome that is not the survival column never screens it
        opts = ScreenOptions(mode="phenotype", outcome="y", corr_cutoff=0.0, levels=2)
        _, reduced = build_constraints(data, opts, indegree=1)
        assert "os" not in reduced.names and calls


class TestScreenOptionsValidation:
    def test_exactly_one_cutoff(self):
        with pytest.raises(AssocError):
            ScreenOptions(alpha=0.05, corr_cutoff=0.3)
        with pytest.raises(AssocError):
            ScreenOptions()

    def test_phenotype_requires_outcome(self):
        with pytest.raises(AssocError):
            ScreenOptions(mode="phenotype", alpha=0.05)

    def test_levels_validated(self):
        with pytest.raises(AssocError):
            ScreenOptions(mode="phenotype", alpha=0.05, outcome="y", levels=4)

    def test_top_k_requires_phenotype_mode(self):
        with pytest.raises(AssocError, match="only in phenotype mode"):
            ScreenOptions(alpha=0.05, top_k=1)
        with pytest.raises(AssocError, match="only in phenotype mode"):
            ScreenOptions(user_pp={}, top_k=2)
        assert ScreenOptions(mode="phenotype", alpha=0.05, outcome="y", top_k=1).top_k == 1

    def test_levels_default_only_in_phenotype_mode(self):
        assert ScreenOptions(alpha=0.05).levels is None
        assert ScreenOptions(mode="phenotype", alpha=0.05, outcome="y").levels == 3

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            # possible-parent sets skip screening: every screening setting
            # would be ignored
            ({"mode": "phenotype", "outcome": "y"}, "phenotype mode would be ignored"),
            ({"mode": "phenotype", "outcome": "y", "top_k": 1}, "phenotype mode, top_k would"),
            ({"mode": "phenotype", "outcome": "y", "levels": 2}, "phenotype mode, levels would"),
            ({"alpha": 1e-30}, "alpha would be ignored"),
            ({"corr_cutoff": 0.99}, "corr_cutoff would be ignored"),
            # levels and top_k are phenotype-only
            ({"levels": 2}, "levels applies only in phenotype mode"),
            ({"top_k": 1}, "top_k applies only in phenotype mode"),
        ],
    )
    def test_excluded_combinations_rejected(self, kwargs, message):
        with pytest.raises(AssocError, match=message):
            ScreenOptions(user_pp={"b": ["a"]}, **kwargs)

    def test_levels_requires_phenotype_mode(self):
        for levels in (2, 3):
            with pytest.raises(AssocError, match="levels applies only in phenotype mode"):
                ScreenOptions(alpha=0.05, levels=levels)

    @pytest.mark.parametrize(
        "user_pp, message",
        [
            ({"V2": "V1"}, "'V2': expected a list of column names"),
            ({"V0": [], "V2": ["V1", 3]}, "'V2': expected a list of column names"),
            ({"V2": None}, "'V2': expected a list of column names"),
            (["V1"], "user_pp must map column names to lists of column names"),
        ],
    )
    def test_user_pp_must_map_names_to_name_lists(self, user_pp, message):
        with pytest.raises(AssocError, match=message):
            ScreenOptions(user_pp=user_pp)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"mode": "pairs", "alpha": 0.05}, "unknown screening mode 'pairs'"),
            ({"alpha": 0.0}, r"alpha must be in \(0, 1\], got 0.0"),
            ({"alpha": 1.5}, r"alpha must be in \(0, 1\], got 1.5"),
            ({"corr_cutoff": -0.1}, r"corr_cutoff must be in \[0, 1\), got -0.1"),
            ({"corr_cutoff": 1.0}, r"corr_cutoff must be in \[0, 1\), got 1.0"),
            ({"mode": "phenotype", "outcome": "y", "alpha": 0.05, "top_k": 0}, "top_k must be a positive"),
        ],
    )
    def test_out_of_range_rejected(self, kwargs, message):
        with pytest.raises(AssocError, match=message):
            ScreenOptions(**kwargs)


@pytest.mark.parametrize(
    "opts", [ScreenOptions(alpha=0.05), ScreenOptions(alpha=1.0), ScreenOptions(corr_cutoff=0.3)]
)
@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.one_of(st.floats(0, 0.01), st.floats(0, 1), st.just(math.nan)), min_size=1, max_size=30
    )
)
def test_undefined_test_counts_as_p1(opts, family):
    """A NaN test never passes, and the rest of its family passes as if it
    were a test with statistic 1.0."""
    stat = np.array(family)
    undefined = np.isnan(stat)
    expected = _passes(np.where(undefined, 1.0, stat), opts) & ~undefined
    np.testing.assert_array_equal(_passes(stat, opts), expected)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_duality_invariant_after_screening(seed):
    rng = np.random.default_rng(seed)
    n, p = 120, 5
    M = rng.standard_normal((n, p))
    # random extra dependencies to vary the screened graph
    for _ in range(3):
        i, j = rng.integers(0, p, 2)
        if i != j:
            M[:, j] = M[:, j] + rng.uniform(0.3, 1.2) * M[:, i]
    data = continuous_dataset(M)
    try:
        constraints, _ = build_constraints(data, ScreenOptions(alpha=0.05), indegree=2)
    except EmptyFeasSetError:
        return
    q = constraints.n_nodes
    for i in range(q):
        assert i not in constraints.pp[i]
        for j in range(q):
            assert (j in constraints.pp[i]) == (i in constraints.po[j])


@pytest.mark.parametrize("opts", [ScreenOptions(alpha=0.05), ScreenOptions(corr_cutoff=0.2)])
def test_multi_target_level_matches_solo_screens(opts):
    """A level's correlations come from one kernel call over all its
    targets; each target's statistics equal those of screening it alone."""
    rng = np.random.default_rng(23)
    X = rng.standard_normal((150, 7))
    X[:, 1] += 0.6 * X[:, 0]
    X[:, 3] += 0.5 * X[:, 1] - 0.4 * X[:, 2]
    X[:, 5] = 1.5  # constant: its tests are undefined (NaN)
    data = continuous_dataset(X)
    targets, excluded = [0, 1, 3, 5], {6}
    _, multi = screen_level(data, targets, excluded, opts)
    assert len(multi) == len(targets) * 5
    for t in targets:
        _, solo = screen_level(data, [t], excluded, opts)
        keys = sorted(solo)
        assert sorted(k for k in multi if k[0] == t) == keys
        np.testing.assert_allclose(
            [multi[k] for k in keys], [solo[k] for k in keys], rtol=0, atol=1e-12
        )


def _chain_with_constant(k_value, n=300, seed=17):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n)
    b = a + 0.7 * rng.standard_normal(n)
    c = b + 0.7 * rng.standard_normal(n)
    return continuous_dataset(
        np.column_stack([a, b, c, np.full(n, k_value)]), ["A", "B", "C", "K"]
    )


@pytest.mark.parametrize("k_value", [1.0, 0.1])
@pytest.mark.parametrize(
    "opts",
    [
        ScreenOptions(corr_cutoff=0.0),
        ScreenOptions(alpha=1.0),
        ScreenOptions(mode="phenotype", outcome="C", alpha=1.0, levels=2),
        ScreenOptions(mode="phenotype", outcome="C", alpha=1.0, levels=3),
        ScreenOptions(mode="phenotype", outcome="C", corr_cutoff=0.0, levels=3),
    ],
)
def test_constant_column_never_passes(k_value, opts):
    # 0.1 is not the mean of its own copies in floating point, so centring
    # alone leaves a tiny nonzero spread; it must still count as constant
    data = _chain_with_constant(k_value)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        constraints, reduced = build_constraints(data, opts, indegree=2)
    assert "K" not in reduced.names
    assert set(reduced.names) == {"A", "B", "C"}
    k_warnings = [w for w in caught if issubclass(w.category, ScreeningWarning)]
    assert len(k_warnings) == 1 and "'K' is constant" in str(k_warnings[0].message)


def test_constant_column_never_passes_cox(monkeypatch):
    import bndp.scoring

    rng = np.random.default_rng(23)
    n = 300
    x = rng.standard_normal(n)
    y = x + 0.7 * rng.standard_normal(n)
    time, status = simulate_survival(0.8 * x, seed=23)
    data = Dataset(
        [
            Column("x", "continuous", x),
            Column("y", "continuous", y),
            Column("K", "continuous", np.full(n, 0.1)),
            Column("os", "survival", np.column_stack([time, status])),
        ]
    )
    fitted = []
    real_fit = bndp.scoring.cox_fit_batch

    def counting_fit(time, status, X):
        # X is (covariates, models, rows): one range per model fitted
        fitted.extend(np.ptp(X, axis=(0, 2)))
        return real_fit(time, status, X)

    monkeypatch.setattr(bndp.scoring, "cox_fit_batch", counting_fit)
    for opts in (
        ScreenOptions(alpha=1.0, outcome="os"),
        ScreenOptions(mode="phenotype", alpha=1.0, outcome="os", levels=2),
    ):
        fitted.clear()
        with pytest.warns(ScreeningWarning, match="'K' is constant"):
            constraints, reduced = build_constraints(data, opts, indegree=2)
        assert reduced.names == ("x", "y", "os")
        # one Cox fit each for x and y; the constant K is not fitted
        assert len(fitted) == 2 and all(fitted)


def _oracle_pp(X, opts, outcome=None):
    """Possible parents by brute force: scipy's pearsonr per test and a
    BH step-up over each family, written out here."""
    from scipy.stats import pearsonr

    p = X.shape[1]
    constant = [np.ptp(X[:, i]) == 0 for i in range(p)]

    def stat(i, j):
        if constant[i] or constant[j]:
            return math.nan
        r, pv = pearsonr(X[:, i], X[:, j])
        return pv if opts.alpha is not None else abs(r)

    def kept(family):
        """The tests of ``family`` (key, statistic) that pass."""
        if opts.alpha is None:
            return {key for key, s in family if s >= opts.corr_cutoff}
        ps = [1.0 if math.isnan(s) else s for _, s in family]
        m = len(ps)
        order = sorted(range(m), key=lambda k: ps[k])
        n_reject = max(
            (rank + 1 for rank, k in enumerate(order) if ps[k] <= (rank + 1) * opts.alpha / m),
            default=0,
        )
        return {family[k][0] for k in order[:n_reject] if not math.isnan(family[k][1])}

    pp = [set() for _ in range(p)]
    if opts.mode == "all_pairs":
        for i, j in kept([((i, j), stat(i, j)) for i in range(p) for j in range(i + 1, p)]):
            if i != outcome:
                pp[j].add(i)
            if j != outcome:
                pp[i].add(j)
        return pp
    frontier, assigned = [outcome], set()
    for _ in range(opts.levels):
        targets = [t for t in frontier if t not in assigned]
        if not targets:
            break
        found = kept([((t, i), stat(t, i)) for t in targets for i in range(p) if i not in (t, outcome)])
        for t, i in found:
            pp[t].add(i)
        assigned.update(targets)
        frontier = sorted({i for _, i in found})
    return pp


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "opts",
    [
        ScreenOptions(alpha=0.05),
        ScreenOptions(corr_cutoff=0.2),
        ScreenOptions(mode="phenotype", outcome="V6", alpha=0.05, levels=2),
        ScreenOptions(mode="phenotype", outcome="V6", alpha=0.05, levels=3),
        ScreenOptions(mode="phenotype", outcome="V6", corr_cutoff=0.2, levels=3),
    ],
)
def test_screening_matches_oracle(seed, opts):
    rng = np.random.default_rng(seed)
    n = 120
    X = rng.standard_normal((n, 8))
    X[:, 1] += 0.5 * X[:, 0]
    X[:, 2] += 0.3 * X[:, 1]
    X[:, 4] += 0.4 * X[:, 2] - 0.3 * X[:, 3]
    X[:, 6] += 0.3 * X[:, 4] + 0.25 * X[:, 5]
    X[:, 7] = 2.5  # a constant column: one more test with p = 1 per family
    data = continuous_dataset(X)
    outcome = data.index_of(opts.outcome) if opts.outcome else None
    expect = _oracle_pp(X, opts, outcome)
    if not any(expect):
        with pytest.raises(EmptyFeasSetError):
            build_constraints(data, opts, indegree=2)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScreeningWarning)
        constraints, reduced = build_constraints(data, opts, indegree=2)
    got = [set() for _ in range(data.p)]
    for k, mask in enumerate(constraints.pp):
        got[data.index_of(reduced.names[k])] = {data.index_of(reduced.names[j]) for j in mask}
    assert got == expect


def _k3_case(codes=(0, 1, 2)):
    """y depends on a three-level K non-monotonically, z on y: K's codes as
    numbers correlate with neither when the levels are (0, 1, 2)."""
    rng = np.random.default_rng(49)
    n = 300
    k = rng.integers(0, 3, n)
    y = np.array([0.0, 2.0, 0.0])[k] + rng.standard_normal(n)
    z = y + rng.standard_normal(n)
    return Dataset(
        [
            Column("K", "categorical", np.array(codes)[k].astype(float), levels=3),
            Column("y", "continuous", y),
            Column("z", "continuous", z),
        ]
    ), k


class TestMixedScreening:
    """Each pair of mixed columns gets the test of the nested models that
    its local score compares, and only in directions the parent-kind rule
    allows."""

    @pytest.mark.parametrize("codes", list(itertools.permutations(range(3))))
    def test_k3_relabelled_screens_alike(self, codes):
        data, _ = _k3_case(codes)
        constraints, reduced = build_constraints(data, ScreenOptions(alpha=1e-5), indegree=2)
        assert reduced.names == ("K", "y", "z")
        assert constraints.pp == (0, 0b101, 0b011)  # K has no parent; y and z take K
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bndp.learn(data, ScreenOptions(alpha=1e-5), bndp.ScoreConfig("bic"), 2)

    def test_f_test_against_f_oneway(self):
        data, k = _k3_case()
        _, stat = screen_level(data, [1, 2], set(), ScreenOptions(alpha=0.05))
        assert set(stat) == {(1, 0), (1, 2), (2, 0), (2, 1)}
        for t in (1, 2):
            v = data.column(t).values
            expect = stats.f_oneway(*(v[k == level] for level in range(3))).pvalue
            assert stat[t, 0] == pytest.approx(expect, rel=1e-12)
        assert stat[1, 0] == pytest.approx(2.34e-47, rel=1e-2)
        assert stat[2, 0] == pytest.approx(2.70e-28, rel=1e-2)

    @given(
        st.integers(2, 10),
        st.integers(2, 10),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_g_test_against_chi2_contingency(self, l1, l2, seed, strength):
        rng = np.random.default_rng(seed)
        n = 400
        a = rng.integers(0, l1, n)
        b = np.where(rng.random(n) < strength, a % l2, rng.integers(0, l2, n))
        table = np.zeros((l1, l2))
        np.add.at(table, (a, b), 1)
        assume(table.sum(axis=0).all() and table.sum(axis=1).all())
        data = Dataset(
            [
                Column("a", "categorical", a.astype(float), levels=l1),
                Column("b", "categorical", b.astype(float), levels=l2),
            ]
        )
        _, stat = screen_level(data, [0, 1], set(), ScreenOptions(alpha=0.05))
        expect = stats.chi2_contingency(table, correction=False, lambda_="log-likelihood").pvalue
        assume(expect >= 1e-300)
        assert stat[0, 1] == pytest.approx(expect, rel=1e-9, abs=1e-14)
        assert stat[1, 0] == pytest.approx(expect, rel=1e-9, abs=1e-14)

    def test_unobserved_level_counts_no_degree_of_freedom(self):
        # K declares four levels but uses three: the same tests as a
        # three-level K, and a one-level column has no test at all
        data, k = _k3_case()
        four = Dataset([Column("K", "categorical", k.astype(float), levels=4), *data.columns[1:]])
        opts = ScreenOptions(alpha=0.05)
        _, stat = screen_level(data, [1], set(), opts)
        _, stat4 = screen_level(four, [1], set(), opts)
        assert stat4[1, 0] == pytest.approx(stat[1, 0], rel=1e-12)
        pair = Dataset(
            [
                Column("a", "categorical", np.zeros(30), levels=2),
                Column("b", "categorical", np.arange(30.0) % 3, levels=3),
            ]
        )
        _, stat = screen_level(pair, [0, 1], set(), opts)
        assert np.isnan(stat[0, 1]) and np.isnan(stat[1, 0])

    def test_categorical_target_tests_only_categorical_candidates(self):
        rng = np.random.default_rng(5)
        n = 200
        k = rng.integers(0, 3, n)
        c = (k + (rng.random(n) < 0.2)) % 2
        y = k + rng.standard_normal(n)
        data = Dataset(
            [
                Column("K", "categorical", k.astype(float), levels=3),
                Column("C", "categorical", c.astype(float), levels=2),
                Column("y", "continuous", y),
            ]
        )
        _, stat = screen_level(data, [0, 2], set(), ScreenOptions(alpha=0.05))
        assert set(stat) == {(0, 1), (2, 0), (2, 1)}
        constraints, reduced = build_constraints(data, ScreenOptions(alpha=1e-3), indegree=2)
        assert reduced.names == ("K", "C", "y")
        assert constraints.pp == (0b010, 0b001, 0b001)
        opts = ScreenOptions(mode="phenotype", outcome="K", alpha=1e-3, levels=2)
        constraints, reduced = build_constraints(data, opts, indegree=2)
        assert reduced.names == ("K", "C")  # y is not a candidate of K
        assert constraints.pp == (0b10, 0)

    def test_corr_cutoff_with_three_levels_rejected(self, monkeypatch):
        import bndp.assoc

        data, _ = _k3_case()
        calls = []
        real = bndp.assoc._corr_against
        monkeypatch.setattr(bndp.assoc, "_corr_against", lambda *a: calls.append(1) or real(*a))
        for opts in (
            ScreenOptions(corr_cutoff=0.3),
            ScreenOptions(mode="phenotype", outcome="y", corr_cutoff=0.3, levels=2),
        ):
            with pytest.raises(AssocError, match="'K' is 2 indicator columns.*: use alpha, not corr_cutoff"):
                build_constraints(data, opts, indegree=2)
        assert not calls
        # a binary column is one column: its |r| is the cutoff's statistic
        binary = Dataset([Column("B", "categorical", (data.column(1).values > 1).astype(float), levels=2), *data.columns[1:]])
        constraints, _ = build_constraints(binary, ScreenOptions(corr_cutoff=0.3), indegree=2)
        assert constraints.pp[0] == 0 and constraints.pp[1] & 1

    def test_user_pp_breaking_the_rule_rejected(self):
        data, _ = _k3_case()
        with pytest.raises(
            StructureError,
            match="continuous column 'y' cannot be a possible parent of categorical column 'K'",
        ):
            build_constraints(data, ScreenOptions(user_pp={"K": ["y"]}), indegree=1)
        constraints, _ = build_constraints(data, ScreenOptions(user_pp={"y": ["K"]}), indegree=1)
        assert constraints.pp[1] == 0b1


# A learn run under alpha in a fresh interpreter: all-pairs correlation tests
# (_corr_pvalue) and the survival column's Cox tests (_chi2_sf).
_LEARN_WITHOUT_SCIPY = """
import sys
import numpy as np
import bndp
from bndp.core import Column, Dataset

spec = bndp.SimSpec(8, 2, 2, 2, 2, n=300, seed=1)
data = bndp.simulate_data(bndp.simulate_dag(spec), spec)
eta = data.columns[-1].values / data.columns[-1].values.std()
time, status = bndp.simulate_survival(eta, seed=1)
data = Dataset(list(data.columns) + [Column("T", "survival", np.column_stack([time, status]))])
result = bndp.learn(data, bndp.ScreenOptions(alpha=1e-3), bndp.ScoreConfig(), 2)
assert "T" in result.data.names and result.data.p > 2, result.data.names
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_learn_imports_no_scipy():
    src = str(Path(bndp.__file__).resolve().parent.parent)
    run = subprocess.run(
        [sys.executable, "-c", _LEARN_WITHOUT_SCIPY],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
