import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bndp.assoc import (
    AssocError,
    EmptyFeasSetError,
    ScreenOptions,
    ScreeningWarning,
    _corr_against,
    _pvalues_from_r,
    bh_adjust,
    build_constraints,
    cox_screen,
)
from bndp.core import Column, Dataset, NodeSubset, StructureError
from bndp.numeric import NumericError, chisq_sf, cox_fit
from bndp.simulate import simulate_survival


def continuous_dataset(matrix, names=None):
    names = names or [f"V{i}" for i in range(matrix.shape[1])]
    return Dataset(
        [Column(n, "continuous", matrix[:, i].copy()) for i, n in enumerate(names)]
    )


def corr_one(x, y):
    """Pearson r of two vectors through the screening kernel."""
    return float(_corr_against(np.asarray(y, dtype=float)[:, None], np.asarray(x, dtype=float)[:, None])[0, 0])


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
        # a constant column, or a constant target, has no correlation and p = 1
        M = np.column_stack([np.ones(5), np.arange(5.0)])
        r = _corr_against(np.array([[1.0], [3.0], [2.0], [5.0], [4.0]]), M)[0]
        assert np.isnan(r[0]) and np.isfinite(r[1])
        assert np.all(np.isnan(_corr_against(np.ones((5, 1)), M)))
        assert _pvalues_from_r(r, 5)[0] == 1.0


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
        with pytest.raises(AssocError):
            bh_adjust(np.array([-0.1]))


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

    def test_failure_becomes_p1_with_warning(self):
        # perfectly separating covariate makes the fit diverge
        n = 50
        time = np.arange(1.0, n + 1)
        status = np.ones(n)
        x = np.arange(n, dtype=float)
        data = self._survival_dataset(x, time, status)
        with pytest.warns(ScreeningWarning):
            p = cox_screen(data, 1, [0])
        assert p[0] == 1.0


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
                solo.append(1.0)
                failed.append(names[j])
                continue
            lr = 2.0 * (fit.log_likelihood - fit.null_log_likelihood)
            solo.append(chisq_sf(max(lr, 0.0), 1))
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
            assert constraints.pp[i].count() == p - 1

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
        assert constraints.pp[si].count() >= 1

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
        assert constraints.pp[io].count() >= 1

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
        import bndp.assoc

        rng = np.random.default_rng(43)
        n = 300
        genes = rng.standard_normal((n, 5))
        time, status = simulate_survival(genes @ np.array([1.0, 0.8, 0.6, 0.0, 0.0]), seed=43)
        cols = [Column(f"g{i}", "continuous", genes[:, i].copy()) for i in range(5)]
        data = Dataset(cols + [Column("os", "survival", np.column_stack([time, status]))])
        fits = []
        real_fit = bndp.assoc.cox_fit_batch

        def counting_fit(time, status, X, *args, **kwargs):
            fits.extend(X.shape[1] * [1])  # X is (covariates, models, rows)
            return real_fit(time, status, X, *args, **kwargs)

        monkeypatch.setattr(bndp.assoc, "cox_fit_batch", counting_fit)
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

    def test_corr_cutoff_with_survival_rejected(self):
        time, status = simulate_survival(np.zeros(50), seed=2)
        rng = np.random.default_rng(2)
        data = Dataset(
            [
                Column("x", "continuous", rng.standard_normal(50)),
                Column("y", "continuous", rng.standard_normal(50)),
                Column("os", "survival", np.column_stack([time, status])),
            ]
        )
        with pytest.raises(AssocError):
            build_constraints(data, ScreenOptions(corr_cutoff=0.3), indegree=1)


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
    import bndp.assoc

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
    real_fit = bndp.assoc.cox_fit_batch

    def counting_fit(time, status, X):
        # X is (covariates, models, rows): one range per model fitted
        fitted.extend(np.ptp(X, axis=(0, 2)))
        return real_fit(time, status, X)

    monkeypatch.setattr(bndp.assoc, "cox_fit_batch", counting_fit)
    for mode in ("all_pairs", "phenotype"):
        fitted.clear()
        opts = ScreenOptions(mode=mode, alpha=1.0, outcome="os", levels=2)
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
