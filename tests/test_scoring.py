import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import quad

import bndp.scoring
from bndp.assoc import ScreenOptions, ScreeningWarning, build_constraints, cox_screen
from bndp.core import Column, Dataset, NodeSubset, ParentConstraints
from bndp.numeric import NumericError, cox_fit
from bndp.scoring import (
    NEG_INF,
    CoxFits,
    ScoreConfig,
    ScoringError,
    ScoringWarning,
    _Gram,
    bic_categorical,
    bic_gaussian,
    compute_local_scores,
    cox_bic,
)
from bndp.simulate import simulate_survival


def cont(matrix, names=None):
    names = names or [f"V{i}" for i in range(matrix.shape[1])]
    return Dataset(
        [Column(n, "continuous", matrix[:, i].copy()) for i, n in enumerate(names)]
    )


# ------------------------------------------------------------ gaussian bic


class TestBicGaussian:
    def test_empty_set_formula(self):
        rng = np.random.default_rng(0)
        n = 100
        y = rng.standard_normal(n)
        y = (y - y.mean()) / y.std()
        data = cont(y[:, None])
        sigma2 = y.var()
        expect = -0.5 * n * (math.log(2 * math.pi * sigma2) + 1) - 0.5 * 2 * math.log(n)
        assert abs(bic_gaussian(0, 0, data) - expect) < 1e-9

    def test_exact_copy_degenerate(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(50)
        data = cont(np.column_stack([x, x]))
        with pytest.warns(ScoringWarning):
            assert bic_gaussian(0, 0b10, data) == NEG_INF

    def test_independent_parent_usually_hurts(self):
        wins = 0
        reps = 60
        for k in range(reps):
            rng = np.random.default_rng(100 + k)
            y = rng.standard_normal(200)
            x = rng.standard_normal(200)
            data = cont(np.column_stack([y, x]))
            if bic_gaussian(0, 0, data) > bic_gaussian(0, 0b10, data):
                wins += 1
        assert wins >= 0.8 * reps

    def test_true_parent_helps(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(300)
        y = 1.0 * x + rng.standard_normal(300)
        data = cont(np.column_stack([y, x]))
        assert bic_gaussian(0, 0b10, data) > bic_gaussian(0, 0, data)

    def test_penalty_increment_exact(self):
        # a duplicated parent keeps the likelihood fixed: the score drops
        # by exactly (1/2) ln n per extra parameter
        rng = np.random.default_rng(7)
        n = 150
        x = rng.standard_normal(n)
        y = 0.8 * x + rng.standard_normal(n)
        data = cont(np.column_stack([y, x, x.copy()]))
        one = bic_gaussian(0, 0b010, data)
        two = bic_gaussian(0, 0b110, data)
        assert abs((one - two) - 0.5 * math.log(n)) < 1e-7

    def test_large_mean_regressor(self):
        # one regressor, so the reference is closed-form: centred sums of
        # squares and products in long double, rss = syy - sxy^2 / sxx
        from bndp.engine import TIE_EPS

        rng = np.random.default_rng(47)
        n = 300
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        y = 1e8 + a + 0.5 * rng.standard_normal(n)
        data = cont(np.column_stack([a, b, y]))
        for node, x in ((0, a), (1, b)):
            xc = x.astype(np.longdouble) - x.astype(np.longdouble).mean()
            yc = y.astype(np.longdouble) - y.astype(np.longdouble).mean()
            rss = (xc @ xc) - (xc @ yc) ** 2 / (yc @ yc)
            expect = -0.5 * n * (math.log(2 * math.pi * float(rss) / n) + 1) - 1.5 * math.log(n)
            got = bic_gaussian(node, 0b100, data)
            assert abs(got - expect) <= TIE_EPS * abs(expect)


# --------------------------------------------------------- categorical bic


def categorical_dataset(codes_by_col, levels_by_col, names=None):
    names = names or [f"C{i}" for i in range(len(codes_by_col))]
    return Dataset(
        [
            Column(nm, "categorical", np.asarray(c, dtype=float), levels=lv)
            for nm, c, lv in zip(names, codes_by_col, levels_by_col)
        ]
    )


class TestBicCategorical:
    def test_empty_set_formula(self):
        rng = np.random.default_rng(11)
        codes = rng.integers(0, 3, 240)
        data = categorical_dataset([codes], [3])
        n = 240
        counts = np.bincount(codes, minlength=3)
        phat = counts / n
        ll = n * float((phat[phat > 0] * np.log(phat[phat > 0])).sum())
        expect = ll - 0.5 * 2 * math.log(n)
        assert abs(bic_categorical(0, 0, data) - expect) < 1e-9

    def test_deterministic_function_zero_entropy(self):
        rng = np.random.default_rng(12)
        parent = rng.integers(0, 2, 100)
        child = 1 - parent
        data = categorical_dataset([child, parent], [2, 2])
        n = 100
        # log-likelihood term is exactly zero, penalty only
        expect = -0.5 * (2 - 1) * 2 * math.log(n)
        assert abs(bic_categorical(0, 0b10, data) - expect) < 1e-9

    def test_independent_parent_usually_hurts(self):
        wins = 0
        reps = 40
        for k in range(reps):
            rng = np.random.default_rng(300 + k)
            child = rng.integers(0, 2, 120)
            parent = rng.integers(0, 3, 120)
            data = categorical_dataset([child, parent], [2, 3])
            if bic_categorical(0, 0, data) > bic_categorical(0, 0b10, data):
                wins += 1
        assert wins >= 0.8 * reps

    def test_overparameterized_warns(self):
        rng = np.random.default_rng(13)
        cols = [rng.integers(0, 5, 20) for _ in range(3)]
        data = categorical_dataset(cols, [5, 5, 5])
        with pytest.warns(ScoringWarning):
            bic_categorical(0, 0b110, data)

    def test_requires_categorical_parent(self):
        data = Dataset(
            [
                Column("c", "categorical", np.zeros(10), levels=2),
                Column("x", "continuous", np.arange(10.0)),
            ]
        )
        with pytest.raises(
            ScoringError, match="continuous column 'x' cannot be a parent of categorical column 'c'"
        ):
            bic_categorical(0, 0b10, data)


# ------------------------------------------------------------------- bge


def bge_quadrature_oracle(x: np.ndarray) -> float:
    """Log marginal likelihood for one column by direct 2-D quadrature.

    Normal likelihood with unknown mean and precision; mean prior
    N(mu0, 1/(alpha_mu * w)), precision prior Gamma(alpha_w/2, rate t/2).
    """
    n = x.shape[0]
    alpha_mu, alpha_w = 1.0, 3.0
    t = alpha_mu * (alpha_w - 1.0 - 1.0) / (alpha_mu + 1.0)
    mu0 = x.mean()
    s2 = x.var()

    def log_integrand(mu, w):
        ll = 0.5 * n * (math.log(w) - math.log(2 * math.pi)) - 0.5 * w * float(
            ((x - mu) ** 2).sum()
        )
        lp_mu = (
            0.5 * (math.log(alpha_mu) + math.log(w) - math.log(2 * math.pi))
            - 0.5 * alpha_mu * w * (mu - mu0) ** 2
        )
        lp_w = (
            0.5 * alpha_w * math.log(t / 2)
            - math.lgamma(alpha_w / 2)
            + (alpha_w / 2 - 1) * math.log(w)
            - 0.5 * t * w
        )
        return ll + lp_mu + lp_w

    shift = log_integrand(x.mean(), 1.0 / s2)

    def inner(w):
        lo, hi = x.mean() - 12 * math.sqrt(s2 / n), x.mean() + 12 * math.sqrt(s2 / n)
        val, _ = quad(
            lambda mu: math.exp(log_integrand(mu, w) - shift),
            lo,
            hi,
            epsabs=1e-13,
            epsrel=1e-11,
            limit=200,
        )
        return val

    w_center = 1.0 / s2
    val, _ = quad(
        inner, w_center / 30, w_center * 30, epsabs=1e-12, epsrel=1e-10, limit=200
    )
    return math.log(val) + shift


def local(gram, node, mask):
    """One entry of the batched Gaussian scorer."""
    return gram.scores(node, [mask], gram.logdets([mask, mask | 1 << node]))[0]


def one_entry(gram, node, mask):
    """One entry in scalar arithmetic, one slogdet per block: the reference
    that the batched scorer matches bit for bit."""

    def logdet(nodes):
        idx = [k for j in NodeSubset(nodes) for k in gram.cols[j]]
        if not idx:
            return 0.0
        sign, value = np.linalg.slogdet(gram.G[np.ix_(idx, idx)])
        return float(value) if sign > 0 else NEG_INF

    n, m = gram.data.n_rows, mask.bit_count()
    fam, par = logdet(mask | 1 << node), logdet(mask)
    if gram.bge:
        return (
            -0.5 * n * math.log(math.pi)
            - 0.5 * math.log(n + 1)
            + math.lgamma(0.5 * (n + 3 + m))
            - math.lgamma(0.5 * (3 + m))
            + 0.5 * (2 * m + 3) * math.log(0.5)
            - 0.5 * (n + 3 + m) * fam
            + 0.5 * (n + 2 + m) * par
        )
    (k,) = gram.cols[node]
    syy, log_rss = gram.G[k, k], fam - par
    if syy == 0 or par == NEG_INF or not log_rss > math.log(1e-6 * syy):
        return bic_gaussian(node, mask, gram.data)
    ll = -0.5 * n * (math.log(2.0 * math.pi / n) + log_rss + 1.0)
    width = sum(len(gram.cols[j]) for j in NodeSubset(mask))
    return ll - 0.5 * (width + 2) * math.log(n)


def bge_local_direct(node, parents_mask, data, state):
    """Telescoped single-gamma form of the node-given-parents score, at
    the fixed prior alpha_mu = 1, alpha_w = p + 2 and t = 1/2."""
    n, p = data.n_rows, data.p
    alpha_mu, alpha_w, t = 1.0, p + 2.0, 0.5
    m = parents_mask.bit_count()
    fam = sorted(NodeSubset(parents_mask | (1 << node)))
    par = sorted(NodeSubset(parents_mask))
    value = (
        -0.5 * n * math.log(math.pi)
        + 0.5 * (math.log(alpha_mu) - math.log(n + alpha_mu))
        + math.lgamma(0.5 * (n + alpha_w - p + m + 1))
        - math.lgamma(0.5 * (alpha_w - p + m + 1))
        + 0.5 * (alpha_w - p + 2 * m + 1) * math.log(t)
    )
    sign, fam_det = np.linalg.slogdet(state.G[np.ix_(fam, fam)])
    assert sign > 0
    value -= 0.5 * (n + alpha_w - p + m + 1) * fam_det
    if par:
        sign, par_det = np.linalg.slogdet(state.G[np.ix_(par, par)])
        assert sign > 0
        value += 0.5 * (n + alpha_w - p + m) * par_det
    return value


class TestBge:
    def test_score_equivalence_two_nodes(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal(80)
        y = 0.9 * x + rng.standard_normal(80)
        bge = _Gram(cont(np.column_stack([x, y])), "bge")
        forward = local(bge, 0, 0) + local(bge, 1, 0b01)
        backward = local(bge, 1, 0) + local(bge, 0, 0b10)
        assert abs(forward - backward) < 1e-8

    def test_markov_equivalent_three_node(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal(120)
        y = 0.8 * x + rng.standard_normal(120)
        z = 0.8 * y + rng.standard_normal(120)
        bge = _Gram(cont(np.column_stack([x, y, z])), "bge")

        def total(assignment):
            return sum(local(bge, i, mask) for i, mask in enumerate(assignment))

        chain = total([0, 0b001, 0b010])       # x->y->z
        reverse = total([0b010, 0b100, 0])     # z->y->x
        fork = total([0b010, 0, 0b010])        # x<-y->z
        collider = total([0, 0b101, 0])        # x->y<-z
        assert abs(chain - reverse) < 1e-8
        assert abs(chain - fork) < 1e-8
        assert abs(chain - collider) > 1.0  # different equivalence class

    def test_quadrature_oracle_single_column(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal(100)
        data = cont(x[:, None])
        got = local(_Gram(data, "bge"), 0, 0)
        oracle = bge_quadrature_oracle(x)
        assert abs(got - oracle) < 1e-5

    def test_matches_telescoped_formula(self):
        rng = np.random.default_rng(20)
        M = rng.standard_normal((60, 4))
        M[:, 2] += 0.7 * M[:, 0]
        data = cont(M)
        state = _Gram(data, "bge")
        for node in range(4):
            for mask in (0, 0b0001, 0b1010, 0b1011):
                if (mask >> node) & 1:
                    continue
                a = local(state, node, mask)
                b = bge_local_direct(node, mask, data, state)
                assert abs(a - b) < 1e-9

    def test_near_duplicate_prefers_edge(self):
        rng = np.random.default_rng(21)
        for n in (100, 400):
            x = rng.standard_normal(n)
            x2 = x + 0.05 * rng.standard_normal(n)
            bge = _Gram(cont(np.column_stack([x, x2])), "bge")
            edge = local(bge, 0, 0) + local(bge, 1, 0b01)
            indep = local(bge, 0, 0) + local(bge, 1, 0)
            assert edge > indep

    def test_rejects_categorical(self):
        data = Dataset(
            [
                Column("c", "categorical", np.zeros(30), levels=2),
                Column("x", "continuous", np.arange(30.0)),
            ]
        )
        with pytest.raises(ScoringError):
            _Gram(data, "bge")

    def test_not_positive_definite_raises(self):
        # two equal columns at scale 1e8: the prior ridge of 0.5 is lost to
        # rounding in G's block over both, whose determinant is then not positive
        rng = np.random.default_rng(0)
        x = 1e8 * rng.standard_normal(50)
        data = cont(np.column_stack([x, x, rng.standard_normal(50)]))
        constraints = ParentConstraints((NodeSubset(0b110), NodeSubset(0b101), NodeSubset(0b011)), 2)
        with pytest.raises(NumericError, match=r"not positive definite for \{0,1\}"):
            compute_local_scores(data, constraints, ScoreConfig("bge"))


# --------------------------------------------------------------- cox bic


class TestCoxBic:
    def _dataset(self, x_cols, eta, seed):
        time, status = simulate_survival(eta, seed=seed)
        cols = [
            Column(f"g{i}", "continuous", x_cols[:, i].copy())
            for i in range(x_cols.shape[1])
        ]
        cols.append(Column("os", "survival", np.column_stack([time, status])))
        return Dataset(cols)

    def test_empty_is_null_loglik(self):
        rng = np.random.default_rng(30)
        x = rng.standard_normal((100, 1))
        data = self._dataset(x, np.zeros(100), seed=30)
        got = cox_bic(1, [0], data)[0]
        col = data.column(1)
        fit = cox_fit(col.values[:, 0], col.values[:, 1], np.zeros((100, 0)))
        assert abs(got - fit.null_log_likelihood) < 1e-12

    def test_true_parent_beats_empty(self):
        wins = 0
        reps = 40
        for k in range(reps):
            rng = np.random.default_rng(500 + k)
            x = rng.standard_normal((500, 1))
            data = self._dataset(x, 0.8 * x[:, 0], seed=600 + k)
            if cox_bic(1, [0b01], data)[0b01] > cox_bic(1, [0], data)[0]:
                wins += 1
        assert wins >= 0.95 * reps

    def test_noise_parent_loses(self):
        wins = 0
        reps = 40
        for k in range(reps):
            rng = np.random.default_rng(700 + k)
            x = rng.standard_normal((200, 1))
            data = self._dataset(x, np.zeros(200), seed=800 + k)
            if cox_bic(1, [0], data)[0] > cox_bic(1, [0b01], data)[0b01]:
                wins += 1
        assert wins >= 0.8 * reps

    def test_failure_sentinel(self):
        n = 50
        time = np.arange(1.0, n + 1)
        status = np.ones(n)
        x = np.arange(n, dtype=float)
        data = Dataset(
            [
                Column("x", "continuous", x),
                Column("os", "survival", np.column_stack([time, status])),
            ]
        )
        with pytest.warns(ScoringWarning):
            assert cox_bic(1, [0b01], data)[0b01] == NEG_INF

    def test_multilevel_categorical_parent_ignores_labels(self):
        # the hazard depends on a 3-level K non-monotonically in its codes:
        # every relabelling of the levels scores alike, as the fit on the
        # standardised indicators of levels 1 and 2 with a penalty of two
        # columns, alone and beside a continuous parent x
        rng = np.random.default_rng(49)
        k = rng.integers(0, 3, 300)
        x = rng.standard_normal(300)
        time, status = simulate_survival(np.array([0, 1.5, 0])[k], seed=3)
        masks = [0, 0b01, 0b10, 0b11]
        tables = []
        for relabel in itertools.permutations(range(3)):
            data = Dataset(
                [
                    Column("K", "categorical", np.array(relabel)[k].astype(float), levels=3),
                    Column("x", "continuous", x),
                    Column("os", "survival", np.column_stack([time, status])),
                ]
            )
            tables.append(cox_bic(2, masks, data))
        Z = np.column_stack([k == 1, k == 2]).astype(float)
        fit = cox_fit(time, status, (Z - Z.mean(axis=0)) / Z.std(axis=0))
        assert abs(tables[0][0b01] - (fit.log_likelihood - math.log(300))) < 1e-9
        for table in tables:
            for mask in masks:
                assert abs(table[mask] - tables[0][mask]) <= 1e-9 * abs(tables[0][mask])


    def test_constant_parent_is_a_zero_column(self, monkeypatch):
        # 300 copies of 0.1 have a std of about 1e-17, not 0: the design
        # column must still be zeros, whose fit is the null fit
        rng = np.random.default_rng(32)
        data = self._dataset(np.full((300, 1), 0.1), rng.standard_normal(300), seed=32)
        designs = []
        real_fit = bndp.scoring.cox_fit_batch

        def recording_fit(time, status, X):
            designs.append(X.copy())
            return real_fit(time, status, X)

        monkeypatch.setattr(bndp.scoring, "cox_fit_batch", recording_fit)
        got = cox_bic(1, [0b01], data)[0b01]
        assert len(designs) == 1 and not designs[0].any()
        col = data.column(1)
        null = cox_fit(col.values[:, 0], col.values[:, 1], np.zeros((300, 0))).null_log_likelihood
        assert abs(got - (null - 0.5 * math.log(300))) < 1e-12

    def test_batched_table_equals_solo_scores(self):
        # the survival node's parent sets are fitted one batch per size; each
        # score equals cox_bic of that set alone, a separating gene fails
        # only the sets that hold it, and a constant gene enters as a zero column
        rng = np.random.default_rng(31)
        n = 60
        time = rng.permutation(np.arange(1.0, n + 1))
        status = np.ones(n)
        genes = np.column_stack(
            [
                rng.standard_normal(n) - 0.02 * time,
                rng.standard_normal(n),
                -time / time.std(),  # orders the event times: separates
                np.full(n, 2.0),
            ]
        )
        cols = [Column(f"g{i}", "continuous", genes[:, i].copy()) for i in range(4)]
        data = Dataset(cols + [Column("os", "survival", np.column_stack([time, status]))])
        pp = [0, 0, 0, 0, 0b1111]
        constraints = ParentConstraints(tuple(NodeSubset(m) for m in pp), 2)
        with pytest.warns(ScoringWarning) as batch_warnings:
            table = compute_local_scores(data, constraints, ScoreConfig("bic"))
        scores = table.subsets(4)
        assert len(scores) == 1 + 4 + 6
        solo_messages = []
        for mask, got in scores.items():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                want = cox_bic(4, [mask], data)[mask]
            solo_messages += [str(w.message) for w in caught]
            assert got == want
            assert (got == NEG_INF) == bool(mask & 0b0100)
        cox_messages = [str(w.message) for w in batch_warnings if "Cox" in str(w.message)]
        assert cox_messages == solo_messages
        assert len(solo_messages) == 4  # {g2} and its three pairs


def bits(table: dict[int, float]) -> list[tuple[int, str]]:
    """A score table as (mask, exact float) pairs, in its order."""
    return [(mask, float(v).hex()) for mask, v in table.items()]


class TestCoxFitsRecord:
    """Cox-BIC reads screening's fits from a :class:`CoxFits` record and
    fits only the parent sets the record lacks, to the same bits."""

    @staticmethod
    def _dataset(seed=61):
        # five continuous columns and a three-level categorical K (a width-2
        # design); at alpha = 0.05 Cox screening of T keeps all but V4
        rng = np.random.default_rng(seed)
        n = 300
        M = rng.standard_normal((n, 5))
        M[:, 1] += M[:, 0]
        M[:, 3] += M[:, 2]
        k = rng.integers(0, 3, n)
        eta = 0.8 * M[:, 0] + np.array([0.0, 1.0, -0.5])[k] + 0.5 * M[:, 3]
        time, status = simulate_survival(eta, seed=seed)
        cols = [Column(f"V{i}", "continuous", M[:, i].copy()) for i in range(5)]
        cols.append(Column("K", "categorical", k.astype(float), levels=3))
        cols.append(Column("T", "survival", np.column_stack([time, status])))
        return Dataset(cols)

    @pytest.mark.parametrize(
        "opts",
        [
            ScreenOptions(alpha=0.05),
            ScreenOptions(mode="phenotype", outcome="T", alpha=0.05, levels=2),
        ],
        ids=["all_pairs", "phenotype"],
    )
    def test_tables_bit_identical_with_and_without_record(self, opts):
        data = self._dataset()
        fits = CoxFits()
        constraints, reduced = build_constraints(data, opts, 2, cox_fits=fits)
        s = reduced.survival_index
        assert set(NodeSubset(constraints.pp[s])) == set(range(6)) - {s}
        assert fits.fits[("T", ("K",))][1] == 2  # the categorical's width-2 fit
        screened = dict(fits.fits)
        assert len(screened) == 1 + 6 and fits.n_models == 6  # the null and 6 candidates
        cfg = ScoreConfig("bic")
        with_record = compute_local_scores(reduced, constraints, cfg, cox_fits=fits)
        alone = compute_local_scores(reduced, constraints, cfg)
        for i in range(reduced.p):
            assert bits(with_record.subsets(i)) == bits(alone.subsets(i))
        # scoring fitted the 10 pairs only, and kept what screening recorded
        assert fits.n_models == 6 + 10 and fits.n_failed == 0
        assert all(fits.fits[key] == value for key, value in screened.items())

    def test_reused_sets_are_not_refitted(self, monkeypatch):
        data = self._dataset()
        fits = CoxFits()
        cox_screen(data, 6, list(range(6)), fits)
        widths = []
        real_fit = bndp.scoring.cox_fit_batch

        def recording_fit(time, status, X):
            widths.append(X.shape[0])
            return real_fit(time, status, X)

        monkeypatch.setattr(bndp.scoring, "cox_fit_batch", recording_fit)
        masks = [0, 0b1, 0b10000, 0b11]
        got = cox_bic(6, masks, data, fits)
        assert widths == [2]  # no null batch, no univariate one: the pair {V0, V1}
        assert bits(got) == bits(cox_bic(6, masks, data))

    def test_failed_screening_fit_is_refitted(self):
        # x orders the event times, so its fit diverges in screening and is
        # not recorded: Cox-BIC fits it again, warns as without a record and
        # scores it -inf
        n = 50
        time = np.arange(1.0, n + 1)
        x = np.arange(n, dtype=float)
        y = np.random.default_rng(5).standard_normal(n)
        data = Dataset(
            [
                Column("x", "continuous", x),
                Column("y", "continuous", y),
                Column("os", "survival", np.column_stack([time, np.ones(n)])),
            ]
        )
        fits = CoxFits()
        with pytest.warns(ScreeningWarning, match="Cox screening failed for 'x'"):
            cox_screen(data, 2, [0, 1], fits)
        assert ("os", ("x",)) not in fits.fits and fits.n_failed == 1
        masks = [0, 0b01, 0b10]
        with pytest.warns(ScoringWarning) as with_record:
            got = cox_bic(2, masks, data, fits)
        with pytest.warns(ScoringWarning) as without:
            want = cox_bic(2, masks, data)
        assert bits(got) == bits(want) and got[0b01] == NEG_INF
        assert [str(w.message) for w in with_record] == [str(w.message) for w in without]
        assert fits.n_models == 2 + 1 and fits.n_failed == 2  # only {x} refitted


# ------------------------------------------------------- bulk computation


class TestComputeLocalScores:
    def test_paper_example_keys(self):
        rng = np.random.default_rng(40)
        data = cont(rng.standard_normal((60, 4)), list("abcd"))
        pp = tuple(
            NodeSubset.from_indices(m) for m in ([1, 3], [2, 0], [1], [0])
        )
        constraints = ParentConstraints(pp, indegree=2)
        table = compute_local_scores(data, constraints, ScoreConfig("bic"))
        assert sorted(table.subsets(0)) == sorted([0, 0b0010, 0b1000, 0b1010])
        assert len(table.subsets(2)) == 2

    def test_empty_pp_single_key(self):
        rng = np.random.default_rng(41)
        data = cont(rng.standard_normal((30, 2)))
        constraints = ParentConstraints((NodeSubset(0), NodeSubset(0)), indegree=2)
        table = compute_local_scores(data, constraints, ScoreConfig("bic"))
        assert list(table.subsets(0)) == [0]
        assert list(table.subsets(1)) == [0]

    def test_entry_count_binomial_sum(self):
        rng = np.random.default_rng(42)
        p = 7
        data = cont(rng.standard_normal((50, p)))
        for trial in range(5):
            gen = np.random.default_rng(trial)
            pp = []
            for i in range(p):
                mask = 0
                for j in range(p):
                    if j != i and gen.random() < 0.5:
                        mask |= 1 << j
                pp.append(NodeSubset(mask))
            d = int(gen.integers(1, 4))
            constraints = ParentConstraints(tuple(pp), indegree=d)
            table = compute_local_scores(data, constraints, ScoreConfig("bic"))
            expect = 0
            for i in range(p):
                r = pp[i].bit_count()
                expect += sum(math.comb(r, c) for c in range(min(d, r) + 1))
            assert table.entry_count() == expect

    def test_gram_fastpath_matches_direct(self):
        rng = np.random.default_rng(43)
        M = rng.standard_normal((80, 5))
        M[:, 1] += 0.6 * M[:, 0]
        M[:, 4] -= 1.1 * M[:, 2]
        data = cont(M)
        constraints = ParentConstraints.complete(5, 3)
        table = compute_local_scores(data, constraints, ScoreConfig("bic"))
        for node in range(5):
            for mask, score in table.subsets(node).items():
                direct = bic_gaussian(node, mask, data)
                assert abs(score - direct) <= 1e-9 * max(1.0, abs(direct))

    @pytest.mark.parametrize("mean", [0.0, 1e2, 1e4, 1e6, 1e8])
    def test_gram_matches_direct_at_large_means(self, mean):
        from bndp.engine import TIE_EPS

        rng = np.random.default_rng(47)
        n = 300
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        y = mean + a + 0.5 * rng.standard_normal(n)
        data = cont(np.column_stack([a, b, y]))
        # y - mean is exact (the operands are within a factor of two), so the
        # shifted copy has the same scores, and the direct path never sees
        # the large mean
        shifted = cont(np.column_stack([a, b, y - mean]))
        table = compute_local_scores(data, ParentConstraints.complete(3, 2), ScoreConfig("bic"))
        for node in range(3):
            for mask, score in table.subsets(node).items():
                direct = bic_gaussian(node, mask, shifted)
                assert abs(score - direct) <= TIE_EPS * max(1.0, abs(direct))

    @pytest.mark.parametrize("value", [0.0, 1.0, 3.7, 1e6])
    def test_gram_constant_column_matches_direct(self, value):
        rng = np.random.default_rng(48)
        n = 300
        a = rng.standard_normal(n)
        data = cont(np.column_stack([a, a + rng.standard_normal(n), np.full(n, value)]))
        with pytest.warns(ScoringWarning, match="degenerate"):
            table = compute_local_scores(data, ParentConstraints.complete(3, 2), ScoreConfig("bic"))
        assert all(score == NEG_INF for score in table.subsets(2).values())
        with pytest.warns(ScoringWarning):
            for node in range(3):
                for mask, score in table.subsets(node).items():
                    direct = bic_gaussian(node, mask, data)
                    assert score == direct or abs(score - direct) <= 1e-9 * abs(direct)

    def test_neg_inf_propagates_not_raises(self):
        rng = np.random.default_rng(44)
        x = rng.standard_normal(50)
        data = cont(np.column_stack([x, x]))  # exact duplicate
        constraints = ParentConstraints.complete(2, 1)
        with pytest.warns(ScoringWarning):
            table = compute_local_scores(data, constraints, ScoreConfig("bic"))
        assert table.score(0, 0b10) == NEG_INF
        assert table.score(1, 0b01) == NEG_INF

    def test_mixed_categorical_parent_for_categorical_node(self):
        rng = np.random.default_rng(45)
        cat = rng.integers(0, 2, 60).astype(float)
        x = rng.standard_normal(60)
        data = Dataset(
            [
                Column("c", "categorical", cat, levels=2),
                Column("x", "continuous", x),
            ]
        )
        # the parent-kind rule is checked before any score
        with pytest.raises(ScoringError, match="continuous column 'x' cannot be a parent"):
            compute_local_scores(data, ParentConstraints.complete(2, 1), ScoreConfig("bic"))
        pp = (NodeSubset(0), NodeSubset(0b01))  # c -> x only
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = compute_local_scores(data, ParentConstraints(pp, 1), ScoreConfig("bic"))
        assert np.isfinite(table.score(1, 0b01))  # categorical regressor fine

    def test_declared_level_no_row_has_adds_no_parameter(self):
        # K and J use codes 0-2; declaring a fourth level that no row has
        # changes no score: not y | K (Gaussian BIC, which counted an
        # all-zero indicator column, 0.5 ln 300 lower), not J | K
        # (categorical BIC, whose r and q counted it) and not T | K (Cox-BIC)
        rng = np.random.default_rng(1)
        n = 300
        k = rng.integers(0, 3, n)
        y = np.array([0.0, 1.0, 0.0])[k] + rng.standard_normal(n)
        j = (k + (rng.random(n) < 0.3)) % 3
        time, status = simulate_survival(y, seed=1)
        pp = (NodeSubset(0b010), NodeSubset(0), NodeSubset(0b010), NodeSubset(0b011))
        tables = []
        for levels in (3, 4):
            data = Dataset(
                [
                    Column("y", "continuous", y),
                    Column("K", "categorical", k.astype(float), levels=levels),
                    Column("J", "categorical", j.astype(float), levels=levels),
                    Column("T", "survival", np.column_stack([time, status])),
                ]
            )
            table = compute_local_scores(data, ParentConstraints(pp, 2), ScoreConfig("bic"))
            tables.append([bits(table.subsets(i)) for i in range(4)])
            assert bndp.scoring._regressors(data, [1])[0].shape == (2, n)
        assert tables[0] == tables[1]
        assert float.fromhex(dict(tables[1][0])[0b010]) == pytest.approx(-413.059, abs=1e-3)

    def test_multilevel_categorical_parent_ignores_labels(self):
        # y depends on a 3-level K non-monotonically in its codes: every
        # relabelling of the levels scores alike, and as much as the two
        # indicator columns of levels 1 and 2 given as continuous parents
        rng = np.random.default_rng(49)
        k = rng.integers(0, 3, 300)
        y = np.array([0.0, 2.0, 1.0])[k] + rng.standard_normal(300)
        pp = (NodeSubset(0b10), NodeSubset(0))
        scores = []
        for relabel in itertools.permutations(range(3)):
            data = Dataset(
                [
                    Column("y", "continuous", y),
                    Column("K", "categorical", np.array(relabel)[k].astype(float), levels=3),
                ]
            )
            table = compute_local_scores(data, ParentConstraints(pp, 1), ScoreConfig("bic"))
            scores.append(table.score(0, 0b10))
        onehot = cont(np.column_stack([y, k == 1, k == 2]).astype(float))
        ref = bic_gaussian(0, 0b110, onehot)
        for score in scores:
            assert abs(score - ref) <= 1e-9 * abs(ref)

    def test_multilevel_categorical_parent_skips_direct_fit(self, monkeypatch):
        # a well-conditioned fit on a 3-level parent's indicator columns is
        # read off the cached log-determinants, not refitted by least squares
        rng = np.random.default_rng(50)
        k = rng.integers(0, 3, 300)
        x = rng.standard_normal(300)
        y = np.array([0.0, 2.0, 1.0])[k] + x + rng.standard_normal(300)
        data = Dataset(
            [
                Column("y", "continuous", y),
                Column("K", "categorical", k.astype(float), levels=3),
                Column("x", "continuous", x),
            ]
        )
        masks = (0, 0b010, 0b100, 0b110)
        expected = {mask: bic_gaussian(0, mask, data) for mask in masks}
        direct = mock.Mock(side_effect=bic_gaussian)
        monkeypatch.setattr(bndp.scoring, "bic_gaussian", direct)
        pp = (NodeSubset(0b110), NodeSubset(0), NodeSubset(0))
        table = compute_local_scores(data, ParentConstraints(pp, 2), ScoreConfig("bic"))
        direct.assert_not_called()
        for mask in masks:
            assert abs(table.score(0, mask) - expected[mask]) <= 1e-12 * abs(expected[mask])

    def test_bic_markov_equivalent_three_node(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal(120)
        y = 0.8 * x + rng.standard_normal(120)
        z = 0.8 * y + rng.standard_normal(120)
        bic = _Gram(cont(np.column_stack([x, y, z])), "bic")

        def total(assignment):
            return sum(local(bic, i, mask) for i, mask in enumerate(assignment))

        chain = total([0, 0b001, 0b010])       # x->y->z
        reverse = total([0b010, 0b100, 0])     # z->y->x
        fork = total([0b010, 0, 0b010])        # x<-y->z
        collider = total([0, 0b101, 0])        # x->y<-z
        assert abs(chain - reverse) <= 1e-9 * abs(chain)
        assert abs(chain - fork) <= 1e-9 * abs(chain)
        assert abs(chain - collider) > 1.0  # different equivalence class

    def test_bge_requires_all_continuous(self):
        rng = np.random.default_rng(46)
        data = Dataset(
            [
                Column("c", "categorical", rng.integers(0, 2, 40).astype(float), levels=2),
                Column("x", "continuous", rng.standard_normal(40)),
            ]
        )
        constraints = ParentConstraints.complete(2, 1)
        with pytest.raises(ScoringError):
            compute_local_scores(data, constraints, ScoreConfig("bge"))

    def test_survival_parent_rejected(self):
        time, status = simulate_survival(np.zeros(30), seed=3)
        data = Dataset(
            [
                Column("x", "continuous", np.random.default_rng(3).standard_normal(30)),
                Column("os", "survival", np.column_stack([time, status])),
            ]
        )
        pp = (NodeSubset(0b10), NodeSubset(0))  # survival as a parent of x
        with pytest.raises(ScoringError):
            compute_local_scores(data, ParentConstraints(pp, 1), ScoreConfig("bic"))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda d: ScoreConfig("bdeu"), "unknown score family 'bdeu'"),
            (lambda d: bic_categorical(0, 0, d), "node 0 is not categorical"),
            (lambda d: cox_bic(0, [0], d), "column 'x' is not a survival outcome"),
            (
                lambda d: compute_local_scores(d, ParentConstraints.complete(3, 1), ScoreConfig()),
                "disagree on the node count",
            ),
        ],
    )
    def test_incompatible_inputs_rejected(self, call, message):
        time, status = simulate_survival(np.zeros(30), seed=3)
        data = Dataset(
            [
                Column("x", "continuous", np.random.default_rng(3).standard_normal(30)),
                Column("os", "survival", np.column_stack([time, status])),
            ]
        )
        with pytest.raises(ScoringError, match=message):
            call(data)

    def test_decomposability_identity(self):
        rng = np.random.default_rng(48)
        M = rng.standard_normal((60, 3))
        data = cont(M)
        constraints = ParentConstraints.complete(3, 2)
        table = compute_local_scores(data, constraints, ScoreConfig("bic"))
        # pick a fixed structure: 0 -> 1 -> 2
        parts = [table.score(0, 0), table.score(1, 0b001), table.score(2, 0b010)]
        assert sum(parts) == parts[0] + parts[1] + parts[2]

    @pytest.mark.parametrize("family", ["bic", "bge"])
    def test_entries_do_not_depend_on_the_batch(self, family, monkeypatch):
        # every node's entries, scored in one batch with all the others and
        # scored alone, are the same floats, and those of one_entry: a
        # three-level K gives blocks of width 2 (BIC only, as BGe needs
        # continuous data), the constant c is a degenerate fit, and z on x a
        # near-exact one, so BIC sends some entries to the direct least
        # squares and reads the rest off the stacked log-determinants
        rng = np.random.default_rng(52)
        n = 200
        k = rng.integers(0, 3, n)
        x = rng.standard_normal(n)
        cols = [
            Column("x", "continuous", x),
            Column("y", "continuous", np.array([0.0, 2.0, 1.0])[k] + x + rng.standard_normal(n)),
            Column("z", "continuous", x + 1e-5 * rng.standard_normal(n)),
            Column("c", "continuous", np.full(n, 3.0)),
        ]
        if family == "bic":
            cols.append(Column("K", "categorical", k.astype(float), levels=3))
        data = Dataset(cols)
        full = ParentConstraints.complete(data.p, 2)
        if family == "bic":  # K, categorical, takes no continuous parent
            full = ParentConstraints(full.pp[:-1] + (NodeSubset(0),), 2)
        gram = _Gram(data, family)
        direct = mock.Mock(side_effect=bic_gaussian)
        monkeypatch.setattr(bndp.scoring, "bic_gaussian", direct)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ScoringWarning)
            together = compute_local_scores(data, full, ScoreConfig(family))
            if family == "bic":
                assert 0 < direct.call_count < 4 * len(together.subsets(0))
            for i in range(4):
                pp = tuple(m if j == i else NodeSubset(0) for j, m in enumerate(full.pp))
                alone = compute_local_scores(data, ParentConstraints(pp, 2), ScoreConfig(family))
                assert list(alone.subsets(i).items()) == list(together.subsets(i).items())
                for mask, value in together.subsets(i).items():
                    assert value == one_entry(gram, i, mask), (i, mask)
