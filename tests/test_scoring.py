import json
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from bndp.core import Column, Dataset, NodeSubset, ParentConstraints
from bndp.numeric import cox_fit
from bndp.scoring import (
    NEG_INF,
    LocalScoreTable,
    ScoreConfig,
    ScoringError,
    ScoringWarning,
    _BgeState,
    bge_local,
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
        with pytest.raises(ScoringError):
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


def bge_local_direct(node, parents_mask, data, state):
    """Telescoped single-gamma form of the node-given-parents score."""
    n, p = state.n, state.p
    m = NodeSubset(parents_mask).count()
    fam = sorted(NodeSubset(parents_mask | (1 << node)))
    par = sorted(NodeSubset(parents_mask))
    value = (
        -0.5 * n * math.log(math.pi)
        + 0.5 * (math.log(state.alpha_mu) - math.log(n + state.alpha_mu))
        + math.lgamma(0.5 * (n + state.alpha_w - p + m + 1))
        - math.lgamma(0.5 * (state.alpha_w - p + m + 1))
        + 0.5 * (state.alpha_w - p + 2 * m + 1) * math.log(state.t)
    )
    sign, fam_det = np.linalg.slogdet(state.R[np.ix_(fam, fam)])
    assert sign > 0
    value -= 0.5 * (n + state.alpha_w - p + m + 1) * fam_det
    if par:
        sign, par_det = np.linalg.slogdet(state.R[np.ix_(par, par)])
        assert sign > 0
        value += 0.5 * (n + state.alpha_w - p + m) * par_det
    return value


class TestBge:
    def test_score_equivalence_two_nodes(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal(80)
        y = 0.9 * x + rng.standard_normal(80)
        data = cont(np.column_stack([x, y]))
        cfg = ScoreConfig(family="bge")
        forward = bge_local(0, 0, data, cfg) + bge_local(1, 0b01, data, cfg)
        backward = bge_local(1, 0, data, cfg) + bge_local(0, 0b10, data, cfg)
        assert abs(forward - backward) < 1e-8

    def test_markov_equivalent_three_node(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal(120)
        y = 0.8 * x + rng.standard_normal(120)
        z = 0.8 * y + rng.standard_normal(120)
        data = cont(np.column_stack([x, y, z]))
        cfg = ScoreConfig(family="bge")

        def total(assignment):
            return sum(bge_local(i, mask, data, cfg) for i, mask in enumerate(assignment))

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
        cfg = ScoreConfig(family="bge")
        got = bge_local(0, 0, data, cfg)
        oracle = bge_quadrature_oracle(x)
        assert abs(got - oracle) < 1e-5

    def test_matches_telescoped_formula(self):
        rng = np.random.default_rng(20)
        M = rng.standard_normal((60, 4))
        M[:, 2] += 0.7 * M[:, 0]
        data = cont(M)
        cfg = ScoreConfig(family="bge")
        state = _BgeState(data, cfg)
        for node in range(4):
            for mask in (0, 0b0001, 0b1010, 0b1011):
                if (mask >> node) & 1:
                    continue
                a = bge_local(node, mask, data, cfg, _state=state)
                b = bge_local_direct(node, mask, data, state)
                assert abs(a - b) < 1e-9

    def test_near_duplicate_prefers_edge(self):
        rng = np.random.default_rng(21)
        for n in (100, 400):
            x = rng.standard_normal(n)
            x2 = x + 0.05 * rng.standard_normal(n)
            data = cont(np.column_stack([x, x2]))
            cfg = ScoreConfig(family="bge")
            edge = bge_local(0, 0, data, cfg) + bge_local(1, 0b01, data, cfg)
            indep = bge_local(0, 0, data, cfg) + bge_local(1, 0, data, cfg)
            assert edge > indep

    def test_rejects_categorical(self):
        data = Dataset(
            [
                Column("c", "categorical", np.zeros(30), levels=2),
                Column("x", "continuous", np.arange(30.0)),
            ]
        )
        with pytest.raises(ScoringError):
            bge_local(1, 0, data, ScoreConfig(family="bge"))

    def test_hyperparameter_validation(self):
        rng = np.random.default_rng(2)
        data = cont(rng.standard_normal((30, 2)))
        with pytest.raises(ScoringError):
            bge_local(0, 0, data, ScoreConfig(family="bge", alpha_w=2.5))


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
        got = cox_bic(1, 0, data)
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
            if cox_bic(1, 0b01, data) > cox_bic(1, 0, data):
                wins += 1
        assert wins >= 0.95 * reps

    def test_noise_parent_loses(self):
        wins = 0
        reps = 40
        for k in range(reps):
            rng = np.random.default_rng(700 + k)
            x = rng.standard_normal((200, 1))
            data = self._dataset(x, np.zeros(200), seed=800 + k)
            if cox_bic(1, 0, data) > cox_bic(1, 0b01, data):
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
            assert cox_bic(1, 0b01, data) == NEG_INF


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
                want = cox_bic(4, mask, data)
            solo_messages += [str(w.message) for w in caught]
            assert got == want
            assert (got == NEG_INF) == bool(mask & 0b0100)
        cox_messages = [str(w.message) for w in batch_warnings if "Cox" in str(w.message)]
        assert cox_messages == solo_messages
        assert len(solo_messages) == 4  # {g2} and its three pairs


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
                r = pp[i].count()
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
        constraints = ParentConstraints.complete(2, 1)
        with pytest.warns(ScoringWarning):
            table = compute_local_scores(data, constraints, ScoreConfig("bic"))
        assert table.score(0, 0b10) == NEG_INF  # continuous parent unsupported
        assert np.isfinite(table.score(1, 0b01))  # categorical regressor fine

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

    def test_json_roundtrip(self):
        rng = np.random.default_rng(47)
        data = cont(rng.standard_normal((40, 3)), list("xyz"))
        constraints = ParentConstraints.complete(3, 2)
        table = compute_local_scores(data, constraints, ScoreConfig("bic"))
        text = table.to_json()
        back = LocalScoreTable.from_json(text)
        assert back.node_names == table.node_names
        assert back.indegree == table.indegree
        for i in range(3):
            assert back.subsets(i) == table.subsets(i)
        doc = json.loads(text)
        assert {e["node"] for e in doc["entries"]} == {"x", "y", "z"}

    def test_decomposability_identity(self):
        rng = np.random.default_rng(48)
        M = rng.standard_normal((60, 3))
        data = cont(M)
        constraints = ParentConstraints.complete(3, 2)
        table = compute_local_scores(data, constraints, ScoreConfig("bic"))
        # pick a fixed structure: 0 -> 1 -> 2
        parts = [table.score(0, 0), table.score(1, 0b001), table.score(2, 0b010)]
        assert sum(parts) == parts[0] + parts[1] + parts[2]
