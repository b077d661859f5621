import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import bndp.numeric
from bndp.numeric import (
    ConvergenceError,
    NumericError,
    SeparationError,
    _cox_loglik_derivs,
    chisq_sf,
    cox_fit,
    cox_fit_batch,
    least_squares,
    log_mvgamma,
)
from bndp.simulate import simulate_survival
from oracles import student_t_sf


# ------------------------------------------------------------------ oracles


def t_sf_quadrature(t: float, df: float) -> float:
    """Tail probability by quadrature over the t density."""

    def density(x):
        c = math.exp(
            math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
        )
        return c * (1 + x * x / df) ** (-(df + 1) / 2)

    val, _ = quad(density, t, np.inf, epsabs=1e-12, epsrel=1e-12)
    return val


def chisq_sf_quadrature(x: float, df: float) -> float:
    """Tail probability by quadrature over the chi-squared density."""

    def density(u):
        return math.exp(
            (df / 2 - 1) * math.log(u) - u / 2 - math.lgamma(df / 2) - (df / 2) * math.log(2)
        )

    val, _ = quad(density, x, np.inf, epsabs=1e-13, epsrel=1e-12)
    return val


def normal_equations(y, X):
    beta = np.linalg.solve(X.T @ X, X.T @ y)
    resid = y - X @ beta
    return beta, float(resid @ resid)


def naive_cox_loglik(beta, time, status, X):
    """Direct O(n^2) Breslow partial log-likelihood."""
    eta = X @ beta
    ll = 0.0
    for i in range(len(time)):
        if status[i] == 1:
            risk = time >= time[i]
            ll += eta[i] - math.log(np.exp(eta[risk]).sum())
    return ll


def loop_cox_loglik_derivs(beta, time, status, X):
    """Row-by-row Breslow likelihood, gradient and Hessian.

    Rows sorted by descending time; each tie group enters the risk set
    before its events score.
    """
    n, k = X.shape
    eta = np.clip(X @ beta, -700, 700)
    w = np.exp(eta)
    ll, grad, hess = 0.0, np.zeros(k), np.zeros((k, k))
    s0, s1, s2 = 0.0, np.zeros(k), np.zeros((k, k))
    i = 0
    while i < n:
        j = i
        while j < n and time[j] == time[i]:
            j += 1
        for r in range(i, j):
            s0 += w[r]
            s1 += X[r] * w[r]
            s2 += np.outer(X[r], X[r] * w[r])
        mean = s1 / s0
        for r in range(i, j):
            if status[r] == 1:
                ll += eta[r] - math.log(s0)
                grad += X[r] - mean
                hess -= s2 / s0 - np.outer(mean, mean)
        i = j
    return ll, grad, hess


def sorted_cox_inputs(time, status, X):
    """Rows by descending time, and the kernel's arguments for them.

    ``X`` is one ``n x k`` design or a stack of B of them, ``(B, n, k)``;
    the kernel takes the stack as ``(k, B, n)``. Tie-group ends come from a
    direct scan, independent of ``cox_fit_batch``.
    """
    order = np.argsort(-time, kind="stable")
    time, status, X = time[order], status[order], X[..., order, :]
    events = np.flatnonzero(status == 1)
    ends = np.array([np.flatnonzero(time == time[e]).max() for e in events], dtype=int)
    stack = X if X.ndim == 3 else X[None]
    return (time, status, X), (np.ascontiguousarray(stack.transpose(2, 0, 1)), events, ends)


def fd_gradient(f, beta, h=1e-5):
    """Central-difference gradient of a scalar function."""
    e = np.eye(len(beta)) * h
    return np.array([(f(beta + d) - f(beta - d)) / (2 * h) for d in e])


def fd_hessian(f, beta, h=1e-4):
    """Central-difference Hessian of a scalar function."""
    e = np.eye(len(beta)) * h
    return np.array(
        [
            [
                (f(beta + a + b) - f(beta + a - b) - f(beta - a + b) + f(beta - a - b))
                / (4 * h * h)
                for b in e
            ]
            for a in e
        ]
    )


def assert_close_rel(got, want, rel):
    scale = max(1.0, float(np.max(np.abs(want)))) if np.size(want) else 1.0
    assert np.max(np.abs(np.asarray(got) - want), initial=0.0) <= rel * scale


# ------------------------------------------------------------- least squares


class TestLeastSquares:
    def test_exact_fit(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(20)
        fit = least_squares(x.copy(), x[:, None])
        assert abs(fit.coefficients[0] - 1.0) < 1e-12
        assert fit.rss < 1e-20

    def test_intercept_only_mean(self):
        y = np.array([1.0, 2.0, 3.0])
        fit = least_squares(y, np.ones((3, 1)))
        assert abs(fit.coefficients[0] - 2.0) < 1e-12
        assert abs(fit.rss - 2.0) < 1e-12
        assert fit.n_params == 2

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(42)
        X = np.column_stack([np.ones(50), rng.standard_normal((50, 2))])
        y = rng.standard_normal(50)
        fit = least_squares(y, X)
        beta, rss = normal_equations(y, X)
        assert np.allclose(fit.coefficients, beta, atol=1e-8)
        assert abs(fit.rss - rss) < 1e-8
        n = 50
        assert abs(
            fit.log_likelihood - (-0.5 * n * (math.log(2 * math.pi * rss / n) + 1))
        ) < 1e-9

    def test_zero_variance_sentinel(self):
        y = np.full(10, 3.0)
        fit = least_squares(y, np.ones((10, 1)))
        assert fit.rss == 0.0
        assert math.isinf(fit.log_likelihood)

    def test_rank_deficient_flag(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(30)
        X = np.column_stack([np.ones(30), x, x])
        fit = least_squares(rng.standard_normal(30), X)
        assert fit.rank_deficient

    def test_too_few_rows(self):
        with pytest.raises(NumericError):
            least_squares(np.zeros(2), np.ones((2, 3)))

    def test_rss_invariant_to_column_order(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(40), rng.standard_normal((40, 2))])
        y = rng.standard_normal(40)
        a = least_squares(y, X).rss
        b = least_squares(y, X[:, [2, 0, 1]]).rss
        assert abs(a - b) < 1e-9


# ------------------------------------------------------------ distributions


class TestTails:
    def test_t_symmetry(self):
        assert abs(student_t_sf(0.0, 10) - 0.5) < 1e-12

    def test_t_limit(self):
        assert student_t_sf(1e8, 5) < 1e-12

    def test_t_table_value(self):
        # classic two-sided 5% critical value at 10 df
        assert abs(2 * student_t_sf(2.228, 10) - 0.05) < 2e-4

    def test_t_against_quadrature(self):
        for t in (-3.0, -0.7, 0.3, 1.5, 4.2):
            for df in (1, 4, 17):
                assert abs(student_t_sf(t, df) - t_sf_quadrature(t, df)) < 1e-8

    def test_t_monotone(self):
        grid = np.linspace(-5, 5, 30)
        vals = [student_t_sf(t, 7) for t in grid]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(0 <= v <= 1 for v in vals)

    def test_t_domain(self):
        with pytest.raises(NumericError):
            student_t_sf(1.0, 0)

    def test_chisq_zero(self):
        assert chisq_sf(0.0, 3) == 1.0

    def test_chisq_df2_closed_form(self):
        # for df = 2 the tail is exp(-x/2)
        x = 2 * math.log(2)
        assert abs(chisq_sf(x, 2) - 0.5) < 1e-12

    def test_chisq_critical_value(self):
        assert abs(chisq_sf(3.841, 1) - 0.05) < 1e-3

    def test_chisq_against_quadrature(self):
        for x in (0.1, 1.0, 3.5, 10.0):
            for df in (1, 2, 6.5):
                assert abs(chisq_sf(x, df) - chisq_sf_quadrature(x, df)) < 1e-8

    def test_chisq_domain(self):
        with pytest.raises(NumericError):
            chisq_sf(-1.0, 2)
        with pytest.raises(NumericError):
            chisq_sf(1.0, 0)


class TestLogMvGamma:
    def test_reduces_to_gamma(self):
        for a in (0.7, 2.0, 5.5):
            assert abs(log_mvgamma(a, 1) - math.lgamma(a)) < 1e-12

    def test_p2_product_formula(self):
        a = 1.5
        expect = 0.5 * math.log(math.pi) + math.lgamma(1.5) + math.lgamma(1.0)
        assert abs(log_mvgamma(a, 2) - expect) < 1e-12

    def test_product_identity_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = int(rng.integers(1, 6))
            a = (p - 1) / 2 + 0.25 + 5 * rng.random()
            direct = p * (p - 1) / 4 * math.log(math.pi) + sum(
                math.lgamma(a - j / 2) for j in range(p)
            )
            assert abs(log_mvgamma(a, p) - direct) < 1e-10

    def test_domain(self):
        with pytest.raises(NumericError):
            log_mvgamma(0.5, 2)


# -------------------------------------------------------------------- cox


def random_cox_case(rng, n, k, n_times, B=None):
    """Rows with ``n_times`` distinct times, mixed status, at least one event.

    With ``B``, a stack of B designs ``(B, n, k)`` and coefficients
    ``(B, k)`` over the same rows.
    """
    time = rng.integers(1, n_times + 1, n).astype(float)
    status = (rng.random(n) < 0.6).astype(float)
    status[rng.integers(n)] = 1.0
    shape = () if B is None else (B,)
    X = rng.standard_normal(shape + (n, k))
    beta = 0.7 * rng.standard_normal(shape + (k,))
    return beta, time, status, X


class TestCoxKernel:
    def check_against_loop(self, beta, time, status, X):
        """Each model of the batch against the row loop, and against
        itself evaluated alone."""
        rows, args = sorted_cox_inputs(time, status, X)
        ll, grad, hess = _cox_loglik_derivs(beta, *args)
        B, k = beta.shape
        assert ll.shape == (B,) and grad.shape == (B, k) and hess.shape == (B, k, k)
        time_s, status_s, X_s = rows
        Xk, events, ends = args
        for b in range(B):
            ll_ref, grad_ref, hess_ref = loop_cox_loglik_derivs(beta[b], time_s, status_s, X_s[b])
            assert_close_rel(ll[b], ll_ref, 1e-10)
            assert_close_rel(grad[b], grad_ref, 1e-10)
            assert_close_rel(hess[b], hess_ref, 1e-10)
            alone = _cox_loglik_derivs(beta[b : b + 1], Xk[:, b : b + 1], events, ends)
            assert alone[0][0] == ll[b]
            assert np.array_equal(alone[1][0], grad[b]) and np.array_equal(alone[2][0], hess[b])

    def test_matches_loop_random(self):
        rng = np.random.default_rng(31)
        for k in range(4):
            for n_times in (2, 5, 40):
                for B in (1, 5):
                    self.check_against_loop(*random_cox_case(rng, 40, k, n_times, B))

    def test_matches_loop_mixed_and_all_censored_tie_groups(self):
        time = np.array([5.0, 5.0, 5.0, 4.0, 4.0, 3.0, 3.0, 3.0, 2.0, 1.0, 1.0])
        status = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0])
        rng = np.random.default_rng(32)
        for k in range(4):
            X = rng.standard_normal((4, len(time), k))
            perm = rng.permutation(len(time))
            beta = rng.standard_normal((4, k))
            self.check_against_loop(beta, time[perm], status[perm], X[:, perm])

    def test_matches_loop_single_row(self):
        for k in range(4):
            X = np.stack([np.arange(1.0, k + 1.0)[None, :], -np.ones((1, k))])
            beta = np.full((2, k), 0.3)
            _, args = sorted_cox_inputs(np.ones(1), np.ones(1), X)
            ll, grad, hess = _cox_loglik_derivs(beta, *args)
            # a lone row is its own risk set: likelihood and derivatives vanish
            assert np.all(np.abs(ll) < 1e-15)
            assert np.all(np.abs(grad) < 1e-15) and np.all(np.abs(hess) < 1e-15)
            self.check_against_loop(beta, np.ones(1), np.ones(1), X)

    def test_derivatives_match_central_differences(self):
        rng = np.random.default_rng(33)
        for k in (1, 2, 3):
            for n_times in (3, 30):
                beta, time, status, X = random_cox_case(rng, 30, k, n_times, B=3)
                _, grad, hess = _cox_loglik_derivs(beta, *sorted_cox_inputs(time, status, X)[1])
                for b in range(3):

                    def f(c):
                        return naive_cox_loglik(c, time, status, X[b])

                    assert_close_rel(grad[b], fd_gradient(f, beta[b]), 1e-7)
                    assert_close_rel(hess[b], fd_hessian(f, beta[b]), 1e-5)


def assert_fit_matches_solo(batch, b, time, status, design):
    """Model b of a batch fits as ``cox_fit`` fits its design alone: the
    same likelihoods, coefficients and iterations, or the same error."""
    try:
        solo = cox_fit(time, status, design)
    except NumericError as exc:
        err = batch.errors[b]
        assert type(err) is type(exc) and str(err) == str(exc)
        if isinstance(exc, ConvergenceError):
            assert np.array_equal(err.last_beta, exc.last_beta)
        with pytest.raises(type(exc)):
            batch.result(b)
        return
    fit = batch.result(b)
    assert_close_rel(fit.log_likelihood, solo.log_likelihood, 1e-10)
    assert fit.null_log_likelihood == solo.null_log_likelihood
    assert fit.iterations == solo.iterations
    assert np.allclose(fit.coefficients, solo.coefficients, rtol=1e-8, atol=1e-10)


class TestCoxFitBatch:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=60),
        k=st.integers(min_value=0, max_value=3),
        B=st.integers(min_value=1, max_value=6),
        n_times=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_batch_equals_solo_fits(self, n, k, B, n_times, seed):
        rng = np.random.default_rng(seed)
        _, time, status, X = random_cox_case(rng, n, k, n_times, B)
        batch = cox_fit_batch(time, status, X.transpose(2, 0, 1))
        for b in range(B):
            assert_fit_matches_solo(batch, b, time, status, X[b])

    # each tie group of rows 5..1 repeated four times: mixed groups, and
    # all-censored groups at times 4 and 2
    TIMES = np.tile([5.0, 5.0, 5.0, 4.0, 4.0, 3.0, 3.0, 3.0, 2.0, 1.0, 1.0], 4)
    STATUS = np.tile([1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0], 4)
    # values that mark the designs whose line search is made to fail: by a
    # flipped gradient, and by a likelihood that reads NaN away from beta = 0
    DOWNHILL, NAN_LL = 0.123456789, 0.987654321

    def mixed_batch(self):
        """Columns: two ordinary, one separating, one all zero, one
        whose line search will fail, one ordinary, one whose likelihood
        will read NaN."""
        rng = np.random.default_rng(8)
        n = len(self.TIMES)
        cols = [
            rng.standard_normal(n),
            rng.standard_normal(n) + 0.5 * self.TIMES,
            # the earliest times have the largest x; close levels of x make
            # the coefficient pass 50 well before the likelihood flattens
            -self.TIMES / (4 * self.TIMES.std()),
            np.zeros(n),
            # associated with time, so a step the wrong way is a clear loss
            rng.standard_normal(n) - self.TIMES,
            rng.standard_normal(n),
            rng.standard_normal(n) - self.TIMES,
        ]
        cols[4][0] = self.DOWNHILL
        cols[6][0] = self.NAN_LL
        return np.array(cols)

    def test_mixed_batch(self, monkeypatch):
        real = bndp.numeric._cox_loglik_derivs

        def failing_for_marked(beta, X, events, ends):
            # a flipped gradient points every Newton step downhill, and a
            # NaN likelihood is never an acceptable step
            ll, grad, hess = real(beta, X, events, ends)
            grad[np.any(X == self.DOWNHILL, axis=(0, 2))] *= -1
            ll[np.any(X == self.NAN_LL, axis=(0, 2)) & np.any(beta != 0, axis=1)] = np.nan
            return ll, grad, hess

        monkeypatch.setattr(bndp.numeric, "_cox_loglik_derivs", failing_for_marked)
        cols = self.mixed_batch()
        batch = cox_fit_batch(self.TIMES, self.STATUS, cols[None])
        kinds = [type(e).__name__ if e is not None else None for e in batch.errors]
        assert kinds == [None, None, "SeparationError", None, "ConvergenceError", None, "ConvergenceError"]
        for b in (4, 6):
            assert "line search" in str(batch.errors[b])
            assert np.all(batch.errors[b].last_beta == 0.0)
        # the all-zero column has a singular information matrix: the
        # least-squares step is zero and the fit stops at the null
        assert batch.result(3).log_likelihood == batch.null_log_likelihood
        for b, x in enumerate(cols):
            assert_fit_matches_solo(batch, b, self.TIMES, self.STATUS, x[:, None])

        # the failing models leave their neighbours exactly as without them
        ok = [0, 1, 3, 5]
        alone = cox_fit_batch(self.TIMES, self.STATUS, cols[None, ok])
        assert np.array_equal(alone.log_likelihood, batch.log_likelihood[ok])
        assert np.array_equal(alone.coefficients, batch.coefficients[ok])
        assert np.array_equal(alone.iterations, batch.iterations[ok])

    def test_non_finite_design_fails_alone(self):
        cols = self.mixed_batch()[[0, 1]]
        cols[1, 3] = np.nan
        batch = cox_fit_batch(self.TIMES, self.STATUS, cols[None])
        assert isinstance(batch.errors[1], NumericError) and "finite" in str(batch.errors[1])
        assert batch.errors[0] is None
        alone = cox_fit_batch(self.TIMES, self.STATUS, cols[None, :1])
        assert alone.log_likelihood[0] == batch.log_likelihood[0]

    def test_two_covariate_batch_with_a_singular_design(self):
        # one model's second column is all zero: its information matrix is
        # singular at every step, and only that model takes the
        # least-squares path, which leaves the zero column's coefficient at 0
        rng = np.random.default_rng(9)
        n = len(self.TIMES)
        x = rng.standard_normal(n)
        designs = np.stack([rng.standard_normal((n, 2)), np.column_stack([x, np.zeros(n)])])
        batch = cox_fit_batch(self.TIMES, self.STATUS, designs.transpose(2, 0, 1))
        for b in range(2):
            assert_fit_matches_solo(batch, b, self.TIMES, self.STATUS, designs[b])
        assert batch.coefficients[1, 1] == 0.0
        one = cox_fit(self.TIMES, self.STATUS, x[:, None])
        assert_close_rel(batch.log_likelihood[1], one.log_likelihood, 1e-10)

    def test_empty_batch(self):
        batch = cox_fit_batch(self.TIMES, self.STATUS, np.zeros((1, 0, len(self.TIMES))))
        assert batch.log_likelihood.shape == (0,) and batch.errors == ()


class TestCoxFit:
    def test_zero_column_no_signal(self):
        time = np.arange(1.0, 21.0)
        status = np.ones(20)
        fit = cox_fit(time, status, np.zeros((20, 1)))
        assert abs(fit.coefficients[0]) < 1e-10
        assert abs(fit.log_likelihood - fit.null_log_likelihood) < 1e-10

    def test_symmetric_groups(self):
        # two identical event-time groups distinguished only by the label
        time = np.tile(np.arange(1.0, 11.0), 2)
        status = np.ones(20)
        x = np.repeat([0.0, 1.0], 10)
        fit = cox_fit(time, status, x[:, None])
        assert abs(fit.coefficients[0]) < 1e-8

    def test_recovers_simulated_hazard(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(200)
        time, status = simulate_survival(0.7 * x, seed=11)
        fit = cox_fit(time, status, x[:, None])
        assert abs(fit.coefficients[0] - 0.7) < 0.2

    def test_matches_naive_loglik_and_optimum(self):
        rng = np.random.default_rng(23)
        for trial in range(5):
            n = 60
            x = rng.standard_normal((n, 2))
            time, status = simulate_survival(x @ [0.5, -0.3], seed=trial)
            fit = cox_fit(time, status, x)
            ll = naive_cox_loglik(fit.coefficients, time, status, x)
            assert abs(fit.log_likelihood - ll) < 1e-8
            ll0 = naive_cox_loglik(np.zeros(2), time, status, x)
            assert abs(fit.null_log_likelihood - ll0) < 1e-8
            # optimum beats nearby points
            for _ in range(5):
                nearby = fit.coefficients + 0.05 * rng.standard_normal(2)
                assert ll >= naive_cox_loglik(nearby, time, status, x) - 1e-10
            # stationary point of the direct likelihood
            score = fd_gradient(lambda b: naive_cox_loglik(b, time, status, x), fit.coefficients)
            assert np.max(np.abs(score)) < 1e-6

    def test_optimum_beats_null(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(100)
        time, status = simulate_survival(0.5 * x, seed=7)
        fit = cox_fit(time, status, x[:, None])
        assert fit.log_likelihood >= fit.null_log_likelihood

    def test_ties_handled(self):
        time = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 3.0])
        status = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 1.0])
        x = np.array([0.5, -0.2, 0.1, 1.0, -1.0, 0.3])
        fit = cox_fit(time, status, x[:, None])
        ll = naive_cox_loglik(fit.coefficients, time, status, x[:, None])
        assert abs(fit.log_likelihood - ll) < 1e-10
        score = fd_gradient(
            lambda b: naive_cox_loglik(b, time, status, x[:, None]), fit.coefficients
        )
        assert abs(score[0]) < 1e-6

    def test_separation_detected(self):
        # perfectly ordered covariate separates event times
        n = 40
        time = np.arange(1.0, n + 1)
        status = np.ones(n)
        x = np.arange(n, dtype=float)[:, None]
        with pytest.raises(SeparationError):
            cox_fit(time, status, x / x.std())

    def test_failed_line_search_raises(self, monkeypatch):
        # With the gradient's sign flipped every Newton step points downhill,
        # so no halving is accepted: the fit must fail, not stop at beta = 0.
        real = bndp.numeric._cox_loglik_derivs

        def uphill_gradient(*args, **kwargs):
            ll, grad, hess = real(*args, **kwargs)
            return ll, None if grad is None else -grad, hess

        rng = np.random.default_rng(5)
        x = rng.standard_normal(200)
        time, status = simulate_survival(1.0 * x, seed=5)
        monkeypatch.setattr(bndp.numeric, "_cox_loglik_derivs", uphill_gradient)
        with pytest.raises(ConvergenceError) as info:
            cox_fit(time, status, x[:, None])
        assert np.all(info.value.last_beta == 0.0)

    def test_line_search_slack_scales_with_loglik(self):
        # |ll| near 6000: rounding in the likelihood is far above 1e-12, and
        # the fit must still converge to the stationary point.
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1000, 2))
        time, status = simulate_survival(x @ [0.4, -0.2], seed=6)
        fit = cox_fit(time, status, x)
        assert abs(fit.log_likelihood) > 1000
        score = fd_gradient(lambda b: naive_cox_loglik(b, time, status, x), fit.coefficients)
        assert np.max(np.abs(score)) < 1e-4

    def test_requires_event(self):
        with pytest.raises(NumericError):
            cox_fit(np.ones(5), np.zeros(5), np.zeros((5, 1)))

    def test_requires_positive_times(self):
        with pytest.raises(NumericError):
            cox_fit(np.array([0.0, 1.0]), np.array([1.0, 1.0]), np.zeros((2, 1)))

    def test_rejects_nan_time(self):
        # NaN equals nothing, not even itself, so its tie group is undefined
        time = np.array([1.0, np.nan, 2.0, 3.0])
        with pytest.raises(NumericError, match="finite"):
            cox_fit(time, np.ones(4), np.arange(4.0)[:, None])

    def test_rejects_non_finite_design(self):
        X = np.array([[0.1], [np.inf], [0.3], [-0.2]])
        with pytest.raises(NumericError, match="finite"):
            cox_fit(np.arange(1.0, 5.0), np.ones(4), X)

    def test_rejects_status_outside_zero_one(self):
        status = np.array([1.0, 0.0, 2.0, 1.0])
        with pytest.raises(NumericError, match="status"):
            cox_fit(np.arange(1.0, 5.0), status, np.arange(4.0)[:, None])

    def test_empty_design(self):
        time = np.arange(1.0, 11.0)
        status = np.ones(10)
        fit = cox_fit(time, status, np.zeros((10, 0)))
        assert fit.n_params == 0
        assert fit.log_likelihood == fit.null_log_likelihood
