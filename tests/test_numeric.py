import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

import bndp.numeric
from bndp.assoc import _chi2_sf
from bndp.numeric import (
    ConvergenceError,
    NumericError,
    SeparationError,
    _CoxArrays,
    _cox_derivs,
    _cox_loglik,
    cox_fit,
    cox_fit_batch,
)
from bndp.core import Column, Dataset
from bndp.scoring import NEG_INF, ScoringWarning, bic_gaussian
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


def gaussian_data(y, X):
    """Node 0 holds ``y``, nodes 1.. the columns of ``X``."""
    cols = [y, *np.asarray(X, dtype=float).reshape(len(y), -1).T]
    return Dataset([Column(f"V{i}", "continuous", np.asarray(c)) for i, c in enumerate(cols)])


class TestLeastSquares:
    """The least-squares fit inside the Gaussian BIC score, :func:`bic_gaussian`."""

    def test_exact_fit(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(20)
        data = gaussian_data(2.0 * x + 1.0, x)
        with pytest.warns(ScoringWarning):
            assert bic_gaussian(0, 0b10, data) == NEG_INF

    def test_intercept_only_mean(self):
        # the mean of 1, 2, 3 leaves rss = 2
        data = gaussian_data(np.array([1.0, 2.0, 3.0]), np.zeros((3, 0)))
        expect = -1.5 * (math.log(2 * math.pi * 2.0 / 3) + 1) - 0.5 * 2 * math.log(3)
        assert abs(bic_gaussian(0, 0, data) - expect) < 1e-12

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(42)
        X = rng.standard_normal((50, 2))
        y = rng.standard_normal(50)
        _, rss = normal_equations(y, np.column_stack([np.ones(50), X]))
        n = 50
        expect = -0.5 * n * (math.log(2 * math.pi * rss / n) + 1) - 0.5 * 4 * math.log(n)
        assert abs(bic_gaussian(0, 0b110, gaussian_data(y, X)) - expect) < 1e-9

    def test_zero_variance_sentinel(self):
        data = gaussian_data(np.full(10, 3.0), np.zeros((10, 0)))
        with pytest.warns(ScoringWarning):
            assert bic_gaussian(0, 0, data) == NEG_INF

    def test_too_few_rows(self):
        rng = np.random.default_rng(2)
        data = gaussian_data(np.array([0.0, 1.0]), rng.standard_normal((2, 2)))
        with pytest.raises(NumericError):
            bic_gaussian(0, 0b110, data)

    def test_rss_invariant_to_column_order(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 2))
        y = rng.standard_normal(40)
        a = bic_gaussian(0, 0b110, gaussian_data(y, X))
        b = bic_gaussian(0, 0b110, gaussian_data(y, X[:, [1, 0]]))
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

    # cox_screen's p-value: _chi2_sf(width, lr), degrees of freedom first

    def test_chisq_zero(self):
        assert _chi2_sf(3, np.array([0.0]))[0] == 1.0

    def test_chisq_df2_closed_form(self):
        # for df = 2 the tail is exp(-x/2)
        x = 2 * math.log(2)
        assert abs(_chi2_sf(2, np.array([x]))[0] - 0.5) < 1e-12

    def test_chisq_critical_value(self):
        assert abs(_chi2_sf(1, np.array([3.841]))[0] - 0.05) < 1e-3

    def test_chisq_against_quadrature(self):
        x = np.array([0.1, 1.0, 3.5, 10.0])
        for df in (1, 2, 7):
            expect = [chisq_sf_quadrature(v, df) for v in x]
            assert np.abs(_chi2_sf(df, x) - expect).max() < 1e-8


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


def both_passes(beta, X, events, ends, arrays=None):
    """The likelihood pass, then the derivative pass at the same
    coefficients, over arrays made for the batch unless given."""
    k, B, n = X.shape
    if arrays is None:
        arrays = _CoxArrays(k, B, n, len(events))
    ll = _cox_loglik(beta, X, events, ends, arrays)
    grad, hess = _cox_derivs(X, events, ends, arrays)
    return ll, grad, hess


class TestCoxKernel:
    def check_against_loop(self, beta, time, status, X):
        """Each model of the batch against the row loop, and against
        itself evaluated alone in the first rows of the batch's arrays."""
        rows, args = sorted_cox_inputs(time, status, X)
        B, k = beta.shape
        Xk, events, ends = args
        arrays = _CoxArrays(k, B, len(time), len(events))
        ll, grad, hess = both_passes(beta, *args, arrays)
        assert ll.shape == (B,) and grad.shape == (B, k) and hess.shape == (B, k, k)
        time_s, status_s, X_s = rows
        for b in range(B):
            ll_ref, grad_ref, hess_ref = loop_cox_loglik_derivs(beta[b], time_s, status_s, X_s[b])
            assert_close_rel(ll[b], ll_ref, 1e-10)
            assert_close_rel(grad[b], grad_ref, 1e-10)
            assert_close_rel(hess[b], hess_ref, 1e-10)
            alone = both_passes(beta[b : b + 1], Xk[:, b : b + 1], events, ends, arrays)
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
            ll, grad, hess = both_passes(beta, *args)
            # a lone row is its own risk set: likelihood and derivatives vanish
            assert np.all(np.abs(ll) < 1e-15)
            assert np.all(np.abs(grad) < 1e-15) and np.all(np.abs(hess) < 1e-15)
            self.check_against_loop(beta, np.ones(1), np.ones(1), X)

    def test_derivatives_match_central_differences(self):
        rng = np.random.default_rng(33)
        for k in (1, 2, 3):
            for n_times in (3, 30):
                beta, time, status, X = random_cox_case(rng, 30, k, n_times, B=3)
                _, grad, hess = both_passes(beta, *sorted_cox_inputs(time, status, X)[1])
                for b in range(3):

                    def f(c):
                        return naive_cox_loglik(c, time, status, X[b])

                    assert_close_rel(grad[b], fd_gradient(f, beta[b]), 1e-7)
                    assert_close_rel(hess[b], fd_hessian(f, beta[b]), 1e-5)

    def test_closed_form_start_equals_likelihood_pass(self):
        # cox_fit_batch starts each fit from w = 1 and S0 = risk-set size
        # instead of a likelihood pass at beta = 0: the derivative pass must
        # read the same arrays, and give the same bits, either way
        rng = np.random.default_rng(34)
        for k in range(4):
            _, time, status, X = random_cox_case(rng, 40, k, 6, B=3)
            Xk, events, ends = sorted_cox_inputs(time, status, X)[1]
            ll, grad, hess = both_passes(np.zeros((3, k)), Xk, events, ends)
            start = _CoxArrays(k, 3, len(time), len(events))
            start.w[:] = 1.0
            start.s0[:] = ends + 1.0
            grad0, hess0 = _cox_derivs(Xk, events, ends, start)
            assert np.array_equal(grad0, grad) and np.array_equal(hess0, hess)
            ll0 = cox_fit_batch(time, status, X.transpose(2, 0, 1)).null_log_likelihood
            assert np.all(ll == ll0)


def assert_fit_matches_solo(batch, b, time, status, design):
    """Model b of a batch fits as ``cox_fit`` fits its design alone: the
    same bits in its likelihoods and coefficients, the same iterations, or
    the same error. Each pass's arithmetic runs along a model's own rows,
    so its fit does not depend on the other models in the batch."""
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
    assert fit.log_likelihood == solo.log_likelihood
    assert fit.null_log_likelihood == solo.null_log_likelihood
    assert fit.iterations == solo.iterations
    assert np.array_equal(fit.coefficients, solo.coefficients)


class TestCoxFitBatch:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=60),
        k=st.integers(min_value=0, max_value=3),
        B=st.integers(min_value=1, max_value=6),
        n_times=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        heavy=st.booleans(),
    )
    # a batch in which one model's step is halved while others' are accepted
    @example(n=40, k=2, B=4, n_times=40, seed=0, heavy=True)
    def test_batch_equals_solo_fits(self, n, k, B, n_times, seed, heavy):
        rng = np.random.default_rng(seed)
        _, time, status, X = random_cox_case(rng, n, k, n_times, B)
        if heavy and k:
            # t(2) designs with a strong effect of the first model's first
            # column: Newton overshoots, so some steps are halved
            X = rng.standard_t(2, X.shape)
            time, status = simulate_survival(3.0 * X[0, :, 0], seed=seed)
            status[0] = 1.0
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
        real_loglik, real_derivs = bndp.numeric._cox_loglik, bndp.numeric._cox_derivs

        # a NaN likelihood is never an acceptable step, and a flipped
        # gradient points every Newton step downhill
        def nan_for_marked(beta, X, events, ends, arrays):
            ll = real_loglik(beta, X, events, ends, arrays)
            ll[np.any(X == self.NAN_LL, axis=(0, 2)) & np.any(beta != 0, axis=1)] = np.nan
            return ll

        def downhill_for_marked(X, events, ends, arrays):
            grad, hess = real_derivs(X, events, ends, arrays)
            grad[np.any(X == self.DOWNHILL, axis=(0, 2))] *= -1
            return grad, hess

        monkeypatch.setattr(bndp.numeric, "_cox_loglik", nan_for_marked)
        monkeypatch.setattr(bndp.numeric, "_cox_derivs", downhill_for_marked)
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

    def test_derivatives_only_where_a_step_follows(self, monkeypatch):
        # the derivative pass runs at beta = 0 and after each accepted step
        # that another step follows, so a converged model is seen
        # iterations[b] times: never at its last iterate and never at a
        # trial that the line search rejects. Heavy-tailed x with a strong
        # effect makes Newton overshoot, so some steps here are halved. The
        # likelihood at beta = 0 is the closed form, never a pass. Each
        # trial is a likelihood pass over exactly the models of the
        # derivative pass before it, the ones already accepted included.
        rng = np.random.default_rng(121)
        x = rng.standard_t(2, size=(3, 60))
        time, status = simulate_survival(3.0 * x[0], seed=121)
        real_loglik, real_derivs = bndp.numeric._cox_loglik, bndp.numeric._cox_derivs
        trials, seen = np.zeros(3, dtype=int), np.zeros(3, dtype=int)
        at_zero, passes = [], []

        def models(X):
            # a model's first value marks it, wherever its rows were sorted to
            return [int(np.flatnonzero(np.isin(x[:, 0], row))[0]) for row in X[0]]

        def counting_loglik(beta, X, events, ends, arrays):
            at_zero.extend(np.all(beta == 0, axis=1))
            np.add.at(trials, models(X), 1)
            passes.append(("loglik", models(X)))
            return real_loglik(beta, X, events, ends, arrays)

        def counting_derivs(X, events, ends, arrays):
            np.add.at(seen, models(X), 1)
            passes.append(("derivs", models(X)))
            return real_derivs(X, events, ends, arrays)

        monkeypatch.setattr(bndp.numeric, "_cox_loglik", counting_loglik)
        monkeypatch.setattr(bndp.numeric, "_cox_derivs", counting_derivs)
        batch = cox_fit_batch(time, status, x[None])
        assert batch.errors == (None, None, None)
        assert len(set(batch.iterations)) == 3
        assert np.any(trials > batch.iterations)
        assert np.array_equal(seen, batch.iterations)
        assert at_zero and not any(at_zero)
        covered = None
        for kind, pass_models in passes:
            if kind == "derivs":
                covered = pass_models
            else:
                assert pass_models == covered

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

    def test_iteration_cap(self, monkeypatch):
        # at a cap of one Newton step, x's fit is still moving and fails
        # alone with its last iterate; the zero column's step is zero, so it
        # converges in that one step
        monkeypatch.setattr(bndp.numeric, "_COX_MAX_ITER", 1)
        x = np.random.default_rng(5).standard_normal(200)
        time, status = simulate_survival(0.8 * x, seed=5)
        batch = cox_fit_batch(time, status, np.stack([x, np.zeros(200)])[None])
        assert isinstance(batch.errors[0], ConvergenceError)
        assert "did not converge in 1 iterations" in str(batch.errors[0])
        assert batch.errors[0].last_beta == pytest.approx([0.917], abs=1e-3)
        assert batch.errors[1] is None and batch.iterations[1] == 1


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
        real = bndp.numeric._cox_derivs

        def uphill_gradient(*args):
            grad, hess = real(*args)
            return -grad, hess

        rng = np.random.default_rng(5)
        x = rng.standard_normal(200)
        time, status = simulate_survival(1.0 * x, seed=5)
        monkeypatch.setattr(bndp.numeric, "_cox_derivs", uphill_gradient)
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

    def test_design_shapes(self):
        # a 1-D design is one covariate; a 3-D one is rejected by cox_fit, and
        # a batch whose rows disagree with the times by cox_fit_batch
        rng = np.random.default_rng(8)
        x = rng.standard_normal(40)
        time, status = simulate_survival(0.5 * x, seed=8)
        one = cox_fit(time, status, x[:, None])
        assert np.array_equal(cox_fit(time, status, x).coefficients, one.coefficients)
        with pytest.raises(NumericError, match="rows must agree"):
            cox_fit(time, status, x[:, None, None])
        with pytest.raises(NumericError, match="rows must agree"):
            cox_fit_batch(time, status, x[None, None, :-1])

    def test_empty_design(self):
        time = np.arange(1.0, 11.0)
        status = np.ones(10)
        fit = cox_fit(time, status, np.zeros((10, 0)))
        assert fit.n_params == 0
        assert fit.log_likelihood == fit.null_log_likelihood
