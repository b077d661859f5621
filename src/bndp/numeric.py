"""Statistical kernels: least squares, distribution tails, Cox regression.

These are deterministic, side-effect-free functions shared by the
screening and scoring layers. Tail probabilities delegate to scipy's
regularized incomplete gamma routine. Cox regression has one partial
likelihood, batched over models: :func:`cox_fit_batch` fits every model
of one survival outcome and one design width in a single Newton loop,
and :func:`cox_fit` is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special


class NumericError(ValueError):
    """Domain violation or failed numerical procedure."""


class ConvergenceError(NumericError):
    """Iterative fit failed to converge; carries the last iterate."""

    def __init__(self, message: str, last_beta: np.ndarray):
        super().__init__(message)
        self.last_beta = last_beta


class SeparationError(NumericError):
    """Diverging coefficients, typically complete separation in Cox fits."""


@dataclass(frozen=True)
class FitResult:
    """Outcome of a model fit.

    ``rss`` is populated for Gaussian fits only. ``null_log_likelihood``
    is populated by :func:`cox_fit` (partial log-likelihood at beta = 0)
    so callers can form likelihood-ratio statistics.
    """

    coefficients: np.ndarray
    log_likelihood: float
    n_params: int
    rss: float | None = None
    null_log_likelihood: float | None = None
    rank_deficient: bool = False
    iterations: int = 0


def least_squares(y: np.ndarray, X: np.ndarray) -> FitResult:
    """Ordinary least squares of ``y`` on the columns of ``X``.

    The caller supplies the intercept column. The Gaussian log-likelihood
    is evaluated at the MLE variance ``rss / n``; an exact fit (rss = 0)
    yields a +inf sentinel that scoring rejects. Rank-deficient designs
    are solved by pseudo-inverse and flagged rather than rejected.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise NumericError("design matrix rows must match response length")
    n, k = X.shape
    if k >= n:
        raise NumericError(f"need more rows ({n}) than columns ({k})")
    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    rss = float(resid @ resid)
    # residue below double precision of the fit is an exact fit
    if rss <= 1e-24 * max(float(y @ y), 1.0):
        rss = 0.0
        ll = math.inf
    else:
        ll = -0.5 * n * (math.log(2.0 * math.pi * rss / n) + 1.0)
    return FitResult(
        coefficients=beta,
        log_likelihood=ll,
        n_params=k + 1,
        rss=rss,
        rank_deficient=rank < k,
    )


def chisq_sf(x: float | np.ndarray, df: float) -> float | np.ndarray:
    """P(X > x) for chi-squared with ``df`` degrees of freedom.

    A float for a scalar ``x``, elementwise for an array.
    """
    if df <= 0:
        raise NumericError(f"degrees of freedom must be positive, got {df}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise NumericError(f"chi-squared statistic must be nonnegative, got {x.min()}")
    sf = special.gammaincc(0.5 * df, 0.5 * x)
    return float(sf) if sf.ndim == 0 else sf


def log_mvgamma(a: float, p: int) -> float:
    """Log of the multivariate gamma function Gamma_p(a)."""
    if p < 1:
        raise NumericError(f"dimension must be a positive integer, got {p}")
    if a <= 0.5 * (p - 1):
        raise NumericError(f"log_mvgamma requires a > (p-1)/2, got a={a}, p={p}")
    return float(special.multigammaln(a, p))


def _row_sums(A: np.ndarray) -> np.ndarray:
    """Sums along the last axis, each row added pairwise along itself.

    numpy sums pairwise only along the axis that is contiguous in memory.
    Over another layout (a fancy-indexed ``(B, E)`` array is
    column-major) the order of a row's additions depends on how many rows
    there are, which would make a model's fit depend on its batch.
    """
    return np.ascontiguousarray(A).sum(axis=-1)


def _cox_loglik_derivs(
    beta: np.ndarray,
    X: np.ndarray,
    events: np.ndarray,
    ends: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Breslow partial log-likelihood with gradient and Hessian, per model.

    ``X`` holds B models' designs as ``(k, B, n)``, covariate by model by
    row, and ``beta`` their coefficients as ``(B, k)``; the result is
    ``ll (B,)``, ``grad (B, k)`` and ``hess (B, k, k)``. Each model's
    arithmetic runs along its own rows, so its result does not depend on
    the other models in the batch.

    Rows must be sorted by descending time, so the risk set of event row
    ``events[j]`` is the prefix of rows ``0..ends[j]``, where ``ends[j]``
    is the last row of its tie group: tied rows, events or censored, are
    all in each other's risk sets (Breslow ties). With ``w = exp(X beta)``,
    ``S0``, ``S1`` and ``S2`` are cumulative sums of ``w``, ``x w`` and
    ``x x' w`` read at ``ends``, and with ``m = S1 / S0`` per event,
    ``ll = sum_events (eta - log S0)``, ``grad = sum_events (x - m)`` and
    ``hess = sum_events (m m' - S2 / S0)``. One pass costs O(B n k^2)
    time and O(B n k) memory.
    """
    k, B, n = X.shape
    eta = np.zeros((B, n))
    for j in range(k):
        eta += beta[:, j, None] * X[j]
    np.clip(eta, -700, 700, out=eta)
    eta_events = np.take(eta, events, axis=1)
    w = np.exp(eta, out=eta)

    def at_ends(terms: np.ndarray) -> np.ndarray:
        """Cumulative sums of per-row ``terms`` over each event's risk set.

        ``terms`` is overwritten: per-row arrays are as large as the
        batch's designs, and the fewer of them alive at once, the less
        memory a pass takes.
        """
        return np.take(np.cumsum(terms, axis=1, out=terms), ends, axis=1)

    s0 = at_ends(w.copy())
    ll = _row_sums(eta_events - np.log(s0))
    mean = [at_ends(X[j] * w) / s0 for j in range(k)]
    grad = np.empty((B, k))
    hess = np.empty((B, k, k))
    for i in range(k):
        grad[:, i] = _row_sums(np.take(X[i], events, axis=1) - mean[i])
        xw = X[i] * w
        for j in range(i + 1):
            s2 = at_ends(xw * X[j]) / s0
            hess[:, i, j] = hess[:, j, i] = _row_sums(mean[i] * mean[j] - s2)
    return ll, grad, hess


@dataclass(frozen=True)
class CoxBatch:
    """Outcome of :func:`cox_fit_batch`, one row per model.

    ``errors[b]`` is the exception that fitting model b alone raises, or
    None when it converged. A failed model keeps its last iterate and its
    likelihood there; ``iterations`` counts the Newton steps a converged
    model took.
    """

    coefficients: np.ndarray
    log_likelihood: np.ndarray
    null_log_likelihood: float
    iterations: np.ndarray
    errors: tuple[NumericError | None, ...]

    def result(self, b: int) -> FitResult:
        """Model b as a :class:`FitResult`; raises its error if it failed."""
        if self.errors[b] is not None:
            raise self.errors[b]
        return FitResult(
            coefficients=self.coefficients[b].copy(),
            log_likelihood=float(self.log_likelihood[b]),
            n_params=self.coefficients.shape[1],
            null_log_likelihood=self.null_log_likelihood,
            iterations=int(self.iterations[b]),
        )


def _newton_steps(info: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve ``info[b] step[b] = grad[b]`` per model, by least squares
    for a model whose information matrix is singular."""
    try:
        # an explicit (B, k, 1) right-hand side: numpy 1 reads a (B, k) one
        # as B vectors, numpy 2 as a single (B, k) matrix
        return np.linalg.solve(info, grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        steps = np.empty_like(grad)
        for b in range(len(grad)):
            try:
                steps[b] = np.linalg.solve(info[b], grad[b])
            except np.linalg.LinAlgError:
                steps[b] = np.linalg.lstsq(info[b], grad[b], rcond=None)[0]
        return steps


def cox_fit_batch(
    time: np.ndarray,
    status: np.ndarray,
    X: np.ndarray,
    max_iter: int = 50,
    tol: float = 1e-8,
) -> CoxBatch:
    """Cox proportional-hazards fits of B models by Newton-Raphson (Breslow ties).

    ``X`` holds the designs as ``(k, B, n)``: k covariates of B models
    over the n rows of one survival outcome. The rows are sorted by
    descending time and the tie-group ends and the null partial
    likelihood (beta = 0) are found once for all models. Each model then
    takes its own Newton steps: a step is halved while the likelihood
    would decrease; coefficients over 50 in magnitude are a
    :class:`SeparationError`; 30 halvings without an acceptable step or
    ``max_iter`` steps without convergence are a :class:`ConvergenceError`
    carrying the last iterate. Derivatives are evaluated at each accepted
    candidate and reused for the next step, so an iteration is one pass
    over the models still iterating. Failed models are recorded in
    ``errors`` and leave the others unchanged.

    Non-finite times, non-positive times, status values outside {0, 1}
    or no event raise :class:`NumericError` for the whole batch; a model
    whose design is not finite fails alone.
    """
    time = np.asarray(time, dtype=float)
    status = np.asarray(status, dtype=float)
    X = np.asarray(X, dtype=float)
    n = time.shape[0]
    if X.ndim != 3 or status.shape[0] != n or X.shape[2] != n:
        raise NumericError("time, status and design rows must agree")
    if not np.all(np.isfinite(time)):
        raise NumericError("survival times and design must be finite")
    if np.any(time <= 0):
        raise NumericError("survival times must be positive")
    if not np.all((status == 0) | (status == 1)):
        raise NumericError("status must be 0 (censored) or 1 (event)")
    if not np.any(status == 1):
        raise NumericError("at least one event (status = 1) is required")

    k, B, _ = X.shape
    order = np.argsort(-time, kind="stable")
    time = time[order]
    events = np.flatnonzero(status[order])
    ends = np.searchsorted(-time, -time[events], side="right") - 1
    # at beta = 0 every weight is 1, so S0 at an event is its risk-set size;
    # summed as the kernel sums, a model that stays at beta = 0 keeps ll0
    ll0 = float(_row_sums(-np.log(ends + 1.0)))

    beta = np.zeros((B, k))
    ll = np.full(B, ll0)
    iterations = np.zeros(B, dtype=int)
    errors: list[NumericError | None] = [None] * B
    finite = np.all(np.isfinite(X), axis=(0, 2))
    for b in np.flatnonzero(~finite):
        errors[b] = NumericError("survival times and design must be finite")
    live = np.flatnonzero(finite) if k else np.zeros(0, dtype=int)
    Xl = np.take(X if live.size == B else X[:, live], order, axis=2)
    _, grad, hess = _cox_loglik_derivs(beta[live], Xl, events, ends)

    for it in range(1, max_iter + 1):
        if not live.size:
            break
        base, ll_base = beta[live], ll[live]
        floor = ll_base - 1e-12 * np.maximum(1.0, np.abs(ll_base))
        step = _newton_steps(-hess, grad)
        # halve each model's step until its partial likelihood does not
        # decrease beyond rounding, which grows with |ll|
        scale = np.ones(live.size)
        cand = base.copy()
        ll_new = np.empty(live.size)
        trying = np.arange(live.size)
        for _ in range(30):
            cand[trying] = base[trying] + scale[trying, None] * step[trying]
            X_t = Xl if trying.size == live.size else Xl[:, trying]
            ll_t, grad_t, hess_t = _cox_loglik_derivs(cand[trying], X_t, events, ends)
            ll_new[trying], grad[trying], hess[trying] = ll_t, grad_t, hess_t
            trying = trying[~(ll_t >= floor[trying])]
            if not trying.size:
                break
            scale[trying] *= 0.5
        for t in trying:
            errors[live[t]] = ConvergenceError(
                "Cox line search found no step that does not lower the likelihood", base[t].copy()
            )
        cand[trying], ll_new[trying] = base[trying], ll_base[trying]

        failed = np.zeros(live.size, dtype=bool)
        failed[trying] = True
        delta = np.max(np.abs(cand - base), axis=1)
        beta[live], ll[live] = cand, ll_new
        diverged = ~failed & np.any(np.abs(cand) > 50, axis=1)
        for t in np.flatnonzero(diverged):
            errors[live[t]] = SeparationError(
                "coefficients diverged; covariate likely separates the event times"
            )
        converged = ~failed & ~diverged & (delta < tol)
        iterations[live[converged]] = it
        keep = ~(failed | diverged | converged)
        if not keep.all():
            live, Xl, grad, hess = live[keep], Xl[:, keep], grad[keep], hess[keep]
    for b in live:
        errors[b] = ConvergenceError(f"Cox fit did not converge in {max_iter} iterations", beta[b].copy())
    return CoxBatch(beta, ll, ll0, iterations, tuple(errors))


def cox_fit(
    time: np.ndarray,
    status: np.ndarray,
    X: np.ndarray,
    max_iter: int = 50,
    tol: float = 1e-8,
) -> FitResult:
    """Cox proportional-hazards fit of one ``n x k`` design: a batch of one.

    Returns the partial log-likelihood at the optimum and at beta = 0.
    Raises what :func:`cox_fit_batch` records for the model:
    :class:`SeparationError` for diverging coefficients,
    :class:`ConvergenceError` with the last iterate, and
    :class:`NumericError` for invalid times, status or design.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise NumericError("time, status and design rows must agree")
    return cox_fit_batch(time, status, X.T[:, None, :], max_iter, tol).result(0)
