"""Statistical kernels: least squares, distribution tails, Cox regression.

These are deterministic, side-effect-free functions shared by the
screening and scoring layers. Tail probabilities delegate to scipy's
regularized incomplete gamma routine.
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


def chisq_sf(x: float, df: float) -> float:
    """P(X > x) for chi-squared with ``df`` degrees of freedom."""
    if df <= 0:
        raise NumericError(f"degrees of freedom must be positive, got {df}")
    if x < 0:
        raise NumericError(f"chi-squared statistic must be nonnegative, got {x}")
    return float(special.gammaincc(0.5 * df, 0.5 * x))


def log_mvgamma(a: float, p: int) -> float:
    """Log of the multivariate gamma function Gamma_p(a)."""
    if p < 1:
        raise NumericError(f"dimension must be a positive integer, got {p}")
    if a <= 0.5 * (p - 1):
        raise NumericError(f"log_mvgamma requires a > (p-1)/2, got a={a}, p={p}")
    return float(special.multigammaln(a, p))


def _cox_loglik_derivs(
    beta: np.ndarray,
    X: np.ndarray,
    events: np.ndarray,
    ends: np.ndarray,
    want_derivs: bool = True,
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """Breslow partial log-likelihood with gradient and Hessian.

    Rows must be sorted by descending time, so the risk set of event row
    ``events[j]`` is the prefix of rows ``0..ends[j]``, where ``ends[j]``
    is the last row of its tie group: tied rows, events or censored, are
    all in each other's risk sets (Breslow ties). With ``w = exp(X beta)``,
    ``S0`` and ``S1`` are cumulative sums of ``w`` and ``X w`` read at
    ``ends``, and ``ll = sum_events (eta - log S0)``. Let ``a[r]`` be the
    sum of ``1 / S0`` over the events whose risk set holds row ``r`` (a
    reverse cumulative sum) and ``m = S1 / S0`` per event; then
    ``grad = sum_events x - X' (w a)`` and
    ``hess = sum_events m m' - X' diag(w a) X``. One pass costs O(n k^2)
    time, in BLAS, and O(n k) memory.
    """
    eta = np.clip(X @ beta, -700, 700)
    w = np.exp(eta)
    s0 = np.cumsum(w)[ends]
    ll = float(np.sum(eta[events] - np.log(s0)))
    if not want_derivs:
        return ll, None, None
    mean = np.cumsum(X * w[:, None], axis=0)[ends] / s0[:, None]
    a = np.cumsum(np.bincount(ends, weights=1.0 / s0, minlength=len(w))[::-1])[::-1]
    wa = w * a
    grad = X[events].sum(axis=0) - X.T @ wa
    hess = mean.T @ mean - (X * wa[:, None]).T @ X
    return ll, grad, hess


def cox_fit(
    time: np.ndarray,
    status: np.ndarray,
    X: np.ndarray,
    max_iter: int = 50,
    tol: float = 1e-8,
) -> FitResult:
    """Cox proportional-hazards fit by Newton-Raphson (Breslow ties).

    Returns the partial log-likelihood at the optimum and at beta = 0.
    Steps are halved when the likelihood would decrease; diverging
    coefficients raise :class:`SeparationError`, and hitting the iteration
    budget or 30 halvings without an acceptable step raise
    :class:`ConvergenceError` with the last iterate.
    Non-finite times or covariates, non-positive times and status values
    outside {0, 1} raise :class:`NumericError`. The rows are sorted by
    descending time and the tie-group end of each event is found once per
    fit; each likelihood evaluation then costs O(n k^2).
    """
    time = np.asarray(time, dtype=float)
    status = np.asarray(status, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n = time.shape[0]
    if status.shape[0] != n or X.shape[0] != n:
        raise NumericError("time, status and design rows must agree")
    if not (np.all(np.isfinite(time)) and np.all(np.isfinite(X))):
        raise NumericError("survival times and design must be finite")
    if np.any(time <= 0):
        raise NumericError("survival times must be positive")
    if not np.all((status == 0) | (status == 1)):
        raise NumericError("status must be 0 (censored) or 1 (event)")
    if not np.any(status == 1):
        raise NumericError("at least one event (status = 1) is required")

    order = np.argsort(-time, kind="stable")
    time, X = time[order], X[order]
    events = np.flatnonzero(status[order])
    ends = np.searchsorted(-time, -time[events], side="right") - 1
    k = X.shape[1]

    ll0, _, _ = _cox_loglik_derivs(np.zeros(k), X, events, ends, want_derivs=False)
    if k == 0:
        return FitResult(
            coefficients=np.zeros(0),
            log_likelihood=ll0,
            n_params=0,
            null_log_likelihood=ll0,
        )

    beta = np.zeros(k)
    ll = ll0
    for it in range(1, max_iter + 1):
        _, grad, hess = _cox_loglik_derivs(beta, X, events, ends)
        info = -hess
        try:
            step = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(info, grad, rcond=None)[0]

        # halve the step until the partial likelihood does not decrease
        # beyond rounding, which grows with |ll|
        scale = 1.0
        for _ in range(30):
            candidate = beta + scale * step
            ll_new, _, _ = _cox_loglik_derivs(candidate, X, events, ends, want_derivs=False)
            if ll_new >= ll - 1e-12 * max(1.0, abs(ll)):
                break
            scale *= 0.5
        else:
            raise ConvergenceError(
                "Cox line search found no step that does not lower the likelihood", beta
            )

        delta = float(np.max(np.abs(candidate - beta)))
        beta, ll = candidate, ll_new
        if np.any(np.abs(beta) > 50):
            raise SeparationError(
                "coefficients diverged; covariate likely separates the event times"
            )
        if delta < tol:
            return FitResult(
                coefficients=beta,
                log_likelihood=ll,
                n_params=k,
                null_log_likelihood=ll0,
                iterations=it,
            )
    raise ConvergenceError(f"Cox fit did not converge in {max_iter} iterations", beta)
