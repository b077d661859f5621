"""Cox proportional-hazards regression for the screening and scoring layers.

These are deterministic, side-effect-free functions. There is one partial
likelihood, batched over models: :func:`cox_fit_batch` fits every model
of one survival outcome and one design width in a single Newton loop,
and :func:`cox_fit` is a batch of one. A fit takes at most
``_COX_MAX_ITER = 50`` Newton steps and has converged when no
coefficient moves by ``_COX_TOL = 1e-8`` or more.

The likelihood is evaluated in two passes over a batch's models: a
derivative pass (:func:`_cox_derivs`) per Newton step, which builds the
gradient and Hessian from the weights and risk-set sums the last
likelihood pass (:func:`_cox_loglik`) left, then a likelihood pass per
line-search trial. A fit starts from the closed form at beta = 0 (every
weight 1, S0 the risk-set size), so the likelihood pass never runs
there. Both passes write into arrays allocated once per batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_COX_MAX_ITER = 50
_COX_TOL = 1e-8


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
    """Outcome of one Cox fit, with the partial log-likelihood at the
    optimum and at beta = 0 so callers can form likelihood-ratio
    statistics."""

    coefficients: np.ndarray
    log_likelihood: float
    n_params: int
    null_log_likelihood: float
    iterations: int


def _row_sums(A: np.ndarray) -> np.ndarray:
    """Sums along the last axis, each row added pairwise along itself.

    numpy sums pairwise only along the axis that is contiguous in memory.
    Over another layout (a fancy-indexed ``(B, E)`` array is
    column-major) the order of a row's additions depends on how many rows
    there are, which would make a model's fit depend on its batch.
    """
    return np.ascontiguousarray(A).sum(axis=-1)


class _CoxArrays:
    """The arrays the two passes write, allocated once per batch of up to
    B models with k covariates, n rows and E events.

    A pass over m models uses the first m rows (axis -2) of each array,
    so every array it reads or writes is contiguous. ``w`` and ``s0`` hold
    the weights and risk-set sums that the likelihood pass leaves for the
    derivative pass; the rest is per-pass work space.
    """

    def __init__(self, k: int, B: int, n: int, E: int):
        self.w = np.empty((B, n))
        self.s0 = np.empty((B, E))
        self.rows = np.empty((2, B, n))
        self.at_events = np.empty((2, B, E))
        self.mean = np.empty((k, B, E))


def _cox_loglik(
    beta: np.ndarray, X: np.ndarray, events: np.ndarray, ends: np.ndarray, arrays: _CoxArrays
) -> np.ndarray:
    """Breslow partial log-likelihood per model: the likelihood pass.

    ``X`` holds B models' designs as ``(k, B, n)``, covariate by model by
    row, and ``beta`` their coefficients as ``(B, k)``; the result is
    ``ll (B,)``. Each model's arithmetic runs along its own rows, so its
    result does not depend on the other models in the batch.

    Rows must be sorted by descending time, so the risk set of event row
    ``events[j]`` is the prefix of rows ``0..ends[j]``, where ``ends[j]``
    is the last row of its tie group: tied rows, events or censored, are
    all in each other's risk sets (Breslow ties). With ``w = exp(X beta)``
    and ``S0`` its cumulative sums read at ``ends``,
    ``ll = sum_events (eta - log S0)``. The pass leaves ``w`` in
    ``arrays.w[:B]`` and ``S0`` in ``arrays.s0[:B]`` for
    :func:`_cox_derivs`, and allocates no per-row array.
    """
    k, B, n = X.shape
    eta, s0 = arrays.w[:B], arrays.s0[:B]
    rows = arrays.rows[0, :B]
    eta_events, log_s0 = arrays.at_events[0, :B], arrays.at_events[1, :B]
    eta.fill(0.0)
    for j in range(k):
        eta += np.multiply(beta[:, j, None], X[j], out=rows)
    np.clip(eta, -700, 700, out=eta)
    # mode="clip" takes straight into ``out``; the default mode buffers it
    np.take(eta, events, axis=1, out=eta_events, mode="clip")
    w = np.exp(eta, out=eta)
    np.take(np.cumsum(w, axis=1, out=rows), ends, axis=1, out=s0, mode="clip")
    return _row_sums(np.subtract(eta_events, np.log(s0, out=log_s0), out=eta_events))


def _cox_derivs(
    X: np.ndarray, events: np.ndarray, ends: np.ndarray, arrays: _CoxArrays
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of the Breslow partial log-likelihood per
    model: the derivative pass.

    It reads ``w`` and ``S0`` for the B models of ``X`` (as in
    :func:`_cox_loglik`) from ``arrays.w[:B]`` and ``arrays.s0[:B]``,
    where a likelihood pass at the same coefficients left them, and
    returns ``grad (B, k)`` and ``hess (B, k, k)``. With ``S1`` and ``S2``
    the cumulative sums of ``x w`` and ``x x' w`` read at ``ends`` and
    ``m = S1 / S0`` per event, ``grad = sum_events (x - m)`` and
    ``hess = sum_events (m m' - S2 / S0)``. The pass costs O(B n k^2) time
    and allocates no per-row array.
    """
    k, B, n = X.shape
    w, s0 = arrays.w[:B], arrays.s0[:B]
    rows, xw = arrays.rows[0, :B], arrays.rows[1, :B]
    diff, s2 = arrays.at_events[0, :B], arrays.at_events[1, :B]
    mean = arrays.mean[:, :B]

    def at_ends(terms: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Cumulative sums of per-row ``terms`` over each event's risk
        set, divided by S0, into ``out``; the sums go through ``rows``."""
        np.take(np.cumsum(terms, axis=1, out=rows), ends, axis=1, out=out, mode="clip")
        return np.divide(out, s0, out=out)

    grad = np.empty((B, k))
    hess = np.empty((B, k, k))
    for i in range(k):
        np.multiply(X[i], w, out=xw)
        at_ends(xw, mean[i])
        np.take(X[i], events, axis=1, out=diff, mode="clip")
        grad[:, i] = _row_sums(np.subtract(diff, mean[i], out=diff))
        for j in range(i + 1):
            at_ends(np.multiply(xw, X[j], out=rows), s2)
            np.subtract(np.multiply(mean[i], mean[j], out=diff), s2, out=diff)
            hess[:, i, j] = hess[:, j, i] = _row_sums(diff)
    return grad, hess


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


def cox_fit_batch(time: np.ndarray, status: np.ndarray, X: np.ndarray) -> CoxBatch:
    """Cox proportional-hazards fits of B models by Newton-Raphson (Breslow ties).

    ``X`` holds the designs as ``(k, B, n)``: k covariates of B models
    over the n rows of one survival outcome. The rows are sorted by
    descending time and the tie-group ends and the null partial
    likelihood (beta = 0) are found once for all models. Each model then
    takes its own Newton steps: a step is halved while the likelihood
    would decrease; coefficients over 50 in magnitude are a
    :class:`SeparationError`; 30 halvings without an acceptable step or
    ``_COX_MAX_ITER`` steps without convergence are a :class:`ConvergenceError`
    carrying the last iterate. Failed models are recorded in ``errors``
    and leave the others unchanged.

    Every fit starts at beta = 0 from the closed form: weights 1, S0 the
    risk-set size and the null likelihood, so the likelihood pass never
    runs there. Each iteration runs one derivative pass over the models
    still iterating, then one likelihood pass over the same models per
    line-search trial. A model whose step an earlier trial accepted is
    evaluated again at the same candidate, to the same bits, so the
    passes' :class:`_CoxArrays` (made once per batch, their first rows
    holding the models still iterating) end each iteration at every
    accepted candidate. A model that converges in t steps has its
    derivatives evaluated t times: never at its last iterate or at a
    rejected trial. The price is paid on the failure path: a model whose
    line search fails all 30 halvings makes its iteration run 30
    likelihood passes over every model still iterating.

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
    # the designs of the models still iterating, kept in front as others stop
    Xl = np.take(X if live.size == B else X[:, live], order, axis=2)
    arrays = _CoxArrays(k, live.size, n, events.size)
    # at beta = 0 every weight is 1 and S0 is the risk-set size
    arrays.w[:] = 1.0
    arrays.s0[:] = ends + 1.0

    for it in range(1, _COX_MAX_ITER + 1):
        if not live.size:
            break
        X_live = Xl[:, : live.size]
        grad, hess = _cox_derivs(X_live, events, ends, arrays)
        base, ll_base = beta[live], ll[live]
        floor = ll_base - 1e-12 * np.maximum(1.0, np.abs(ll_base))
        step = _newton_steps(-hess, grad)
        # halve each model's step until its partial likelihood does not
        # decrease beyond rounding, which grows with |ll|; every trial runs
        # over all live models, so the arrays end at the accepted candidates
        scale = np.ones(live.size)
        for _ in range(30):
            cand = base + scale[:, None] * step
            ll_new = _cox_loglik(cand, X_live, events, ends, arrays)
            failed = ~(ll_new >= floor)
            if not failed.any():
                break
            scale[failed] *= 0.5
        for t in np.flatnonzero(failed):
            errors[live[t]] = ConvergenceError(
                "Cox line search found no step that does not lower the likelihood", base[t].copy()
            )
        cand[failed], ll_new[failed] = base[failed], ll_base[failed]

        delta = np.max(np.abs(cand - base), axis=1)
        beta[live], ll[live] = cand, ll_new
        diverged = ~failed & np.any(np.abs(cand) > 50, axis=1)
        for t in np.flatnonzero(diverged):
            errors[live[t]] = SeparationError(
                "coefficients diverged; covariate likely separates the event times"
            )
        converged = ~failed & ~diverged & (delta < _COX_TOL)
        iterations[live[converged]] = it
        keep = ~(failed | diverged | converged)
        live = live[keep]
        for dst, src in enumerate(np.flatnonzero(keep)):
            if dst != src:
                Xl[:, dst], arrays.w[dst], arrays.s0[dst] = Xl[:, src], arrays.w[src], arrays.s0[src]
    for b in live:
        errors[b] = ConvergenceError(
            f"Cox fit did not converge in {_COX_MAX_ITER} iterations", beta[b].copy()
        )
    return CoxBatch(beta, ll, ll0, iterations, tuple(errors))


def cox_fit(time: np.ndarray, status: np.ndarray, X: np.ndarray) -> FitResult:
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
    return cox_fit_batch(time, status, X.T[:, None, :]).result(0)
