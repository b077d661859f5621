"""Marginal-association screening that produces parent-set constraints.

Pairwise Pearson tests with an FDR (Benjamini-Hochberg) or correlation
cutoff define possible-parent sets; a survival outcome is screened with
univariate Cox regressions instead. Phenotype-driven mode restricts
screening to two or three ancestor levels of a designated outcome.

Every correlation comes from one kernel, ``_corr_against``, and every
test passes or fails in one cutoff step, ``_passes``, applied once per
BH family. The families are: all unordered pairs of non-survival columns
(all-pairs mode); the survival column's Cox tests (all-pairs mode); and
all tests of one level (phenotype mode). A test on a constant column is
undefined: it stays in its family with p = 1 and never passes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    SURVIVAL,
    Dataset,
    NodeSubset,
    ParentConstraints,
    StructureError,
)
from .numeric import chisq_sf, cox_fit_batch

# ``cox_fit`` stays a name in this module: the benchmark tracer
# (benchmarks/tracer.py) wraps ``bndp.assoc.cox_fit`` by name.
from .numeric import cox_fit  # noqa: F401

# candidates per batched Cox screening fit, which bounds the screen's
# memory whatever the candidate count. On a 2-vCPU Xeon (2 MB L2 per core),
# 513 candidates of 500 rows took 63-67 ms in chunks of 32-128, 98 ms in
# chunks of 16 and 82 ms in chunks of 256, while peak RSS grew by 0.4, 1.5,
# 4.5 and 8.8 MiB for chunks of 32, 64, 128 and 256
_COX_CHUNK = 64


class AssocError(ValueError):
    """Screening could not produce usable constraints."""


class EmptyFeasSetError(AssocError):
    """No associations passed the cutoff; suggests loosening it."""


class ScreeningWarning(UserWarning):
    """Non-fatal screening issue (failed fit, constant column, ...)."""


@dataclass(frozen=True)
class ScreenOptions:
    """Configuration for constraint screening.

    Exactly one of ``alpha`` (BH-adjusted p-value cutoff) and
    ``corr_cutoff`` (absolute-correlation cutoff) must be set. Phenotype
    mode requires ``outcome`` and screens ``levels`` generations of
    ancestors; ``top_k`` optionally trims the first level to the most
    significant candidates. ``user_pp`` skips screening entirely.
    """

    mode: str = "all_pairs"
    alpha: float | None = None
    corr_cutoff: float | None = None
    outcome: str | None = None
    levels: int = 3
    top_k: int | None = None
    user_pp: dict[str, list[str]] | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("all_pairs", "phenotype"):
            raise AssocError(f"unknown screening mode {self.mode!r}")
        if self.user_pp is None:
            if (self.alpha is None) == (self.corr_cutoff is None):
                raise AssocError("exactly one of alpha and corr_cutoff must be set")
            if self.alpha is not None and not 0 < self.alpha <= 1:
                raise AssocError(f"alpha must be in (0, 1], got {self.alpha}")
            if self.corr_cutoff is not None and not 0 <= self.corr_cutoff < 1:
                raise AssocError(f"corr_cutoff must be in [0, 1), got {self.corr_cutoff}")
        if self.mode == "phenotype":
            if self.outcome is None:
                raise AssocError("phenotype mode requires an outcome column")
            if self.levels not in (2, 3):
                raise AssocError(f"phenotype levels must be 2 or 3, got {self.levels}")
        if self.top_k is not None and self.top_k < 1:
            raise AssocError("top_k must be a positive integer")


def bh_adjust(p_values: np.ndarray) -> np.ndarray:
    """Benjamini-Hochberg step-up adjusted p-values, in input order."""
    p = np.asarray(p_values, dtype=float)
    if p.ndim != 1:
        raise AssocError("p-values must be a vector")
    if p.size == 0:
        return p.copy()
    if np.any((p < 0) | (p > 1)):
        raise AssocError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    ranked = p[order] * m / np.arange(1, m + 1)
    adjusted = np.minimum.accumulate(ranked[::-1])[::-1]
    adjusted = np.minimum(adjusted, 1.0)
    out = np.empty(m)
    out[order] = adjusted
    return out


def cox_screen(
    data: Dataset, outcome: int, candidates: list[int]
) -> np.ndarray:
    """Likelihood-ratio chi-squared p-value of each candidate's univariate Cox fit.

    The candidates are fitted together by :func:`cox_fit_batch`, at most
    ``_COX_CHUNK`` per call, which bounds the memory of a screen over
    thousands of columns. A constant candidate is not fitted: its test is
    undefined (NaN). A failed fit is recorded as p = 1 with a warning
    naming the column, so a screening run never aborts.
    """
    col = data.column(outcome)
    if col.kind != SURVIVAL:
        raise AssocError(f"column {col.name!r} is not a survival outcome")
    time = col.values[:, 0]
    status = col.values[:, 1]
    pvals = np.full(len(candidates), np.nan)
    for start in range(0, len(candidates), _COX_CHUNK):
        chunk = candidates[start : start + _COX_CHUNK]
        Z = np.array([data.numeric_values(i) for i in chunk])
        fitted = np.flatnonzero(~_constant(Z.T))
        Z = Z[fitted]
        Z = (Z - Z.mean(axis=1, keepdims=True)) / Z.std(axis=1, keepdims=True)
        batch = cox_fit_batch(time, status, Z[None])
        lr = 2.0 * (batch.log_likelihood - batch.null_log_likelihood)
        p = chisq_sf(np.maximum(lr, 0.0), 1)
        for b, exc in enumerate(batch.errors):
            if exc is not None:
                warnings.warn(
                    f"Cox screening failed for {data.column(chunk[fitted[b]]).name!r}: {exc}",
                    ScreeningWarning,
                    stacklevel=2,
                )
                p[b] = 1.0
        pvals[start + fitted] = p
    return pvals


def _encoded_matrix(data: Dataset) -> tuple[np.ndarray, list[int]]:
    """Float matrix of all non-survival columns plus their indices."""
    idx = [i for i in range(data.p) if data.column(i).kind != SURVIVAL]
    M = np.column_stack([data.numeric_values(i) for i in idx]) if idx else np.zeros((data.n_rows, 0))
    return M, idx


def _constant(M: np.ndarray) -> np.ndarray:
    """Columns of ``M`` whose values are all equal."""
    return np.ptp(M, axis=0) == 0


def _corr_against(Y: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Correlation of each column of ``Y`` with each column of ``M``.

    Returns a ``Y.shape[1]`` by ``M.shape[1]`` matrix, NaN where either
    column is constant.
    """
    Yc = Y - Y.mean(axis=0)
    Mc = M - M.mean(axis=0)
    sy = np.einsum("ij,ij->j", Yc, Yc)
    sm = np.einsum("ij,ij->j", Mc, Mc)
    with np.errstate(invalid="ignore", divide="ignore"):
        R = (Yc.T @ Mc) / np.sqrt(np.outer(sy, sm))
    R[_constant(Y), :] = np.nan
    R[:, _constant(M)] = np.nan
    return np.clip(R, -1.0, 1.0)


def _pvalues_from_r(r: np.ndarray, n: int) -> np.ndarray:
    """Vectorized two-sided correlation test; NaN r maps to p = 1."""
    from scipy import special

    r = np.asarray(r, dtype=float)
    out = np.ones_like(r)
    ok = np.isfinite(r)
    exact = ok & (np.abs(r) >= 1.0)
    out[exact] = 0.0
    mid = ok & ~exact
    if np.any(mid):
        t2 = r[mid] ** 2 * (n - 2) / (1.0 - r[mid] ** 2)
        df = n - 2
        out[mid] = special.betainc(0.5 * df, 0.5, df / (df + t2))
    return out


def _statistic(r: np.ndarray, n: int, opts: ScreenOptions) -> np.ndarray:
    """Screening statistic of correlations ``r``: the p-value under
    ``alpha``, |r| under ``corr_cutoff``; NaN where r is undefined."""
    stat = _pvalues_from_r(r, n) if opts.alpha is not None else np.abs(r)
    stat[np.isnan(r)] = np.nan
    return stat


def _passes(stat: np.ndarray, opts: ScreenOptions) -> np.ndarray:
    """The cutoff step: BH-adjusted p <= ``alpha``, or |r| >= ``corr_cutoff``.

    ``stat`` is one BH family. An undefined test (NaN) stays in its
    family with p = 1 and never passes.
    """
    defined = ~np.isnan(stat)
    if opts.alpha is not None:
        keep = bh_adjust(np.where(defined, stat, 1.0)) <= opts.alpha
    else:
        keep = np.where(defined, stat, -1.0) >= opts.corr_cutoff
    return keep & defined


def build_constraints(
    data: Dataset, opts: ScreenOptions, indegree: int
) -> tuple[ParentConstraints, Dataset]:
    """Run Algorithm-style screening and reduce the data to the feasible set.

    Returns constraints re-indexed to the reduced dataset's dense node
    indices. The outcome node, when present, receives possible parents
    but never appears in another node's possible-parent set, and the
    survival column can only ever be a sink.
    """
    outcome_idx = data.index_of(opts.outcome) if opts.outcome is not None else data.survival_index
    if opts.user_pp is not None:
        pp = _pp_from_user(data, opts.user_pp)
    elif data.p == 1:
        pp = [0]
    else:
        M, idx = _encoded_matrix(data)
        for k in np.nonzero(_constant(M))[0]:
            warnings.warn(
                f"column {data.column(idx[k]).name!r} is constant; treated as unassociated",
                ScreeningWarning,
                stacklevel=2,
            )
        if opts.mode == "all_pairs":
            pp = _screen_all_pairs(data, opts, outcome_idx)
        else:
            pp = _screen_phenotype(data, opts)

    members = 0
    for m in pp:
        members |= m
    feas = [i for i in range(data.p) if pp[i] or (members >> i) & 1]
    if outcome_idx is not None and outcome_idx not in feas and pp[outcome_idx]:
        feas.append(outcome_idx)
        feas.sort()
    if data.p == 1:
        feas = [0]
    if not feas:
        raise EmptyFeasSetError(
            "no associations passed the cutoff; try a looser alpha or corr_cutoff"
        )

    dense = {orig: k for k, orig in enumerate(feas)}
    reduced_pp = [NodeSubset(sum(1 << dense[j] for j in NodeSubset(pp[orig]))) for orig in feas]
    constraints = ParentConstraints(tuple(reduced_pp), indegree)
    return constraints, data.restrict(feas)


def _pp_from_user(data: Dataset, user_pp: dict[str, list[str]]) -> list[int]:
    pp = [0] * data.p
    for child, parents in user_pp.items():
        ci = data.index_of(child)
        for par in parents:
            pi = data.index_of(par)
            if pi == ci:
                raise StructureError(f"{child!r} lists itself as a possible parent")
            if data.column(pi).kind == SURVIVAL:
                raise StructureError(
                    f"survival column {par!r} can only be a sink, not a possible parent"
                )
            pp[ci] |= 1 << pi
    return pp


def _screen_all_pairs(data: Dataset, opts: ScreenOptions, outcome_idx: int | None) -> list[int]:
    """Test every unordered pair of non-survival columns as one BH family;
    the survival column's Cox tests form a family of their own. The
    outcome never becomes a parent."""
    M, idx = _encoded_matrix(data)
    rows, cols = np.triu_indices(len(idx), k=1)
    r = _corr_against(M, M)[rows, cols]
    keep = _passes(_statistic(r, data.n_rows, opts), opts)
    pp = [0] * data.p
    for a, b in zip(rows[keep], cols[keep]):
        a, b = idx[a], idx[b]
        if a != outcome_idx:
            pp[b] |= 1 << a
        if b != outcome_idx:
            pp[a] |= 1 << b

    s = data.survival_index
    if s is not None:
        found, _ = _screen_level(data, [s], {s}, opts)
        pp[s] = found[s]
    return pp


def _screen_level(
    data: Dataset,
    targets: list[int],
    excluded: set[int],
    opts: ScreenOptions,
) -> tuple[dict[int, int], dict[tuple[int, int], float]]:
    """Screen possible parents for each target; one BH family per level.

    Returns the kept candidates per target as a bitmask, and the
    statistic of every (target, candidate) test: the unadjusted p-value
    under ``alpha``, |r| under ``corr_cutoff``, NaN where undefined.
    """
    M, idx = _encoded_matrix(data)
    tests: list[tuple[int, int]] = []
    stats: list[np.ndarray] = []
    for t in targets:
        cands = [k for k, i in enumerate(idx) if i != t and i not in excluded]
        if data.column(t).kind == SURVIVAL:
            if opts.alpha is None:
                raise AssocError(
                    "a survival outcome is screened by Cox p-values; "
                    "use the alpha cutoff instead of corr_cutoff"
                )
            stat = cox_screen(data, t, [idx[k] for k in cands])
        else:
            r = _corr_against(data.numeric_values(t)[:, None], M)[0]
            stat = _statistic(r, data.n_rows, opts)[cands]
        tests += [(t, idx[k]) for k in cands]
        stats.append(stat)

    result: dict[int, int] = {t: 0 for t in targets}
    stat = np.concatenate(stats)
    for (t, i), ok in zip(tests, _passes(stat, opts)):
        if ok:
            result[t] |= 1 << i
    return result, dict(zip(tests, stat.tolist()))


def _screen_phenotype(data: Dataset, opts: ScreenOptions) -> list[int]:
    outcome = data.index_of(opts.outcome)
    pp = [0] * data.p
    excluded = {outcome}

    found, stats = _screen_level(data, [outcome], excluded, opts)
    level1 = found[outcome]
    if opts.top_k is not None and level1.bit_count() > opts.top_k:
        level1 = _trim_top_k(data, outcome, level1, stats, opts)
    pp[outcome] = level1

    frontier = sorted(NodeSubset(level1))
    assigned = {outcome}
    for _ in range(opts.levels - 1):
        frontier = [t for t in frontier if t not in assigned]
        if not frontier:
            break
        found, _ = _screen_level(data, frontier, excluded, opts)
        next_members = 0
        for t in frontier:
            pp[t] = found[t]
            assigned.add(t)
            next_members |= found[t]
        frontier = sorted(NodeSubset(next_members))
    return pp


def _trim_top_k(
    data: Dataset,
    outcome: int,
    mask: int,
    stats: dict[tuple[int, int], float],
    opts: ScreenOptions,
) -> int:
    """Keep the top-k level-1 candidates by their screening statistic.

    The most significant come first: the smallest p-values under
    ``alpha``, the largest |r| under ``corr_cutoff``; ties break by name.
    """
    sign = 1.0 if opts.alpha is not None else -1.0
    ranked = sorted(
        (sign * stats[outcome, i], data.column(i).name, i) for i in NodeSubset(mask)
    )
    out = 0
    for _, _, i in ranked[: opts.top_k]:
        out |= 1 << i
    return out
