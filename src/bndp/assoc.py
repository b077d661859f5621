"""Marginal-association screening that produces parent-set constraints.

Each pair of columns gets one test: the likelihood ratio of the two nested
models that its local score compares, on the columns scoring regresses on
(``scoring._regressors``), so a categorical column's level codes do not
matter. A candidate is tested only in a direction that the parent-kind
rule (:func:`core._may_parent`) allows. The tests:

- t: a continuous target and a continuous or binary candidate, on r;
- F: a continuous target and a categorical candidate of L >= 3 levels,
  the one-way F test of its L - 1 indicator columns;
- G: two categorical columns, twice the log-likelihood gain that
  categorical BIC scores, on (L1 - 1)(L2 - 1) degrees of freedom over the
  observed levels;
- Cox: a survival outcome, each candidate fitted alone on Cox-BIC's
  standardised design columns, one degree of freedom per column
  (:func:`cox_screen`).

Phenotype mode restricts screening to two or three ancestor levels of an
outcome. Every test passes or fails in one cutoff step, ``_passes``,
applied once per BH family: all unordered pairs of non-survival columns,
each tested once (all-pairs mode); the survival column's Cox tests
(all-pairs mode); all tests of one level (phenotype mode). The correlation
cutoff compares |r|, so it takes one-column designs only. A test on a
constant column, a failed Cox fit or a test with no degrees of freedom is
undefined: the kernels return NaN, which counts in its family as p = 1
and never passes.

The p-values are computed here with numpy and ``math``:

- t and F are the regularized incomplete beta function I_x(a, b) at
  x = 1 - R^2 (R^2 = r^2 for t), a = (n - L)/2 and b = (L - 1)/2, with
  L = 2 for t (:func:`_corr_pvalue`). Its factor x^a (1-x)^b / B(a, b) is
  taken from log1p(-R^2) and log(R^2); the rest is the continued fraction
  of Numerical Recipes (3rd ed., section 6.4, ``betacf``) below
  x = (a+1)/(a+b+2), and 1 - I_{1-x}(b, a) above it (:func:`_betacf`).
- Cox and G are chi-square tails with integer k, in closed form
  (:func:`_chi2_sf`).

Against scipy (the tests' oracles) the relative error is at most
1e-12 * max(1, df/1000) for t, and 1e-12 for F with L = 3-10 and n up to
5,000 and for the chi-square tail with k up to 81, wherever scipy's value
is at least 1e-300 (tests/test_assoc.py). Measured: t 2.2e-13 at df = 998
and 5e-12 at df = 99,998; F 6.7e-13; the chi-square tail 2.2e-13.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    CATEGORICAL,
    Dataset,
    NodeSubset,
    ParentConstraints,
    StructureError,
    _constant,
    _is_names,
    _may_parent,
)
from .numeric import NumericError
from .scoring import _categorical_ll, _cox_batches, _regressors

# ``cox_fit`` stays a name in this module: the benchmark tracer
# (benchmarks/tracer.py) wraps ``bndp.assoc.cox_fit`` by name.
from .numeric import cox_fit  # noqa: F401


class AssocError(ValueError):
    """Screening could not produce usable constraints."""


class EmptyFeasSetError(AssocError):
    """No associations passed the cutoff; suggests loosening it."""


class ScreeningWarning(UserWarning):
    """Non-fatal screening issue (failed fit, constant column, ...)."""


@dataclass(frozen=True)
class ScreenOptions:
    """Configuration for constraint screening; a setting that would be
    ignored raises AssocError. ``user_pp`` (possible-parent name lists per
    column) skips screening, so it excludes phenotype mode, ``alpha``,
    ``corr_cutoff``, ``levels`` and ``top_k``. Otherwise exactly one of
    ``alpha`` (BH-adjusted p-value cutoff) and ``corr_cutoff``
    (absolute-correlation cutoff) is set. ``levels`` and ``top_k`` are
    phenotype-only: phenotype mode requires ``outcome`` and screens
    ``levels`` (2 or 3, default 3) generations of ancestors, and ``top_k``
    trims the first level to the most significant candidates.
    """

    mode: str = "all_pairs"
    alpha: float | None = None
    corr_cutoff: float | None = None
    outcome: str | None = None
    levels: int | None = None
    top_k: int | None = None
    user_pp: dict[str, list[str]] | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("all_pairs", "phenotype"):
            raise AssocError(f"unknown screening mode {self.mode!r}")
        phenotype = self.mode == "phenotype"
        settings = ("alpha", "corr_cutoff", "levels", "top_k")
        given = [s for s in settings if getattr(self, s) is not None]
        for name in ("levels", "top_k"):
            if name in given and not phenotype:
                raise AssocError(f"{name} applies only in phenotype mode")
        if self.user_pp is not None:
            if not isinstance(self.user_pp, dict):
                raise AssocError("user_pp must map column names to lists of column names")
            for key, names in self.user_pp.items():
                if not _is_names(names):
                    raise AssocError(f"user_pp {key!r}: expected a list of column names")
            ignored = (["phenotype mode"] if phenotype else []) + given
            if ignored:
                raise AssocError(f"user_pp skips screening: {', '.join(ignored)} would be ignored")
            return
        if (self.alpha is None) == (self.corr_cutoff is None):
            raise AssocError("exactly one of alpha and corr_cutoff must be set")
        if self.alpha is not None and not 0 < self.alpha <= 1:
            raise AssocError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.corr_cutoff is not None and not 0 <= self.corr_cutoff < 1:
            raise AssocError(f"corr_cutoff must be in [0, 1), got {self.corr_cutoff}")
        if phenotype:
            if self.outcome is None:
                raise AssocError("phenotype mode requires an outcome column")
            if self.levels is None:
                object.__setattr__(self, "levels", 3)
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
    if not np.all((p >= 0) & (p <= 1)):
        raise AssocError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    ranked = p[order] * m / np.arange(1, m + 1)
    adjusted = np.minimum.accumulate(ranked[::-1])[::-1]
    adjusted = np.minimum(adjusted, 1.0)
    out = np.empty(m)
    out[order] = adjusted
    return out


def cox_screen(data: Dataset, outcome: int, candidates: list[int]) -> np.ndarray:
    """Likelihood-ratio chi-squared p-value of each candidate's Cox fit.

    A candidate is fitted alone on the standardised design columns that
    Cox-BIC gives it (:func:`scoring._cox_batches`), with one degree of
    freedom per column, so relabelling a categorical's levels does not
    change its test. A constant candidate is not fitted and a failed fit
    warns, naming the column; either test is undefined (NaN), which
    :func:`_passes` counts as p = 1 that never passes.
    """
    pvals = np.full(len(candidates), np.nan)
    at = {1 << i: k for k, i in enumerate(candidates)}
    fitted = [1 << i for i in candidates if not _constant(data.column(i).values)]
    for group, width, batch in _cox_batches(data, outcome, fitted):
        lr = 2.0 * (batch.log_likelihood - batch.null_log_likelihood)
        p = _chi2_sf(width, np.maximum(lr, 0.0))
        for b, (mask, exc) in enumerate(zip(group, batch.errors)):
            if exc is not None:
                warnings.warn(
                    f"Cox screening failed for {data.names[mask.bit_length() - 1]!r}: {exc}",
                    ScreeningWarning,
                    stacklevel=2,
                )
                p[b] = np.nan
        pvals[[at[mask] for mask in group]] = p
    return pvals


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


def _statistic(r: np.ndarray, n: int, opts: ScreenOptions) -> np.ndarray:
    """|r| under ``corr_cutoff``; under ``alpha`` the two-sided t test's
    p-value over ``n`` rows: 0 at |r| = 1, NaN where r is NaN or n <= 2."""
    if opts.alpha is None:
        return np.abs(r)
    return _corr_pvalue(np.square(r), 0.5 * (n - 2), 0.5)


def _corr_pvalue(r2: np.ndarray, a: float, b: float) -> np.ndarray:
    """I_{1-r2}(a, b) in the shape of ``r2``, a squared correlation or an R^2:
    the t test's p-value at a = df/2 and b = 1/2, and the F test's at
    a = df2/2 and b = df1/2. 0 at r2 = 1, 1 at r2 = 0, NaN where r2 is NaN
    or a or b is not positive."""
    if a <= 0 or b <= 0:
        return np.full(r2.shape, np.nan)
    # x^a (1-x)^b / B(a, b) with x = 1 - r2: 0 at r2 = 0 and at r2 = 1.
    # ln Gamma(1/2) = ln(pi)/2 comes out of math.log correctly rounded;
    # math.lgamma(0.5) is 3 units in the last place above it
    log_gamma_b = 0.5 * math.log(math.pi) if b == 0.5 else math.lgamma(b)
    log_beta = log_gamma_b - _lgamma_step(a, b)
    with np.errstate(divide="ignore"):
        front = np.exp(a * np.log1p(-r2) + b * np.log(r2) - log_beta)
    # The continued fraction gives I_x(a, b) for x below (a+1)/(a+b+2), and
    # I_{1-x}(b, a) = 1 - I_x(a, b) above it (NaN goes there and stays NaN).
    # Its start depths, at b = 1/2: for df from 1 to 1e9 (360,000 points a
    # side), the side above always converged by depth 16, and the side below
    # by 64 but for 7 points next to the switch point (depth 128).
    x = 1.0 - r2
    direct = x < (a + 1.0) / (a + b + 2.0)
    p = np.empty(r2.shape)
    p[direct] = front[direct] * _betacf(a, b, x[direct], 64) / a
    p[~direct] = 1.0 - front[~direct] * _betacf(b, a, r2[~direct], 16) / b
    return p


def _lgamma_step(a: float, b: float) -> float:
    """lgamma(a + b) - lgamma(a) for b of a few units. From a = 50 on,
    Stirling's series gives it without the cancellation of two large logs
    (whose rounding alone is 3.6e-12 at a = 2,500); its first omitted term
    is below 1e-16 there."""
    if a < 50.0:
        return math.lgamma(a + b) - math.lgamma(a)

    def series(z: float) -> float:  # lgamma(z) - ((z - 1/2) ln z - z + ln(2 pi) / 2)
        return 1.0 / (12.0 * z) - 1.0 / (360.0 * z**3) + 1.0 / (1260.0 * z**5)

    return b * math.log(a) + ((a + b - 0.5) * math.log1p(b / a) - b) + series(a + b) - series(a)


_CF_MAX_DEPTH = 4096
_CF_RTOL = 1e-15
_CF_BLOCK = 4096  # x values per backward pass: the pass holds 2 x (2N + 1) terms of each


def _betacf(a: float, b: float, x: np.ndarray, depth: int) -> np.ndarray:
    """For each x of a vector below (a+1)/(a+b+2), the continued fraction cf
    of I_x(a, b) = x^a (1-x)^b / (a B(a, b)) * cf: ``betacf`` of Numerical
    Recipes (3rd ed., section 6.4), evaluated backward. NaN stays NaN.

    The convergents ending at terms 2N and 2N + 1 are evaluated side by
    side from depth N = ``depth``; where they differ by more than
    ``_CF_RTOL`` (relative), the depth doubles, and past ``_CF_MAX_DEPTH``
    it raises NumericError.
    """
    if depth > _CF_MAX_DEPTH:
        raise NumericError(
            f"the incomplete beta continued fraction did not converge by depth "
            f"{_CF_MAX_DEPTH} (a = {a:g}, b = {b:g})"
        )
    m = np.arange(depth + 1.0)
    d = np.empty(2 * depth + 1)  # d[j] = d_{j+1} / x
    d[0::2] = -(a + m) * (a + b + m) / ((a + 2 * m) * (a + 2 * m + 1))
    d[1::2] = m[1:] * (b - m[1:]) / ((a + 2 * m[1:] - 1) * (a + 2 * m[1:]))
    out = np.empty_like(x)
    for lo in range(0, x.size, _CF_BLOCK):
        n = min(_CF_BLOCK, x.size - lo)
        terms = np.multiply.outer(d, np.tile(x[lo : lo + n], 2))
        terms[-1, :n] = 0.0  # the first n columns stop at term 2N
        f = 1.0 + terms[-1]
        for t in terms[-2::-1]:
            np.divide(t, f, out=f)
            f += 1.0
        out[lo : lo + n] = 1.0 / f[n:]
        late = lo + np.flatnonzero(np.abs(f[n:] - f[:n]) > _CF_RTOL * f[:n])
        if late.size:
            out[late] = _betacf(a, b, x[late], 2 * depth)
    return out


def _chi2_sf(k: int, x: np.ndarray) -> np.ndarray:
    """P(X > x) for X chi-square with an integer ``k`` degrees of freedom,
    for each x of a vector, in closed form with h = x/2:
    e^-h sum_{i<k/2} h^i / i! for even k, and
    erfc(sqrt(h)) + e^-h sum_{i=1}^{(k-1)/2} h^(i-1/2) / Gamma(i+1/2) for odd k.
    1 at x = 0 and NaN at NaN."""
    h = 0.5 * x
    if k % 2:
        q = np.array([math.erfc(math.sqrt(v)) for v in h.tolist()])
    else:
        q = np.exp(-h)
    s = np.arange(k / 2 - 1, 0, -1.0)  # the powers of h above 0
    log_gamma = np.array([math.lgamma(v + 1.0) for v in s.tolist()])
    with np.errstate(divide="ignore"):
        log_h = np.log(h)
    return q + np.exp(np.multiply.outer(s, log_h) - h - log_gamma[:, None]).sum(axis=0)


def _passes(stat: np.ndarray, opts: ScreenOptions) -> np.ndarray:
    """The cutoff step: BH-adjusted p <= ``alpha``, or |r| >= ``corr_cutoff``.

    ``stat`` is one BH family. Only here does an undefined test (NaN: a
    constant column, a failed Cox fit, no degrees of freedom) count: as
    p = 1 in its family, and it never passes.
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
    but never appears in another node's possible-parent set, and no
    possible parent breaks the parent-kind rule (:func:`core._may_parent`).
    ``corr_cutoff`` raises before any test runs where a test would not
    be on r: on data whose survival column is screened (all-pairs mode or
    as the outcome), and on data with a categorical column of three or
    more levels.
    """
    outcome_idx = data.index_of(opts.outcome) if opts.outcome is not None else data.survival_index
    s = data.survival_index
    if opts.corr_cutoff is not None and s is not None and (
        opts.mode == "all_pairs" or outcome_idx == s
    ):
        raise AssocError("a survival column is screened by Cox tests: use alpha, not corr_cutoff")
    wide = [c for c in data.columns if c.kind == CATEGORICAL and c.levels > 2]
    if opts.corr_cutoff is not None and wide:
        raise AssocError(
            f"categorical column {wide[0].name!r} is {wide[0].levels - 1} indicator columns, "
            "which no one correlation describes: use alpha, not corr_cutoff"
        )
    if opts.user_pp is not None:
        pp = _pp_from_user(data, opts.user_pp)
    else:
        R, cols = _regressors(data, [j for j in range(data.p) if j != s])
        M = R.T.copy()  # C order: the correlations' float bits depend on the layout
        constant = _constant(M).tolist()
        for j, at in cols.items():
            if all(constant[k] for k in at):
                warnings.warn(
                    f"column {data.names[j]!r} is constant; treated as unassociated",
                    ScreeningWarning,
                    stacklevel=2,
                )
        if opts.mode == "all_pairs":
            pp = _screen_all_pairs(data, M, cols, opts, outcome_idx)
        else:
            pp = _screen_phenotype(data, M, cols, opts)

    members = 0
    for m in pp:
        members |= m
    feas = [i for i in range(data.p) if pp[i] or (members >> i) & 1]
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
            kind, child_kind = data.column(pi).kind, data.column(ci).kind
            if not _may_parent(kind, child_kind):
                raise StructureError(
                    f"{kind} column {par!r} cannot be a possible parent of "
                    f"{child_kind} column {child!r}"
                )
            pp[ci] |= 1 << pi
    return pp


def _admissible(data: Dataset) -> np.ndarray:
    """``may[i, j]``: whether column j may parent column i (:func:`core._may_parent`)."""
    kinds = np.array([c.kind for c in data.columns])
    return _may_parent(kinds[None, :], kinds[:, None])


def _screen_all_pairs(
    data: Dataset,
    M: np.ndarray,
    cols: dict[int, list[int]],
    opts: ScreenOptions,
    outcome_idx: int | None,
) -> list[int]:
    """Test every unordered pair of non-survival columns once, as one BH
    family, with the column that may parent the other as the candidate
    (the later one where both may); a passing pair gives each direction
    that the parent-kind rule allows. The survival column's Cox tests
    form a family of their own. The outcome never becomes a parent.
    ``M, cols`` are the :func:`_tests` columns."""
    nodes = np.array(list(cols), dtype=int)
    a, b = (nodes[k] for k in np.triu_indices(nodes.size, k=1))
    may = _admissible(data)
    swap = ~may[a, b]
    keep = _passes(_tests(data, M, cols, np.where(swap, b, a), np.where(swap, a, b), opts), opts)
    pp = [0] * data.p
    outcome = -1 if outcome_idx is None else outcome_idx
    for u, v in ((a[keep], b[keep]), (b[keep], a[keep])):  # v -> u, where v may parent u
        ok = may[u, v] & (v != outcome)
        for i, j in zip(u[ok].tolist(), v[ok].tolist()):
            pp[i] |= 1 << j

    s = data.survival_index
    if s is not None:
        found, _ = _screen_level(data, M, cols, [s], {s}, opts)
        pp[s] = found[s]
    return pp


def _tests(
    data: Dataset,
    M: np.ndarray,
    cols: dict[int, list[int]],
    t: np.ndarray,
    c: np.ndarray,
    opts: ScreenOptions,
    targets: list[int] | None = None,
) -> np.ndarray:
    """The statistic of each test of ``c[i]`` as a parent of ``t[i]``, two
    non-survival columns that the parent-kind rule allows in that
    direction: |r| under ``corr_cutoff`` (one-column designs only, as
    :func:`build_constraints` checks), else the p-value of the G, F or t
    test. ``M`` holds the non-survival columns' :func:`scoring._regressors`
    columns, and ``cols`` each node's columns of ``M``. The correlations
    come from one :func:`_corr_against` call: of every column against every
    column (all-pairs mode, ``targets`` None), or of the one-column nodes
    among ``targets`` against every column.
    """
    first, width = np.zeros(data.p, dtype=int), np.zeros(data.p, dtype=int)
    for j, at in cols.items():
        first[j], width[j] = at[0], len(at)
    n = data.n_rows
    cat = np.array([col.kind == CATEGORICAL for col in data.columns])
    g = cat[t] & cat[c] & (opts.alpha is not None)
    f = (width[c] > 1) & ~g
    r = ~(g | f)
    stat = np.empty(t.size)
    if r.any():
        if targets is None:
            Y, row = M, first
        else:
            one = [u for u in targets if width[u] == 1]
            Y, row = M[:, first[one]], np.zeros(data.p, dtype=int)
            row[one] = np.arange(len(one))
        stat[r] = _statistic(_corr_against(Y, M)[row[t[r]], first[c[r]]], n, opts)

    for u in np.unique(c[f]).tolist():  # each candidate's F tests, its targets at once
        at = np.flatnonzero(f & (c == u))
        Z = M[:, cols[u]]
        Z = np.column_stack([Z.sum(axis=1) == 0, Z])  # an indicator per level
        counts = Z.sum(axis=0)
        seen = counts > 0
        Y = M[:, first[t[at]]]
        Yc = Y - Y.mean(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):  # R^2 = between-level SS / total SS
            between = (np.square(Z[:, seen].T @ Yc) / counts[seen, None]).sum(axis=0)
            r2 = between / np.einsum("ij,ij->j", Yc, Yc)
        r2[_constant(Y)] = np.nan
        L = int(seen.sum())
        stat[at] = _corr_pvalue(np.clip(r2, 0.0, 1.0), 0.5 * (n - L), 0.5 * (L - 1))

    for i in np.flatnonzero(g).tolist():
        u, v = int(t[i]), int(c[i])
        gain = _categorical_ll(data, u, 1 << v) - _categorical_ll(data, u, 0)
        df = math.prod(np.unique(data.column(j).values).size - 1 for j in (u, v))
        stat[i] = _chi2_sf(df, np.array([max(2.0 * gain, 0.0)]))[0] if df else np.nan
    return stat


def _screen_level(
    data: Dataset,
    M: np.ndarray,
    cols: dict[int, list[int]],
    targets: list[int],
    excluded: set[int],
    opts: ScreenOptions,
) -> tuple[dict[int, int], dict[tuple[int, int], float]]:
    """Screen possible parents for each target; one BH family per level.

    A target's candidates are the columns outside ``excluded`` that may
    parent it. Returns the kept candidates per target as a bitmask, and
    the statistic of every (target, candidate) test (:func:`_tests` on
    ``M, cols``, or :func:`cox_screen` for the survival column): the
    unadjusted p-value under ``alpha``, |r| under ``corr_cutoff``, NaN
    where undefined.
    """
    allowed = _admissible(data)[targets]
    allowed[:, sorted(excluded)] = False
    allowed[np.arange(len(targets)), targets] = False
    row, c = np.nonzero(allowed)
    t = np.array(targets, dtype=int)[row]
    s = -1 if data.survival_index is None else data.survival_index
    cox = t == s
    stat = np.empty(t.size)
    if cox.any():
        stat[cox] = cox_screen(data, s, c[cox].tolist())
    if not cox.all():
        stat[~cox] = _tests(data, M, cols, t[~cox], c[~cox], opts, [u for u in targets if u != s])

    result: dict[int, int] = {u: 0 for u in targets}
    keep = _passes(stat, opts)
    for u, j in zip(t[keep].tolist(), c[keep].tolist()):
        result[u] |= 1 << j
    return result, dict(zip(zip(t.tolist(), c.tolist()), stat.tolist()))


def _screen_phenotype(
    data: Dataset, M: np.ndarray, cols: dict[int, list[int]], opts: ScreenOptions
) -> list[int]:
    outcome = data.index_of(opts.outcome)
    pp = [0] * data.p
    excluded = {outcome}

    found, stats = _screen_level(data, M, cols, [outcome], excluded, opts)
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
        found, _ = _screen_level(data, M, cols, frontier, excluded, opts)
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
