"""Decomposable local scores: Gaussian BIC, categorical BIC, BGe, Cox-BIC.

All scores are oriented so that higher is better. Degenerate fits become
a -inf sentinel, an ordinary table value, so the dynamic program never
needs special cases.

Both Gaussian scores of every continuous node come from one batch of
log-determinants of one centred cross-product matrix (:class:`_Gram`):
Gaussian BIC falls back to the direct least squares of
:func:`bic_gaussian` near an exact fit, and BGe has a fixed prior.
:func:`bic_categorical` scores categorical nodes, and :func:`cox_bic` the
survival sink's parent sets on the standardised designs of
:func:`_cox_batches`, which survival screening
(:func:`bndp.assoc.cox_screen`) fits too, one degree of freedom per column.
A :class:`CoxFits` record carries screening's univariate fits and null
likelihood to Cox-BIC, which fits only the parent sets it lacks.
:func:`compute_local_scores` is the one dispatch, a loop over the nodes.
A possible parent that the parent-kind rule (:func:`core._may_parent`)
excludes raises :class:`ScoringError` before any score.

Gaussian BIC is unit-free: up to rounding, an affine map ``a x + b`` of a
continuous column shifts each of its node's scores by ``-n ln|a|`` and
leaves every other score unchanged. BGe is not: its fixed prior scale
``_BGE_T`` times the identity is in the data's units, so rescaling a
column (by 10^6, say) changes which networks BGe finds best.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .core import (
    CATEGORICAL,
    CONTINUOUS,
    SURVIVAL,
    Dataset,
    NodeSubset,
    ParentConstraints,
    _constant,
    _may_parent,
    subsets_up_to,
)
from .numeric import CoxBatch, NumericError, cox_fit_batch

# ``cox_fit`` stays a name in this module: the benchmark tracer
# (benchmarks/tracer.py) wraps ``bndp.scoring.cox_fit`` by name.
from .numeric import cox_fit  # noqa: F401

NEG_INF = float("-inf")

# designs per batched Cox fit, which bounds its memory whatever the design
# count: a batch's arrays grow with chunk x rows. On a 2-vCPU Xeon (numpy
# 2.4), 513 univariate designs of 500 rows took 41-42, 35, 32, 29 and
# 28-31 ms in chunks of 16, 32, 64, 128 and 256, and one batch's memory
# (tracemalloc peak) was 0.5, 0.9, 1.7, 3.4 and 6.7 MiB: past 64 the time
# falls by under a tenth while the memory doubles
_COX_CHUNK = 64

# relative residual-variance floor below which a Gaussian fit is degenerate
_DEGENERATE_REL = 1e-12
# a residual sum of squares this far below y'y is rounding: an exact fit
_EXACT_FIT_REL = 1e-24
# log det G[S + v] - log det G[S] loses about log10(syy / rss) of its ~16
# digits; below this residual share the direct least-squares path scores the fit
_GRAM_MIN_REL = 1e-6


class ScoringError(ValueError):
    """Score family is unknown or incompatible with the data."""


class ScoringWarning(UserWarning):
    """Non-fatal scoring issue (degenerate fit, overparameterized table)."""


@dataclass(frozen=True)
class ScoreConfig:
    """Score family selection: ``"bic"`` or ``"bge"`` (fixed prior, :class:`_Gram`).

    BGe's prior scale is fixed in the data's units, so its networks depend on
    them: rescaling a column can change them. Gaussian BIC's do not depend on
    affine maps of continuous columns.
    """

    family: str = "bic"

    def __post_init__(self) -> None:
        if self.family not in ("bic", "bge"):
            raise ScoringError(f"unknown score family {self.family!r}")


def _regressors(data: Dataset, nodes: Iterable[int]) -> tuple[np.ndarray, dict[int, list[int]]]:
    """The regression columns of ``nodes`` as the rows of one matrix, and
    each node's rows. A categorical column gives an indicator per observed
    level but its lowest observed one (a constant one, the indicator of its
    one level), so neither relabelling its levels nor declaring a level that
    no row has changes a fit; any other column gives its values."""
    rows: dict[int, list[int]] = {}
    kept: dict[int, np.ndarray] = {}
    width = 0
    for j in nodes:
        c = data.column(j)
        if c.kind == CATEGORICAL:
            seen = np.unique(c.values)
            kept[j] = seen[1:] if seen.size > 1 else seen
        k = kept[j].size if j in kept else 1
        rows[j] = list(range(width, width + k))
        width += k
    R = np.empty((width, data.n_rows))
    for j, at in rows.items():
        if j in kept:
            R[at[0] : at[-1] + 1] = data.column(j).values == kept[j][:, None]
        else:
            R[at[0]] = data.numeric_values(j)
    return R, rows


def _centred(M: np.ndarray) -> np.ndarray:
    """Columns shifted by their first row, then centred: a constant column
    becomes exact zeros, and a large mean costs no digits."""
    M = M - M[0]
    return M - M.mean(axis=0)


def bic_gaussian(node: int, parents: int, data: Dataset) -> float:
    """Gaussian BIC local score: LL - (k/2) ln n, k counting the regressor
    columns, the intercept and the variance.

    Parents enter as regressors with an intercept, on centred columns as
    in the Gram path; a categorical parent enters as :func:`_regressors`
    gives it. The least-squares fit needs more rows than regressors
    (:class:`NumericError` otherwise); collinear parents are solved by
    pseudo-inverse. The log-likelihood is taken at the MLE variance
    ``rss / n``. A residual sum of squares within rounding of zero
    (``rss <= 1e-24 max(y'y, 1)``) or a residual variance within
    ``_DEGENERATE_REL`` of zero yields the -inf sentinel with a warning.
    """
    n = data.n_rows
    R, _ = _regressors(data, NodeSubset(parents))
    M = _centred(np.column_stack([data.numeric_values(node), *R]))
    y = M[:, 0]
    X = np.column_stack([np.ones(n), M[:, 1:]])
    if X.shape[1] >= n:
        raise NumericError(f"need more rows ({n}) than columns ({X.shape[1]})")
    resid = y - X @ np.linalg.lstsq(X, y, rcond=None)[0]
    rss = float(resid @ resid)
    exact = rss <= _EXACT_FIT_REL * max(float(y @ y), 1.0)
    if exact or rss / n <= _DEGENERATE_REL * max(float(y.var()), 1e-300):
        warnings.warn(
            f"degenerate Gaussian fit for node {node} (zero residual variance)",
            ScoringWarning,
            stacklevel=2,
        )
        return NEG_INF
    ll = -0.5 * n * (math.log(2.0 * math.pi * rss / n) + 1.0)
    k = X.shape[1] + 1  # the regressors and the variance
    return ll - 0.5 * k * math.log(n)


def _check_parents(data: Dataset, node: int, parents: int) -> None:
    """ScoringError unless each of ``parents`` may parent ``node``
    (:func:`core._may_parent`), naming both columns."""
    child = data.column(node)
    for j in NodeSubset(parents):
        parent = data.column(j)
        if not _may_parent(parent.kind, child.kind):
            raise ScoringError(
                f"{parent.kind} column {parent.name!r} cannot be a parent of "
                f"{child.kind} column {child.name!r}"
            )


def _categorical_ll(data: Dataset, node: int, parents: int) -> float:
    """Multinomial log-likelihood of the categorical ``node`` given its
    categorical ``parents``, at the MLE: parent configurations with no
    observations contribute nothing."""
    codes = np.zeros(data.n_rows, dtype=np.int64)
    for j in NodeSubset(parents):
        pc = data.column(j)
        codes = codes * pc.levels + pc.values.astype(np.int64)
    col = data.column(node)
    joint = codes * col.levels + col.values.astype(np.int64)
    _, joint_counts = np.unique(joint, return_counts=True)
    _, config_counts = np.unique(codes, return_counts=True)
    return float(joint_counts @ np.log(joint_counts)) - float(
        config_counts @ np.log(config_counts)
    )


def bic_categorical(node: int, parents: int, data: Dataset) -> float:
    """Multinomial BIC local score for a categorical node.

    Penalty counts (r - 1) * q free parameters, r being the node's
    observed level count and q the product of its parents' (a declared
    level that no row has adds none; :func:`_categorical_ll` gives the
    log-likelihood). A non-categorical parent raises ScoringError.
    """
    col = data.column(node)
    if col.kind != CATEGORICAL:
        raise ScoringError(f"node {node} is not categorical")
    _check_parents(data, node, parents)
    n = data.n_rows
    q = math.prod(data.column(j).observed_levels for j in NodeSubset(parents))
    if q > n:
        warnings.warn(
            f"node {node}: {q} parent configurations exceed {n} rows "
            "(overparameterized fit)",
            ScoringWarning,
            stacklevel=2,
        )
    r = col.observed_levels
    return _categorical_ll(data, node, parents) - 0.5 * (r - 1) * q * math.log(n)


class CoxFits:
    """The Cox fits of one ``learn`` call, so that no model is fitted twice.

    ``fits`` maps (survival column name, parent column names in column
    order) to a converged fit's partial log-likelihood and design width;
    the empty parent tuple holds the null likelihood at width 0.
    :func:`_cox_batches` fills it and counts every model it fits
    (``n_models``), their Newton steps (``n_iterations``) and the fits
    that failed (``n_failed``), which are not kept. Survival screening
    (:func:`bndp.assoc.cox_screen`) fits first, and :func:`cox_bic` then
    fits only the sets the record lacks. The names stand for the columns
    of one dataset (a restriction of it keeps them), so a record must not
    outlive the data it was filled from.
    """

    def __init__(self) -> None:
        self.fits: dict[tuple[str, tuple[str, ...]], tuple[float, int]] = {}
        self.n_models = self.n_iterations = self.n_failed = 0

    @staticmethod
    def key(names: tuple[str, ...], node: int, mask: int) -> tuple[str, tuple[str, ...]]:
        """The record's key of ``node``'s parent set ``mask``, ``names``
        being the dataset's column names."""
        return names[node], tuple(names[j] for j in NodeSubset(mask))

    def add(
        self, names: tuple[str, ...], node: int, masks: list[int], width: int, batch: CoxBatch
    ) -> None:
        """Record one :func:`cox_fit_batch` result over the sets ``masks``."""
        self.n_models += len(masks)
        self.n_iterations += int(batch.iterations.sum())
        self.fits[self.key(names, node, 0)] = (batch.null_log_likelihood, 0)
        for mask, ll, exc in zip(masks, batch.log_likelihood.tolist(), batch.errors):
            if exc is None:
                self.fits[self.key(names, node, mask)] = (ll, width)
            else:
                self.n_failed += 1


def _cox_batches(
    data: Dataset, node: int, masks: list[int], fits: CoxFits
) -> Iterator[tuple[list[int], int, CoxBatch]]:
    """Cox fits of the survival ``node`` on each node set in ``masks``, and
    each fit's sets and design width, ``_COX_CHUNK`` sets of a width per
    :func:`cox_fit_batch`, each recorded in ``fits``. A set's design is its
    nodes' :func:`_regressors` columns, each standardised; a constant
    column (:func:`core._constant`) enters as zeros.
    Fits stop after 50 Newton steps or once no coefficient moves by 1e-8.
    """
    col = data.column(node)
    if col.kind != SURVIVAL:
        raise ScoringError(f"column {col.name!r} is not a survival outcome")
    time, status = col.values.T
    names = data.names
    Z, rows = _regressors(data, {j for mask in masks for j in NodeSubset(mask)})
    varies = ~_constant(Z, axis=1)[:, None]
    sd = Z.std(axis=1, keepdims=True)
    Z = np.divide(Z - Z.mean(axis=1, keepdims=True), sd, out=np.zeros_like(Z), where=varies)
    by_width: dict[int, list[tuple[int, list[int]]]] = {}
    for mask in masks:
        idx = [k for j in NodeSubset(mask) for k in rows[j]]
        by_width.setdefault(len(idx), []).append((mask, idx))
    for width, group in by_width.items():
        for start in range(0, len(group), _COX_CHUNK):
            chunk = group[start : start + _COX_CHUNK]
            idx = np.array([i for _, i in chunk], dtype=int).reshape(len(chunk), width)
            batch = cox_fit_batch(time, status, Z[idx].transpose(1, 0, 2))
            sets = [mask for mask, _ in chunk]
            fits.add(names, node, sets, width, batch)
            yield sets, width, batch


def cox_bic(
    node: int, masks: list[int], data: Dataset, fits: CoxFits | None = None
) -> dict[int, float]:
    """Cox-BIC scores of the survival sink for each parent set in ``masks``.

    A score is the partial log-likelihood at the optimum minus
    (k/2) ln n, k counting the design columns of :func:`_cox_batches`;
    the empty parent set scores the null partial likelihood. The sets
    that ``fits`` lacks are fitted into it (with no record, every set),
    and every score is read from it: the empty set's once any fit of
    ``node`` is recorded. One set's failed fit is not recorded: it scores
    -inf with a warning and leaves the others unchanged.
    """
    fits = CoxFits() if fits is None else fits
    names = data.names
    todo = [mask for mask in masks if fits.key(names, node, mask) not in fits.fits]
    for group, _, batch in _cox_batches(data, node, todo, fits):
        for mask, exc in zip(group, batch.errors):
            if exc is not None:
                warnings.warn(
                    f"Cox fit failed for parents {list(NodeSubset(mask))} of node {node}: {exc}",
                    ScoringWarning,
                    stacklevel=2,
                )
    scores: dict[int, float] = {}
    for mask in masks:
        ll, width = fits.fits.get(fits.key(names, node, mask), (NEG_INF, 0))
        scores[mask] = ll - 0.5 * width * math.log(data.n_rows)
    return scores


class LocalScoreTable:
    """Per-node map from parent-set bitmask to local score."""

    def __init__(self, scores: list[dict[int, float]]):
        self._scores = scores

    @property
    def n_nodes(self) -> int:
        return len(self._scores)

    def score(self, node: int, parents: int) -> float:
        return self._scores[node][parents]

    def subsets(self, node: int) -> dict[int, float]:
        return self._scores[node]

    def entry_count(self) -> int:
        return sum(len(t) for t in self._scores)


# BGe prior scale t = alpha_mu (alpha_w - p - 1) / (alpha_mu + 1) at
# alpha_mu = 1 and alpha_w = p + 2
_BGE_T = 0.5


class _Gram:
    """Gaussian BIC and BGe from log-determinants of one cross-product matrix.

    ``G`` is a ridge times the identity plus the cross-products of the
    centred (:func:`_centred`) regression columns: each column as
    :func:`_regressors` gives it, none for the survival column.
    :meth:`logdets` takes the log-determinants of G's blocks over many
    node sets' columns, one stacked ``slogdet`` per block width, and
    :meth:`scores` turns them into a node's scores as array arithmetic in
    the scalar order of operations: each entry is the float that scoring
    it alone gives.

    Gaussian BIC (ridge 0): on parents S, a node's residual sum of squares
    is ``det G[S + v] / det G[S]``, the centring absorbing the intercept.
    :func:`bic_gaussian` scores instead, in parent-set order, every entry
    of a node whose own sum of squares ``syy`` is zero, and each entry
    whose parent block's determinant is not positive or whose log
    residual is not above ``log(_GRAM_MIN_REL * syy)``, where the
    determinants have lost most of their digits.

    BGe (ridge ``_BGE_T``) has a fixed prior (Geiger & Heckerman 2002,
    *Ann. Statist.*; bnlearn's ``iss.mu = 1``, ``iss.w = p + 2``):
    alpha_mu = 1, alpha_w = p + 2, prior mean at the column means and
    prior scale ``_BGE_T`` times the identity. The prior-mean term is
    then zero, so G is the posterior scale matrix.
    """

    def __init__(self, data: Dataset, family: str):
        self.bge = family == "bge"
        other = [f"{c.name!r} is {c.kind}" for c in data.columns if c.kind != CONTINUOUS]
        if self.bge and other:
            raise ScoringError(f"bge scoring requires all-continuous data; column {other[0]}")
        self.data = data
        R, rows = _regressors(data, [j for j in range(data.p) if j != data.survival_index])
        self.cols = [rows.get(j, []) for j in range(data.p)]  # node -> its columns of G
        M = _centred(R.T)
        self.G = (_BGE_T if self.bge else 0.0) * np.eye(len(R)) + M.T @ M

    def logdets(self, masks: Iterable[int]) -> dict[int, float]:
        """Log-determinant of the block of G over each mask's nodes' columns,
        -inf unless the determinant is positive: the blocks of one width are
        gathered by one fancy index and go to one stacked ``slogdet``."""
        groups: dict[int, dict[int, list[int]]] = {}
        for mask in set(masks) - {0}:
            idx = [k for j in NodeSubset(mask) for k in self.cols[j]]
            groups.setdefault(len(idx), {})[mask] = idx
        out = {0: 0.0}
        for group in groups.values():
            idx = np.array(list(group.values()))
            sign, value = np.linalg.slogdet(self.G[idx[:, :, None], idx[:, None, :]])
            out.update(zip(group, np.where(sign > 0, value, NEG_INF).tolist()))
        return out

    def scores(self, node: int, masks: list[int], logdet: dict[int, float]) -> list[float]:
        """The family's scores of ``node`` on the parent sets ``masks``, from
        the :meth:`logdets` of the sets and their families. For BGe the log
        marginal-likelihood ratio of family and parents, whose multivariate
        gammas leave one gamma each at alpha_mu = 1 and alpha_w = p + 2 (and
        log(alpha_mu) is 0); a non-positive determinant raises."""
        bit, n = 1 << node, self.data.n_rows
        par = np.array([logdet[mask] for mask in masks])
        fam = np.array([logdet[mask | bit] for mask in masks])
        m = np.array([mask.bit_count() for mask in masks])
        if self.bge:
            bad = np.isneginf(fam) | np.isneginf(par)
            if bad.any():
                names = ",".join(map(str, NodeSubset(masks[bad.argmax()] | bit)))
                raise NumericError(f"posterior scale matrix not positive definite for {{{names}}}")
            const = [  # a scalar per parent count, in the one-entry order of operations
                -0.5 * n * math.log(math.pi) - 0.5 * math.log(n + 1)
                + math.lgamma(0.5 * (n + 3 + k)) - math.lgamma(0.5 * (3 + k))
                + 0.5 * (2 * k + 3) * math.log(_BGE_T)
                for k in range(m.max() + 1)
            ]
            return (np.array(const)[m] - 0.5 * (n + 3 + m) * fam + 0.5 * (n + 2 + m) * par).tolist()
        (k,) = self.cols[node]
        syy = self.G[k, k]
        floor = math.log(_GRAM_MIN_REL * syy) if syy > 0 else math.inf
        with np.errstate(invalid="ignore"):  # -inf - -inf: sent to bic_gaussian
            log_rss = fam - par
            ll = -0.5 * n * (math.log(2.0 * math.pi / n) + log_rss + 1.0)
            direct = np.isneginf(par) | ~(log_rss > floor)
        # the regressor columns: one a parent, L - 2 more one of L >= 3 observed levels
        wide = [(j, len(c) - 1) for j, c in enumerate(self.cols) if len(c) > 1]
        width = m + [sum(e for j, e in wide if mask >> j & 1) for mask in masks]
        values = (ll - 0.5 * (width + 2) * math.log(n)).tolist()  # and the intercept and variance
        for i in np.flatnonzero(direct).tolist():
            values[i] = bic_gaussian(node, masks[i], self.data)
        return values


def compute_local_scores(
    data: Dataset,
    constraints: ParentConstraints,
    cfg: ScoreConfig,
    *,
    cox_fits: CoxFits | None = None,
) -> LocalScoreTable:
    """Score every parent subset of every node's possible-parent set.

    Enumeration is truncated at the in-degree bound; scoring failures
    become -inf sentinels so downstream search stays total. A
    possible parent that the parent-kind rule (:func:`core._may_parent`)
    excludes raises ScoringError before any score. ``cox_fits``, the
    record that screening filled on this data (or on data it restricts),
    spares Cox-BIC the fits it holds (:func:`cox_bic`); without it every
    parent set is fitted.
    """
    if constraints.n_nodes != data.p:
        raise ScoringError("constraints and data disagree on the node count")
    for i, pp in enumerate(constraints.pp):
        _check_parents(data, i, pp)
    masks = [list(subsets_up_to(pp, constraints.indegree)) for pp in constraints.pp]
    gram = _Gram(data, cfg.family)  # BGe data is all continuous (_Gram checks)
    gaussian = [i for i, c in enumerate(data.columns) if c.kind == CONTINUOUS]
    logdet = gram.logdets(m | f for i in gaussian for m in masks[i] for f in (0, 1 << i))
    scores: list[dict[int, float]] = []
    for i, kind in enumerate(c.kind for c in data.columns):
        if kind == SURVIVAL:
            scores.append(cox_bic(i, masks[i], data, cox_fits))
        elif kind == CONTINUOUS:
            scores.append(dict(zip(masks[i], gram.scores(i, masks[i], logdet))))
        else:
            table: dict[int, float] = {}
            # a loop: a comprehension is a frame of its own before Python
            # 3.12, which would move the location the warnings report
            for mask in masks[i]:
                table[mask] = bic_categorical(i, mask, data)
            scores.append(table)
    return LocalScoreTable(scores)
