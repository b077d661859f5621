"""Decomposable local scores: Gaussian BIC, categorical BIC, BGe, Cox-BIC.

All scores are oriented so that higher is better. Degenerate fits become
a -inf sentinel, an ordinary table value, so the dynamic program never
needs special cases.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    CATEGORICAL,
    CONTINUOUS,
    SURVIVAL,
    Dataset,
    NodeSubset,
    ParentConstraints,
    subsets_up_to,
)
from .numeric import NumericError, cox_fit_batch, least_squares, log_mvgamma

# ``cox_fit`` stays a name in this module: the benchmark tracer
# (benchmarks/tracer.py) wraps ``bndp.scoring.cox_fit`` by name.
from .numeric import cox_fit  # noqa: F401

NEG_INF = float("-inf")

# relative residual-variance floor below which a Gaussian fit is degenerate
_DEGENERATE_REL = 1e-12
# the normal equations lose about log10(syy / rss) of their ~16 digits;
# below this residual share the direct least-squares path scores the fit
_GRAM_MIN_REL = 1e-6


class ScoringError(ValueError):
    """Score family is incompatible with the data or hyperparameters."""


class ScoringWarning(UserWarning):
    """Non-fatal scoring issue (degenerate fit, overparameterized table)."""


@dataclass(frozen=True)
class ScoreConfig:
    """Score family selection plus BGe hyperparameters.

    BGe defaults follow common software practice: ``alpha_mu = 1``,
    ``alpha_w = p + 2``, prior mean at the per-column sample mean, and
    prior scale ``t = alpha_mu * (alpha_w - p - 1) / (alpha_mu + 1)``
    times the identity.
    """

    family: str = "bic"
    alpha_mu: float = 1.0
    alpha_w: float | None = None
    prior_mean: np.ndarray | None = None
    prior_scale_t: float | None = None

    def __post_init__(self) -> None:
        if self.family not in ("bic", "bge"):
            raise ScoringError(f"unknown score family {self.family!r}")
        if self.alpha_mu <= 0:
            raise ScoringError("alpha_mu must be positive")


class _BgeState:
    """Posterior scale matrix and constants shared by all BGe lookups."""

    def __init__(self, data: Dataset, cfg: ScoreConfig):
        for c in data.columns:
            if c.kind != CONTINUOUS:
                raise ScoringError(
                    f"bge scoring requires all-continuous data; column "
                    f"{c.name!r} is {c.kind}"
                )
        X = np.column_stack([c.values for c in data.columns]).astype(float)
        n, p = X.shape
        self.n = n
        self.p = p
        self.alpha_mu = cfg.alpha_mu
        self.alpha_w = cfg.alpha_w if cfg.alpha_w is not None else p + 2.0
        if self.alpha_w <= p + 1:
            raise ScoringError(f"alpha_w must exceed p + 1 = {p + 1}, got {self.alpha_w}")
        if cfg.prior_scale_t is not None:
            self.t = cfg.prior_scale_t
        else:
            self.t = self.alpha_mu * (self.alpha_w - p - 1.0) / (self.alpha_mu + 1.0)
        if self.t <= 0:
            raise ScoringError("prior scale t must be positive")
        mean = X.mean(axis=0)
        mu0 = mean if cfg.prior_mean is None else np.asarray(cfg.prior_mean, dtype=float)
        if mu0.shape != (p,):
            raise ScoringError("prior mean vector length must match the column count")
        centered = X - mean
        d = (mean - mu0)[:, None]
        self.R = (
            self.t * np.eye(p)
            + centered.T @ centered
            + (n * self.alpha_mu / (n + self.alpha_mu)) * (d @ d.T)
        )
        self._marg_cache: dict[int, float] = {0: 0.0}

    def log_marginal(self, mask: int) -> float:
        """Log marginal likelihood of the columns in ``mask``."""
        cached = self._marg_cache.get(mask)
        if cached is not None:
            return cached
        idx = list(NodeSubset(mask))
        l = len(idx)
        n, p = self.n, self.p
        a_post = 0.5 * (n + self.alpha_w - p + l)
        a_prior = 0.5 * (self.alpha_w - p + l)
        sign, logdet = np.linalg.slogdet(self.R[np.ix_(idx, idx)])
        if sign <= 0:
            names = ",".join(map(str, idx))
            raise NumericError(f"posterior scale matrix not positive definite for {{{names}}}")
        value = (
            -0.5 * n * l * math.log(math.pi)
            + 0.5 * l * (math.log(self.alpha_mu) - math.log(n + self.alpha_mu))
            + log_mvgamma(a_post, l)
            - log_mvgamma(a_prior, l)
            + a_prior * l * math.log(self.t)
            - a_post * logdet
        )
        self._marg_cache[mask] = value
        return value


def _centred(M: np.ndarray) -> np.ndarray:
    """Columns shifted by their first row, then centred: a constant column
    becomes exact zeros, and a large mean costs no digits."""
    M = M - M[0]
    return M - M.mean(axis=0)


def bic_gaussian(node: int, parents: int, data: Dataset) -> float:
    """Gaussian BIC local score: LL - (k/2) ln n with k = |parents| + 2.

    Parents enter as regressors with an intercept, on centred columns as
    in the Gram path; categorical parents are integer-coded. A (near-)zero
    residual variance yields the -inf sentinel with a warning.
    """
    n = data.n_rows
    M = _centred(np.column_stack([data.numeric_values(j) for j in (node, *NodeSubset(parents))]))
    y = M[:, 0]
    fit = least_squares(y, np.column_stack([np.ones(n), M[:, 1:]]))
    var_y = float(y.var())
    sigma2 = fit.rss / n
    if sigma2 <= _DEGENERATE_REL * max(var_y, 1e-300):
        warnings.warn(
            f"degenerate Gaussian fit for node {node} (zero residual variance)",
            ScoringWarning,
            stacklevel=2,
        )
        return NEG_INF
    k = NodeSubset(parents).count() + 2
    return fit.log_likelihood - 0.5 * k * math.log(n)


def bic_categorical(node: int, parents: int, data: Dataset) -> float:
    """Multinomial BIC local score for a categorical node.

    Penalty counts (r - 1) * q free parameters, q being the product of
    the parent level counts; parent configurations with no observations
    contribute nothing to the log-likelihood.
    """
    col = data.column(node)
    if col.kind != CATEGORICAL:
        raise ScoringError(f"node {node} is not categorical")
    n = data.n_rows
    r = col.levels
    q = 1
    codes = np.zeros(n, dtype=np.int64)
    for j in NodeSubset(parents):
        pc = data.column(j)
        if pc.kind != CATEGORICAL:
            raise ScoringError(f"categorical node {node} needs categorical parents")
        codes = codes * pc.levels + pc.values.astype(np.int64)
        q *= pc.levels
    if q > n:
        warnings.warn(
            f"node {node}: {q} parent configurations exceed {n} rows "
            "(overparameterized fit)",
            ScoringWarning,
            stacklevel=2,
        )
    joint = codes * r + col.values.astype(np.int64)
    _, joint_counts = np.unique(joint, return_counts=True)
    _, config_counts = np.unique(codes, return_counts=True)
    ll = float(joint_counts @ np.log(joint_counts)) - float(
        config_counts @ np.log(config_counts)
    )
    return ll - 0.5 * (r - 1) * q * math.log(n)


def bge_local(
    node: int,
    parents: int,
    data: Dataset,
    cfg: ScoreConfig | None = None,
    _state: _BgeState | None = None,
) -> float:
    """BGe local score: log marginal-likelihood ratio of family vs parents."""
    state = _state if _state is not None else _BgeState(data, cfg or ScoreConfig(family="bge"))
    family = parents | (1 << node)
    return state.log_marginal(family) - state.log_marginal(parents)


def cox_bic(node: int, parents: int, data: Dataset) -> float:
    """Cox-BIC local score for the survival sink: a batch of one.

    Partial log-likelihood at the optimum minus (|parents|/2) ln n; the
    empty parent set scores the null partial likelihood. A failed fit
    yields the -inf sentinel with a warning.
    """
    return _cox_bic_scores(node, [parents], data)[parents]


def _cox_bic_scores(node: int, masks: list[int], data: Dataset) -> dict[int, float]:
    """Cox-BIC scores of the survival sink for each parent set in ``masks``.

    The sets of one size are fitted together by :func:`cox_fit_batch`.
    Parents are standardised, and a constant parent enters as a zero
    column. One set's failed fit scores -inf with a warning and leaves
    the others unchanged.
    """
    col = data.column(node)
    if col.kind != SURVIVAL:
        raise ScoringError(f"node {node} is not the survival column")
    time = col.values[:, 0]
    status = col.values[:, 1]
    n = data.n_rows
    members = sorted({j for mask in masks for j in NodeSubset(mask)})
    row = {j: r for r, j in enumerate(members)}
    Z = np.zeros((len(members), n))
    for j in members:
        x = data.numeric_values(j)
        sd = x.std()
        if sd > 0:
            Z[row[j]] = (x - x.mean()) / sd
    by_size: dict[int, list[int]] = {}
    for mask in masks:
        by_size.setdefault(NodeSubset(mask).count(), []).append(mask)
    scores: dict[int, float] = {}
    for size, group in by_size.items():
        sets = np.array([[row[j] for j in NodeSubset(mask)] for mask in group], dtype=int)
        batch = cox_fit_batch(time, status, Z[sets.T])
        for mask, ll, exc in zip(group, batch.log_likelihood, batch.errors):
            if exc is None:
                scores[mask] = float(ll) - 0.5 * size * math.log(n)
            else:
                warnings.warn(
                    f"Cox fit failed for parents {list(NodeSubset(mask))} of node {node}: {exc}",
                    ScoringWarning,
                    stacklevel=2,
                )
                scores[mask] = NEG_INF
    return {mask: scores[mask] for mask in masks}


class LocalScoreTable:
    """Per-node map from parent-set bitmask to local score."""

    def __init__(
        self,
        scores: list[dict[int, float]],
        node_names: tuple[str, ...],
        indegree: int,
        family: str,
    ):
        self._scores = scores
        self.node_names = node_names
        self.indegree = indegree
        self.family = family

    @property
    def n_nodes(self) -> int:
        return len(self._scores)

    def score(self, node: int, parents: int) -> float:
        return self._scores[node][parents]

    def subsets(self, node: int) -> dict[int, float]:
        return self._scores[node]

    def empty_score(self, node: int) -> float:
        return self._scores[node][0]

    def entry_count(self) -> int:
        return sum(len(t) for t in self._scores)

    def to_json(self) -> str:
        entries = []
        for i, table in enumerate(self._scores):
            for mask, value in sorted(table.items()):
                entries.append(
                    {
                        "node": self.node_names[i],
                        "parents": sorted(self.node_names[j] for j in NodeSubset(mask)),
                        "score": value,
                    }
                )
        return json.dumps(
            {
                "nodes": list(self.node_names),
                "indegree": self.indegree,
                "family": self.family,
                "entries": entries,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "LocalScoreTable":
        doc = json.loads(text)
        names = tuple(doc["nodes"])
        index = {name: i for i, name in enumerate(names)}
        scores: list[dict[int, float]] = [{} for _ in names]
        for entry in doc["entries"]:
            mask = 0
            for parent in entry["parents"]:
                mask |= 1 << index[parent]
            scores[index[entry["node"]]][mask] = float(entry["score"])
        return cls(scores, names, int(doc["indegree"]), doc["family"])


def _gaussian_gram_scores(
    data: Dataset, constraints: ParentConstraints, nodes: list[int]
) -> list[dict[int, float]]:
    """BIC scores for continuous nodes via normal equations on one Gram matrix.

    Columns are centred (:func:`_centred`), which absorbs the intercept.
    A fit whose residual is within rounding of zero (or whose parents are
    collinear) is scored by :func:`bic_gaussian` instead, so results
    match it.
    """
    n = data.n_rows
    p = data.p
    M = np.zeros((n, p))
    for j in range(p):
        if data.column(j).kind != SURVIVAL:
            M[:, j] = data.numeric_values(j)
    M = _centred(M)
    G = M.T @ M
    log_n = math.log(n)
    d = constraints.indegree
    out: list[dict[int, float]] = [{} for _ in range(p)]
    for i in nodes:
        syy = G[i, i]
        table: dict[int, float] = {}
        for mask in subsets_up_to(constraints.pp[i], d):
            cols = list(NodeSubset(mask))
            rss = syy
            if cols:
                try:
                    z = np.linalg.solve(np.linalg.cholesky(G[np.ix_(cols, cols)]), G[cols, i])
                    rss -= float(z @ z)
                except np.linalg.LinAlgError:
                    rss = 0.0
            if rss <= _GRAM_MIN_REL * syy:
                table[mask] = bic_gaussian(i, mask, data)
                continue
            ll = -0.5 * n * (math.log(2.0 * math.pi * rss / n) + 1.0)
            table[mask] = ll - 0.5 * (len(cols) + 2) * log_n
        out[i] = table
    return out


def compute_local_scores(
    data: Dataset, constraints: ParentConstraints, cfg: ScoreConfig
) -> LocalScoreTable:
    """Score every parent subset of every node's possible-parent set.

    Enumeration is truncated at the in-degree bound; scoring failures
    become -inf sentinels so downstream search stays total.
    """
    if constraints.n_nodes != data.p:
        raise ScoringError("constraints and data disagree on the node count")
    p = data.p
    d = constraints.indegree
    if data.survival_index is not None:
        surv_bit = 1 << data.survival_index
        if any(mask & surv_bit for mask in constraints.pp):
            raise ScoringError("the survival column can only be a sink, never a parent")
    scores: list[dict[int, float]] = [{} for _ in range(p)]

    bge_state = _BgeState(data, cfg) if cfg.family == "bge" else None
    gaussian_nodes = [
        i
        for i in range(p)
        if cfg.family == "bic" and data.column(i).kind == CONTINUOUS
    ]
    if gaussian_nodes:
        gram = _gaussian_gram_scores(data, constraints, gaussian_nodes)
        for i in gaussian_nodes:
            scores[i] = gram[i]

    for i in range(p):
        if scores[i]:
            continue
        kind = data.column(i).kind
        masks = list(subsets_up_to(constraints.pp[i], d))
        if kind == SURVIVAL:
            scores[i] = _cox_bic_scores(i, masks, data)
            continue
        for mask in masks:
            scores[i][mask] = _score_one(i, mask, kind, data, cfg, bge_state)
    return LocalScoreTable(scores, data.names, d, cfg.family)


def _score_one(
    node: int,
    mask: int,
    kind: str,
    data: Dataset,
    cfg: ScoreConfig,
    bge_state: _BgeState | None,
) -> float:
    if cfg.family == "bge":
        return bge_local(node, mask, data, cfg, _state=bge_state)
    if kind == CONTINUOUS:
        return bic_gaussian(node, mask, data)
    # categorical node: only categorical parents are supported
    for j in NodeSubset(mask):
        if data.column(j).kind != CATEGORICAL:
            warnings.warn(
                f"categorical node {node} cannot take non-categorical parent {j}; "
                "scored as -inf",
                ScoringWarning,
                stacklevel=3,
            )
            return NEG_INF
    return bic_categorical(node, mask, data)
