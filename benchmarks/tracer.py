"""Spans and counts around the stages of ``bndp.learn``, taken from outside.

``learn`` resolves its five stage functions as ``bndp.engine`` module
attributes at call time, and the Cox callers resolve ``cox_fit`` as an
attribute of ``bndp.assoc`` and ``bndp.scoring``. The tracer swaps those
attributes for timing wrappers while it is installed, so the real
``learn`` runs unchanged. Spans stay in memory; counts are read from the
objects the wrapped calls return, and the costly ones are computed after
the traced call ends so they do not count as traced time.
"""

from __future__ import annotations

import functools
import resource
import time
import warnings
from collections import Counter

import bndp.assoc
import bndp.engine
import bndp.scoring

STAGES = ("build_constraints", "compute_local_scores", "best_parents", "best_sinks", "recover_networks")
_WARN_STAGES = {"build_constraints", "compute_local_scores"}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def recover_paths(bst, bpt, constraints, cover) -> int:
    """Sink-peeling paths through the best-sink table over ``cover``.

    Paths of W: the sum over best sinks s of W of the number of best
    parent sets of s within ``pp[s] & (W - s)`` times the paths of W - s.
    Cover parts combine as a product.
    """
    pp = [int(m) for m in constraints.pp]
    memo = {0: 1}

    def paths(w: int) -> int:
        if w not in memo:
            total = 0
            for s in bst.sinks(w):
                prev = w ^ (1 << s)
                total += len(bpt.best_subsets(s, pp[s] & prev)) * paths(prev)
            memo[w] = total
        return memo[w]

    product = 1
    for w in cover:
        product *= paths(int(w))
    return product


class Tracer:
    """Records one traced ``learn`` call at a time.

    ``on_stage`` is called with the counts so far after each stage ends,
    so a caller can stream them before a later stage hangs.
    """

    def __init__(self, on_stage=None):
        self._on_stage = on_stage
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict = {}
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._objects: dict = {}

    def install(self) -> None:
        for name in STAGES:
            self._patch(bndp.engine, name)
        self._patch(bndp.assoc, "cox_fit")
        self._patch(bndp.scoring, "cox_fit")

    def uninstall(self) -> None:
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    def _patch(self, module, name: str) -> None:
        orig = getattr(module, name)
        self._originals[name] = orig
        before = getattr(self, f"_before_{name}", None)
        after = getattr(self, f"_after_{name}")
        catch = name in _WARN_STAGES

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            state = before(*args) if before else None
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None])
            self._stack.append(idx)
            self.spans[idx][1] = time.perf_counter()
            try:
                if catch:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        out = orig(*args, **kwargs)
                else:
                    out = orig(*args, **kwargs)
            except Exception:
                self.counts[f"{name}.raised"] += 1
                raise
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
                if catch:
                    for w in caught:  # hand them on to learn's own record
                        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
                    self.counts[f"{name}.warnings"] = len(caught)
            after(state, args, out)
            if self._on_stage is not None and name in STAGES:
                self._on_stage(dict(self.counts))
            return out

        setattr(module, name, wrapper)
        self._patched.append((module, name, orig))

    def _after_build_constraints(self, state, args, out) -> None:
        constraints, _ = out
        self.counts["assoc.feas_nodes"] = constraints.n_nodes
        self.counts["assoc.pp_bits"] = sum(int(m).bit_count() for m in constraints.pp)

    def _after_compute_local_scores(self, state, args, out) -> None:
        self.counts["scoring.entries"] = out.entry_count()

    def _after_cox_fit(self, state, args, out) -> None:
        self.counts["numeric.cox_fits"] += 1
        self.counts["numeric.cox_iters"] += out.iterations

    def _after_best_parents(self, state, args, out) -> None:
        self.counts["engine.pools_eager"] = out.pool_count()

    def _before_best_sinks(self, bpt, *rest):
        return bpt.pool_count(), _maxrss_mb()

    def _after_best_sinks(self, state, args, out) -> None:
        pools, rss = state
        self.counts["engine.pools_lazy"] = args[0].pool_count() - pools
        self.counts["engine.best_sinks_rss_mb"] = _maxrss_mb() - rss
        self.counts["engine.subsets"] = out.n_subsets

    def _before_recover_networks(self, bst, bpt, constraints, local, *rest, **kwargs):
        if self._on_stage is not None:
            # Streamed before recovery starts, in case recovery never ends.
            # With cap=0 recovery returns its chosen cover at the first network.
            cover = self._originals["recover_networks"](bst, bpt, constraints, local, cap=0).covered
            self.counts["engine.recover_paths"] = recover_paths(bst, bpt, constraints, cover)
            self._on_stage(dict(self.counts))

    def _after_recover_networks(self, state, args, out) -> None:
        self.counts["engine.networks"] = len(out.networks)
        self.counts["engine.cover_parts"] = len(out.covered)
        self._objects["recover"] = (args[:3], out.covered)

    def trace_learn(self, *args, **kwargs):
        """Run ``bndp.learn`` traced; returns ``(result, per-layer metrics)``."""
        self.reset()
        self.install()
        try:
            t0 = time.perf_counter()
            result = bndp.engine.learn(*args, **kwargs)
            learn_s = time.perf_counter() - t0
        finally:
            self.uninstall()
        return result, self._layers(learn_s)

    def _layers(self, learn_s: float) -> dict:
        """Per-layer metrics of the call just traced."""
        dur = [end - start for _, start, end, _ in self.spans]
        own = list(dur)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent is not None:
                own[parent] -= dur[i]
        total, self_s = Counter(), Counter()
        for i, (name, *_rest) in enumerate(self.spans):
            total[name] += dur[i]
            self_s[name] += own[i]
        c = self.counts
        (bst, bpt, constraints), cover = self._objects["recover"]
        levels = Counter(int(w).bit_count() for w in bst.entries)
        return {
            "assoc.self_s": self_s["build_constraints"],
            "assoc.feas_nodes": c["assoc.feas_nodes"],
            "assoc.pp_bits": c["assoc.pp_bits"],
            "assoc.warnings": c["build_constraints.warnings"],
            "scoring.self_s": self_s["compute_local_scores"],
            "scoring.entries": c["scoring.entries"],
            "scoring.warnings": c["compute_local_scores.warnings"],
            "numeric.cox_fit_s": total["cox_fit"],
            "numeric.cox_fits": c["numeric.cox_fits"],
            "numeric.cox_iters": c["numeric.cox_iters"],
            "numeric.cox_failed": c["cox_fit.raised"],
            "engine.best_parents_s": total["best_parents"],
            "engine.pools_eager": c["engine.pools_eager"],
            "engine.pools_lazy": c["engine.pools_lazy"],
            "engine.best_sinks_s": total["best_sinks"],
            "engine.subsets": c["engine.subsets"],
            "engine.subsets_per_s": c["engine.subsets"] / total["best_sinks"],
            "engine.level_max": max(levels.values()),
            "engine.best_sinks_rss_mb": c["engine.best_sinks_rss_mb"],
            "engine.recover_s": total["recover_networks"],
            "engine.recover_paths": recover_paths(bst, bpt, constraints, cover),
            "engine.networks": c["engine.networks"],
            "engine.cover_parts": c["engine.cover_parts"],
            "trace.learn_s": learn_s,
            "trace.coverage": sum(total[s] for s in STAGES) / learn_s,
        }
