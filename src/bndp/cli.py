"""Command-line interface: learn on real data, simulate benchmarks,
evaluate predictions, and run benchmark sweeps.

Exit codes: 0 success, 2 input error (a usage error such as a malformed
``--effect`` or ``--p-grid``, a malformed CSV or JSON file, an unknown
column, inconsistent options), 3 empty feasible set (no associations at
the cutoff), 4 numeric or search failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import re
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .assoc import AssocError, EmptyFeasSetError, ScreenOptions
from .core import (
    CATEGORICAL,
    CONTINUOUS,
    SURVIVAL,
    Column,
    Dataset,
    Network,
    StructureError,
    _is_names,
)
from .engine import DEFAULT_MAX_SUBSETS, EngineError, LearnResult, learn
from .metrics import DIRECTED, UNDIRECTED, fdr, hamming
from .numeric import NumericError
from .scoring import ScoreConfig, ScoringError
from .simulate import SINK, SimError, SimSpec, simulate_dag, simulate_data

METRICS = ["fdr_directed", "fdr_undirected", "hamming_directed", "hamming_undirected"]
BENCH_HEADER = ["p", "N", "replicate", "score_family", *METRICS, "runtime_ms"]

# defaults for the benchmark sweep; chosen so screened components stay
# small enough for the subset sweep while keeping discoveries plentiful
BENCH_ALPHA = 1e-5


class InputError(ValueError):
    """Malformed file, unknown column, or inconsistent options."""


# ---------------------------------------------------------------- loading


def _read_json(path: str | Path) -> dict:
    """The JSON object in ``path``; InputError if the file holds anything else."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def load_dataset(csv_path: str | Path, schema_path: str | Path | None = None) -> Dataset:
    """Read a header-required CSV with optional column-kind schema.

    The schema maps column names to one of ``continuous``,
    ``categorical``, ``survival_time``, ``survival_status``. Without a
    schema, numeric columns are continuous except that 2 to 10 distinct
    integer values make a column categorical; a constant column stays
    continuous, for screening to drop. Missing cells are rejected.
    """
    path = Path(csv_path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file, header row required") from None
        rows = list(reader)
    if not rows:
        raise InputError(f"{path}: no data rows")
    ncol = len(header)
    raw: list[list[str]] = [[] for _ in range(ncol)]
    for rix, row in enumerate(rows, start=2):
        if len(row) != ncol:
            raise InputError(f"{path}: row {rix} has {len(row)} fields, expected {ncol}")
        for c, cell in enumerate(row):
            if cell == "":
                raise InputError(
                    f"{path}: missing value in column {header[c]!r}, row {rix}"
                )
            raw[c].append(cell)

    schema = _read_json(schema_path) if schema_path is not None else {}
    unknown = set(schema) - set(header)
    if unknown:
        raise InputError(f"schema names absent from the CSV: {sorted(unknown)}")
    kinds = [schema.get(name, "infer") for name in header]
    for name, kind in zip(header, kinds):
        if name in schema and kind not in (
            "continuous", "categorical", "survival_time", "survival_status"
        ):
            raise InputError(f"unknown kind {kind!r} for column {name!r}")
    n_time, n_status = kinds.count("survival_time"), kinds.count("survival_status")
    if n_time > 1 or n_time != n_status:
        raise InputError("survival outcome needs exactly one time and one status column")

    def floats(c: int) -> np.ndarray:
        vals = []
        for row, cell in enumerate(raw[c], start=2):
            try:
                vals.append(float(cell))
            except ValueError as exc:
                raise InputError(
                    f"column {header[c]!r}, row {row}: {cell!r} is not numeric"
                ) from exc
        return np.array(vals)

    columns: list[Column] = []
    for c, (name, kind) in enumerate(zip(header, kinds)):
        if kind == "categorical":
            levels = sorted(set(raw[c]))
            code = {v: k for k, v in enumerate(levels)}
            vals = np.array([code[v] for v in raw[c]], dtype=float)
            columns.append(Column(name, CATEGORICAL, vals, levels=len(levels)))
        elif kind in ("continuous", "infer"):
            vals = floats(c)
            distinct = np.unique(vals) if kind == "infer" else []
            if 2 <= len(distinct) <= 10 and np.all(distinct == np.round(distinct)):
                coded = np.searchsorted(distinct, vals).astype(float)
                columns.append(Column(name, CATEGORICAL, coded, levels=len(distinct)))
            else:
                columns.append(Column(name, CONTINUOUS, vals))

    if n_time:
        tcol, scol = kinds.index("survival_time"), kinds.index("survival_status")
        surv = Column(header[scol], SURVIVAL, np.column_stack([floats(tcol), floats(scol)]))
        columns.insert(min(tcol, scol), surv)

    try:
        return Dataset(columns)
    except StructureError as exc:
        raise InputError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------- writing


def _fmt(x):
    """A CSV cell: floats (numpy ones too) by ``repr``, anything else as is."""
    return repr(float(x)) if isinstance(x, float) else x


def _write_csv(path: str | Path | None, header: list[str], rows) -> None:
    """Write a CSV with newline line ends, to stdout when ``path`` is None."""
    out = contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", newline="")
    with out as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(x) for x in row] for row in rows)


def networks_to_json(result: LearnResult, cfg: ScoreConfig, indegree: int) -> dict:
    names = result.data.names
    nets = []
    for net in result.networks:
        nets.append(
            {
                "total_score": net.total_score,
                "ordering": [names[v] for v in net.ordering],
                "edges": [
                    {"parent": names[a], "child": names[b]} for a, b in net.edges()
                ],
                "parents": {
                    names[i]: sorted(names[j] for j in mask)
                    for i, mask in enumerate(net.parents)
                },
                "node_scores": {
                    names[i]: net.local_scores[i] for i in range(net.n_nodes)
                },
            }
        )
    return {
        "nodes": list(names),
        "score_family": cfg.family,
        "indegree": indegree,
        "truncated": result.truncated,
        "networks": nets,
    }


def network_to_dot(net: Network, names: tuple[str, ...], outcome: str | None) -> str:
    lines = ["digraph network {"]
    for name in names:
        shape = "doublecircle" if name == outcome else "ellipse"
        lines.append(f'  "{name}" [shape={shape}];')
    for a, b in net.edges():
        lines.append(f'  "{names[a]}" -> "{names[b]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def read_edge_names(path: str | Path) -> list[tuple[str, str]]:
    path = Path(path)
    if path.suffix == ".json":
        nets = _read_json(path).get("networks", [])
        if not (isinstance(nets, list) and all(_is_edge_object(net) for net in nets)):
            raise InputError(f'{path}: expected "networks" with "edges" of parent/child names')
        return [(e["parent"], e["child"]) for e in nets[0]["edges"]] if nets else []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["parent", "child"]:
            raise InputError(f"{path}: expected an edge list with header parent,child")
        rows = list(reader)
    for rix, row in enumerate(rows, start=2):
        if row and len(row) != 2:
            raise InputError(f"{path}: row {rix} has {len(row)} fields, expected 2")
    return [(r[0], r[1]) for r in rows if r]


def _is_edge_object(net) -> bool:
    edges = net.get("edges") if isinstance(net, dict) else None
    return isinstance(edges, list) and all(
        isinstance(e, dict) and _is_names([e.get("parent"), e.get("child")]) for e in edges
    )


# ---------------------------------------------------------------- learn


# the flag that sets each ScreenOptions field: the CLI's screening errors
# name flags (_flag_names)
_SCREEN_FLAGS = {"user_pp": "--pp-file", "corr_cutoff": "--corr-cutoff", "top_k": "--top-k",
                 "alpha": "--alpha", "levels": "--levels", "phenotype mode": "--phenotype"}


def _flag_names(exc: AssocError) -> AssocError:
    """``exc`` with each ScreenOptions field named by its flag, of the same type."""
    # a quoted column name matches as a whole and stays as it is
    fields = r"'[^']*'|\b(?:" + "|".join(_SCREEN_FLAGS) + r")\b"
    return type(exc)(re.sub(fields, lambda m: _SCREEN_FLAGS.get(m[0], m[0]), str(exc)))


def _screen_options(
    args: argparse.Namespace,
    default_alpha: float,
    outcome: str | None,
    user_pp: dict[str, list[str]] | None = None,
) -> ScreenOptions:
    """Screening options of ``learn`` and ``bench``; ``default_alpha``
    applies when neither cutoff nor possible-parent sets are given."""
    alpha = args.alpha
    if alpha is None and args.corr_cutoff is None and user_pp is None:
        alpha = default_alpha
    try:
        return ScreenOptions(
            mode="phenotype" if args.phenotype else "all_pairs", alpha=alpha,
            corr_cutoff=args.corr_cutoff, outcome=outcome, levels=args.levels,
            top_k=args.top_k, user_pp=user_pp,
        )
    except AssocError as exc:
        raise _flag_names(exc) from exc


def _require_positive(args: argparse.Namespace, *options: str) -> None:
    """InputError unless each named option is at least 1."""
    for option in options:
        value = getattr(args, option)
        if value < 1:
            raise InputError(f"--{option.replace('_', '-')} must be at least 1, got {value}")


def cmd_learn(args: argparse.Namespace) -> int:
    _require_positive(args, "optima_cap", "max_subsets")
    user_pp = _read_json(args.pp_file) if args.pp_file else None
    opts = _screen_options(args, 0.05, args.outcome, user_pp)
    data = load_dataset(args.data, args.schema)
    cfg = ScoreConfig(family=args.score)
    try:
        result = learn(
            data, opts, cfg, args.indegree, optima_cap=args.optima_cap,
            max_subsets=args.max_subsets,
        )
    except AssocError as exc:
        raise _flag_names(exc) from exc
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    doc = networks_to_json(result, cfg, args.indegree)
    (outdir / "networks.json").write_text(json.dumps(doc, indent=2) + "\n")

    outcome = args.outcome
    if outcome is None and result.data.survival_index is not None:
        outcome = result.data.column(result.data.survival_index).name
    for k, net in enumerate(result.networks):
        dot = network_to_dot(net, result.data.names, outcome)
        (outdir / f"network_{k:03d}.dot").write_text(dot)

    (outdir / "report.json").write_text(json.dumps(result.report, indent=2) + "\n")
    best = result.networks[0]
    print(
        f"learned {len(result.networks)} optimal network(s); "
        f"score {best.total_score:.6f}; feasible set {result.data.p} node(s); "
        f"wrote {outdir}/networks.json"
    )
    return 0


# ------------------------------------------------------------- simulate


def _default_roles(p: int) -> tuple[int, int, int, int]:
    p0 = round(0.2 * p)
    rest = p - p0
    base, rem = divmod(rest, 3)
    p1 = base + (1 if rem > 0 else 0)
    p2 = base + (1 if rem > 1 else 0)
    p3 = base
    if rest > 1 and p3 == 0:
        # tiny graphs still need a sink (and a source feeding it); a
        # single connected node is a lone source
        p1 = max(p1, 1)
        p3 = max(rest - p1 - p2, 1)
        p2 = rest - p1 - p3
    return p0, p1, p2, p3


def _sim_spec(
    args: argparse.Namespace,
    p: int,
    n: int,
    seed: int,
    roles: tuple[int, int, int, int] | None = None,
) -> SimSpec:
    """The simulation spec of ``simulate`` and of each ``bench`` replicate.

    ``roles`` defaults to :func:`_default_roles`.
    """
    return SimSpec(
        p,
        *(roles or _default_roles(p)),
        n=n,
        effect_size=args.effect,
        noise_sd=args.noise_sd,
        max_parents=args.max_parents,
        seed=seed,
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    roles = (args.p0, args.p1, args.p2, args.p3)
    if None in roles and any(r is not None for r in roles):
        raise InputError("--p0, --p1, --p2 and --p3 go together: give all four or none")
    spec = _sim_spec(args, args.p, args.n, args.seed, None if None in roles else roles)
    dag = simulate_dag(spec)
    data = simulate_data(dag, spec)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    names = data.names
    columns = [data.column(i).values for i in range(data.p)]
    _write_csv(outdir / "data.csv", names, zip(*columns))
    _write_csv(
        outdir / "truth_edges.csv",
        ["parent", "child"],
        [(names[a], names[b]) for a, b in dag.edges()],
    )
    meta = {
        "spec": dataclasses.asdict(spec),
        "names": list(names),
        "roles": list(dag.roles),
        "order": [int(v) for v in dag.order],
    }
    (outdir / "sim_meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    print(f"simulated {spec.n}x{spec.p} dataset with {len(dag.edges())} true edges in {outdir}")
    return 0


# ----------------------------------------------------------------- eval


def _edges_to_masks(
    edges: list[tuple[str, str]], universe: dict[str, int]
) -> list[int]:
    masks = [0] * len(universe)
    for parent, child in edges:
        if parent not in universe or child not in universe:
            raise InputError(
                f"node-name mismatch: edge {parent!r} -> {child!r} "
                "references a node outside the universe"
            )
        masks[universe[child]] |= 1 << universe[parent]
    return masks


def _load_universe(args: argparse.Namespace, *edge_lists) -> dict[str, int]:
    if args.nodes:
        path = Path(args.nodes)
        if path.suffix == ".json":
            names = _read_json(path).get("names")
            if not _is_names(names):
                raise InputError(f'{path}: expected a "names" list of strings')
        else:
            names = [ln.strip() for ln in path.read_text().splitlines() if ln.strip()]
        repeated = sorted(name for name, count in Counter(names).items() if count > 1)
        if repeated:
            raise InputError(f"{path}: node names listed more than once: {repeated}")
    else:
        names = sorted({v for edges in edge_lists for edge in edges for v in edge})
    return {name: i for i, name in enumerate(names)}


def metrics_row(pred_masks: list[int], true_masks: list[int]) -> dict[str, float]:
    values = [
        metric(pred_masks, true_masks, mode)
        for metric in (fdr, hamming)
        for mode in (DIRECTED, UNDIRECTED)
    ]
    return dict(zip(METRICS, values))


def cmd_eval(args: argparse.Namespace) -> int:
    predicted = read_edge_names(args.predicted)
    truth = read_edge_names(args.truth)
    universe = _load_universe(args, predicted, truth)
    row = metrics_row(
        _edges_to_masks(predicted, universe), _edges_to_masks(truth, universe)
    )
    _write_csv(args.out or None, METRICS, [[row[m] for m in METRICS]])
    return 0


# ---------------------------------------------------------------- bench


def _bench_one(
    args: argparse.Namespace, spec: SimSpec, replicate: int
) -> tuple[dict | None, str | None]:
    """One benchmark replicate; returns (row or None, error or None)."""
    dag = simulate_dag(spec)
    data = simulate_data(dag, spec)
    outcome = None
    if args.phenotype:
        sinks = [i for i, r in enumerate(dag.roles) if r == SINK]
        if not sinks:
            return None, "no sink node available for phenotype mode"
        outcome = data.names[sinks[0]]
    opts = _screen_options(args, BENCH_ALPHA, outcome)
    cfg = ScoreConfig(family=args.score)
    t0 = time.perf_counter()
    try:
        result = learn(data, opts, cfg, args.indegree, max_subsets=args.max_subsets)
    except (AssocError, NumericError, EngineError, ScoringError) as exc:
        return None, f"{type(exc).__name__}: {exc}"
    runtime_ms = (time.perf_counter() - t0) * 1000.0

    names = result.data.names
    pred_masks = _edges_to_masks(
        [(names[a], names[b]) for a, b in result.networks[0].edges()],
        {name: i for i, name in enumerate(data.names)},
    )
    row = metrics_row(pred_masks, [int(m) for m in dag.parents])
    row.update(
        p=spec.p,
        N=spec.n,
        replicate=replicate,
        score_family=args.score,
        runtime_ms=round(runtime_ms, 3),
    )
    return row, None


def cmd_bench(args: argparse.Namespace) -> int:
    _require_positive(args, "max_subsets", "threads", "replicates")
    specs, reps = [], []
    for ci, p in enumerate(args.p_grid):
        for cj, n in enumerate(args.n_grid):
            for rep in range(args.replicates):
                seed = args.seed + 7919 * (ci * len(args.n_grid) + cj) + rep
                specs.append(_sim_spec(args, p, n, seed))
                reps.append(rep)

    run = functools.partial(_bench_one, args)
    if args.threads > 1:
        with ProcessPoolExecutor(max_workers=args.threads) as pool:
            results = list(pool.map(run, specs, reps))
    else:
        results = list(map(run, specs, reps))

    rows = []
    for spec, rep, (row, err) in zip(specs, reps, results):
        if err is not None:
            print(
                f"replicate failed (p={spec.p}, N={spec.n}, rep={rep}): {err}",
                file=sys.stderr,
            )
            continue
        rows.append(row)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, BENCH_HEADER, [[row[h] for h in BENCH_HEADER] for row in rows])

    cells = sorted({(p, n) for p in args.p_grid for n in args.n_grid})
    summary = _summarize(rows, cells, args.replicates)
    if args.summary:
        header = ["p", "N", "n_ok", "n_failed"]
        header += [f"{m}_{s}" for m in METRICS for s in ("mean", "sd")]
        _write_csv(args.summary, header, summary)
    for line in summary:
        print(
            f"p={line[0]:>4} N={line[1]:>5} ok={line[2]:>3} failed={line[3]:>3} "
            f"fdr_dir={line[4]:.3f}±{line[5]:.3f} fdr_und={line[6]:.3f}±{line[7]:.3f} "
            f"ham_dir={line[8]:.1f}±{line[9]:.1f} ham_und={line[10]:.1f}±{line[11]:.1f}"
        )
    return 0


def _summarize(rows: list[dict], cells: list[tuple[int, int]], replicates: int) -> list[list]:
    """Finished and failed replicates and the mean and sd of each metric
    over the finished ones, per (p, N) cell, then over all cells; a cell
    with no finished replicate reads n_ok 0 and nan."""
    groups = [(cell, [r for r in rows if (r["p"], r["N"]) == cell], replicates) for cell in cells]
    out = []
    for (p, n), group, planned in groups + [(("all", "all"), rows, replicates * len(cells))]:
        line: list = [p, n, len(group), planned - len(group)]
        for m in METRICS:
            vals = np.array([g[m] for g in group], dtype=float)
            if group:
                line += [round(float(vals.mean()), 6), round(float(vals.std()), 6)]
            else:
                line += [np.nan, np.nan]
        out.append(line)
    return out


# ----------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    # argparse names a type function in its usage error ("invalid effect value")
    def effect(text: str) -> float | tuple[float, ...]:
        """A fixed effect size or a ``low,high`` range."""
        vals = tuple(float(x) for x in text.split(","))
        if len(vals) > 2:
            raise ValueError(text)
        return vals[0] if len(vals) == 1 else vals

    def grid(text: str) -> list[int]:
        return [int(x) for x in text.split(",")]

    parser = argparse.ArgumentParser(
        prog="bndp",
        description="Optimal Bayesian-network structure learning via "
        "generational-ordering dynamic programming",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options of learn and bench: screening, score and search
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--score", choices=["bic", "bge"], default="bic")
    search.add_argument("--alpha", type=float, help="BH-adjusted p-value cutoff")
    search.add_argument("--corr-cutoff", type=float, help="absolute-correlation cutoff")
    search.add_argument("--phenotype", action="store_true", help="phenotype-driven screening")
    search.add_argument("--levels", type=int, choices=[2, 3], help="phenotype only (default 3)")
    search.add_argument("--top-k", type=int, help="keep only the k best level-1 parents")
    search.add_argument("--indegree", type=int, default=2)
    search.add_argument("--max-subsets", type=int, default=DEFAULT_MAX_SUBSETS)

    # options of simulate and bench: the simulated data
    sim = argparse.ArgumentParser(add_help=False)
    sim.add_argument("--effect", type=effect, default="0.5,1.5", help="fixed value or low,high range")
    sim.add_argument("--noise-sd", type=float, default=1.0)
    sim.add_argument("--max-parents", type=int, default=2)
    sim.add_argument("--seed", type=int, default=0)

    pl = sub.add_parser("learn", parents=[search], help="learn optimal networks from a CSV dataset")
    pl.add_argument("--data", required=True, help="input CSV with header row")
    pl.add_argument("--schema", help="column-kind schema JSON")
    pl.add_argument("--out", required=True, help="output directory")
    pl.add_argument("--outcome", help="outcome column name")
    pl.add_argument("--pp-file", help="JSON possible-parent sets (skips screening)")
    pl.add_argument("--optima-cap", type=int, default=32)
    pl.set_defaults(func=cmd_learn)

    ps = sub.add_parser("simulate", parents=[sim], help="generate a synthetic dataset + truth graph")
    ps.add_argument("--p", type=int, required=True)
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--p0", type=int)
    ps.add_argument("--p1", type=int)
    ps.add_argument("--p2", type=int)
    ps.add_argument("--p3", type=int)
    ps.add_argument("--out", required=True, help="output directory")
    ps.set_defaults(func=cmd_simulate)

    pe = sub.add_parser("eval", help="score a predicted graph against the truth")
    pe.add_argument("--predicted", required=True, help="edge CSV or networks.json")
    pe.add_argument("--truth", required=True, help="edge CSV")
    pe.add_argument("--nodes", help="node universe (text, or sim_meta.json)")
    pe.add_argument("--out", help="write the metrics row here instead of stdout")
    pe.set_defaults(func=cmd_eval)

    pb = sub.add_parser(
        "bench", parents=[search, sim], help="simulate/learn/eval sweep over a grid"
    )
    pb.add_argument("--p-grid", type=grid, default="10,20,40")
    pb.add_argument("--n-grid", type=grid, default="500,1000,2000")
    pb.add_argument("--replicates", type=int, default=20)
    pb.add_argument("--threads", type=int, default=1)
    pb.add_argument("--out", default="bench.csv")
    pb.add_argument("--summary", default="bench_summary.csv")
    pb.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EmptyFeasSetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (
        InputError,
        StructureError,
        AssocError,
        SimError,
        ScoringError,
        OSError,
        UnicodeDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
