"""Benchmark of ``bndp.learn``: time to the exact optimal network(s).

Usage, from the repository root:

    python3 benchmarks/run.py --workload sweep --seed 5 --seconds 45 --trace 0

Each workload runs in fresh child processes (``worker.py``), one at a
time. With ``--trace 0`` the run starts several set-up-only processes for
``setup_s``, then one process that makes a warm-up call and timed
``learn`` calls for ``--seconds``, and prints the end-to-end metrics.
``learn_s`` is host-normalised: the median over the run's calls of each
call's wall time divided by the host loop time around it
(``hostref.py``), times ``hostref.NOMINAL_S``. On a shared host whose
speed drifts, this spreads across runs much less than any statistic of
the raw wall times (README.md).
With ``--trace 1`` one process alternates traced and untraced calls and
prints the per-layer metrics. Every call is checked against the stored
reference answer (``gate.py``) and classed ``ok``, ``timeout``, ``cap``,
``error`` or ``wrong``. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it, and ``.bench_out/<workload>-s<seed>-t<trace>.json``, record the
environment, the host reference time and every call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

# ``ties`` is not in BENCHMARK.json (README.md) but stays runnable, to measure
# recovery.
WORKLOADS = ("sweep", "ties", "cox")
SETUP_PROCESSES = 5  # set-up-only processes per run, besides the measuring one
HOST_REF_PASSES = 5  # host loop passes before and after the run, for host.ref_s
CALL_LIMIT_S = 60.0  # per learn call (and per set-up); a slower call is a timeout
RUN_LIMIT_S = 170.0  # whole run; a worker still running then is killed

END_TO_END = {"learn_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "ok_frac": "ratio"}
PER_LAYER = {
    "assoc.self_s": "s",
    "assoc.feas_nodes": "count",
    "assoc.pp_bits": "count",
    "assoc.warnings": "count",
    "scoring.self_s": "s",
    "scoring.entries": "count",
    "scoring.warnings": "count",
    "numeric.cox_fit_s": "s",
    "numeric.cox_fits": "count",
    "numeric.cox_iters": "count",
    "numeric.cox_failed": "count",
    "engine.best_parents_s": "s",
    "engine.pools_eager": "count",
    "engine.pools_lazy": "count",
    "engine.best_sinks_s": "s",
    "engine.subsets": "count",
    "engine.subsets_per_s": "1/s",
    "engine.level_max": "count",
    "engine.best_sinks_rss_mb": "MiB",
    "engine.recover_s": "s",
    "engine.recover_paths": "count",
    "engine.networks": "count",
    "engine.cover_parts": "count",
    "setup.import_s": "s",
    "simulate.data_s": "s",
    "trace.learn_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "host.ref_s": "s",
}


def run_worker(
    args: list[str], limit_s: float = CALL_LIMIT_S, end: float = float("inf")
) -> tuple[list[dict], str, float | None]:
    """Run ``worker.py`` with ``args``; returns (events, status, set-up seconds).

    The worker must print an event within ``limit_s`` of the previous one
    and end by ``end`` (a ``perf_counter`` time), or it is killed and the
    status is ``timeout``. Set-up time runs from the spawn to the
    ``ready`` event.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = time.perf_counter()
    # a fixed hash seed, so that every process iterates string sets alike
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    events: list[dict] = []
    setup_s = None
    status = "ok"
    buf = b""
    fd = proc.stdout.fileno()
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            deadline = time.perf_counter() + limit_s
            while True:
                left = min(deadline, end) - time.perf_counter()
                if left <= 0:
                    status = "timeout"
                    break
                if not sel.select(left):
                    continue
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                buf += chunk
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    event = json.loads(line)
                    if event["event"] == "ready":
                        setup_s = time.perf_counter() - t0
                    events.append(event)
                    deadline = time.perf_counter() + limit_s
    finally:
        if proc.poll() is None and status == "timeout":
            proc.kill()
        proc.wait()
        proc.stdout.close()
    last = "ready" if "setup" in args else "done"
    if status == "ok" and (proc.returncode != 0 or not events or events[-1]["event"] != last):
        status = "error"
    return events, status, setup_s


def source_stamp() -> dict:
    """Commit id (None when unknown) and a hash of the package."""
    git = ROOT / ".git"
    commit = None
    if (git / "HEAD").is_file():
        commit = (git / "HEAD").read_text().strip()
        if commit.startswith("ref: "):
            ref = commit[5:]
            commit = None
            if (git / ref).is_file():
                commit = (git / ref).read_text().strip()
            elif (git / "packed-refs").is_file():
                for line in (git / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref):
                        commit = line.split()[0]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bndp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "bndp" / "__init__.py").is_file():
        print(f"no bndp sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2

    end = time.perf_counter() + RUN_LIMIT_S
    ref_times = [hostref.loop_s() for _ in range(HOST_REF_PASSES)]
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    setups: list[float] = []
    calls: list[dict] = []

    def run(mode: str) -> list[dict]:
        events, status, setup_s = run_worker([*common, "--mode", mode], end=end)
        if setup_s is not None:
            setups.append(setup_s)
        calls.extend(e for e in events if e["event"] == "call")
        if status != "ok":
            calls.append({"event": "call", "kind": mode, "outcome": status, "problems": [f"{mode} worker: {status}"]})
        return events

    if args.trace == 0:
        for _ in range(SETUP_PROCESSES):
            run("setup")
        events = run("timed")
    else:
        events = run("traced")
    ref_times += [hostref.loop_s() for _ in range(HOST_REF_PASSES)]

    ready = next((e for e in events if e["event"] == "ready"), {})
    done = next((e for e in events if e["event"] == "done"), {})
    ok = [c for c in calls if c["outcome"] == "ok"]
    failed = [c for c in calls if c["outcome"] != "ok"]
    values: dict[str, float] = {}
    if args.trace == 0:
        timed = [c["learn_s"] / c["host_ref_s"] for c in ok if c["kind"] == "timed"]
        values["ok_frac"] = len(ok) / len(calls)
        if timed:
            values["learn_s"] = statistics.median(timed) * hostref.NOMINAL_S
        if setups:
            values["setup_s"] = statistics.median(setups)
        if "peak_rss_mb" in done:
            values["peak_rss_mb"] = done["peak_rss_mb"]
    else:
        layers = [c["layers"] for c in ok if c["kind"] == "traced"]
        untraced = [c["learn_s"] for c in ok if c["kind"] == "untraced"]
        if layers and untraced:
            # times vary from call to call; counts and the first call's
            # memory growth do not
            best = {"s": min, "1/s": max}
            values = {
                k: best[PER_LAYER[k]](d[k] for d in layers) if PER_LAYER[k] in best else v
                for k, v in layers[0].items()
            }
            values["trace.overhead_s"] = values["trace.learn_s"] - min(untraced)
            values["setup.import_s"] = ready["import_s"]
            values["simulate.data_s"] = ready["data_s"]
            values["host.ref_s"] = statistics.median(ref_times)
    units = PER_LAYER if args.trace else END_TO_END
    correct = not failed and set(values) == set(units)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "source": source_stamp(),
        "env": ready.get("env"),
        "host_ref_s": ref_times,
        "setup_s": setups,
        "calls": [{k: v for k, v in c.items() if k != "event"} for c in calls],
        "spans": done.get("spans"),
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record, indent=1))
    for c in failed:
        print(f"{c['kind']} call {c['outcome']}: {'; '.join(c['problems'])}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("source", "env", "host_ref_s", "setup_s")}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(calls),
                "failed": len(failed),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
