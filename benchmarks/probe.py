"""Known-failure probe: workloads the timed benchmark cannot run today.

``sim24/s1`` hangs in recovery and ``sim40/s3`` exhausts the subset cap
after minutes (ROADMAP items 2 and 3). Each runs once, traced, in its own
process under ``run.CALL_LIMIT_S``, the benchmark's per-call limit, with
set-up counted inside it. The outcome and the counts known
when it ended (``engine.subsets`` as soon as the sweep ends, and
``engine.recover_paths`` over the chosen cover before recovery starts)
are printed and written to ``.bench_out/probe.json``. The probe is run
on demand, not by ``run.py``:

    python3 benchmarks/probe.py
"""

import json
import time

from run import CALL_LIMIT_S, OUT, run_worker, source_stamp

PROBES = ("sim24/s1", "sim40/s3")


def main() -> None:
    out = {"source": source_stamp(), "limit_s": CALL_LIMIT_S, "probes": {}}
    for name in PROBES:
        args = ["--workload", name, "--seed", "0", "--mode", "probe"]
        events, status, _ = run_worker(args, end=time.perf_counter() + CALL_LIMIT_S)
        calls = [e for e in events if e["event"] == "call"]
        stages = [e["counts"] for e in events if e["event"] == "stage"]
        counts = (calls[0].get("layers") if calls else None) or (stages[-1] if stages else {})
        outcome = calls[0]["outcome"] if calls else status
        out["probes"][name] = {
            "outcome": outcome,
            "problems": calls[0]["problems"] if calls else [],
            "engine.subsets": counts.get("engine.subsets"),
            "engine.recover_paths": counts.get("engine.recover_paths"),
        }
        print(name, json.dumps(out["probes"][name]), flush=True)
    OUT.mkdir(exist_ok=True)
    (OUT / "probe.json").write_text(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
