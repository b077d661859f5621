"""Self-check of the benchmark itself; exits non-zero on the first failure.

1. ``BENCHMARK.json`` names exactly the workloads and metrics, with the
   units, that ``run.py`` emits.
2. The gate accepts each stored reference and rejects a deliberately
   wrong one (shifted optimum; for untruncated answers, a wrong network
   hash).
3. One short run per trace mode emits every named metric with its unit.
4. In a directory holding only ``BENCHMARK.json`` and the benchmark, the
   command fails without printing a result.

    python3 benchmarks/selfcheck.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bndp  # noqa: E402

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = spec["command"]
    expect({w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS), "workload names")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        expect({m["name"]: m["unit"] for m in spec[key]} == table, f"{key} names and units")

    refs = json.loads((HERE / "references.json").read_text())
    for name in workloads.NAMES:
        wl = workloads.build(name, 11)
        result = bndp.learn(wl.data, wl.screen, workloads.SCORE, workloads.INDEGREE, optima_cap=workloads.OPTIMA_CAP)
        ref = refs[name]
        expect(gate.check(result, ref, workloads.OPTIMA_CAP) == [], f"{name}: gate accepts the reference")
        shifted = dict(ref, optimal_score=ref["optimal_score"] + 1e-3)
        expect(gate.check(result, shifted, workloads.OPTIMA_CAP) != [], f"{name}: gate rejects a wrong optimum")
        if not ref["truncated"]:
            rehashed = dict(ref, networks_sha256="0" * 64)
            expect(gate.check(result, rehashed, workloads.OPTIMA_CAP) != [], f"{name}: gate rejects a wrong network set")

    for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        argv = [*command, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", str(trace)]
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
        last = json.loads(out.stdout.strip().splitlines()[-1])
        emitted = {k: m["unit"] for k, m in last["metrics"].items()}
        expect(out.returncode == 0 and last["correct"] and emitted == table, f"--trace {trace} emits every metric")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    argv = [*command, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(out.returncode != 0 and "correct" not in out.stdout, "fails without the sources")


if __name__ == "__main__":
    main()
