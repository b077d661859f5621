"""Write ``references.json``: the answer of each workload at its base seed.

The stored answers are the correctness gate's reference. Regenerate them
only from a commit whose answers are trusted, never to make a failing
run pass:

    python3 benchmarks/references.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bndp  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    refs = {}
    for name in workloads.NAMES:
        wl = workloads.build(name, workloads.BASES[name])
        result = bndp.learn(
            wl.data, wl.screen, workloads.SCORE, workloads.INDEGREE, optima_cap=workloads.OPTIMA_CAP
        )
        refs[name] = gate.answer(result)
        print(name, refs[name], flush=True)
    (HERE / "references.json").write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
