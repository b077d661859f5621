"""One workload in a fresh process: set up, then timed or traced learn calls.

Started by ``run.py`` and ``probe.py``, never by hand. Prints one JSON
event per line: ``ready`` once the inputs exist, ``call`` after every
``learn`` call, ``stage`` after each traced stage (probe mode) and
``done`` at the end. The parent enforces the per-call time limit.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

MIN_TIMED_CALLS = 3
MIN_TRACED_PAIRS = 2
BUDGET_S = 110.0  # no call starts that would likely end later than this after start
MIN_COVERAGE = 0.95  # share of traced learn time inside the five stage spans


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def _blas_threads():
    """OpenBLAS thread count as numpy's bundled library reports it."""
    import ctypes
    import glob

    import numpy

    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def env_stamp() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced", "probe"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args()

    import bndp

    if Path(bndp.__file__).resolve().parent != SRC / "bndp":
        print(f"bndp imported from {bndp.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START

    import gate
    import hostref
    import workloads
    from tracer import Tracer

    t0 = time.perf_counter()
    if args.mode == "probe":
        p, seed = args.workload.removeprefix("sim").split("/s")
        wl = workloads.build_sim(int(p), int(seed))
    else:
        wl = workloads.build(args.workload, args.seed)
    data_s = time.perf_counter() - t0
    emit("ready", import_s=import_s, data_s=data_s, env=env_stamp())
    if args.mode == "setup":
        return 0

    learn_args = (wl.data, wl.screen, workloads.SCORE, workloads.INDEGREE)
    learn_kwargs = {"optima_cap": workloads.OPTIMA_CAP}

    probe = args.mode == "probe"
    ref = None if probe else json.loads((HERE / "references.json").read_text())[args.workload]
    # a probe streams its counts, since its learn call may never return
    tracer = Tracer(on_stage=(lambda counts: emit("stage", counts=counts)) if probe else None)
    first_answer = None
    ref_before = 0.0  # host loop time just before the next timed call

    def call(kind: str) -> bool:
        nonlocal first_answer, ref_before
        layers = host_ref_s = None
        try:
            if kind in ("traced", "probe"):
                result, layers = tracer.trace_learn(*learn_args, **learn_kwargs)
                learn_s = layers["trace.learn_s"]
            else:
                t = time.perf_counter()
                result = bndp.learn(*learn_args, **learn_kwargs)
                learn_s = time.perf_counter() - t
                if kind == "timed":
                    ref_after = hostref.loop_s()
                    host_ref_s = (ref_before + ref_after) / 2
                    ref_before = ref_after
        except bndp.EngineError as exc:
            outcome = "cap" if "cap" in str(exc) else "error"
            emit("call", kind=kind, outcome=outcome, problems=[str(exc)])
            return False
        except Exception as exc:  # any failure of the program is an outcome
            emit("call", kind=kind, outcome="error", problems=[repr(exc)])
            return False
        problems = [] if probe else gate.check(result, ref, workloads.OPTIMA_CAP)
        if args.mode == "traced":
            # traced and untraced calls of one process must agree exactly
            answer = gate.answer(result)
            first_answer = first_answer or answer
            if answer != first_answer:
                problems.append(f"{kind} answer differs from the first call's")
            if layers is not None and layers["trace.coverage"] < MIN_COVERAGE:
                problems.append(f"stage spans cover {layers['trace.coverage']:.3f} of learn")
        emit(
            "call",
            kind=kind,
            outcome="wrong" if problems else "ok",
            learn_s=learn_s,
            host_ref_s=host_ref_s,
            problems=problems[:5],
            layers=layers,
        )
        return not problems

    def more(start: float, n: int, least: int, step_s: float) -> bool:
        """Whether to make another call (or pair of calls)."""
        now = time.perf_counter()
        if now - _START + step_s > BUDGET_S:
            return False
        return n < least or now - start < args.seconds

    if probe:
        call("probe")
        emit("done", peak_rss_mb=_maxrss_mb())
    elif args.mode == "timed":
        t = time.perf_counter()
        if call("warmup"):
            step = time.perf_counter() - t
            start, n = time.perf_counter(), 0
            ref_before = hostref.loop_s()
            while more(start, n, MIN_TIMED_CALLS, step) and call("timed"):
                n += 1
        emit("done", peak_rss_mb=_maxrss_mb())
    else:
        # The first learn call of the process is traced, so that the
        # ru_maxrss growth across best_sinks is that call's own.
        start, n, step = time.perf_counter(), 0, 0.0
        while more(start, n, MIN_TRACED_PAIRS, step):
            t = time.perf_counter()
            if not (call("traced") and call("untraced")):
                break
            step = time.perf_counter() - t
            n += 1
        spans = [[name, a - _START, b - _START, parent] for name, a, b, parent in tracer.spans]
        emit("done", peak_rss_mb=_maxrss_mb(), spans=spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
