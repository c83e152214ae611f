"""Benchmark of whole private-PCA sessions over loopback TCP.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload he-wine --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One workload runs in this process.  Sessions run one after another from
this thread (a closed loop with one client); the workload fixes how many
fit in ``--seconds`` on the reference machine, so every run does the same
work.  Every session is checked for correctness.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
holding the end-to-end metrics with ``--trace 0`` and the per-layer metrics
of a traced run with ``--trace 1``.  ``--workload all`` runs every workload,
untraced and then traced, each in its own child process.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 1  # per gap: before each session and after the last
# A fresh interpreter that does the set-up alone.  Arguments: this
# directory, the workload's fields as JSON, the workload seed.
SETUP_PROBE = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import run; "
    "run.set_up(json.loads(sys.argv[2]), int(sys.argv[3]))"
)
END_TO_END_UNITS = {
    "session_s": "s",
    "setup_s": "s",
    "wire_bytes": "B",
    "messages": "count",
    "peak_rss_mb": "MB",
    "precision_digits": "digits",
}


class SetupError(Exception):
    """The benchmark cannot run here, for instance without ``src/pppca``."""


def import_program():
    """Import ``pppca`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "pppca" / "__init__.py").is_file():
        raise SetupError(f"no src/pppca under {ROOT}")
    sys.path.insert(0, str(src))
    import pppca

    if src.resolve() not in Path(pppca.__file__).resolve().parents:
        raise SetupError(f"pppca imported from {pppca.__file__}, not from {src}")


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "transport": "tcp over loopback",
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux


def set_up(fields: dict, seed: int):
    """Everything a run does before its first session: the imports and the
    workload's row blocks.  Returns the blocks and their labels."""
    import_program()
    import checks  # noqa: F401
    import spans  # noqa: F401
    import workloads
    from pppca.protocol import run_session  # noqa: F401

    return workloads.make_blocks(workloads.Workload(**fields), seed)


def setup_seconds(workload, seed: int, probes: int) -> list[float]:
    """Wall times of ``probes`` fresh processes that each do the set-up
    alone, from start to exit."""
    cmd = [sys.executable, "-c", SETUP_PROBE, str(HERE), json.dumps(dataclasses.asdict(workload)), str(seed)]
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)  # no timeout: its wait polls every 50 ms
        times.append(time.perf_counter() - t0)
    return times


def run_workload(workload, seed: int, seconds: float, trace: bool):
    """Set up, measure and check one workload.  Returns the result line and
    the run's record (environment, sessions and, when traced, spans)."""
    import checks
    import numpy as np
    import spans
    import workloads
    from pppca.errors import PPCAError
    from pppca.protocol import run_session

    # setup_s is the median of set-up probes spread over the whole run: one
    # process's imports vary too much to be timed once, and the machine's
    # speed drifts over seconds, so probes made back to back drift with it.
    probes = []
    # The numpy reference is the checks' work, not the program's: untimed.
    inputs = workloads.reference(workload, *workloads.make_blocks(workload, seed))
    setup_rss_mb = peak_rss_mb()

    tracer = spans.Tracer() if trace else None
    sessions, errors = [], []
    for index in range(workload.sessions(seconds)):
        # Session i of every run uses session seed i: keys, randomizers and
        # share draws repeat across runs, so every run pays the same prime
        # searches; the workload seed picks the partition.
        cfg = workload.config(session_seed=index)
        record = {"session": index}
        if not trace:
            probes += setup_seconds(workload, seed, SETUP_PROBES)
        gc.collect()  # the previous session's garbage is not this one's cost
        try:
            with contextlib.nullcontext() if tracer is None else tracer.recording(index):
                t0 = time.perf_counter()
                result = run_session(cfg, inputs.blocks, transport="tcp")
                record["session_s"] = time.perf_counter() - t0
        except PPCAError as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
            errors.append(record["error"])
        else:
            angle, findings = checks.check_session(result, inputs, cfg)
            record.update(
                angle=angle,
                bound=checks.davis_kahan_bound(result, inputs, cfg),
                findings=findings,
                wire_bytes=checks.wire_bytes(result.transcript),
                messages=len(result.transcript),
                cov_error=float(np.max(np.abs(result.covariance - inputs.cov))),
            )
        sessions.append(record)
        if index == 0:
            # Resident memory is not returned between sessions (the README
            # says why), so a later peak would grow with the session count.
            first_rss_mb = peak_rss_mb()
    if not trace:
        probes += setup_seconds(workload, seed, SETUP_PROBES)

    passed = [s for s in sessions if "error" not in s and not s["findings"]]
    findings = [f for s in sessions for f in s.get("findings", [])]
    for line in errors + findings:
        print(f"{workload.name}: {line}", file=sys.stderr)
    outcome = {
        "correct": not findings,
        "attempted": len(sessions),
        "failed": len(sessions) - len(passed),
        "metrics": {},
    }
    detail = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "setup": {"probes_s": probes, "peak_rss_mb": setup_rss_mb},
        "sessions": sessions,
        "result": outcome,
    }
    if not passed:
        return outcome, detail
    session_s = [s["session_s"] for s in passed]
    if trace:
        outcome["metrics"] = spans.layer_report(tracer.spans, session_s)
    else:
        angle = statistics.median(s["angle"] for s in passed)
        values = {
            "session_s": statistics.median(session_s),
            "setup_s": statistics.median(probes),
            "wire_bytes": statistics.median(s["wire_bytes"] for s in passed),
            "messages": statistics.median(s["messages"] for s in passed),
            "peak_rss_mb": first_rss_mb,
            # An angle below the binary64 unit roundoff cannot be resolved.
            "precision_digits": -np.log10(max(angle, checks.U)),
        }
        outcome["metrics"] = {
            name: {"value": float(v), "unit": END_TO_END_UNITS[name]} for name, v in values.items()
        }
    if trace:
        detail["self_time"] = spans.summarize(tracer.spans)
        detail["spans"] = [dataclasses.asdict(s) for s in tracer.spans]
    return outcome, detail


def run_all(args) -> dict:
    """Every workload untraced, then traced, each in a child process."""
    results = {}
    for name in ("he-wine", "ss-tall", "ss-wide"):
        for trace in (0, 1):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            child = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stderr.write(child.stderr)
            if child.returncode != 0:
                raise SetupError(f"{name} --trace {trace} exited with {child.returncode}")
            results[name, trace] = json.loads(child.stdout.strip().splitlines()[-1])
    metrics = {}
    for (name, trace), r in results.items():
        for metric, m in r["metrics"].items():
            metrics[f"{name}/{metric}"] = m
        if trace:
            overhead = r["metrics"]["trace.session_s"]["value"] - results[name, 0]["metrics"]["session_s"]["value"]
            metrics[f"{name}/trace.overhead_s"] = {"value": overhead, "unit": "s"}
    for metric, m in metrics.items():
        print(f"{metric:48s} {m['value']:>16.6g} {m['unit']}")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["he-wine", "ss-tall", "ss-wide", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    # One BLAS thread: the only threads are the program's role and socket threads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # One CPU for the run and the processes it starts.  The roles are threads
    # of one interpreter and take turns holding its lock; spread over two
    # CPUs, each hand-over wakes a thread on the other CPU, a wait that a
    # deployment with one machine per party does not have and that grows
    # with the load on a shared host.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        import_program()
        sys.path.insert(0, str(HERE))
        if args.workload == "all":
            outcome = run_all(args)
        else:
            import workloads

            print(json.dumps({"environment": environment()}))
            outcome, detail = run_workload(
                workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
            )
            OUT.mkdir(exist_ok=True)
            kind = "trace" if args.trace else "e2e"
            (OUT / f"{args.workload}-seed{args.seed}-{kind}.json").write_text(json.dumps(detail))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(outcome))
    return 0 if outcome["attempted"] > outcome["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
