"""Benchmark of the feedauction simulator: one command, three workloads.

    python3 perfbench/run.py --workload {sweep-deviation,moderation,ledger}
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports ``src/feedauction``
from that checkout and from nowhere else. The load is a closed loop: one
caller in one process and one thread, each call waiting for the previous
one. BLAS is pinned to one thread.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see layers.py). The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the environment and a
human-readable summary. A JSON record of the run, with spans when traced,
is written under ``perfbench/results/``.
"""

import os

# Pinned before numpy is first imported, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
IMPORT_REPEATS = 5
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import feedauction; "
    "elapsed = time.perf_counter() - start; print(elapsed, feedauction.__file__)"
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here at all; no result is printed."""


def load_program():
    """Import ``feedauction`` from this checkout's ``src``, never from elsewhere."""
    package = SRC / "feedauction" / "__init__.py"
    if not package.is_file():
        raise BenchmarkError(f"{package} not found: run from a feedauction source checkout")
    sys.path.insert(0, str(SRC))
    import feedauction

    if Path(feedauction.__file__).resolve() != package.resolve():
        raise BenchmarkError(f"imported feedauction from {feedauction.__file__}, not {package}")
    return feedauction


def import_seconds() -> float:
    """Time ``import feedauction`` in a fresh interpreter, as a CLI user pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    elapsed, path = done.stdout.split()
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"child process imported feedauction from {path}")
    return float(elapsed)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libc = ctypes.CDLL(None)
    libc.sysconf.argtypes, libc.sysconf.restype = [ctypes.c_int], ctypes.c_long
    l3 = libc.sysconf(194)  # _SC_LEVEL3_CACHE_SIZE in glibc
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "l3_cache_mib": l3 / 2**20 if l3 > 0 else None,
        "git_sha": git_sha(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def drive(workload, seconds: float) -> list:
    """Closed loop: units one after another until ``seconds`` have passed."""
    units = []
    start = time.perf_counter()
    while workload.runnable() and (not units or time.perf_counter() - start < seconds):
        units.append(workload.unit(len(units)))
    return units


def timed_run(workload, outcome, seconds: float, seed: int) -> tuple[dict, dict]:
    import checks
    import speed

    workload.reference = speed.reference_seconds
    imports = []
    for _ in range(IMPORT_REPEATS):
        elapsed = import_seconds()
        imports.append((elapsed, speed.at_nominal(elapsed, workload.reference())))
    preparations = workload.setup()
    units = drive(workload, seconds)
    if seed == DEFAULT_SEED and units:
        expected = json.loads((BENCH_DIR / "digests.json").read_text())[workload.name]
        outcome.note(checks.compare_digests(units[0].digest, expected))

    def summary(column: int) -> dict:
        """column 1: raw seconds; column 2: seconds at the reference's nominal speed."""
        rates = [rate for u in units for rate in u.rates(column)]
        median = statistics.median
        return {
            "setup_s": median(p[column - 1] for p in imports)
            + (median(p[column - 1] for p in preparations) if preparations else 0.0),
            "wall_s": median(sum(p[column] for p in u.pieces) for u in units) if units else 0.0,
            "rounds_per_s": median(rates) if rates else 0.0,
        }

    scaled = summary(2)
    metrics = {
        "setup_s": (scaled["setup_s"], "s"),
        "wall_s": (scaled["wall_s"], "s"),
        "rounds_per_s": (scaled["rounds_per_s"], "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    record = {
        "import_s": imports,
        "preparation_s": preparations,
        "unit_pieces": [u.pieces for u in units],
        "raw": summary(1),
    }
    return metrics, record


def traced_run(workload, outcome, seconds: float) -> tuple[dict, dict]:
    import layers
    from tracer import Tracer

    tracer = Tracer(span_names=layers.SPAN_NAMES)
    layers.install(tracer)
    try:
        preparations = workload.setup()
    finally:
        tracer.uninstall()
    setup_stats = tracer.by_name()
    tracer.reset_counters()
    if not workload.runnable():
        untraced, units = [], []
    else:
        untraced = drive(workload, 0.0)
        layers.install(tracer)
        try:
            units = drive(workload, seconds)
        finally:
            tracer.uninstall()
        if units[0].digest != untraced[0].digest:
            outcome.note(["a traced unit's outputs differ from the untraced unit's"])
    loop_stats = tracer.by_name()
    missing = workload.expected_layers - set(setup_stats) - set(loop_stats)
    if units and missing:
        outcome.note([f"wrapped names that never fired: {sorted(missing)}"])
    overhead = units[0].seconds - untraced[0].seconds if units else 0.0
    metrics = layers.layer_metrics(
        loop_stats, tracer.tallies, max(len(units), 1), setup_stats,
        len(preparations), overhead,
    )
    total_self = sum(v[2] for v in loop_stats.values()) or 1.0
    shares = sorted(((v[2] / total_self, k) for k, v in loop_stats.items()), reverse=True)
    record = {
        "self_time_share": {name: share for share, name in shares},
        "setup_self_s": {name: v[2] for name, v in setup_stats.items()},
        "stats_by_parent": [
            {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s, "failed": f}
            for (n, p), (c, t, s, f) in sorted(tracer.stats.items(), key=str)
        ],
        "spans": tracer.spans,
    }
    return metrics, record


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    try:
        load_program()
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    args = parse_args(argv)
    outcome = workloads.Outcome()
    workdir = BENCH_DIR / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, outcome)
        if args.trace:
            metrics, record = traced_run(workload, outcome, args.seconds)
        else:
            metrics, record = timed_run(workload, outcome, args.seconds, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    env = environment()
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        env=env, attempted=outcome.attempted, failed=outcome.failed,
        errors=outcome.errors, problems=outcome.problems,
        metrics={k: v for k, (v, _) in metrics.items()},
        run_s=time.perf_counter() - started,
    )
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, default=str) + "\n")

    print("env " + json.dumps(env))
    for line in outcome.errors + outcome.problems:
        print(f"failure: {line}")
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"failed_ratio {ratio:.6g} ({outcome.failed} of {outcome.attempted} operations)")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
