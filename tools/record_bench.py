"""Record a ``BENCH_<n>.json``: the benchmark's workloads, run on one or more checkouts.

    python3 tools/record_bench.py --out BENCH_8.json \
        --checkout parent=../parent --checkout change=. --pairs 5 --seconds 25

For each workload, ``--pairs`` rounds of untraced runs (``--trace 0``) go
through every checkout, in alternating order from one round to the next, so
that a slow spell of the machine falls on both sides. Round ``i`` runs with
seed ``--seed + i`` on every checkout. Then each checkout gets one traced
run (``--trace 1``) at seed 0. Every run is ``python3 perfbench/run.py`` in
the checkout's own directory, which imports the program from that checkout.

The file keeps each run's result line and ``env`` line (nproc, Python,
numpy, BLAS, git SHA), a digest of the checkout's ``src/`` tree and its line
count, per checkout the median of each end-to-end metric, and the ratio of
each later checkout's medians to the first checkout's. The result line's
times are scaled to the reference job's nominal speed; each untraced run
also keeps the unscaled ``raw`` times that ``perfbench/run.py`` saves under
``perfbench/results/``, and ``median_raw`` their medians. Compare only
checkouts recorded together on one machine. Standard library only.

The file also holds the rule by which a gain is claimed. Each workload keeps
the first checkout's quartiles of every end-to-end metric, and for each later
checkout and metric a ``claim`` entry: the pairs that checkout won (round
``i`` against the first checkout's round ``i``, in the ``better`` direction
that ``BENCHMARK.json`` gives the metric), the median gap in that direction,
the first checkout's interquartile range, and whether the gain holds: won in
at least nine pairs of ten, with a gap larger than that range.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep-deviation", "moderation", "ledger")
END_TO_END = ("setup_s", "wall_s", "rounds_per_s", "peak_rss_mb")
RAW = ("setup_s", "wall_s", "rounds_per_s")


def better_directions() -> dict[str, str]:
    """Each end-to-end metric's ``better`` direction, "higher" or "lower", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["better"] for entry in spec["end_to_end"]}


def quartiles(values: list[float]) -> dict[str, float]:
    """First quartile, median and third quartile, linearly interpolated, and their range."""
    if len(values) < 2:  # statistics.quantiles needs two values
        values = values * 2
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "iqr": q3 - q1}


def claim(first: list[float], later: list[float], better: str) -> dict:
    """How ``later`` fares against ``first``, pair by pair and median to median."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (b - a) > 0 for a, b in zip(first, later))
    gap = sign * (statistics.median(later) - statistics.median(first))
    iqr = quartiles(first)["iqr"]
    return {
        "better": better,
        "pairs_won": won,
        "pairs": len(first),
        "median_gap": gap,
        "first_iqr": iqr,
        "gain_holds": 10 * won >= 9 * len(first) and gap > iqr,  # nine pairs in ten
    }


def src_digest(checkout: Path) -> str:
    """SHA-256 over the checkout's ``src/`` Python files, paths included."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(str(path.relative_to(checkout)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def src_lines(checkout: Path) -> int:
    """Lines of the checkout's ``src/`` Python files, the ROADMAP's size measure."""
    return sum(len(path.read_bytes().splitlines()) for path in (checkout / "src").rglob("*.py"))


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run: its ``env`` and result lines, and untraced its raw times."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    result = json.loads(lines[-1])
    run = {
        "seed": seed,
        "trace": trace,
        "env": env,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
    }
    if not trace:
        saved = checkout / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
        raw = json.loads(saved.read_text())["raw"]
        run["raw"] = {k: raw[k] for k in RAW}
    return run


def record_workload(checkouts: dict[str, Path], workload: str, args) -> dict:
    names = list(checkouts)
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for i in range(args.pairs):
        for name in names if i % 2 == 0 else names[::-1]:
            run = run_benchmark(checkouts[name], workload, args.seed + i, args.seconds, 0)
            runs[name].append(run)
            print(f"{workload} {name} seed {args.seed + i}: "
                  + " ".join(f"{k}={run['metrics'][k]:.4g}" for k in END_TO_END),
                  file=sys.stderr)
    traced = {
        name: run_benchmark(checkouts[name], workload, 0, args.traced_seconds, 1)
        for name in names
    }
    medians = {
        name: {k: statistics.median(r["metrics"][k] for r in runs[name]) for k in END_TO_END}
        for name in names
    }
    medians_raw = {
        name: {k: statistics.median(r["raw"][k] for r in runs[name]) for k in RAW}
        for name in names
    }
    first = medians[names[0]]
    ratios = {
        name: {k: medians[name][k] / first[k] if first[k] else None for k in END_TO_END}
        for name in names[1:]
    }

    def values(name, k):
        return [r["metrics"][k] for r in runs[name]]

    better = better_directions()
    return {
        "untraced": runs, "traced": traced, "median": medians, "median_raw": medians_raw,
        f"ratio_to_{names[0]}": ratios,
        f"quartiles_{names[0]}": {k: quartiles(values(names[0], k)) for k in END_TO_END},
        "claim": {
            name: {k: claim(values(names[0], k), values(name, k), better[k]) for k in END_TO_END}
            for name in names[1:]
        },
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="the BENCH_<n>.json to write")
    parser.add_argument(
        "--checkout", action="append", default=[], metavar="NAME=DIR",
        help="a source checkout to measure (repeatable); default: this one, as 'change'",
    )
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=5, help="untraced runs per checkout")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--traced-seconds", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=901, help="seed of the first round")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {}
    for spec in args.checkout or [f"change={ROOT}"]:
        name, sep, directory = spec.partition("=")
        if not sep or not name:
            raise SystemExit(f"--checkout wants NAME=DIR, got {spec!r}")
        checkouts[name] = Path(directory).resolve()
    started = time.time()
    record = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds X --trace T",
        "pairs": args.pairs,
        "seconds": args.seconds,
        "traced_seconds": args.traced_seconds,
        "first_seed": args.seed,
        "checkouts": {
            name: {"src_digest": src_digest(path), "src_lines": src_lines(path)}
            for name, path in checkouts.items()
        },
        "workloads": {
            workload: record_workload(checkouts, workload, args)
            for workload in args.workload or WORKLOADS
        },
    }
    record["elapsed_s"] = time.time() - started
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
