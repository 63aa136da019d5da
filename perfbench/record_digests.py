"""Record ``digests.json``: unit 0 of every workload at the default seed.

    python3 perfbench/record_digests.py

Run it only on a commit whose outputs are known to be right. ``run.py``
compares unit 0 against these digests whenever it runs the default seed:
allocations and explored flags exactly, sums of payments and estimates
within 1e-12 relative.
"""

import json
import shutil
import sys

import run


def main() -> int:
    run.load_program()
    import workloads

    digests = {}
    workdir = run.BENCH_DIR / ".work" / "digests"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, cls in workloads.WORKLOADS.items():
            outcome = workloads.Outcome()
            workload = cls(run.DEFAULT_SEED, workdir, outcome)
            workload.setup()
            digests[name] = workload.unit(0).digest
            if not outcome.correct:
                print(f"{name}: output checks failed: {outcome.problems}", file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (run.BENCH_DIR / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
