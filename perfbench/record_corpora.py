"""Record ``corpora.json``: the corpus seeds ``moderation`` draws from.

    python3 perfbench/record_corpora.py

The benchmark's workloads must be ones on which no operation fails, but
``pca_fit`` raises ``ConvergenceError`` on about one corpus in three (README.md,
"Findings"). This script embeds the 2,000 x 60 corpus of every seed in
``range(CANDIDATES)`` exactly as ``prepare_dataset`` does (PCA 60 -> 30) with
nine tenths of ``pca_fit``'s default iteration budget, and records the seeds
that converge within it, so a kept corpus converges with a tenth of the budget
to spare. Most corpora need more than half of the budget, so a wider margin
would keep only the fastest ones. The failing seeds are recorded too, so the
defect stays on file; the benchmark's tests check that corpora 8, 9, 12 and 14
still fail.
"""

import json
import sys

import run  # pins BLAS to one thread before numpy loads

import numpy as np

CANDIDATES = 128
COMPONENTS = 30


def main() -> int:
    run.load_program()
    from feedauction import dataio

    budget = dataio.pca_fit.__kwdefaults__["max_iter"] * 9 // 10
    converged, failed = [], []
    for corpus_seed in range(CANDIDATES):
        examples = dataio.generate_synthetic_dataset(2000, 60, corpus_seed)
        features = np.stack([example.features for example in examples])
        try:
            dataio.pca_fit(features, COMPONENTS, max_iter=budget)
        except dataio.ConvergenceError as exc:
            failed.append(corpus_seed)
            print(f"corpus {corpus_seed}: {exc}", file=sys.stderr)
        else:
            converged.append(corpus_seed)
    record = {"max_iter": budget, "converged": converged, "failed": failed}
    (run.BENCH_DIR / "corpora.json").write_text(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
