"""Output checks and digests, recomputed with numpy alone.

Nothing here calls into ``feedauction``: the checks are an independent
reference, and they must not fire the tracer's wrappers during a traced run.
Each check returns a list of problem strings; an empty list means the output
passed.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

TOLERANCE = 1e-9
DIGEST_RTOL = 1e-12


def second_highest(values: np.ndarray) -> np.ndarray:
    return np.partition(values, -2, axis=1)[:, -2]


def check_run(run, mechanism: str, losses: np.ndarray | None = None) -> list[str]:
    """Invariants of one ``RunResult``.

    - winners are agent indices;
    - explored rounds pay 0;
    - an exploitation round of a learned mechanism goes to the highest
      estimate and pays the second-highest, which is at most the winner's;
      on ``oracle`` it pays the second-highest true mean;
    - ``losses``, the program's per-agent welfare loss, sums to the total
      welfare regret recomputed here.
    """
    problems = []
    label = f"{mechanism} seed_index {run.seed_index}"
    n_agents = run.config.n_agents
    allocated, explored, payments = run.allocated, run.explored, run.payments
    horizon = run.true_means.shape[0]
    if allocated.shape != (horizon,) or allocated.min() < 0 or allocated.max() >= n_agents:
        problems.append(f"{label}: winner outside [0, {n_agents})")
        return problems
    if np.any(payments[explored] != 0.0):
        problems.append(f"{label}: an explored round charged a payment")
    exploit = ~explored
    rows = np.flatnonzero(exploit)
    if mechanism == "oracle":
        if explored.any():
            problems.append(f"{label}: oracle explored")
        if np.any(payments[rows] != second_highest(run.true_means[rows])):
            problems.append(f"{label}: oracle payment is not the second-highest true mean")
    elif mechanism == "uniform":
        if not explored.all():
            problems.append(f"{label}: uniform allocation exploited")
    else:
        estimates = run.estimates[rows]
        winner_estimate = estimates[np.arange(rows.size), allocated[rows]]
        if np.any(winner_estimate != estimates.max(axis=1)):
            problems.append(f"{label}: an exploitation winner is not the highest estimate")
        if np.any(payments[rows] != second_highest(estimates)):
            problems.append(f"{label}: an exploitation payment is not the second-highest estimate")
        if np.any(payments[rows] > winner_estimate):
            problems.append(f"{label}: a payment exceeds the winner's estimate")
    if losses is not None:
        regret = run.true_means.max(axis=1) - run.true_means[np.arange(horizon), allocated]
        if abs(float(np.sum(losses)) - float(regret.sum())) > TOLERANCE:
            problems.append(f"{label}: per-agent welfare loss does not sum to the total regret")
    return problems


def check_twins(truthful, deviant, strategy: str) -> list[str]:
    if not np.array_equal(truthful.true_means, deviant.true_means):
        return [f"{strategy} seed_index {deviant.seed_index}: deviant arm does not share true_means"]
    return []


def check_ledger(metadata: dict, rows: list[dict], horizon: int, n_agents: int, mechanism: str) -> list[str]:
    """Invariants of one re-read JSONL ledger."""
    label = f"ledger {mechanism}"
    if metadata.get("n_rounds") != horizon or len(rows) != horizon:
        return [f"{label}: {len(rows)} rows re-read, horizon is {horizon}"]
    problems = []
    allocated = np.array([row["allocated_agent"] for row in rows])
    explored = np.array([row["explored"] for row in rows], dtype=bool)
    payments = np.array([row["payment"] for row in rows])
    prices = np.array([row["comparison_price"] for row in rows])
    if allocated.min() < 0 or allocated.max() >= n_agents:
        problems.append(f"{label}: winner outside [0, {n_agents})")
    if np.any(payments[explored] != 0.0):
        problems.append(f"{label}: an explored round charged a payment")
    if np.any(payments[~explored] != prices[~explored]):
        problems.append(f"{label}: an exploitation payment differs from its comparison price")
    if mechanism == "uniform" and not explored.all():
        problems.append(f"{label}: uniform allocation exploited")
    return problems


def check_histogram(losses: list[float], regret_total: float, label: str) -> list[str]:
    if abs(math.fsum(losses) - regret_total) > TOLERANCE:
        return [f"{label}: histogram does not reconcile with the ledger's total regret"]
    return []


def array_hash(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()[:32]


def run_digest(label: str, run) -> list:
    """Allocations and explored flags exactly; payments and estimates as sums."""
    estimates = 0.0 if run.estimates is None else float(run.estimates.sum())
    return [
        label,
        array_hash(run.allocated.astype("<i8"), run.explored.astype(bool)),
        float(run.payments.sum()),
        estimates,
    ]


def compare_digests(found: list, expected: list) -> list[str]:
    """Strings and integers must match exactly, floats within 1e-12 relative."""
    problems = []
    if len(found) != len(expected):
        return [f"digest has {len(found)} entries, expected {len(expected)}"]
    for got, want in zip(found, expected):
        if len(got) != len(want):
            problems.append(f"digest entry {want[0]}: shape differs")
            continue
        for a, b in zip(got, want):
            if isinstance(b, float):
                if not abs(a - b) <= DIGEST_RTOL * max(1.0, abs(b)):
                    problems.append(f"digest entry {want[0]}: {a!r} != {b!r}")
            elif a != b:
                problems.append(f"digest entry {want[0]}: {a!r} != {b!r}")
    return problems
