"""Host-speed reference for the benchmark's timings.

On a shared host the same job can take twice as long in one minute as in
the next, and run medians drift by 20-35% over minutes. Every timed sample
is therefore followed by one fixed reference job, and timings are reported
at the reference's nominal speed: ``seconds * NOMINAL_S / reference_s``.

The reference copies the kind of work the simulator does per round (a
method call per agent with an ``asarray``, a shape check, a 5-element dot
product and a clamp, then ``argmax`` and ``partition``) so that a slower
host slows both alike. It uses no feedauction code, so no change to the
program can move it. Over ten seeds per workload, the spread (IQR over
median) of rounds per second was 0.02-0.05 scaled, where raw spreads ran
from 0.07 in calm spells to 0.34 in busy ones (README.md has the figures).
"""

from __future__ import annotations

import time

import numpy as np

# Median reference time on a shared 2-CPU Xeon host; it only sets the scale
# of the reported timings.
NOMINAL_S = 0.165
# About 0.15 s: a shorter job (1,500 rounds) caught the host's short stalls
# or missed them, and added more noise to each scaled sample than it took out.
ROUNDS = 4500
AGENTS = 10


class _Model:
    __slots__ = ("coef", "dim", "samples")

    def __init__(self) -> None:
        self.coef = np.linspace(0.1, 0.5, 5)
        self.dim = 5
        self.samples = 10

    def predict(self, context: np.ndarray) -> float:
        context = np.asarray(context, dtype=float)
        if context.shape != (self.dim,):
            raise ValueError(f"context has shape {context.shape}")
        if self.samples < self.dim:
            return 0.5
        return min(1.0, max(0.0, float(self.coef @ context)))


def reference_seconds() -> float:
    """Time one reference job."""
    models = [_Model() for _ in range(AGENTS)]
    contexts = np.full((AGENTS, 5), 0.2)
    estimates = np.empty(AGENTS)
    start = time.perf_counter()
    for _ in range(ROUNDS):
        for i, model in enumerate(models):
            estimates[i] = model.predict(contexts[i])
        int(np.argmax(estimates))
        float(np.partition(estimates, -2)[-2])
    return time.perf_counter() - start


def at_nominal(seconds: float, reference_s: float | None) -> float:
    """``seconds`` rescaled to the reference's nominal speed."""
    return seconds * NOMINAL_S / reference_s if reference_s else seconds
