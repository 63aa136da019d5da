"""Pinned bytes of ``feedauction run`` ledgers and ``report`` CSVs.

Reruns of one config are compared with each other elsewhere; these digests
compare today's files with files written by an earlier version of the
program, so a change to the ledger format, the float formatting or a run's
arithmetic cannot pass unnoticed. Regenerate them only for a deliberate
format change: run ``python tests/test_golden.py`` from the repository root
and paste its output over ``GOLDEN``.
"""

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

import pytest

from feedauction.cli import main

CONFIGS = {
    # Criterion 9's config.
    "feedback": (
        "horizon = 300\n"
        "agents.count = 3\n"
        "features.dim = 2\n"
        "mechanism = feedback\n"
        "seeds.master = 5\n"
        "seeds.count = 2\n"
    ),
    "uniform": (
        "horizon = 250\n"
        "agents.count = 4\n"
        "features.dim = 3\n"
        "mechanism = uniform\n"
        "seeds.master = 8\n"
        "seeds.count = 2\n"
    ),
}

GOLDEN = {
    ('feedback', False): {
        'runs/feedback_seed000.jsonl': '88588c665e01b69cd200d97cc3a2015643b15c518d8252240f002fc72d3e89f9',
        'runs/feedback_seed001.jsonl': '75effcfa6cc4a77964504d945543bf67ffc34409092a151e4fd97d9b83f83ccb',
        'report/histogram_feedback.csv': '8eb80f86a27b108e9a6198e98155adb7dfa0deccc97fad97aa1c1ebf07c4d1e8',
        'report/regret_feedback.csv': '634ae5a311c3811e897f2d8c0b93a46e37e111911f0adddada18d0e21b414874',
    },
    ('feedback', True): {
        'runs/feedback_seed000.jsonl': '967d4900f46bdbaa634c25e296c745329ecaf77e514c1f30c423b15596257d49',
        'runs/feedback_seed001.jsonl': '9860be5173b9f87c8f3f6e0eb81e139e9d8cc29884c2b8a375a8d8f6b47a3bef',
        'report/histogram_feedback.csv': '8eb80f86a27b108e9a6198e98155adb7dfa0deccc97fad97aa1c1ebf07c4d1e8',
        'report/regret_feedback.csv': '634ae5a311c3811e897f2d8c0b93a46e37e111911f0adddada18d0e21b414874',
    },
    ('uniform', False): {
        'runs/uniform_seed000.jsonl': '639e2047ff1887e53bdd1bb5a7d9e0ef3394ee9c8d51d93ce1e8cf1506c9ce44',
        'runs/uniform_seed001.jsonl': '0ebadf740aaac61e78909c5b7f5ebc34d625a1fd9eb4f187f4f518a3bff0c4c3',
        'report/histogram_uniform.csv': '0dc53b67db2d29c4ae7bae91cf9d3a04a2888b3fb0e1f9cd7b6485851cbf1f9c',
        'report/regret_uniform.csv': '8266f0c1fc08fb043ded040f1fefe337dfcc0e334db12584b6c7b84e78237dff',
    },
    ('uniform', True): {
        'runs/uniform_seed000.jsonl': '899e709cca66210b39951c479bd6e7f4ca159200ab835a0fe728e9056e04ba36',
        'runs/uniform_seed001.jsonl': '7a355c3a86a8272be7f4985aa2a1c4cbc5dbef3d96fa11b538c69c5d168b3e35',
        'report/histogram_uniform.csv': '0dc53b67db2d29c4ae7bae91cf9d3a04a2888b3fb0e1f9cd7b6485851cbf1f9c',
        'report/regret_uniform.csv': '8266f0c1fc08fb043ded040f1fefe337dfcc0e334db12584b6c7b84e78237dff',
    },
}


def produce(name: str, skip_contexts: bool, workdir: Path) -> dict[str, str]:
    """Run one config and report on it inside ``workdir``; sha256 per output file.

    Paths are relative so that the ``output.dir`` echoed into the ledger
    metadata does not depend on where the files are written.
    """
    (workdir / "exp.cfg").write_text(CONFIGS[name])
    previous = Path.cwd()
    os.chdir(workdir)
    try:
        run_argv = ["run", "--config", "exp.cfg", "--output-dir", "runs"]
        if skip_contexts:
            run_argv.append("--skip-contexts")
        assert main(run_argv) == 0
        ledgers = sorted(str(p) for p in Path("runs").glob("*.jsonl"))
        assert main(["report", *ledgers, "--out", "report"]) == 0
        outputs = sorted(Path("runs").glob("*.jsonl")) + sorted(Path("report").glob("*.csv"))
        return {p.as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs}
    finally:
        os.chdir(previous)


CASES = [(name, skip) for name in CONFIGS for skip in (False, True)]


@pytest.mark.parametrize("name, skip_contexts", CASES)
def test_outputs_match_recorded_bytes(name, skip_contexts, tmp_path):
    digests = produce(name, skip_contexts, tmp_path)
    assert digests == GOLDEN[(name, skip_contexts)]


if __name__ == "__main__":
    print("GOLDEN = {")
    for name, skip in CASES:
        with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(io.StringIO()):
            digests = produce(name, skip, Path(scratch))
        print(f"    ({name!r}, {skip}): {{")
        for path, digest in digests.items():
            print(f"        {path!r}: {digest!r},")
        print("    },")
    print("}")
