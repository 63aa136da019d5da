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
        'runs/feedback_seed000.jsonl': '900e56ec44ee71562e8dceca74c7d46dcb19a91fe9fa0cfcfc94e10ce0f97022',
        'runs/feedback_seed001.jsonl': '6f344144459a9c53df794eec6ffd84bc8654a9341c5b8b29f59aa9631c5c0ddc',
        'report/histogram_feedback.csv': '8eb80f86a27b108e9a6198e98155adb7dfa0deccc97fad97aa1c1ebf07c4d1e8',
        'report/regret_feedback.csv': '634ae5a311c3811e897f2d8c0b93a46e37e111911f0adddada18d0e21b414874',
    },
    ('feedback', True): {
        'runs/feedback_seed000.jsonl': '4282ad349a6ea5eb69093b80fca88002e8e200794a4ddc26f2b4c51678390822',
        'runs/feedback_seed001.jsonl': '7b354cf726dd01877052653a03f48b271c90ace27b3bc7b2f8c3068c95822068',
        'report/histogram_feedback.csv': '8eb80f86a27b108e9a6198e98155adb7dfa0deccc97fad97aa1c1ebf07c4d1e8',
        'report/regret_feedback.csv': '634ae5a311c3811e897f2d8c0b93a46e37e111911f0adddada18d0e21b414874',
    },
    ('uniform', False): {
        'runs/uniform_seed000.jsonl': '1b77535d9c9ea98521ffe145f854abaec96164b6092cc09427ffa68749de89c0',
        'runs/uniform_seed001.jsonl': '6a15ccf4c9b5761a564dc99f7098512b4f904f65378cc1aa0f0f759473f1e8dc',
        'report/histogram_uniform.csv': '0dc53b67db2d29c4ae7bae91cf9d3a04a2888b3fb0e1f9cd7b6485851cbf1f9c',
        'report/regret_uniform.csv': '8266f0c1fc08fb043ded040f1fefe337dfcc0e334db12584b6c7b84e78237dff',
    },
    ('uniform', True): {
        'runs/uniform_seed000.jsonl': '3976b4b5434993b75384f7309130400f86c6fc599759a3334f06effd8d65bf68',
        'runs/uniform_seed001.jsonl': '1f528644ceb0024b98cf787ab7bffd9a8436b888c6be9e7f59ff4fa673cba5fc',
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
