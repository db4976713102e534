"""The benchmark ladder's pinned answers, checked in-process: every case
of ``perfbench/workloads/*.json`` runs through ``cli.main`` with the
command line ``perfbench/run.py`` builds for it (``--seed 1`` added
for the subcommands that take one), and its exit code and every pinned
field of ``perfbench/pins.json`` must match.  The files are only read."""

import json
from pathlib import Path

import pytest

from hypcycle import cli

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEEDED = {"verify-main", "quotient", "bridge"}


def cases():
    """The case ids of perfbench/run.py, one per manifest entry."""
    for path in sorted((BENCH / "workloads").glob("*.json")):
        for entry in json.loads(path.read_text()):
            argv = [entry["subcommand"]]
            for key, val in entry.items():
                if key != "subcommand":
                    argv += ["--" + key.replace("_", "-"), str(val)]
            yield " ".join(argv)


PINS = json.loads((BENCH / "pins.json").read_text())


@pytest.mark.parametrize("case", list(cases()))
def test_ladder_case_matches_its_pin(case, capsys):
    argv = case.split()
    if argv[0] in SEEDED:
        argv += ["--seed", "1"]
    code = cli.main(argv)
    report = json.loads(capsys.readouterr().out)
    pin = PINS[case]
    assert code == pin["exit"]
    assert {key: report.get(key) for key in pin["fields"]} == pin["fields"]
