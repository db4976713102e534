"""Start-up footprint: each subcommand loads only the modules it runs.

Every case calls ``cli.main`` in a fresh interpreter and then lists the
modules the run added to ``sys.modules``.  A process that runs under
PYTHONDONTWRITEBYTECODE compiles every module it imports from source,
so a module loaded but not run is start-up time spent for nothing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hypcycle import __version__, cli

SRC = str(Path(cli.__file__).resolve().parents[1])

FOOTPRINT = """
import json, sys
before = set(sys.modules)
from hypcycle import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:  # argparse exits after printing --version
    code = exc.code
print(json.dumps({"exit": code, "loaded": sorted(set(sys.modules) - before)}))
"""

H1_MODULES = {"hypcycle", "hypcycle.cli", "hypcycle.psl2", "hypcycle.cosets",
              "hypcycle.intlinalg", "hypcycle.symspace", "hypcycle.homology"}


def run_fresh(argv):
    """(exit code, report lines, modules loaded) of one fresh process."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT] + argv.split(),
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.splitlines()
    out = json.loads(last)
    return out["exit"], report, set(out["loaded"])


@pytest.mark.parametrize("argv, package_modules", [
    ("--version", {"hypcycle", "hypcycle.cli"}),
    ("h1 --group gamma0:11 --k 0", H1_MODULES),
    ("hecke --group gamma0:11 --k 0 --ring Q --op Tp --p 2",
     H1_MODULES | {"hypcycle.hecke", "hypcycle.polyz"}),
])
def test_subcommand_loads_only_what_it_runs(argv, package_modules):
    code, _, loaded = run_fresh(argv)
    assert code == 0
    assert {m for m in loaded if m.split(".")[0] == "hypcycle"} \
        == package_modules
    assert "dataclasses" not in loaded


def test_wrong_divisibility_exits_3_from_fresh_process():
    code, report, loaded = run_fresh(
        "hecke --group gamma0:11 --k 0 --op Tp --p 11")
    assert code == 3
    assert [json.loads(line) for line in report] == [
        {"error": "T_p requires p coprime to the level",
         "version": __version__}]
    assert "dataclasses" not in loaded
