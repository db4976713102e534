"""Start-up footprint: each subcommand loads only the modules it runs.

Every case calls ``cli.main`` in a fresh interpreter and then lists the
modules the run added to ``sys.modules``.  A process that runs under
PYTHONDONTWRITEBYTECODE compiles every module it imports from source,
so a module loaded but not run is start-up time spent for nothing.  The
same holds for argument parsers: a run builds the top-level parser and
the named subcommand's parser, and no other.
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
# H1 and the run walk of cycles (hypcycle.walk), which h1 never runs
CYCLE_MODULES = H1_MODULES | {"hypcycle.walk"}
HECKE_MODULES = CYCLE_MODULES | {"hypcycle.hecke"}


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
    ("h1 --group gamma0:11 --k 1 --ring Fp:3", H1_MODULES),
    ("cycle --group gamma0:11 --k 1 --matrix [[3,1],[11,4]]", CYCLE_MODULES),
    ("hecke --group gamma0:11 --k 0 --ring Q --op Tp --p 2",
     HECKE_MODULES | {"hypcycle.polyz"}),
    ("hecke --group gamma0:11 --k 0 --ring Z --op Tp --p 2", HECKE_MODULES),
    ("ordinary --group gamma0:11 --k 0 --p 2 --M 3",
     HECKE_MODULES | {"hypcycle.ordinary"}),
    ("verify-main --group gamma0:11 --k 0 --p 3",
     HECKE_MODULES | {"hypcycle.ordinary"}),
    ("quotient --group gamma0:11 --k 0", HECKE_MODULES | {"hypcycle.ordinary"}),
    ("bridge --N 6 --p 3 --k 1", HECKE_MODULES | {"hypcycle.ordinary"}),
    ("boundary --group gammaH:13:3 --k 0",
     HECKE_MODULES | {"hypcycle.boundary"}),
    ("check-identity --N 2 --p 3 --k 1",
     HECKE_MODULES | {"hypcycle.boundary"}),
    ("check-generation --group gamma1:5 --k 0",
     HECKE_MODULES | {"hypcycle.boundary"}),
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


@pytest.mark.parametrize("argv, parsers", [
    ("--version", ["hypcycle"]),
    ("h1 --group gamma0:11 --k 0", ["hypcycle", "hypcycle h1"]),
])
def test_only_the_named_subcommand_parser_is_built(argv, parsers,
                                                   monkeypatch, capsys):
    # the top-level parser reads the subcommand's name, and only that
    # subcommand's parser is built; --version builds none
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    try:
        code = cli.main(argv.split())
    except SystemExit as exc:  # argparse exits after printing --version
        code = exc.code
    capsys.readouterr()
    assert code == 0
    assert built == parsers
