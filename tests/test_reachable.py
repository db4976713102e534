"""Every function and method defined in ``src/hypcycle`` is run by some
command-line path.

About twenty fast CLI cases (every subcommand, two error exits and one
``batch`` run) are run in-process under ``sys.setprofile``, which sees
the code object of every Python-level call.  The definitions are read
from the source with ``ast``; a function's code object starts at its
first decorator's line, so that is the line matched.  A definition no
case calls is code that nothing needs, unless ``ALLOWED`` names it.
"""

import ast
import json
import sys
from pathlib import Path

from hypcycle import cli

PACKAGE = Path(cli.__file__).resolve().parent

# qualified name -> why it stays although no CLI case calls it
ALLOWED = {
    "hecke.DoubleCoset.coset_count":
        "the benchmark's trace hook on DoubleCoset.__init__ reads it",
    "symspace.corestriction_map":
        "the benchmark's trace wraps it (perfbench/spans.py), and the "
        "oracles corestrict from Gamma_2 with it",
    "psl2.PMat.__eq__": "tests compare group elements with ==",
    "psl2.PMat.__hash__": "the hash that goes with PMat.__eq__",
}

CASES = [
    "h1 --group gamma0:11 --k 1",
    "h1 --group gamma1:7 --k 0 --ring Fp:3",
    "h1 --group gammaH:13:3 --k 0 --ring Q",
    "cycle --group gamma0:11 --k 1 --matrix [[7,-2],[11,-3]]",
    "cycle --group gamma0:11 --k 0 --matrix [[1,0],[11,1]]",
    "hecke --group gamma0:11 --k 1 --op Tp --p 2",
    "hecke --group gamma0:9 --k 1 --ring Zp:3:2 --op Up --p 3",
    "hecke --group gamma1:7 --k 0 --op diamond:3",
    "hecke --group gamma1:7 --k 0 --op diamond:6",
    "ordinary --group gamma0:11 --k 0 --p 2 --M 3",
    "verify-main --group gamma0:11 --k 0 --p 3",
    "quotient --group gamma0:4 --k 2",
    "boundary --group gammaH:13:3 --k 0 --ring Zp:2:3",
    "check-identity --N 2 --p 3 --k 1",
    "check-generation --group gamma1:5 --k 0",
    "bridge --N 6 --p 3 --k 1",
    "h1 --group gamma0:11 --k -1",
    "hecke --group gamma0:11 --k 0 --op Tp --p 11",
]
BATCH = [
    {"subcommand": "h1", "group": "gamma0:11", "k": 0},
    {"subcommand": "quotient", "group": "gamma0:11", "k": 0,
     "max_generators": 1},
    {"subcommand": "h1", "group": "gammaX:11", "k": 0},
    5,
]


def definitions():
    """(file, first line) -> qualified name, for every def in the
    package, nested ones included."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = (child.decorator_list[0].lineno
                            if child.decorator_list else child.lineno)
                    name = prefix + child.name
                    out[str(path), line] = name
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, path.stem + ".")
    return out


def called_code(argv_list):
    """(file, first line) of every Python code object called while
    ``cli.main`` runs each argv."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in argv_list:
            cli.main(argv)
    finally:
        sys.setprofile(old)
    return seen


def test_every_definition_is_called(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(BATCH))
    argvs = [case.split() for case in CASES]
    argvs.append(["batch", "--manifest", str(manifest)])
    called = {(str(Path(f).resolve()), line)
              for f, line in called_code(argvs)}
    capsys.readouterr()
    defs = definitions()
    uncalled = sorted(name for key, name in defs.items()
                      if key not in called and name not in ALLOWED)
    assert uncalled == []
    # an allowlist entry for a definition that is gone or called is stale
    names = set(defs.values())
    assert all(name in names for name in ALLOWED)
    assert not [name for key, name in defs.items()
                if name in ALLOWED and key in called]
