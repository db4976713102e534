"""Exit codes of the command-line interface (0 Verified, 2 Inconclusive,
3 bad input), the ``batch`` runner's exit code, ``--output`` on either
side of the subcommand, a ``batch`` entry refused as an error row,
byte-identical reports for repeated runs, the exact bytes of the
argument errors and of a ``batch`` CSV with error rows, the ``--help``
listing, the cycle class of a hyperbolic matrix, ``boundary`` over
each ring, and ``hecke`` in a process where sympy cannot be imported."""

import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hypcycle import __version__, cli
from hypcycle.intlinalg import RingSpec


@pytest.mark.parametrize("argv", [
    "verify-main --group gamma1:13 --k 0 --p 3 --max-generators 1",
    "quotient --group gamma0:11 --k 0 --max-generators 1",
])
def test_exhausted_budget_exits_2(argv, capsys):
    code = cli.main(argv.split())
    report = json.loads(capsys.readouterr().out)
    assert code == 2 and report["verdict"] == "Inconclusive"


@pytest.mark.parametrize("ring,factors", [
    ("Z", [3, 0, 0, 0]), ("Fp:3", [3, 3, 3, 3]), ("Zp:2:3", [8, 8, 8]),
    ("Q", [0, 0, 0]),
])
def test_boundary_on_every_ring(ring, factors, capsys):
    # H1 of Gamma_H(13; 3) with constant coefficients is (Z/3)^4 + Z^3;
    # the span of the cusp cycles keeps one of the Z/3 over Z
    argv = "boundary --group gammaH:13:3 --k 0 --ring %s" % ring
    assert cli.main(argv.split()) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["boundary_invariant_factors"] == factors


def test_zp_default_precision():
    assert RingSpec.parse("Zp:5") == RingSpec("ZpM", p=5, M=2)


def run_batch(tmp_path, capsys, rows):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(rows))
    code = cli.main(["batch", "--manifest", str(manifest)])
    return code, list(csv.DictReader(io.StringIO(capsys.readouterr().out)))


GOOD = {"subcommand": "h1", "group": "gamma0:11", "k": 0}
INCONCLUSIVE = {"subcommand": "quotient", "group": "gamma0:11", "k": 0,
                "max_generators": 1}
BAD = {"subcommand": "h1", "group": "gamma0:11", "k": 0, "ring": "Fp"}


@pytest.mark.parametrize("rows, expect", [
    ([GOOD], 0),
    ([GOOD, INCONCLUSIVE], 2),
    ([GOOD, BAD], 2),
    ([BAD, INCONCLUSIVE, GOOD], 2),
])
def test_batch_exit_code_caps_at_2(rows, expect, tmp_path, capsys):
    code, out = run_batch(tmp_path, capsys, rows)
    assert code == expect
    for row, entry in zip(out, rows):
        bad = entry is BAD
        assert row["status"] == ("error" if bad else "ok")
        assert int(row["exit_code"]) == (3 if bad else
                                         2 if entry is INCONCLUSIVE else 0)


def test_batch_entry_not_an_object_is_an_error_row(tmp_path, capsys):
    code, out = run_batch(tmp_path, capsys, [GOOD, 5])
    assert code == 2
    assert [(row["status"], row["exit_code"]) for row in out] == [
        ("ok", "0"), ("error", "3")]
    assert "not an object" in out[1]["detail"]


def test_batch_entry_running_batch_is_an_error_row(tmp_path, capsys):
    # a batch entry is refused before it runs, so the other rows of a
    # mixed manifest stay ok, and a manifest that names itself does not
    # recurse
    inner = tmp_path / "inner.json"
    inner.write_text(json.dumps([GOOD]))
    nested = {"subcommand": "batch", "manifest": str(inner)}
    code, out = run_batch(tmp_path, capsys, [GOOD, nested, GOOD])
    assert code == 2
    assert [(row["status"], row["exit_code"]) for row in out] == [
        ("ok", "0"), ("error", "3"), ("ok", "0")]
    assert "batch" in out[1]["detail"]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"subcommand": "batch",
                                     "manifest": str(manifest)}]))
    assert cli.main(["batch", "--manifest", str(manifest)]) == 2
    out = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [(row["status"], row["exit_code"]) for row in out] == [
        ("error", "3")]
    assert "batch" in out[0]["detail"]


def test_batch_entry_naming_output_is_an_error_row(tmp_path, capsys):
    # a row's report goes to the CSV: an entry that names a file of its
    # own is refused, and writes nothing
    target = tmp_path / "row.json"
    code, out = run_batch(tmp_path, capsys,
                          [GOOD, dict(GOOD, output=str(target)), GOOD])
    assert code == 2
    assert [(row["status"], row["exit_code"]) for row in out] == [
        ("ok", "0"), ("error", "3"), ("ok", "0")]
    assert "output" in out[1]["detail"] and not target.exists()


@pytest.mark.parametrize("before, after", [
    (["--output", "{out}"], ["batch", "--manifest", "{manifest}"]),
    ([], ["batch", "--manifest", "{manifest}", "--output", "{out}"]),
    (["--output", "{out}"], ["h1", "--group", "gamma0:11", "--k", "0"]),
    ([], ["h1", "--group", "gamma0:11", "--k", "0", "--output", "{out}"]),
])
def test_output_flag_writes_the_file(before, after, tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([GOOD]))
    out = tmp_path / "report.txt"
    argv = [a.format(out=out, manifest=manifest) for a in before + after]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == ""
    text = out.read_text()
    if "batch" in argv:
        assert next(csv.DictReader(io.StringIO(text)))["status"] == "ok"
    else:
        assert json.loads(text)["invariant_factors"] == [0, 0, 0]


# the argparse message for a name outside the subcommand table
INVALID_CHOICE = ("argument subcommand: invalid choice: 'foo' (choose from "
                  "'h1', 'cycle', 'hecke', 'ordinary', 'verify-main', "
                  "'quotient', 'boundary', 'check-identity', "
                  "'check-generation', 'bridge', 'batch')")


@pytest.mark.parametrize("argv, message", [
    ("", "the following arguments are required: subcommand"),
    ("foo", INVALID_CHOICE),
    ("h1 --group gamma0:11 --k -1", "argument --k: k must be >= 0, got -1"),
    ("h1 --group gamma0:11 --k 0 --bogus", "unrecognized arguments: --bogus"),
    ("--bogus h1 --group gamma0:11 --k 0 --ring Z --bogus 1",
     "unrecognized arguments: --bogus --bogus 1"),
    ("h1 --group gamma0:11",
     "the following arguments are required: --k"),
])
def test_argument_errors_are_exact(argv, message, capsys):
    # each error is one JSON line and exit code 3; the unrecognized
    # arguments before and after the subcommand are named together
    assert cli.main(argv.split()) == 3
    assert capsys.readouterr().out == (
        '{"error":"%s","version":"%s"}\n' % (message, __version__))


def test_output_before_and_after_the_subcommand_agree(tmp_path, capsys):
    # --output is read by the top-level parser before the subcommand and
    # by the subcommand's parser after it: the same file either way, and
    # the config names neither
    texts = []
    for where in ("before", "after"):
        out = str(tmp_path / ("%s.json" % where))
        args = ["h1", "--group", "gamma0:11", "--k", "1"]
        argv = (["--output", out] + args if where == "before"
                else args + ["--output", out])
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == ""
        texts.append(Path(out).read_text())
    assert texts[0] == texts[1]
    assert json.loads(texts[0])["config"] == {
        "group": "gamma0:11", "k": 1, "ring": "Z", "subcommand": "h1",
        "version": __version__}


def test_batch_with_error_rows_is_exact(tmp_path, capsys):
    rows = [GOOD, dict(GOOD, k=-1), dict(GOOD, bogus=1), {"subcommand": "foo"}]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(rows))
    assert cli.main(["batch", "--manifest", str(manifest)]) == 2
    assert capsys.readouterr().out == (
        "row,subcommand,status,exit_code,group,k,ring,p,M,verdict,detail\n"
        '0,h1,ok,0,gamma0:11,0,Z,,,,"{""group"":""gamma0:11"",'
        '""invariant_factors"":[0,0,0],""k"":0,""level"":11,""rank"":3,'
        '""ring"":""Z""}"\n'
        '1,h1,error,3,,,,,,,"argument --k: k must be >= 0, got -1"\n'
        "2,h1,error,3,,,,,,,unrecognized arguments: --bogus 1\n"
        '3,foo,error,3,,,,,,,"%s"\n' % INVALID_CHOICE)


def test_help_lists_every_subcommand(capsys):
    # the check of the installed package's --help: each subcommand
    # starts a line of its own, after the indent
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    for sub in ("h1", "cycle", "hecke", "ordinary", "verify-main", "quotient",
                "boundary", "check-identity", "check-generation", "bridge",
                "batch"):
        assert re.search(r"^ +%s( |$)" % re.escape(sub), help_text, re.M), sub


@pytest.mark.parametrize("argv", [
    ["batch", "--manifest", "{missing}/m.json"],
    ["--output", "{missing}/x", "batch", "--manifest", "{manifest}"],
])
def test_unopenable_path_exits_3(argv, tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([GOOD]))
    argv = [a.format(missing=tmp_path / "missing", manifest=manifest)
            for a in argv]
    assert cli.main(argv) == 3
    assert "error" in json.loads(capsys.readouterr().out)


def test_cycle_of_hyperbolic_matrix(capsys):
    code = cli.main("cycle --group gamma0:11 --k 1 --matrix [[7,-2],[11,-3]]"
                    .split())
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["class"] == "hyperbolic"
    assert len(report["coords"]) == len(report["h1_invariant_factors"]) == 6


@pytest.mark.parametrize("argv", [
    "hecke --group gamma0:11 --k 1 --op Tp --p 3",
    "hecke --group gamma0:9 --k 1 --ring Zp:3:2 --op Up --p 3",
    "quotient --group gamma0:11 --k 0",
    "verify-main --group gamma0:11 --k 0 --p 3",
])
def test_same_argv_same_bytes(argv, capsys):
    cli.main(argv.split())
    first = capsys.readouterr().out
    cli.main(argv.split())
    assert capsys.readouterr().out == first


WITHOUT_SYMPY = """
import sys
sys.modules["sympy"] = None
from hypcycle import cli
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv, charpoly", [
    ("hecke --group gamma1:13 --k 0 --op Tp --p 7",
     "x^4*(x-8)*(x-6)*(x+6)*(x^2-15*x+57)*(x^2-13*x+43)*(x^2-9*x+57)"
     "*(x^2+5*x+43)"),
    ("hecke --group gamma0:1 --k 9 --op Tp --p 5",
     "(x-19073486328126)*(x+2377410)^2"),
])
def test_hecke_needs_no_sympy(argv, charpoly):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", WITHOUT_SYMPY] + argv.split(),
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["charpoly"] == charpoly
