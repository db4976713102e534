"""Command-line interface: subgroup homology, cycle classes, Hecke
matrices, ordinary parts, the main-theorem and quotient verifiers,
boundary data, and batch runs over a manifest.

Reports are deterministic JSON (sorted keys, no timestamps), so equal
configurations produce byte-identical output.  Exit codes: 0 for
Verified/OK, 1 for Falsified, 2 for Inconclusive or partial failure,
3 and above for errors.

Each subcommand imports the modules it runs when it is called, and
this module imports only argparse, json and sys: a process that runs
under PYTHONDONTWRITEBYTECODE compiles every module it imports from
source, so ``--version`` loads no other module of the package, ``h1``
none of the Hecke, run-walk, ordinary-part or boundary code, and only
a charpoly (a ``hecke`` report over Q) loads polyz.  The arguments are
read in two stages: the top-level parser reads --version, --output
and the subcommand's name, and only the named subcommand's parser is
built to read the rest, so ``--version`` builds no subcommand parser.
"""

import argparse
import json
import sys

from . import __version__


class CliError(Exception):
    """Bad input caught by the command line itself: exit code 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


# errors of the input or of the budget: JSON error report, exit code 3;
# the library's own input errors all derive from ValueError
INPUT_ERRORS = (ValueError,)


def _weight(text):
    k = int(text)
    if k < 0:
        raise argparse.ArgumentTypeError("k must be >= 0, got %d" % k)
    return k


def _positive(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % n)
    return n


def _prime(text):
    from .intlinalg import is_prime

    p = int(text)
    if not is_prime(p):
        raise argparse.ArgumentTypeError("p = %d is not prime" % p)
    return p


def _dumps(obj):
    """Compact sorted JSON; Python's int-to-str digit limit is lifted
    while encoding, since exact Hecke matrices can exceed it."""
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    finally:
        if lift:
            sys.set_int_max_str_digits(limit)


EXIT_CODES = {"Verified": 0, "Falsified": 1, "Inconclusive": 2}


def _verdict_report(rep):
    """A verdict report as a dict, with the exit code of its verdict."""
    return rep._asdict(), EXIT_CODES[rep.verdict]


def _budget_from(args):
    from .ordinary import Budget

    return Budget(max_generators=args.max_generators, seed=args.seed)


def _config_dict(args):
    out = {key: val for key, val in vars(args).items()
           if key not in ("func", "output")}
    out["version"] = __version__
    return out


def cmd_h1(args):
    from .cosets import SubgroupSpec
    from .homology import compute_h1
    from .intlinalg import RingSpec

    spec = SubgroupSpec.parse(args.group)
    ring = RingSpec.parse(args.ring)
    h1 = compute_h1(spec, args.k, ring)
    report = {
        "level": spec.N,
        "group": spec.name,
        "k": args.k,
        "ring": str(ring),
        "invariant_factors": list(h1.invariant_factors),
        "rank": h1.rank,
    }
    return report, 0


def cmd_cycle(args):
    from .cosets import SubgroupSpec
    from .homology import compute_h1
    from .intlinalg import ZZ
    from .psl2 import PMat, classify, poly_str, quadratic_form

    spec = SubgroupSpec.parse(args.group)
    g = PMat.parse(args.matrix)
    if not spec.contains(g):
        raise CliError("matrix is not in the subgroup")
    cls = classify(g)
    report = {
        "group": spec.name,
        "k": args.k,
        "matrix": repr(g),
        "class": cls,
    }
    if cls in ("hyperbolic", "parabolic"):
        h1 = compute_h1(spec, args.k, ZZ)
        report["quadratic_form"] = poly_str(quadratic_form(g))
        report["coords"] = list(h1.cycle_coords(g))
        report["h1_invariant_factors"] = list(h1.invariant_factors)
    return report, 0


def cmd_hecke(args):
    from functools import partial

    from .cosets import SubgroupSpec
    from .hecke import (WrongDivisibility, diamond_coset, diamond_matrix,
                        hecke_coset)
    from .homology import compute_h1
    from .intlinalg import RingSpec

    spec = SubgroupSpec.parse(args.group)
    ring = RingSpec.parse(args.ring)
    # the operator is checked before H1 is built
    op_name = args.op
    if op_name in ("Tp", "Up"):
        if args.p is None:
            raise CliError("--op %s requires --p" % op_name)
        if op_name == "Tp" and spec.N % args.p == 0:
            raise WrongDivisibility("T_p requires p coprime to the level")
        if op_name == "Up" and spec.N % args.p:
            raise WrongDivisibility("U_p requires p dividing the level")
        coset = partial(hecke_coset, args.p)
        label = "%s%d" % (op_name[0], args.p)
    elif op_name.startswith("diamond:"):
        d = int(op_name.split(":", 1)[1])
        diamond_matrix(spec.N, d)  # WrongDivisibility unless gcd(d, N) = 1
        coset = partial(diamond_coset, d)
        label = "<%d>" % d
    else:
        raise CliError("unknown operator %r" % op_name)
    h1 = compute_h1(spec, args.k, ring)
    op = coset(h1).operator()
    report = {
        "group": spec.name,
        "k": args.k,
        "ring": str(ring),
        "operator": label,
        "matrix": op.matrix,
        "invariant_factors": list(h1.invariant_factors),
    }
    if ring.kind == "Q":
        report["charpoly"] = op.charpoly_str()
    return report, 0


def cmd_ordinary(args):
    from .cosets import SubgroupSpec
    from .ordinary import ordinary_part

    spec = SubgroupSpec.parse(args.group)
    split, h1z, _ = ordinary_part(spec, args.k, args.p, args.M)
    report = {
        "group": spec.name,
        "k": args.k,
        "p": args.p,
        "M": args.M,
        "operator": ("U%d" if spec.N % args.p == 0 else "T%d") % args.p,
        "h1_invariant_factors": list(h1z.invariant_factors),
        "ordinary_invariant_factors": list(split.ordinary_factors),
        "ordinary_rank": split.ordinary_rank,
        "nilpotent_rank": split.nilpotent_rank,
    }
    return report, 0


def cmd_verify_main(args):
    from .cosets import SubgroupSpec
    from .ordinary import verify_main_theorem

    spec = SubgroupSpec.parse(args.group)
    rep = verify_main_theorem(spec, args.k, args.p, args.M, _budget_from(args))
    return _verdict_report(rep)


def cmd_quotient(args):
    from .cosets import SubgroupSpec
    from .ordinary import cycle_quotient_report

    spec = SubgroupSpec.parse(args.group)
    rep = cycle_quotient_report(spec, args.k, _budget_from(args))
    return _verdict_report(rep)


def cmd_boundary(args):
    from .boundary import boundary_subgroup, cusp_data
    from .cosets import SubgroupSpec
    from .homology import compute_h1
    from .intlinalg import RingSpec

    spec = SubgroupSpec.parse(args.group)
    ring = RingSpec.parse(args.ring)
    h1 = compute_h1(spec, args.k, ring)
    cusps = cusp_data(h1.table)
    factors, _ = boundary_subgroup(h1, cusps)
    report = {
        "group": spec.name,
        "k": args.k,
        "ring": str(ring),
        "cusps": [c.as_dict() for c in cusps],
        "boundary_invariant_factors": list(factors),
        "h1_invariant_factors": list(h1.invariant_factors),
    }
    return report, 0


def cmd_check_identity(args):
    from .boundary import check_boundary_identity

    rep = check_boundary_identity(args.N, args.p, args.k)
    return _verdict_report(rep)


def cmd_check_generation(args):
    from .boundary import check_hecke_generation
    from .cosets import SubgroupSpec

    spec = SubgroupSpec.parse(args.group)
    rep = check_hecke_generation(spec, args.k)
    return _verdict_report(rep)


def cmd_bridge(args):
    from .ordinary import mod_p_bridge

    rep = mod_p_bridge(args.N, args.p, args.k, _budget_from(args))
    return _verdict_report(rep)


BATCH_COLUMNS = ["row", "subcommand", "status", "exit_code", "group", "k",
                 "ring", "p", "M", "verdict", "detail"]


def cmd_batch(args):
    import csv
    import io

    try:
        with open(args.manifest) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise CliError(str(exc)) from exc
    if not isinstance(manifest, list):
        raise CliError("manifest must be a JSON list of run configs")
    rows = []
    worst = 0
    for i, entry in enumerate(manifest):
        row = {c: "" for c in BATCH_COLUMNS}
        row["row"] = i
        try:
            if not isinstance(entry, dict):
                raise CliError("manifest entry is not an object: %r"
                               % (entry,))
            row["subcommand"] = entry.get("subcommand", "")
            # a batch row would print CSV in place of a report, and a
            # manifest naming itself would recurse; a row's report goes
            # to the CSV, never to a file of its own
            if row["subcommand"] == "batch":
                raise CliError("a manifest entry cannot run batch")
            if "output" in entry:
                raise CliError("a manifest entry cannot name output")
            argv = [row["subcommand"]]
            for key, val in entry.items():
                if key == "subcommand":
                    continue
                argv.append("--%s" % key.replace("_", "-"))
                argv.append(str(val))
            parsed = parse_args(argv)
            report, code = parsed.func(parsed)
            row["status"] = "ok"
            row["exit_code"] = code
            for key in ("group", "k", "ring", "p", "M", "verdict"):
                if key in report:
                    row[key] = report[key]
            row["detail"] = _dumps(report)
            worst = max(worst, min(code, 2))
        except Exception as exc:  # isolate failures per row
            row["status"] = "error"
            row["exit_code"] = 3
            row["detail"] = str(exc)
            worst = max(worst, 2)
        rows.append(row)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=BATCH_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue(), worst


OUTPUT_HELP = "write the report to a file"

GROUP = ("--group", {"required": True})
WEIGHT = ("--k", {"type": _weight, "required": True})
PRIME = ("--p", {"type": _prime, "required": True})
PRECISION = ("--M", {"type": _positive, "default": 2})
LEVEL = ("--N", {"type": _positive, "required": True})
RING_Z = ("--ring", {"default": "Z"})
BUDGET = (("--seed", {"type": int, "default": 0}),
          ("--max-generators", {"type": _positive, "default": 300}))

# subcommand -> (handler, help, flags), in the order of the help text;
# each flag is an (option, argparse keywords) pair
COMMANDS = {
    "h1": (cmd_h1, "invariant factors and rank of H1",
           (GROUP, WEIGHT, RING_Z)),
    "cycle": (cmd_cycle, "cycle class of a matrix",
              (GROUP, WEIGHT, ("--matrix", {"required": True}))),
    "hecke": (cmd_hecke, "Hecke operator matrix and charpoly",
              (GROUP, WEIGHT, ("--ring", {"default": "Q"}),
               ("--op", {"required": True, "help": "Tp | Up | diamond:d"}),
               ("--p", {"type": _prime}))),
    "ordinary": (cmd_ordinary, "ordinary part of H1 mod p^M",
                 (GROUP, WEIGHT, PRIME, PRECISION)),
    "verify-main": (cmd_verify_main, "ordinary part vs hyperbolic-cycle span",
                    (GROUP, WEIGHT, PRIME, PRECISION) + BUDGET),
    "quotient": (cmd_quotient, "H1 / hyperbolic-cycle span",
                 (GROUP, WEIGHT) + BUDGET),
    "boundary": (cmd_boundary, "cusps and boundary subgroup",
                 (GROUP, WEIGHT, RING_Z)),
    "check-identity": (cmd_check_identity,
                       "T_p z(T) = (1 + p^(2k+1) <p>) z(T)",
                       (LEVEL, PRIME, WEIGHT)),
    "check-generation": (cmd_check_generation,
                         "Hecke generation of the boundary", (GROUP, WEIGHT)),
    "bridge": (cmd_bridge, "mod-p reduction bridge (p | N)",
               (LEVEL, PRIME, WEIGHT) + BUDGET),
    "batch": (cmd_batch, "run a JSON manifest, emit CSV",
              (("--manifest", {"required": True}),)),
}


def build_parser():
    """The top-level parser: --version, --output and the subcommand,
    whose positional takes its name and every argument after it (nargs
    PARSER, as a subparser would); its help lists the table."""
    listing = "".join("\n  %-22s%s" % (name, text)
                      for name, (_, text, _) in COMMANDS.items())
    parser = _Parser(prog="hypcycle", description=__doc__,
                     epilog="subcommands:" + listing,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("subcommand", choices=COMMANDS, nargs=argparse.PARSER,
                        help="one of the subcommands below, then its options")
    parser.add_argument("--output", help=OUTPUT_HELP)
    return parser


def subcommand_parser(name):
    """The parser of one subcommand's options."""
    func, _, flags = COMMANDS[name]
    parser = _Parser(prog="hypcycle " + name)
    for option, kwargs in flags:
        parser.add_argument(option, **kwargs)
    # the top-level --output, also accepted after the subcommand;
    # without a default here, it would overwrite a value given before
    parser.add_argument("--output", default=argparse.SUPPRESS, help=OUTPUT_HELP)
    parser.set_defaults(func=func)
    return parser


def parse_args(argv=None):
    """The arguments of one run, read in two stages: the top-level
    parser reads the options before the subcommand and its name, and
    only that subcommand's parser is built to read the rest.
    Unrecognized arguments of both stages are reported together, as a
    subparser's would be."""
    top = build_parser()
    args, extra = top.parse_known_args(argv)
    args.subcommand, *rest = args.subcommand
    args, more = subcommand_parser(args.subcommand).parse_known_args(rest, args)
    if extra + more:
        top.error("unrecognized arguments: %s" % " ".join(extra + more))
    return args


def _print_error(exc):
    print(_dumps({"error": str(exc), "version": __version__}))


def main(argv=None):
    try:
        args = parse_args(argv)
        result, code = args.func(args)
    except (CliError,) + INPUT_ERRORS as exc:
        _print_error(exc)
        return 3
    if isinstance(result, str):
        text = result
    else:
        result = dict(result)
        result["config"] = _config_dict(args)
        text = _dumps(result) + "\n"
    output = args.output
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            _print_error(exc)
            return 3
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
