"""Self-test of the benchmark (not of hypcycle).

    python3 perfbench/selftest.py

Run from the root of a checkout; it takes about two minutes, because it
makes the traced run of every workload.  It fails when:

- a wrapped name records zero calls on a workload listed for it in
  ``CALLED_ON``, or a wrapped name is listed for no workload;
- a wrong pinned answer is not reported as a wrong, failed case;
- a traced report differs from the untraced report of the same case;
- the pinned charpoly of ``hecke gamma0:1 k=9 T5``, which the CLI cannot
  print today, disagrees with the same computation made in-process with
  Python's integer digit limit lifted;
- the metric lists of ``run.py`` disagree with ``BENCHMARK.json``.
"""

import io
import json
import sys

import run
import spans

CALLED_ON = {
    "h1-weight": [
        "cosets.build_cosets", "homology.compute_h1", "intlinalg.ColumnEchelon",
        "intlinalg.kernel_basis", "intlinalg.subquotient",
        "intlinalg.smith_normal_form_full", "hecke.OperatorMatrix.charpoly",
        "cli.main",
    ],
    "hecke-level": [
        "cosets.build_cosets", "cosets.subgroup_transversal",
        "cosets.CosetTable.coset_of", "symspace.restriction_map",
        "symspace.corestriction_map", "homology.compute_h1", "homology.cycle_of",
        "homology.H1Presentation.coords", "intlinalg.ColumnEchelon.solve",
        "intlinalg.Lattice.add", "hecke.DoubleCoset.init",
        "hecke.DoubleCoset.operator", "hecke.conj_star",
        "hecke.OperatorMatrix.charpoly", "ordinary.ordinary_idempotent",
        "ordinary.enumerate_hyperbolic", "boundary.cusp_data", "cli.main",
    ],
    "modp": [
        "cosets.build_cosets", "homology.compute_h1", "intlinalg.ColumnEchelon",
        "intlinalg.ColumnEchelon.solve", "intlinalg.kernel_mod",
        "intlinalg.subquotient", "intlinalg.smith_normal_form_full", "cli.main",
    ],
}
T5 = "hecke --group gamma0:1 --k 9 --op Tp --p 5"
CHEAP = "h1 --group gamma0:7 --k 3"


def check_metric_lists(problems):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, ours in (("end_to_end", run.END_TO_END),
                      ("per_layer", run.PER_LAYER)):
        theirs = [(m["name"], m["unit"]) for m in bench[key]]
        if theirs != ours:
            problems.append("run.py %s differs from BENCHMARK.json" % key)
    if [w["name"] for w in bench["workloads"]] != run.WORKLOADS:
        problems.append("workload files differ from BENCHMARK.json")


def check_wrong_pin(problems):
    case_id, argv, pin = next(c for c in run.load_cases("h1-weight", 0)
                              if c[0] == CHEAP)
    proc = run.Proc(run.PROGRAM + argv, run.CAP_S)
    bad = dict(pin, fields=dict(pin["fields"], rank=pin["fields"]["rank"] + 1))
    outcome = [run.check(pin, proc), run.check(bad, proc)]
    result = run.summary(outcome, {}, [])
    if outcome != ["ok", "wrong"] or result["correct"] or result["failed"] != 1:
        problems.append("wrong pin not reported: %r %r" % (outcome, result))


def check_t5_pin(problems):
    sys.path.insert(0, str(run.ROOT / "src"))
    import hypcycle.cli

    pin = json.loads((run.HERE / "pins.json").read_text())[T5]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    buf, real = io.StringIO(), sys.stdout
    try:
        sys.stdout = buf
        code = hypcycle.cli.main(T5.split())
        sys.stdout = real
        report = json.loads(buf.getvalue())
    finally:
        sys.stdout = real
        sys.set_int_max_str_digits(limit)
    if code != pin["exit"] or any(report[k] != v for k, v in pin["fields"].items()):
        problems.append("T5 pin disagrees with the in-process answer")


def check_traced_runs(problems):
    names = {name for name, _, _, _ in spans.TARGETS}
    unassigned = names.difference(*CALLED_ON.values())
    if unassigned:
        problems.append("wrapped but never checked: %s" % sorted(unassigned))
    for workload, expected in CALLED_ON.items():
        cases = run.load_cases(workload, 0)
        totals, _, outcome, _, _ = run.trace_cases(cases)
        for (case_id, _, _), o in zip(cases, outcome):
            if o == "trace-differs":
                problems.append("%s: traced report differs on %s" % (workload, case_id))
        for name in expected:
            if totals[name]["calls"] == 0:
                problems.append("%s: %s records zero calls" % (workload, name))


def main():
    problems = []
    check_metric_lists(problems)
    check_wrong_pin(problems)
    check_t5_pin(problems)
    check_traced_runs(problems)
    for p in problems:
        print("FAIL", p)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
