"""Closed-loop benchmark of the hypcycle CLI on fixed workload ladders.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A workload is a case list in the
``batch`` manifest format (``perfbench/workloads/NAME.json``); replay one
by hand with ``hypcycle batch --manifest perfbench/workloads/NAME.json``.
Each case runs as its own ``python3 -m hypcycle.cli`` process, one at a
time: the next case starts when the previous one has exited (a single
client, closed loop).  ``--seed`` is passed as ``--seed`` to the
subcommands that take one.  ``HYPCYCLE_THREADS`` is cleared, so the
measured program is the default one.

Every case is checked against ``perfbench/pins.json``: its exit code
and the report fields that do not depend on a basis.  A case fails on a
mismatch ("wrong", which also makes the run incorrect), on stdout that is
not one JSON object ("crashed"), or on reaching the cap ("capped"); a
capped case counts as the time it ran.  Failed cases stay in every
result.  After one pass over every case, the cases that were not capped
are run again, fewest runs first and the longest among equals, until
they have been measured for ``--seconds`` (capped runs extend the window).
While a case runs, a thread of this process times a small fixed kernel
on the other core every 50 ms, and the run's times are scaled by
``REF_S`` over the median of those times; each case counts as the median
of its scaled runs.  A capped run counts as the wall time the cap allowed
it, unscaled.  ``setup_s`` is the median scaled start-up time of
``hypcycle --version``, probed before every case run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
case once under ``perfbench/spans.py`` and once without it, and prints
the per-layer metrics of the cases that were not capped; the two report
texts must be byte-identical.
The last line of stdout is the result object; the lines above it give
the context (git rev, nproc, Python, seed, cap) and one line per case.
"""

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = sorted(p.stem for p in (HERE / "workloads").glob("*.json"))
# Above the slowest case that finishes (gamma0:1 k=11: 6-10 s on a
# shared 2-core box) and far below the ceiling rungs, which take minutes.
CAP_S = 15.0
SEEDED = {"verify-main", "quotient", "bridge"}
# Other tenants of a shared box change how fast it runs pure Python by up
# to 1.8x, from one second to the next and in phases minutes long.  So a
# thread times kernel() beside every case run, on the core the case leaves
# idle, and the run's times are scaled by REF_S over the median of those
# times: the time metrics read as seconds on a box that runs kernel() in
# REF_S (about its median beside a case on a 2-vCPU Xeon VM).  There, a
# case's time tracked that median with correlation 0.9, and the scaling
# cut the spread of hecke-level's wall_s across 24 s runs from 20-26% to
# about 7%; see NOTES.md.
REF_S = 0.002
SAMPLE_GAP_S = 0.05
REF_X, REF_M = 7 ** 1200, 11 ** 1150
PROGRAM = [sys.executable, "-m", "hypcycle.cli"]

END_TO_END = [
    ("wall_s", "s"), ("cpu_s", "s"), ("case_s.geomean", "s"),
    ("case_s.max", "s"), ("peak_rss_mb", "MB"), ("pass_frac", "ratio"),
    ("setup_s", "s"),
]
PER_LAYER = [
    ("cosets.build_cosets.self_s", "s"), ("cosets.build_cosets.calls", "count"),
    ("cosets.index.sum", "count"), ("cosets.index.max", "count"),
    ("cosets.subgroup_transversal.self_s", "s"),
    ("cosets.CosetTable.coset_of.calls", "count"),
    ("symspace.restriction_map.self_s", "s"),
    ("symspace.corestriction_map.self_s", "s"),
    ("homology.compute_h1.self_s", "s"), ("homology.compute_h1.calls", "count"),
    ("homology.ambient_dim.max", "count"),
    ("homology.cycle_of.self_s", "s"), ("homology.cycle_of.calls", "count"),
    ("homology.H1Presentation.coords.self_s", "s"),
    ("homology.H1Presentation.coords.calls", "count"),
    ("intlinalg.ColumnEchelon.self_s", "s"),
    ("intlinalg.ColumnEchelon.calls", "count"),
    ("intlinalg.ColumnEchelon.solve.self_s", "s"),
    ("intlinalg.ColumnEchelon.solve.calls", "count"),
    ("intlinalg.kernel_basis.self_s", "s"), ("intlinalg.kernel_mod.self_s", "s"),
    ("intlinalg.subquotient.self_s", "s"),
    ("intlinalg.smith_normal_form_full.self_s", "s"),
    ("intlinalg.bits.max", "bits"), ("intlinalg.Lattice.add.calls", "count"),
    ("intlinalg.Lattice.add.useful_ratio", "ratio"),
    ("hecke.DoubleCoset.init.self_s", "s"), ("hecke.DoubleCoset.calls", "count"),
    ("hecke.DoubleCoset.coset_count.sum", "count"),
    ("hecke.conj_star.self_s", "s"), ("hecke.DoubleCoset.operator.self_s", "s"),
    ("hecke.OperatorMatrix.charpoly.self_s", "s"),
    ("ordinary.ordinary_idempotent.self_s", "s"),
    ("ordinary.ordinary_idempotent.calls", "count"),
    ("ordinary.enumerate_hyperbolic.self_s", "s"),
    ("ordinary.enumerate_hyperbolic.yielded", "count"),
    ("boundary.cusp_data.self_s", "s"),
    ("cli.main.self_s", "s"), ("cli.report_bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
]


def child_env():
    env = dict(os.environ)
    env.pop("HYPCYCLE_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Proc:
    """One finished (or capped) child process."""

    def __init__(self, argv, cap_s):
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        streams = {}
        readers = [threading.Thread(target=lambda k=k, f=f: streams.update({k: f.read()}))
                   for k, f in (("out", proc.stdout), ("err", proc.stderr))]
        for r in readers:
            r.start()
        capped = threading.Event()

        def stop():
            capped.set()
            proc.kill()

        timer = threading.Timer(cap_s, stop)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        self.wall_s = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        for r in readers:
            r.join()
        proc.stdout.close()
        proc.stderr.close()
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
        self.exit = None if capped.is_set() else proc.returncode
        self.stdout = streams["out"]
        self.stderr = streams["err"]


def cli_argv(entry):
    """The command line ``hypcycle batch`` builds from a manifest entry."""
    argv = [entry["subcommand"]]
    for key, val in entry.items():
        if key != "subcommand":
            argv += ["--" + key.replace("_", "-"), str(val)]
    return argv


def load_cases(workload, seed):
    """(case id, argv, pin) per manifest entry; the id omits the seed."""
    manifest = json.loads((HERE / "workloads" / (workload + ".json")).read_text())
    pins = json.loads((HERE / "pins.json").read_text())
    cases = []
    for entry in manifest:
        argv = cli_argv(entry)
        case_id = " ".join(argv)
        if entry["subcommand"] in SEEDED:
            argv += ["--seed", str(seed)]
        cases.append((case_id, argv, pins[case_id]))
    return cases


def check(pin, proc):
    """'ok', 'wrong', 'crashed' or 'capped' for one run of a case."""
    if proc.exit is None:
        return "capped"
    try:
        report = json.loads(proc.stdout)
    except ValueError:
        return "crashed"
    if not isinstance(report, dict) or proc.stdout.count(b"\n") != 1:
        return "crashed"
    if proc.exit != pin["exit"] or any(report.get(k) != v
                                       for k, v in pin["fields"].items()):
        return "wrong"
    return "ok"


def kernel():
    """Seconds for a fixed piece of the kinds of work the program does:
    small-int arithmetic mod n on 4-tuples counted in a dict (as in coset
    enumeration) and big-int products mod a big modulus (as in integer
    echelon forms)."""
    t0 = perf_counter()
    seen = {}
    a, b, c, d = 1, 2, 3, 7
    for _ in range(1500):
        a, b = (3 * a + b) % 10007, (a + 2 * b) % 10007
        c, d = (3 * c + d) % 10007, (c + 2 * d) % 10007
        key = (a, b, c, d)
        seen[key] = seen.get(key, 0) + 1
    y = 1
    for i in range(30):
        y = (y * REF_X + i) % REF_M
    return perf_counter() - t0


def reference():
    """Median kernel() time with nothing else running."""
    return statistics.median(kernel() for _ in range(10))


def timed_beside(fn):
    """fn(), and the kernel() times a thread took every SAMPLE_GAP_S
    while fn() ran."""
    times, done = [], threading.Event()

    def sample():
        while not done.is_set():
            times.append(kernel())
            done.wait(SAMPLE_GAP_S)

    thread = threading.Thread(target=sample)
    thread.start()
    try:
        return fn(), times
    finally:
        done.set()
        thread.join()


def setup_probe():
    proc = Proc(PROGRAM + ["--version"], CAP_S)
    if proc.exit != 0:
        sys.exit("perfbench: hypcycle does not start from %s:\n%s"
                 % (ROOT / "src", proc.stderr.decode(errors="replace")))
    return proc.wall_s


def run_cases(cases, seconds):
    """Every case once, then repeats of the cases that were not capped
    until they have been measured for ``seconds``.  Time spent in
    capped runs extends the window, so the ceiling rungs do not eat the
    measurement of the others.  A case is skipped when its fastest run
    would end past the window.  A set-up probe precedes every case run,
    so set-up is sampled across the same stretch of time.  Each run of a
    case is kept as (process, speed), where speed scales its times to
    the reference box."""
    runs = [[] for _ in cases]
    outcome = [None] * len(cases)
    setup = []
    ref = [reference()]
    deadline = perf_counter() + seconds

    def run_once(i):
        nonlocal deadline
        (probe, proc), beside = timed_beside(
            lambda: (setup_probe(), Proc(PROGRAM + cases[i][1], CAP_S)))
        ref.append(reference())
        # A case that kept both cores busy slowed the kernel itself; then
        # the kernel times taken alone before and after it stand in.
        if proc.cpu_s <= 1.2 * proc.wall_s and len(beside) >= 3:
            speed = REF_S / statistics.median(beside)
        else:
            speed = REF_S / statistics.fmean(ref[-2:])
        setup.append(probe * speed)
        runs[i].append((proc, speed))
        if proc.exit is None:
            deadline += proc.wall_s
        if outcome[i] in (None, "ok"):  # a case keeps its first failure
            outcome[i] = check(cases[i][2], proc)

    def fastest(i):
        return min(p.wall_s for p, _ in runs[i])

    for i in range(len(cases)):
        run_once(i)
    while True:
        now = perf_counter()
        fits = [i for i, o in enumerate(outcome)
                if o != "capped" and now + fastest(i) <= deadline]
        if not fits:
            return runs, outcome, setup, ref
        # fewest runs first; among those the longest, so the slowest case
        # is measured as often as any and short cases fill the window's end
        run_once(min(fits, key=lambda i: (len(runs[i]), -fastest(i))))


def scaled(runs, attr):
    """Median over runs of a case of one time, scaled to the reference
    box.  The cap limits wall time, so a capped run counts as the time it
    was allowed."""
    return statistics.median(getattr(p, attr) * (v if p.exit is not None else 1)
                             for p, v in runs)


def end_to_end(runs, outcome, setup):
    case_s = [scaled(r, "wall_s") for r in runs]
    return {
        "wall_s": sum(case_s),
        "cpu_s": sum(scaled(r, "cpu_s") for r in runs),
        "case_s.geomean": math.exp(statistics.fmean(map(math.log, case_s))),
        "case_s.max": max(case_s),
        # a capped process's size at the kill shows how far it got, not
        # what the case needs
        "peak_rss_mb": max(p.rss_mb for r in runs for p, _ in r if p.exit is not None),
        "pass_frac": outcome.count("ok") / len(outcome),
        "setup_s": statistics.median(setup),
    }


def trace_cases(cases):
    """Each case once under the tracer and, unless it reached the cap,
    once without it.  Returns the summed spans and sizes of the cases
    that were not capped, per-case outcomes, report bytes and the trace
    overhead.  A capped case's spans stop at an arbitrary point of its
    work, so they are left out."""
    spans, sizes = {}, {}
    outcome, report_bytes = [], 0
    traced_s = untraced_s = 0.0
    for _, argv, pin in cases:
        traced = Proc([sys.executable, str(HERE / "spans.py")] + argv, CAP_S)
        if traced.exit is None:
            outcome.append("capped")
            continue
        try:
            data = json.loads(traced.stdout)
        except ValueError:
            sys.exit("perfbench: tracer failed on %s:\n%s"
                     % (" ".join(argv), traced.stderr.decode(errors="replace")))
        for name, tot in data["spans"].items():
            acc = spans.setdefault(name, dict.fromkeys(tot, 0))
            for key, val in tot.items():
                acc[key] += val
        for key, val in data["sizes"].items():
            merge = max if key.endswith(".max") else (lambda a, b: a + b)
            sizes[key] = merge(sizes.get(key, 0), val)
        plain = Proc(PROGRAM + argv, CAP_S)
        result = check(pin, plain)
        if (data["report"].encode(), data["exit"]) != (plain.stdout, plain.exit):
            result = "trace-differs"
        outcome.append(result)
        report_bytes += len(plain.stdout)
        traced_s += traced.wall_s
        untraced_s += plain.wall_s
    return spans, sizes, outcome, report_bytes, traced_s / untraced_s - 1


def per_layer(spans, sizes, report_bytes, overhead):
    values = {"cli.report_bytes": report_bytes, "trace.overhead_frac": overhead}
    for name, tot in spans.items():
        for key, val in tot.items():
            values["%s.%s" % (name, key)] = val
    values.update(sizes)
    values["hecke.DoubleCoset.calls"] = spans["hecke.DoubleCoset.init"]["calls"]
    adds = spans["intlinalg.Lattice.add"]["calls"]
    useful = sizes.get("intlinalg.Lattice.add.useful", 0)
    values["intlinalg.Lattice.add.useful_ratio"] = useful / adds if adds else 0.0
    return {name: values.get(name, 0) for name, _ in PER_LAYER}


def summary(outcome, values, units):
    """The result object: a run is correct unless some case gave a wrong
    answer; crashed and capped cases are failures, not wrong answers."""
    return {
        "correct": not {"wrong", "trace-differs"}.intersection(outcome),
        "attempted": len(outcome),
        "failed": sum(o != "ok" for o in outcome),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units},
    }


def git_rev():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_cases(cases, outcome, runs=None):
    for i, (case_id, _, _) in enumerate(cases):
        line = {"case": case_id, "outcome": outcome[i]}
        if runs is not None:
            line.update(runs=len(runs[i]),
                        wall_s=round(scaled(runs[i], "wall_s"), 4),
                        raw_wall_s=round(statistics.median(p.wall_s for p, _ in runs[i]), 4),
                        rss_mb=round(max(p.rss_mb for p, _ in runs[i]), 1))
        print(json.dumps(line))


def print_shares(spans):
    total = sum(t["self_s"] for t in spans.values()) or 1.0
    ranked = sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])
    for name, tot in ranked[:8]:
        print("self-time share %5.1f%%  %s" % (100 * tot["self_s"] / total, name))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    # end like an interrupt on SIGTERM, so the running case is killed too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # reports of a fixed program may carry integers past the default limit
    sys.set_int_max_str_digits(0)
    if not (ROOT / "src" / "hypcycle" / "cli.py").is_file():
        sys.exit("perfbench: no hypcycle source under %s" % (ROOT / "src"))
    cases = load_cases(args.workload, args.seed)
    setup_probe()  # unmeasured: the first start compiles the bytecode cache
    reference()  # unmeasured: warms up the kernel
    print(json.dumps({"context": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "cap_s": CAP_S, "rev": git_rev(),
        "nproc": os.cpu_count(), "python": platform.python_version()}}))
    if args.trace:
        spans, sizes, outcome, nbytes, overhead = trace_cases(cases)
        print_cases(cases, outcome)
        print_shares(spans)
        values = per_layer(spans, sizes, nbytes, overhead)
        units = PER_LAYER
    else:
        runs, outcome, setup, ref = run_cases(cases, args.seconds)
        print_cases(cases, outcome, runs)
        print(json.dumps({"reference": {
            "nominal_s": REF_S, "median_s": statistics.median(ref),
            "samples": len(ref)}}))
        values = end_to_end(runs, outcome, setup)
        units = END_TO_END
    print(json.dumps(summary(outcome, values, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
