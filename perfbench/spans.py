"""Outside-in layer trace of the hypcycle package.

The public functions and methods listed in ``TARGETS`` are wrapped from
outside the package, with no change to its source.  A function is
replaced in every hypcycle module that binds it, so names imported with
``from .x import f`` are traced too; a method is wrapped on its class.
Each call opens a span.  A span's self time is its duration minus the
time its child spans cover, so every second lands in exactly one layer.
Work done by the tracer itself (bit lengths of returned matrices) is
kept out of every span and shows only as trace overhead.

Run as a script, it executes one CLI invocation under the trace and
prints one JSON line with the exit code, the report text ``cli.main``
wrote, and the span totals:

    PYTHONPATH=src python3 perfbench/spans.py h1 --group gamma0:7 --k 3
"""

import importlib
import inspect
import io
import json
import pkgutil
import sys
from time import perf_counter


def _bits(*matrices):
    return max((x.bit_length() for M in matrices for row in M for x in row),
               default=0)


def _after_build_cosets(rec, args, table):
    rec.add("cosets.index.sum", table.index)
    rec.peak("cosets.index.max", table.index)


def _after_compute_h1(rec, args, h1):
    rec.peak("homology.ambient_dim.max", h1.table.index * (2 * h1.k + 1))


def _after_echelon(rec, args, _):
    ech = args[0]
    rec.peak("intlinalg.bits.max", _bits(ech.H, ech.W))


def _after_matrix(rec, args, M):
    rec.peak("intlinalg.bits.max", _bits(M))


def _after_snf(rec, args, mats):
    rec.peak("intlinalg.bits.max", _bits(*mats))


def _after_subquotient(rec, args, module):
    rec.peak("intlinalg.bits.max", _bits(module.gen_lift))


def _after_lattice_add(rec, args, grew):
    rec.add("intlinalg.Lattice.add.useful", int(bool(grew)))


def _after_double_coset(rec, args, _):
    rec.add("hecke.DoubleCoset.coset_count.sum", args[0].coset_count)


# (span name, module, attribute path, hook run on the returned value)
TARGETS = [
    ("cosets.build_cosets", "cosets", "build_cosets", _after_build_cosets),
    ("cosets.subgroup_transversal", "cosets", "subgroup_transversal", None),
    ("cosets.CosetTable.coset_of", "cosets", "CosetTable.coset_of", None),
    ("symspace.restriction_map", "symspace", "restriction_map", None),
    ("symspace.corestriction_map", "symspace", "corestriction_map", None),
    ("homology.compute_h1", "homology", "compute_h1", _after_compute_h1),
    ("homology.cycle_of", "homology", "cycle_of", None),
    ("homology.H1Presentation.coords", "homology", "H1Presentation.coords",
     None),
    ("intlinalg.ColumnEchelon", "intlinalg", "ColumnEchelon.__init__",
     _after_echelon),
    ("intlinalg.ColumnEchelon.solve", "intlinalg", "ColumnEchelon.solve",
     None),
    ("intlinalg.kernel_basis", "intlinalg", "kernel_basis", _after_matrix),
    ("intlinalg.kernel_mod", "intlinalg", "kernel_mod", _after_matrix),
    ("intlinalg.subquotient", "intlinalg", "subquotient", _after_subquotient),
    ("intlinalg.smith_normal_form_full", "intlinalg", "smith_normal_form_full",
     _after_snf),
    ("intlinalg.Lattice.add", "intlinalg", "Lattice.add", _after_lattice_add),
    ("hecke.DoubleCoset.init", "hecke", "DoubleCoset.__init__",
     _after_double_coset),
    ("hecke.DoubleCoset.operator", "hecke", "DoubleCoset.operator", None),
    ("hecke.conj_star", "hecke", "conj_star", None),
    # one span for the polynomial and its factored string, so the lazy
    # sympy import in charpoly_str lands in this layer
    ("hecke.OperatorMatrix.charpoly", "hecke", "OperatorMatrix.charpoly",
     None),
    ("hecke.OperatorMatrix.charpoly", "hecke", "OperatorMatrix.charpoly_str",
     None),
    ("ordinary.ordinary_idempotent", "ordinary", "ordinary_idempotent", None),
    ("ordinary.enumerate_hyperbolic", "ordinary", "enumerate_hyperbolic",
     None),
    ("boundary.cusp_data", "boundary", "cusp_data", None),
    ("cli.main", "cli", "main", None),
]


class Recorder:
    """Span totals and size counters of one traced process."""

    def __init__(self):
        self.spans = {name: {"self_s": 0.0, "calls": 0, "yielded": 0}
                      for name, _, _, _ in TARGETS}
        self.sizes = {}
        self._covered = []  # time covered by child spans, per open span

    def add(self, key, value):
        self.sizes[key] = self.sizes.get(key, 0) + value

    def peak(self, key, value):
        self.sizes[key] = max(self.sizes.get(key, 0), value)

    def _timed(self, total, fn, args, kwargs, hook):
        self._covered.append(0.0)
        t0 = perf_counter()
        done = False
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            total["self_s"] += perf_counter() - t0 - self._covered.pop()
            if done and hook is not None:
                hook(self, args, result)
            if self._covered:
                self._covered[-1] += perf_counter() - t0

    def wrap(self, name, fn, hook):
        total = self.spans[name]
        timed = self._timed

        if inspect.isgeneratorfunction(fn):
            # one span per resumption; the consumer's loop is its parent
            def wrapper(*args, **kwargs):
                total["calls"] += 1
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = timed(total, next, (it,), {}, None)
                    except StopIteration:
                        return
                    total["yielded"] += 1
                    yield item
        else:
            def wrapper(*args, **kwargs):
                total["calls"] += 1
                return timed(total, fn, args, kwargs, hook)

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper


def hypcycle_modules():
    import hypcycle

    names = sorted(m.name for m in pkgutil.iter_modules(hypcycle.__path__))
    return [hypcycle] + [importlib.import_module("hypcycle." + n)
                         for n in names]


def install(rec):
    """Wrap every target; raise if a target is missing or a binding of
    an original function survives anywhere in the package."""
    modules = hypcycle_modules()
    originals = []
    for name, module, path, hook in TARGETS:
        owner = importlib.import_module("hypcycle." + module)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        fn = getattr(owner, attr)
        wrapped = rec.wrap(name, fn, hook)
        if cls_path:
            setattr(owner, attr, wrapped)
        else:
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapped)
        originals.append(fn)
    for mod in modules:
        holders = [vars(mod)] + [vars(c) for c in vars(mod).values()
                                 if inspect.isclass(c)
                                 and c.__module__ == mod.__name__]
        for holder in holders:
            for key, val in holder.items():
                if any(val is fn for fn in originals):
                    raise RuntimeError("untraced binding %s.%s"
                                       % (mod.__name__, key))


def trace_case(argv):
    """Run ``cli.main(argv)`` traced: a dict with the exit code, the
    report text, and the span and size totals."""
    import hypcycle.cli

    rec = Recorder()
    install(rec)
    buf = io.StringIO()
    real_stdout = sys.stdout
    try:
        sys.stdout = buf
        code = hypcycle.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # an uncaught error exits 1 outside the tracer too
        code = 1
    finally:
        sys.stdout = real_stdout
    return {"exit": code, "report": buf.getvalue(), "spans": rec.spans,
            "sizes": rec.sizes}


if __name__ == "__main__":
    out = trace_case(sys.argv[1:])
    sys.stdout.write(json.dumps(out, sort_keys=True) + "\n")
