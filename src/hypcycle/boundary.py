"""Parabolic cycles and the boundary subgroup of H1: cusp widths and
stabilizer generators from T-orbits on the coset table, the span of
parabolic cycles, Hecke generation of the boundary from the width-one
cusp, and the (1 + p^(2k+1) <p>) identity on translation cycles.
"""

from dataclasses import dataclass
from math import gcd

from .cosets import SubgroupSpec, build_cosets
from .hecke import (
    DoubleCoset,
    WrongDivisibility,
    diamond_coset,
    hecke_matrix_diag_p,
    t_coset,
)
from .homology import compute_h1
from .intlinalg import Lattice, ZZ, from_columns, subquotient
from .psl2 import PARABOLIC, PMat, T, classify, quadratic_form
from .symspace import poly_pow, x2_power


@dataclass
class CuspDatum:
    """One cusp class: the cusp is representative * infinity, its width
    is the T-orbit size of the coset, and the stabilizer generator is
    representative * T^width * representative^-1, a parabolic element
    of the subgroup."""

    representative: PMat
    width: int
    stabilizer: PMat

    def as_dict(self):
        return {
            "representative": repr(self.representative),
            "width": self.width,
            "stabilizer": repr(self.stabilizer),
        }


def cusp_data(spec_or_table):
    """One datum per cusp: T-orbits of right cosets are exactly the
    cusp classes, and the orbit sizes are the widths (they sum to the
    index)."""
    if hasattr(spec_or_table, "transversal"):
        table = spec_or_table
    else:
        table = build_cosets(spec_or_table)
    n = table.index
    permT = [table.mulU[table.mulS[i][0]][0] for i in range(n)]  # right *S*U
    seen = [False] * n
    data = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = []
        j = start
        while not seen[j]:
            seen[j] = True
            orbit.append(j)
            j = permT[j]
        h = len(orbit)
        s = table.transversal[start]
        th = T
        for _ in range(h - 1):
            th = th * T
        stab = s * th * s.inv()
        if table.coset_of(stab)[0] != 0:
            raise RuntimeError("cusp stabilizer fails membership; table bug")
        if classify(stab) != PARABOLIC:
            raise RuntimeError("cusp stabilizer is not parabolic")
        data.append(CuspDatum(s, h, stab))
    return data


def boundary_cycles(h1, cusps=None):
    """The parabolic cycle of each cusp stabilizer, as coordinates."""
    if cusps is None:
        cusps = cusp_data(h1.table)
    out = []
    for c in cusps:
        q = quadratic_form(c.stabilizer)
        out.append(list(h1.cycle_coords(c.stabilizer, poly_pow(q, h1.k))))
    return out


def boundary_subgroup(spec, k, ring=ZZ, h1=None, cusps=None):
    """Submodule of H1 generated by the parabolic cycles of all cusps
    (``cusps`` as from cusp_data, computed if left out).

    Every parabolic element is conjugate in the subgroup to a power of
    a cusp stabilizer, and cycles scale linearly in powers, so the
    finitely many stabilizer cycles generate the whole boundary."""
    if h1 is None:
        h1 = compute_h1(spec, k, ring)
    cols = boundary_cycles(h1, cusps)
    rel = h1.module.relation_columns()
    g = h1.ngens
    span = Lattice(g)
    for col in cols + rel:
        span.add(col)
    module = subquotient(span.basis_columns(), from_columns(rel, g), h1.ring)
    return module, span


@dataclass
class IdentityReport:
    verdict: str
    N: int
    p: int
    k: int
    lhs: tuple
    rhs: tuple


def check_boundary_identity(N, p, k):
    """T_p z(T) = (1 + p^(2k+1) <p>) z(T) on Gamma_1(N^2), exactly in
    H1 coordinates over Z."""
    if p == N or N % p == 0:
        raise WrongDivisibility("the identity needs p coprime to N")
    spec = SubgroupSpec.gamma1(N * N)
    h1 = compute_h1(spec, k, ZZ)
    z = list(h1.cycle_coords(T, x2_power(k)))
    lhs = t_coset(p, h1).apply_coords(z)
    dz = diamond_coset(p, h1).apply_coords(z)
    rhs = h1.reduce_coords([a + p ** (2 * k + 1) * b for a, b in zip(z, dz)])
    verdict = "Verified" if tuple(lhs) == tuple(rhs) else "Falsified"
    return IdentityReport(verdict, N, p, k, tuple(lhs), tuple(rhs))


@dataclass
class GenerationReport:
    verdict: str
    group: str
    k: int
    operators: tuple
    span_factors: tuple
    boundary_factors: tuple


# primes l of the diag(1, l) double cosets, and the number of rounds,
# that ``check_hecke_generation`` applies before it gives up
GENERATION_PRIMES = (2, 3, 5)
GENERATION_ROUNDS = 6


def check_hecke_generation(spec, k):
    """Check that the Hecke orbit of the width-one translation cycle
    spans the boundary subgroup (the subgroup must contain T).

    Applies the diag(1, l) double cosets for ``GENERATION_PRIMES``, the
    diamond operators and the cusp-moving double cosets to the new
    vectors of each round until stable; verdict Inconclusive if
    ``GENERATION_ROUNDS`` rounds stop short of the boundary."""
    if not spec.contains(T):
        raise ValueError("supported groups contain T (width one at infinity)")
    h1 = compute_h1(spec, k, ZZ)
    g = h1.ngens
    rel = h1.module.relation_columns()
    cusps = cusp_data(h1.table)
    bound_mod, boundary = boundary_subgroup(spec, k, h1=h1, cusps=cusps)
    ops = []
    names = []
    for ell in GENERATION_PRIMES:
        ops.append(hecke_matrix_diag_p(h1, ell))
        names.append(("U%d" if spec.N % ell == 0 else "T%d") % ell)
    for d in range(2, spec.N):
        if gcd(d, spec.N) == 1:
            ops.append(diamond_coset(d, h1))
            names.append("<%d>" % d)
    # cusp-moving conjugations: the lemma's generation statement runs
    # over all alpha of positive determinant, and reaching a cusp other
    # than infinity needs an alpha that moves it there
    for c in cusps:
        if c.representative.is_identity():
            continue
        ops.append(DoubleCoset(h1, h1, c.representative.lift()))
        names.append("[G %r G]" % (c.representative,))
    span = Lattice(g)
    for col in rel:
        span.add(col)
    z0 = list(h1.cycle_coords(T, x2_power(k)))
    span.add(z0)
    frontier = [z0]
    target = boundary.canonical()
    for _ in range(GENERATION_ROUNDS):
        new = []
        for op in ops:
            for z in frontier:
                image = list(op.apply_coords(z))
                if span.add(image):
                    new.append(image)
        frontier = new
        if not frontier or span.canonical() == target:
            break
    # the span sits inside the boundary by Hecke stability; a strict
    # inclusion after a finite budget is not a refutation
    verdict = "Verified" if span.canonical() == target else "Inconclusive"
    span_mod = subquotient(span.basis_columns(), from_columns(rel, g))
    return GenerationReport(verdict, spec.name, k, tuple(names),
                            tuple(span_mod.invariant_factors),
                            tuple(bound_mod.invariant_factors))
