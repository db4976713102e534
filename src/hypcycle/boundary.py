"""Parabolic cycles and the boundary subgroup of H1: cusp widths and
stabilizer generators from T-orbits on the coset table, the span of
parabolic cycles, Hecke generation of the boundary from the width-one
cusp, and the (1 + p^(2k+1) <p>) identity on translation cycles.
"""

from collections import namedtuple
from math import gcd

from .cosets import SubgroupSpec
from .hecke import DoubleCoset, WrongDivisibility, diamond_coset, hecke_coset
from .homology import compute_h1
from .intlinalg import ZZ
from .psl2 import PARABOLIC, PMat, T, classify


class CuspDatum(namedtuple("CuspDatum", "representative width stabilizer")):
    """One cusp class: the cusp is representative * infinity, its width
    is the T-orbit size of the coset, and the stabilizer generator is
    representative * T^width * representative^-1, a parabolic element
    of the subgroup."""

    def as_dict(self):
        return {
            "representative": repr(self.representative),
            "width": self.width,
            "stabilizer": repr(self.stabilizer),
        }


def cusp_data(table):
    """One datum per cusp of the subgroup of a coset table: T-orbits of
    right cosets are exactly the cusp classes, and the orbit sizes are
    the widths (they sum to the index)."""
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
        stab = s * PMat(1, h, 0, 1) * s.inv()
        if table.coset_of(stab)[0] != 0:
            raise RuntimeError("cusp stabilizer fails membership; table bug")
        if classify(stab) != PARABOLIC:
            raise RuntimeError("cusp stabilizer is not parabolic")
        data.append(CuspDatum(s, h, stab))
    return data


def boundary_subgroup(h1, cusps):
    """Submodule of H1 generated by the parabolic cycles of the cusp
    stabilizers (``cusps`` as from cusp_data on the table of ``h1``),
    as its invariant factors and its span (see FgModule.span).

    Every parabolic element is conjugate in the subgroup to a power of
    a cusp stabilizer, and cycles scale linearly in powers, so the
    finitely many stabilizer cycles generate the whole boundary."""
    span = h1.module.span(h1.cycle_coords(c.stabilizer) for c in cusps)
    return h1.module.factors(span), span


IdentityReport = namedtuple("IdentityReport", "verdict N p k lhs rhs")


def check_boundary_identity(N, p, k):
    """T_p z(T) = (1 + p^(2k+1) <p>) z(T) on Gamma_1(N^2), exactly in
    H1 coordinates over Z."""
    if p == N or N % p == 0:
        raise WrongDivisibility("the identity needs p coprime to N")
    spec = SubgroupSpec.gamma1(N * N)
    h1 = compute_h1(spec, k, ZZ)
    z = list(h1.cycle_coords(T))
    lhs = hecke_coset(p, h1).apply_coords(z)
    dz = diamond_coset(p, h1).apply_coords(z)
    rhs = h1.reduce_coords([a + p ** (2 * k + 1) * b for a, b in zip(z, dz)])
    verdict = "Verified" if tuple(lhs) == tuple(rhs) else "Falsified"
    return IdentityReport(verdict, N, p, k, tuple(lhs), tuple(rhs))


GenerationReport = namedtuple(
    "GenerationReport",
    "verdict group k operators span_factors boundary_factors")


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
    cusps = cusp_data(h1.table)
    bound_factors, boundary = boundary_subgroup(h1, cusps)
    ops = []
    names = []
    for ell in GENERATION_PRIMES:
        ops.append(hecke_coset(ell, h1))
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
    z0 = list(h1.cycle_coords(T))
    span = h1.module.span([z0])
    target = boundary.canonical()
    span.close_under([op.apply_coords for op in ops], [z0],
                     GENERATION_ROUNDS, target)
    # the span sits inside the boundary by Hecke stability; a strict
    # inclusion after a finite budget is not a refutation
    verdict = "Verified" if span.canonical() == target else "Inconclusive"
    return GenerationReport(verdict, spec.name, k, tuple(names),
                            h1.module.factors(span), bound_factors)
