"""The ordinary part of finite p-power-torsion modules, ordinary
parts of H1, hyperbolic element enumeration, the span verifier for the
ordinary part, and the quotient-by-cycles report.

An endomorphism A of a finite module M of p-power exponent splits M,
by Fitting's lemma, as e*M (+) (1 - e)*M: A is invertible on the
ordinary part e*M and nilpotent on the rest.  One power A^n with n at
least the length of M is zero on (1 - e)*M and an automorphism of e*M,
so its image is the ordinary part; no projector is formed.
``verify-main``, ``bridge`` and ``quotient``'s per-prime test read that
image from ``ordinary_idempotent``.
"""

from collections import namedtuple
from functools import cached_property
from math import gcd, prod

from .cosets import SubgroupSpec, build_cosets
from .hecke import hecke_coset
from .homology import compute_h1
from .intlinalg import (
    FgModule,
    RingSpec,
    ZZ,
    columns,
    from_columns,
    identity,
    mat_mul,
    mat_vec,
    subquotient,
)
from .psl2 import HYPERBOLIC, I, classify

# ``quotient`` closes its span under these Hecke operators after this
# many draws in a row add nothing, and stops drawing once closure adds
# nothing either; the closure ends because each of its rounds but the
# last grows the span, and an ascending chain of sublattices of Z^g is
# finite.  Primes of the quotient's order above the operator bound get
# no Hecke matrix and stay Inconclusive
QUOTIENT_HECKE_PRIMES = (2, 3)
QUIET_DRAWS = 25
MAX_OPERATOR_PRIME = 2000
# depth of ``enumerate_hyperbolic``'s word ball, which on all but the
# smallest groups hits its size cap first; walks take 2 to 4x as many
MAX_WORD_LEN = 10


# budget of the hyperbolic element stream; all reports embed it
Budget = namedtuple("Budget", "max_generators seed", defaults=(300, 0))


class PModule(FgModule):
    """H1 tensored with Z/p^M: an FgModule whose invariant factors are
    its cyclic p-power orders gcd(d, p^M) (p^M on a free factor d = 0,
    as compute_h1 relates a coordinate), with no ambient presentation,
    and the projection from integral H1 coordinates (``fg`` the module
    over Z)."""

    def __init__(self, fg, p, M):
        self.p = p
        self.M = M
        m = self.modulus = p ** M
        orders = [gcd(d, m) for d in fg.invariant_factors]
        self.keep = [i for i, o in enumerate(orders) if o > 1]
        super().__init__([orders[i] for i in self.keep], None, None, None)

    def project(self, coords):
        return [coords[i] % o
                for i, o in zip(self.keep, self.invariant_factors)]

    def reduce_matrix(self, A):
        m = self.modulus
        return [[A[i][j] % m for j in self.keep] for i in self.keep]

    def length(self):
        """Composition length: sum of p-adic valuations of the orders."""
        total = 0
        for o in self.invariant_factors:
            while o > 1:
                o //= self.p
                total += 1
        return total


class OrdinaryDecomposition(namedtuple(
        "OrdinaryDecomposition", "pm power image")):
    """The Fitting split of ``pm`` under one endomorphism: its power P
    and the ordinary image im P.  The image's invariant factors are
    computed on first read; ``quotient``'s per-prime test reads only the
    image."""

    @cached_property
    def ordinary_factors(self):
        return self.pm.factors(self.image)

    @property
    def ordinary_rank(self):
        return len(self.ordinary_factors)

    @property
    def nilpotent_rank(self):
        return self.pm.ngens - self.ordinary_rank

    def apply(self, coords):
        """Image under the Fitting power, an automorphism of e*M."""
        out = mat_vec(self.power, coords)
        return [x % o for x, o in zip(out, self.pm.invariant_factors)]


def ordinary_idempotent(A, pm):
    """Fitting split of a finite module of p-power exponent under A.

    On a module of length L, P = A^n with n >= L is an automorphism of
    the ordinary part e*M and zero on the nilpotent part (1 - e)*M, so
    im P = e*M; n is the least power of two >= L, reached by repeated
    squaring mod p^M.  ``apply`` multiplies by P, not by e: P*z =
    u(e*z) for the automorphism u = P on e*M, so projected vectors span
    e*M exactly when their e-projections do.  The name stays: the
    benchmark's ``perfbench/spans.py`` traces this function by it.
    """
    m = pm.modulus
    P = [[x % m for x in row] for row in A]
    n, length = 1, pm.length()
    while n < length:
        P = [[x % m for x in row] for row in mat_mul(P, P)]
        n *= 2
    return OrdinaryDecomposition(pm, P, pm.span(columns(P)))


def ordinary_part(spec, k, p, M):
    """Ordinary part of H1 tensored with Z/p^M under the diag(1,p)
    double coset (T_p or U_p by divisibility).

    Returns (decomposition, pm, h1z, operator).
    """
    h1z = compute_h1(spec, k, ZZ)
    op = hecke_coset(p, h1z).operator()
    pm = PModule(h1z.module, p, M)
    A = pm.reduce_matrix(op.matrix)
    dec = ordinary_idempotent(A, pm)
    return dec, pm, h1z, op


def enumerate_hyperbolic(table, budget, exclude_p=None):
    """Deterministic stream of distinct hyperbolic elements of the
    subgroup of ``table``.

    Breadth-first products of Schreier generators (augmented by their
    pairwise products, so translations appear at word length one) up
    to word length MAX_WORD_LEN, then seeded random walks.  In the
    systematic phase, at most three elements are emitted per
    (|trace|, form content) class: conjugates and inverses represent
    equal cycle classes up to sign, so the cap brings fresh classes
    early, where ``verify-main`` stops as soon as its span is complete
    and ``quotient`` counts draws that add nothing.
    """
    import random as _random

    base = table.schreier_generators()
    base = base + [g.inv() for g in base]
    gens = []
    keys = set()
    for g in base:
        if not g.is_identity() and g.key() not in keys:
            keys.add(g.key())
            gens.append(g)
    for g in list(gens):
        for h in list(gens):
            if len(gens) >= 48:
                break
            gh = g * h
            if not gh.is_identity() and gh.key() not in keys:
                keys.add(gh.key())
                gens.append(gh)
        if len(gens) >= 48:
            break
    emitted = 0
    seen = set()
    class_counts = {}
    deferred = []

    def class_key(g):
        a, b, c, d = g.key()
        return (abs(a + d), gcd(gcd(abs(c), abs(a - d)), abs(b)))

    def admissible(g):
        if classify(g) != HYPERBOLIC or g.key() in seen:
            return False
        if exclude_p is not None:
            a, b, c, d = g.key()
            p = exclude_p
            if b % p == 0 and c % p == 0 and (a - d) % p == 0 \
                    and (a * a - 1) % p == 0:
                return False
        return True

    # phase 1: ball walk, one element per (|trace|, content) class up
    # front; later members of a class are deferred so that fresh
    # classes come first: ``verify-main`` stops once its span is
    # complete, and a run of draws that add nothing makes ``quotient``
    # Hecke-close its span or stop
    frontier = {I.key(): I}
    ball = dict(frontier)
    for _ in range(MAX_WORD_LEN):
        new = {}
        for g in frontier.values():
            for x in gens:
                h = g * x
                if h.key() not in ball and h.key() not in new:
                    new[h.key()] = h
                    if not admissible(h):
                        continue
                    ck = class_key(h)
                    count = class_counts.get(ck, 0)
                    if count == 0:
                        class_counts[ck] = 1
                        seen.add(h.key())
                        yield h
                        emitted += 1
                        if emitted >= budget.max_generators:
                            return
                    elif count < 3:
                        class_counts[ck] = count + 1
                        deferred.append(h)
        ball.update(new)
        frontier = new
        if not frontier or len(ball) > 20000:
            break
    for h in deferred:
        if h.key() in seen:
            continue
        seen.add(h.key())
        yield h
        emitted += 1
        if emitted >= budget.max_generators:
            return
    # phase 2: seeded random walks, no class cap
    rng = _random.Random(budget.seed)
    attempts = 0
    while emitted < budget.max_generators and attempts < 200 * budget.max_generators:
        attempts += 1
        g = I
        for _ in range(rng.randint(2, 4 * MAX_WORD_LEN)):
            g = g * gens[rng.randrange(len(gens))]
        if admissible(g):
            seen.add(g.key())
            yield g
            emitted += 1


SpanReport = namedtuple(
    "SpanReport", "verdict group k p M budget ordinary_rank span_rank "
    "invariant_factors span_invariant_factors generators_tried")


def verify_main_theorem(spec, k, p, M, budget=Budget()):
    """Compare the span of ordinary projections of hyperbolic cycles
    with the full ordinary part of H1 over Z/p^M.

    Returns Verified or Inconclusive, never Falsified.  Verified
    requires exact submodule equality; the stream stops there.  A strict
    inclusion when the stream ends is Inconclusive: the span can only
    grow with more generators.  Every projected cycle lies in the
    ordinary image by construction, so no cycle can refute the claim.

    Verified at any M is a statement over Z_p.  Cycles are projected by
    the Fitting power P, which is u*e for an automorphism u of the
    ordinary part, so the P*z span it exactly when the e*z do.  The
    idempotent e of T_p over Z_p commutes with reduction mod p, so the
    e*z span e(H1 (x) F_p); by Nakayama they then generate the finitely
    generated Z_p-module e(H1 (x) Z_p), and so its reduction at every
    M.  The ordinary rank is dim e(H1 (x) F_p), the same at every M.
    """
    dec, pm, h1z, _ = ordinary_part(spec, k, p, M)
    target = dec.image.canonical()
    span = pm.span()
    tried = 0
    if span.canonical() != target:
        for g in enumerate_hyperbolic(h1z.table, budget):
            tried += 1
            if span.add(dec.apply(pm.project(h1z.cycle_coords(g)))) \
                    and span.canonical() == target:
                break
    span_factors = pm.factors(span)
    return SpanReport(
        verdict="Verified" if span.canonical() == target else "Inconclusive",
        group=spec.name,
        k=k,
        p=p,
        M=M,
        budget=budget._asdict(),
        ordinary_rank=dec.ordinary_rank,
        span_rank=len(span_factors),
        invariant_factors=dec.ordinary_factors,
        span_invariant_factors=tuple(span_factors),
        generators_tried=tried,
    )


QuotientReport = namedtuple(
    "QuotientReport", "verdict group k budget free_rank invariant_factors "
    "order prime_verdicts generators_tried")


def _prime_factors(n):
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def cycle_quotient_report(spec, k, budget=Budget()):
    """Grow the integral span S of hyperbolic cycles, close it under a
    few Hecke operators, and test H1/S for finiteness and
    non-ordinarity at every prime dividing its order.

    Returns Verified exactly when H1/S is finite and, at every such
    prime q, S is T_q-stable and e(H1/S) vanishes at q; else
    Inconclusive.  e commutes with the quotient map and with reduction
    mod q, so by Nakayama e(H1/S) = 0 at q exactly when e(H1 (x) F_q),
    the image of the Fitting power of T_q mod q, lies in S + q*H1.  The
    computed span may fall short of the true one, whose quotient is
    then a Hecke quotient of the computed one, so a vanishing ordinary
    part carries over but a nonzero one refutes nothing.  For the same
    reason the reported ``invariant_factors`` (and ``order``) are those
    of H1 modulo the computed span, a group that maps onto the true
    H1/S: an upper bound on it, not H1/S itself."""
    h1z = compute_h1(spec, k, ZZ)
    span = h1z.module.span()
    # close under a few Hecke operators as we go: the full span is
    # Hecke stable, so closure only moves the computed span toward it
    ops = {q: hecke_coset(q, h1z).operator() for q in QUOTIENT_HECKE_PRIMES}
    maps = [op.apply_coords for op in ops.values()]
    tried = 0
    quiet = 0
    for gamma in enumerate_hyperbolic(h1z.table, budget):
        tried += 1
        quiet = 0 if span.add(h1z.cycle_coords(gamma)) else quiet + 1
        if quiet >= QUIET_DRAWS:
            if not span.close_under(maps, [r[:] for r in span.rows]):
                break
            quiet = 0
    factors = subquotient(identity(h1z.ngens),
                          span.basis_columns()).invariant_factors
    free_rank = factors.count(0)
    order = prod(d for d in factors if d)
    prime_verdicts = {}
    if free_rank == 0:
        for q in _prime_factors(order):
            prime_verdicts[str(q)] = "Inconclusive"
            if q > MAX_OPERATOR_PRIME:
                continue
            A = (ops.get(q) or hecke_coset(q, h1z).operator()).matrix
            # T_q induces an endomorphism of Z^g / span only if the span
            # is stable
            if not all(span.contains(mat_vec(A, s)) for s in span.rows):
                continue
            pq = PModule(h1z.module, q, 1)
            reduced = pq.span(pq.project(s) for s in span.rows)
            image = ordinary_idempotent(pq.reduce_matrix(A), pq).image
            if all(reduced.contains(row) for row in image.rows):
                prime_verdicts[str(q)] = "Verified"
    verified = free_rank == 0 and all(
        v == "Verified" for v in prime_verdicts.values())
    return QuotientReport(
        verdict="Verified" if verified else "Inconclusive",
        group=spec.name,
        k=k,
        budget=budget._asdict(),
        free_rank=free_rank,
        invariant_factors=factors,
        order=order,
        prime_verdicts=prime_verdicts,
        generators_tried=tried,
    )


# comparison of H1 with constant mod-p coefficients against H1 with
# degree-2k coefficients through b -> b * X2^(2k), for p dividing the
# level
BridgeReport = namedtuple(
    "BridgeReport", "verdict group p k ordinary_dim_constant "
    "ordinary_dim_weighted equivariant image_matches unit_scalings_checked")


def _j_star_chain(chain, k, p):
    """Blockwise b -> b * X2^(2k) on chains of constant coefficients."""
    return {key: (0,) * (2 * k) + (b[0] % p,) for key, b in chain.items()}


def mod_p_bridge(N, p, k, budget=Budget()):
    """Check that b -> b * X2^(2k) identifies the U_p-ordinary parts of
    H1 with constant and with degree-2k mod-p coefficients on
    Gamma_1(N) for p | N, and unit-scales hyperbolic cycles outside the
    principal congruence subgroup of level p.

    j_* is one matrix J, the images of the generators' chains: it is
    U_p-equivariant when J*U_p == U_p*J mod p, and it maps the constant
    ordinary part and the constant cycles by products with J."""
    if N % p:
        raise ValueError("the reduction bridge needs p dividing the level")
    spec = SubgroupSpec.gamma1(N)
    ring = RingSpec("Fp", p=p)
    table = build_cosets(spec)
    h0 = compute_h1(table, 0, ring)
    hk = compute_h1(table, k, ring)
    U0 = hecke_coset(p, h0).operator()
    Uk = hecke_coset(p, hk).operator()
    pm0 = PModule(h0.module, p, 1)
    pmk = PModule(hk.module, p, 1)
    dec0 = ordinary_idempotent(pm0.reduce_matrix(U0.matrix), pm0)
    deck = ordinary_idempotent(pmk.reduce_matrix(Uk.matrix), pmk)
    J = from_columns([list(hk.coords(hk.quotient.project(_j_star_chain(
        h0.generator_chain(i), k, p)))) for i in range(h0.ngens)], hk.ngens)
    equivariant = all(
        (x - y) % p == 0
        for lrow, rrow in zip(mat_mul(J, U0.matrix), mat_mul(Uk.matrix, J))
        for x, y in zip(lrow, rrow))
    # image of the constant ordinary part spans the weighted one; over
    # F_p every generator has order p, so pm0 keeps them all
    span = pmk.span(deck.apply(pmk.project(mat_vec(J, row)))
                    for row in dec0.image.rows)
    image_matches = span.canonical() == deck.image.canonical()
    dims_equal = dec0.ordinary_rank == deck.ordinary_rank
    # unit scaling on hyperbolic cycles outside level-p principal
    checked = 0
    scaling_ok = True
    for gamma in enumerate_hyperbolic(table, budget, exclude_p=p):
        a, b, c, d = gamma.key()
        if b % p == 0:
            continue  # the scaling statement needs b to be a unit
        w0 = h0.cycle_coords(gamma)
        wk = hk.cycle_coords(gamma)
        grp = gcd(gcd(abs(c), abs(a - d)), abs(b))
        u = pow((grp * pow(b, -1, p)) % p, k, p)
        rhs = [u * x for x in wk]
        if hk.reduce_coords(mat_vec(J, w0)) != hk.reduce_coords(rhs):
            scaling_ok = False
            break
        checked += 1
        if checked >= 20:
            break
    ok = dims_equal and equivariant and image_matches and scaling_ok
    return BridgeReport(
        verdict="Verified" if ok else "Falsified",
        group=spec.name,
        p=p,
        k=k,
        ordinary_dim_constant=dec0.ordinary_rank,
        ordinary_dim_weighted=deck.ordinary_rank,
        equivariant=equivariant,
        image_matches=image_matches,
        unit_scalings_checked=checked,
    )
