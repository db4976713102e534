"""The ordinary idempotent on finite p-power-torsion modules, ordinary
parts of H1, hyperbolic element enumeration, the span verifier for the
ordinary part, and the quotient-by-cycles report.

The idempotent attached to an endomorphism A of a finite module of
p-power exponent is the limit of A^(m!): it projects onto the stable
image along the stable kernel.  Both submodules are computed exactly
and the projector is solved from the direct-sum decomposition.
"""

from dataclasses import asdict, dataclass
from math import gcd

from .cosets import SubgroupSpec, build_cosets
from .hecke import hecke_operator
from .homology import compute_h1
from .intlinalg import (
    ColumnEchelon,
    Lattice,
    RingSpec,
    ZZ,
    from_columns,
    identity,
    induced_endomorphism,
    mat_vec,
    subquotient,
)
from .psl2 import HYPERBOLIC, I, classify, quadratic_form
from .symspace import poly_pow

# ``quotient`` closes its span under these Hecke operators after this
# many draws in a row add nothing, and stops drawing once closure adds
# nothing either; primes of the quotient's order above the operator
# bound get no Hecke matrix and stay Inconclusive
QUOTIENT_HECKE_PRIMES = (2, 3)
QUIET_DRAWS = 25
MAX_OPERATOR_PRIME = 2000


@dataclass(frozen=True)
class Budget:
    """Budget of the hyperbolic element stream; all reports embed it."""

    max_word_len: int = 10
    max_generators: int = 300
    seed: int = 0


class PModule:
    """H1 tensored with Z/p^M: cyclic p-power orders and the projection
    from integral H1 coordinates."""

    def __init__(self, fg, p, M):
        self.p = p
        self.M = M
        m = p ** M
        self.modulus = m
        keep = []
        orders = []
        for i, d in enumerate(fg.invariant_factors):
            o = m if d == 0 else gcd(d, m)
            if o > 1:
                keep.append(i)
                orders.append(o)
        self.keep = keep
        self.orders = orders
        self.ngens = len(keep)

    def project(self, coords):
        return [c % o for c, o in zip((coords[i] for i in self.keep), self.orders)]

    def reduce_matrix(self, A):
        m = self.modulus
        return [[A[i][j] % m for j in self.keep] for i in self.keep]

    def relation_columns(self):
        cols = []
        for i, o in enumerate(self.orders):
            col = [0] * self.ngens
            col[i] = o
            cols.append(col)
        return cols

    def relation_lattice(self):
        lat = Lattice(self.ngens)
        for col in self.relation_columns():
            lat.add(col)
        return lat

    def length(self):
        """Composition length: sum of p-adic valuations of the orders."""
        total = 0
        for o in self.orders:
            while o > 1:
                o //= self.p
                total += 1
        return total

    def submodule_factors(self, lat):
        """Invariant factors of a submodule given by a lattice that
        contains the relation lattice."""
        if self.ngens == 0:
            return ()
        basis = lat.basis_columns()
        if not basis or not basis[0]:
            return ()
        rels = from_columns(self.relation_columns(), self.ngens)
        return subquotient(basis, rels).invariant_factors

    def mingens(self, lat):
        """Minimal generator count (F_p-dimension of X/pX) of the
        submodule given by ``lat``."""
        return len(self.submodule_factors(lat))


def _matmul_mod(A, B, m):
    n = len(A)
    C = [[0] * n for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        Ci = C[i]
        for t in range(n):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(n):
                    Ci[j] = (Ci[j] + a * Bt[j]) % m
    return C


def _image_lattice(An, pm):
    lat = pm.relation_lattice()
    g = pm.ngens
    for j in range(g):
        lat.add([An[i][j] for i in range(g)])
    return lat


def _kernel_lattice(An, pm):
    g = pm.ngens
    aug = [[An[i][j] for j in range(g)] + [0] * g for i in range(g)]
    for i, o in enumerate(pm.orders):
        aug[i][g + i] = o
    lat = pm.relation_lattice()
    for col in ColumnEchelon(aug).kernel_columns():
        lat.add(col[:g])
    return lat


@dataclass
class OrdinaryDecomposition:
    idempotent: list
    pm: PModule
    image: Lattice
    kernel: Lattice
    stabilization_exponent: int
    ordinary_factors: tuple
    nilpotent_rank: int

    @property
    def ordinary_rank(self):
        return len(self.ordinary_factors)

    def apply(self, coords):
        g = self.pm.ngens
        out = [0] * g
        for j, c in enumerate(coords):
            if c:
                for i in range(g):
                    out[i] += self.idempotent[i][j] * c
        return [x % o for x, o in zip(out, self.pm.orders)]


def ordinary_idempotent(A, pm):
    """Idempotent lim A^(m!) on a finite module of p-power exponent.

    Computes the stable image and stable kernel of A, splits the module
    as their direct sum, and solves for the projector onto the image.
    """
    g = pm.ngens
    m = pm.modulus
    if g == 0:
        return OrdinaryDecomposition([], pm, Lattice(0), Lattice(0), 0, (), 0)
    A = [[A[i][j] % m for j in range(g)] for i in range(g)]
    bound = pm.length() + 1
    An = A
    n = 1
    prev = (_image_lattice(An, pm), _kernel_lattice(An, pm))
    while n <= bound:
        An2 = _matmul_mod(An, A, m)
        cur = (_image_lattice(An2, pm), _kernel_lattice(An2, pm))
        if (cur[0].canonical() == prev[0].canonical()
                and cur[1].canonical() == prev[1].canonical()):
            break
        An = An2
        prev = cur
        n += 1
    image, kernel = prev
    # solve e_i = o_i + k_i with o_i in the image, k_i in the kernel
    img_cols = [list(r) for r in image.canonical()]
    ker_cols = [list(r) for r in kernel.canonical()]
    B = from_columns(img_cols + ker_cols + pm.relation_columns(), g)
    ech = ColumnEchelon(B)
    e_cols = []
    for i in range(g):
        e = [0] * g
        e[i] = 1
        w = ech.solve(e)
        if w is None:
            raise RuntimeError("module does not split; stabilization bug")
        part = [0] * g
        for t, coef in enumerate(w[:len(img_cols)]):
            if coef:
                col = img_cols[t]
                for r in range(g):
                    part[r] += coef * col[r]
        e_cols.append([x % m for x in part])
    e_mat = from_columns(e_cols, g)
    factors = pm.submodule_factors(image)
    nil_rank = pm.mingens(kernel)
    return OrdinaryDecomposition(e_mat, pm, image, kernel, n, tuple(factors),
                                 nil_rank)


def ordinary_part(spec, k, p, M):
    """Ordinary part of H1 tensored with Z/p^M under the diag(1,p)
    double coset (T_p or U_p by divisibility).

    Returns (decomposition, pm, h1z, operator).
    """
    h1z = compute_h1(spec, k, ZZ)
    op = hecke_operator(p, h1z)
    pm = PModule(h1z.module, p, M)
    A = pm.reduce_matrix(op.matrix)
    dec = ordinary_idempotent(A, pm)
    return dec, pm, h1z, op


def enumerate_hyperbolic(table, budget, exclude_p=None):
    """Deterministic stream of distinct hyperbolic elements of the
    subgroup of ``table``.

    Breadth-first products of Schreier generators (augmented by their
    pairwise products, so translations appear at word length one) up
    to the budgeted word length, then seeded random walks.  In the
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
    if not gens:
        return
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
    for _ in range(budget.max_word_len):
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
        for _ in range(rng.randint(2, 4 * budget.max_word_len)):
            g = g * gens[rng.randrange(len(gens))]
        if admissible(g):
            seen.add(g.key())
            yield g
            emitted += 1


@dataclass
class SpanReport:
    verdict: str
    group: str
    k: int
    p: int
    M: int
    budget: dict
    ordinary_rank: int
    span_rank: int
    invariant_factors: tuple
    span_invariant_factors: tuple
    generators_tried: int


def verify_main_theorem(spec, k, p, M, budget=Budget()):
    """Compare the span of ordinary projections of hyperbolic cycles
    with the full ordinary part of H1 over Z/p^M.

    Returns Verified or Inconclusive, never Falsified.  Verified
    requires exact submodule equality; the stream stops there.  A strict
    inclusion when the stream ends is Inconclusive: the span can only
    grow with more generators.  Every projected cycle lies in the
    ordinary image by construction, so no cycle can refute the claim.

    Verified at any M is a statement over Z_p.  The idempotent e
    commutes with reduction mod p, so the cycles span e(H1 (x) F_p);
    by Nakayama they then generate the finitely generated Z_p-module
    e(H1 (x) Z_p), and so its reduction at every M.  The ordinary rank
    is dim e(H1 (x) F_p), the same at every M.
    """
    dec, pm, h1z, _ = ordinary_part(spec, k, p, M)
    target = dec.image.canonical()
    span = pm.relation_lattice()
    tried = 0
    if span.canonical() != target:
        for g in enumerate_hyperbolic(h1z.table, budget):
            coords = h1z.cycle_coords(g, poly_pow(quadratic_form(g), k))
            tried += 1
            if span.add(dec.apply(pm.project(coords))) \
                    and span.canonical() == target:
                break
    span_factors = pm.submodule_factors(span)
    return SpanReport(
        verdict="Verified" if span.canonical() == target else "Inconclusive",
        group=spec.name,
        k=k,
        p=p,
        M=M,
        budget=asdict(budget),
        ordinary_rank=dec.ordinary_rank,
        span_rank=len(span_factors),
        invariant_factors=dec.ordinary_factors,
        span_invariant_factors=tuple(span_factors),
        generators_tried=tried,
    )


@dataclass
class QuotientReport:
    verdict: str
    group: str
    k: int
    budget: dict
    free_rank: int
    invariant_factors: tuple
    order: int
    prime_verdicts: dict
    generators_tried: int


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
    """Grow the integral span of hyperbolic cycles, close it under a
    few Hecke operators, and test the quotient of H1 by the span for
    finiteness and non-ordinarity at every prime dividing its order.

    Returns Verified exactly when the quotient is finite and, at every
    such prime q, the span is T_q-stable and the ordinary part of the
    quotient vanishes; else Inconclusive.  The computed span may fall
    short of the true one, whose quotient is then a Hecke quotient of
    the computed one, so a vanishing ordinary part carries over but a
    nonzero one refutes nothing."""
    h1z = compute_h1(spec, k, ZZ)
    g = h1z.ngens
    span = Lattice(g)
    for col in h1z.module.relation_columns():
        span.add(col)
    # close under a few Hecke operators as we go: the full span is
    # Hecke stable, so closure only moves the computed span toward it
    ops = {q: hecke_operator(q, h1z) for q in QUOTIENT_HECKE_PRIMES}

    def hecke_close():
        grew_any = False
        for _ in range(8):
            grew = False
            for qop in ops.values():
                for row in [r[:] for r in span.rows]:
                    if span.add(list(qop.apply_coords(row))):
                        grew = True
            if not grew:
                break
            grew_any = True
        return grew_any

    tried = 0
    quiet = 0
    for gamma in enumerate_hyperbolic(h1z.table, budget):
        z = list(h1z.cycle_coords(gamma, poly_pow(quadratic_form(gamma), k)))
        tried += 1
        quiet = 0 if span.add(z) else quiet + 1
        if quiet >= QUIET_DRAWS:
            if not hecke_close():
                break
            quiet = 0
    basis = span.basis_columns()
    quotient = subquotient(identity(g), basis) if g else subquotient([], [])
    factors = quotient.invariant_factors
    free_rank = sum(1 for d in factors if d == 0)
    order = 1
    for d in factors:
        if d:
            order *= d
    prime_verdicts = {}
    if free_rank == 0:
        for q in _prime_factors(order):
            prime_verdicts[str(q)] = "Inconclusive"
            if q > MAX_OPERATOR_PRIME:
                continue
            A = (ops.get(q) or hecke_operator(q, h1z)).matrix
            # every vector of Z^g lies in the quotient Z^g / span, so T_q
            # induces an endomorphism of it only if the span is stable
            if not all(span.contains(mat_vec(A, s)) for s in span.rows):
                continue
            induced = induced_endomorphism(A, quotient)
            Mq = max(_valuation(d, q) for d in factors if d)
            qm = PModule(quotient, q, Mq)
            dq = ordinary_idempotent(qm.reduce_matrix(induced), qm)
            if dq.ordinary_rank == 0:
                prime_verdicts[str(q)] = "Verified"
    verified = free_rank == 0 and all(
        v == "Verified" for v in prime_verdicts.values())
    return QuotientReport(
        verdict="Verified" if verified else "Inconclusive",
        group=spec.name,
        k=k,
        budget=asdict(budget),
        free_rank=free_rank,
        invariant_factors=factors,
        order=order,
        prime_verdicts=prime_verdicts,
        generators_tried=tried,
    )


def _valuation(n, p):
    v = 0
    while n % p == 0 and n:
        n //= p
        v += 1
    return v


@dataclass
class BridgeReport:
    """Comparison of H1 with constant mod-p coefficients against H1
    with degree-2k coefficients through b -> b * X2^(2k), for p
    dividing the level."""

    verdict: str
    group: str
    p: int
    k: int
    ordinary_dim_constant: int
    ordinary_dim_weighted: int
    equivariant: bool
    image_matches: bool
    unit_scalings_checked: int


def _j_star_chain(chain, k, p):
    """Blockwise b -> b * X2^(2k) on chains of constant coefficients."""
    return {key: (0,) * (2 * k) + (b[0] % p,) for key, b in chain.items()}


def mod_p_bridge(N, p, k, budget=Budget()):
    """Check that b -> b * X2^(2k) identifies the U_p-ordinary parts of
    H1 with constant and with degree-2k mod-p coefficients on
    Gamma_1(N) for p | N, and unit-scales hyperbolic cycles outside the
    principal congruence subgroup of level p."""
    if N % p:
        raise ValueError("the reduction bridge needs p dividing the level")
    spec = SubgroupSpec.gamma1(N)
    ring = RingSpec("Fp", p=p)
    table = build_cosets(spec)
    h0 = compute_h1(table, 0, ring)
    hk = compute_h1(table, k, ring)
    h0.spec = spec
    hk.spec = spec
    U0 = hecke_operator(p, h0)
    Uk = hecke_operator(p, hk)
    pm0 = PModule(h0.module, p, 1)
    pmk = PModule(hk.module, p, 1)
    dec0 = ordinary_idempotent(pm0.reduce_matrix(U0.matrix), pm0)
    deck = ordinary_idempotent(pmk.reduce_matrix(Uk.matrix), pmk)
    # matrix of j_* on generators
    jcols = []
    for i in range(h0.ngens):
        chain = h0.generator_chain(i)
        jcols.append(list(hk.coords(_j_star_chain(chain, k, p))))
    # Hecke equivariance: j o U_p = U_p o j on the mod-p modules
    equivariant = _check_equivariance(jcols, U0.matrix, Uk.matrix,
                                      h0.ngens, hk.ngens, p)
    # image of the constant ordinary part spans the weighted one
    span = pmk.relation_lattice()
    for row in dec0.image.rows:
        x = [0] * h0.ngens
        for idx, i in enumerate(pm0.keep):
            x[i] = row[idx]
        jim = [sum(jcols[t][r] * x[t] for t in range(h0.ngens))
               for r in range(hk.ngens)]
        span.add(deck.apply(pmk.project(jim)))
    image_matches = span.canonical() == deck.image.canonical()
    dims_equal = dec0.ordinary_rank == deck.ordinary_rank
    # unit scaling on hyperbolic cycles outside level-p principal
    checked = 0
    scaling_ok = True
    for gamma in enumerate_hyperbolic(table, budget, exclude_p=p):
        a, b, c, d = gamma.key()
        if b % p == 0:
            continue  # the scaling statement needs b to be a unit
        w0 = h0.cycle_coords(gamma, (1,))
        wk = hk.cycle_coords(gamma, poly_pow(quadratic_form(gamma), k))
        grp = gcd(gcd(abs(c), abs(a - d)), abs(b))
        u = pow((grp * pow(b, -1, p)) % p, k, p)
        lhs = [sum(jcols[t][r] * w0[t] for t in range(h0.ngens)) % p
               for r in range(hk.ngens)]
        rhs = [(u * x) % p for x in wk]
        if hk.reduce_coords(lhs) != hk.reduce_coords(rhs):
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


def _check_equivariance(jcols, A0, Ak, n0, nk, p):
    for i in range(n0):
        lhs = [0] * nk
        for t in range(n0):
            coef = A0[t][i]
            if coef:
                for r in range(nk):
                    lhs[r] += jcols[t][r] * coef
        rhs = [0] * nk
        for t in range(nk):
            coef = jcols[i][t]
            if coef:
                for r in range(nk):
                    rhs[r] += Ak[r][t] * coef
        if any((x - y) % p for x, y in zip(lhs, rhs)):
            return False
    return True
