"""Double-coset operators on H1 via the transfer / conjugation-push /
corestriction factorization, and the specializations T_p, U_p, the
diamond operators, and the level-raising triple (pi, phi, V).

The double coset of alpha with det(alpha) > 0 maps one cycle at a
time from H1(Gamma) to H1(Gamma'): the cycle is restricted to
Gamma_1 = Gamma n alpha^-1 Gamma' alpha by the averaging map on
coefficients, rewritten in subgroup form, conjugated term by term
through alpha into Gamma_2 = alpha Gamma_1 alpha^-1, re-expanded, and
corestricted to Gamma'.  A check that needs the images of a few
classes maps just those (``DoubleCoset.apply_coords``); the operator
matrix is the images of the generators.

Cycles are mapped in batches (one class, or every generator for the
matrix).  Corestriction is equivariant, so a conjugated element used at
least 2k+1 times in a batch has its Fox map on Gamma_2 pushed through
the corestriction once; other terms are expanded on Gamma_2 and
corestricted blockwise.
"""

from collections import Counter
from dataclasses import dataclass
from operator import mul

from .cosets import SubgroupSpec, build_cosets, subgroup_transversal
from .homology import (
    H1Presentation,
    _fox_unit_map,
    compute_h1,
    to_group_chain,
)
from .intlinalg import from_columns, identity, xgcd
from .psl2 import I, Mat2, PMat
from .symspace import (
    act,
    add_image,
    corestriction_map,
    reduce_chain,
    restriction_map,
)


class WrongDivisibility(Exception):
    """T_p needs p coprime to the level; U_p needs p dividing it."""


class ConjugateLeavesGroup(Exception):
    """A conjugated chain term is non-integral or fails membership."""


def conjugate_by(alpha, g):
    """alpha * g * alpha^-1 in PSL2(Z), or None if non-integral."""
    det = alpha.det()
    m = alpha * g.lift() * alpha.adjugate()
    a, b, c, d = m.a, m.b, m.c, m.d
    if a % det or b % det or c % det or d % det:
        return None
    return PMat(a // det, b // det, c // det, d // det)


def hermite_split(m):
    """(sigma, (a, b, d)) with m == sigma * [[a, b], [0, d]], sigma in
    SL2(Z), a, d > 0 and 0 <= b < d: the Hermite form of an integer
    matrix of positive determinant, unique under left multiplication
    by SL2(Z)."""
    x, y, a = xgcd(m.a, m.c)
    # [[x, y], [-c/a, a/a]] * m == [[a, b0], [0, d]]
    b0 = x * m.b + y * m.d
    d = m.det() // a
    q, b = divmod(b0, d)
    ua, uc = m.a // a, m.c // a
    return PMat(ua, q * ua - y, uc, q * uc + x), (a, b, d)


def intersection_key(key, key_prime, alpha):
    """Right-coset key of Gamma n alpha^-1 Gamma' alpha from the keys of
    Gamma and Gamma'.  Write alpha*g = sigma*beta (hermite_split).  If
    g' g^-1 lies in the intersection, then beta' beta^-1 is in SL2(Z),
    so beta' == beta and sigma' sigma^-1 lies in Gamma'; conversely
    those two equalities and a common Gamma coset give membership."""

    def key1(g):
        sigma, beta = hermite_split(alpha * g.lift())
        return key(g), key_prime(sigma), beta

    return key1


def intersection_table(table, alpha, table_prime):
    """Coset table of Gamma n alpha^-1 Gamma' alpha, for Gamma and Gamma'
    the groups of the tables: the table of Gamma when alpha s alpha^-1
    lies in Gamma' for every Schreier generator s of Gamma, else one
    built on intersection_key."""
    conj = (conjugate_by(alpha, s) for s in table.schreier_generators())
    if all(cg is not None and table_prime.contains(cg) for cg in conj):
        return table
    return build_cosets(intersection_key(table.key, table_prime.key, alpha))


def _push_fox_map(entries, cor_map, d, modulus):
    """The Fox map of an element on Gamma_2's table pushed through the
    corestriction: per (slot, target block), the sum of C M over the
    entries M that reach it through C (None: identity) as one product
    [C_1 ... C_n][M_1; ...; M_n], faster than n products and a sum."""
    groups = {}
    for slot, blk, M in entries:
        for j, C in cor_map.entries[blk]:
            groups.setdefault((slot, j), []).append((C, M))
    unit = identity(d)
    pushed = []
    for (slot, j), pairs in groups.items():
        C, M = pairs[0]
        if len(pairs) == 1 and (C is None or M is None):
            pushed.append((slot, j, M if C is None else C))
            continue
        rows = [[x for C, _ in pairs for x in (C or unit)[r]] for r in range(d)]
        cols = list(zip(*[row for _, M in pairs for row in M or unit]))
        P = [[sum(map(mul, r, c)) for c in cols] for r in rows]
        if modulus:
            P = [[x % modulus for x in row] for row in P]
        pushed.append((slot, j, P))
    return pushed


def conj_star(cycles, table1, alpha, cor_map):
    """Push cycles over Gamma_1 (the group of ``table1``) through
    conjugation by alpha into Gamma_2 = alpha Gamma_1 alpha^-1 (the
    source table of ``cor_map``, which also gives k and the modulus)
    and corestrict them along ``cor_map``; returns the list of images.

    A term (gamma, v) of the subgroup form of a cycle becomes the Fox
    chain of (alpha gamma alpha^-1 - 1) tensor alpha v.  Corestriction
    is equivariant, so it can be applied to the Fox map of a conjugated
    element once.  A push costs about d = 2k+1 matrix-vector products
    per Fox entry, so an element used at least d times in the batch is
    pushed; the terms of the others apply the Fox map on Gamma_2, and
    their sum is corestricted blockwise.
    """
    table2, k, modulus = cor_map.src_table, cor_map.k, cor_map.modulus
    d = 2 * k + 1
    forms = [to_group_chain(c, table1, k, modulus) for c in cycles]
    uses = Counter(gamma.key() for form in forms for gamma, _ in form)
    maps = {}  # element key -> (pushed?, Fox map on Gamma_2 or pushed)
    images = []
    for form in forms:
        acc, unpushed = {}, {}
        for gamma, v in form:
            key = gamma.key()
            if key not in maps:
                cg = conjugate_by(alpha, gamma)
                if cg is None or table2.coset_of(cg)[0] != 0:
                    raise ConjugateLeavesGroup(
                        "conjugate of %r leaves the target group" % (gamma,))
                fox = _fox_unit_map(table2, cg, k, modulus)
                pushed = uses[key] >= d
                maps[key] = pushed, (_push_fox_map(fox, cor_map, d, modulus)
                                     if pushed else fox)
            pushed, fox = maps[key]
            out = acc if pushed else unpushed
            av = act(alpha, v, modulus)
            for slot, blk, M in fox:
                add_image(out, (slot, blk), M, av)
        for (slot, blk), w in unpushed.items():
            for j, C in cor_map.entries[blk]:
                add_image(acc, (slot, j), C, w)
        images.append(reduce_chain(acc, modulus))
    return images


@dataclass
class OperatorMatrix:
    """Matrix of an operator between two H1 presentations, columns
    indexed by source generators in canonical coordinates."""

    matrix: list
    source: H1Presentation
    target: H1Presentation

    def apply_coords(self, coords):
        g = self.target.ngens
        out = [0] * g
        for j, c in enumerate(coords):
            if c:
                for i in range(g):
                    out[i] += self.matrix[i][j] * c
        return self.target.reduce_coords(out)

    def compose(self, other):
        """self o other (apply ``other`` first)."""
        cols = []
        for j in range(other.source.ngens):
            col = [other.matrix[i][j] for i in range(other.target.ngens)]
            cols.append(list(self.apply_coords(col)))
        return OperatorMatrix(from_columns(cols, self.target.ngens),
                              other.source, self.target)

    def equals(self, other):
        if self.source is not other.source or self.target is not other.target:
            return False
        for j in range(self.source.ngens):
            a = [self.matrix[i][j] for i in range(self.target.ngens)]
            b = [other.matrix[i][j] for i in range(self.target.ngens)]
            if self.target.reduce_coords(a) != self.target.reduce_coords(b):
                return False
        return True

    def is_zero(self):
        for j in range(self.source.ngens):
            col = [self.matrix[i][j] for i in range(self.target.ngens)]
            if any(self.target.reduce_coords(col)):
                return False
        return True

    def scaled(self, c):
        return OperatorMatrix([[c * x for x in row] for row in self.matrix],
                              self.source, self.target)

    def plus(self, other):
        return OperatorMatrix(
            [[x + y for x, y in zip(r1, r2)]
             for r1, r2 in zip(self.matrix, other.matrix)],
            self.source, self.target)

    # polyz is imported on first use: only a charpoly needs it, and a
    # process that prints none (hypcycle --version) should not load it

    def charpoly(self):
        """Coefficients of the characteristic polynomial on the free
        part, leading first (see polyz)."""
        from . import polyz

        free = [i for i, d in enumerate(self.source.invariant_factors) if d == 0]
        return polyz.charpoly([[self.matrix[i][j] for j in free] for i in free])

    def charpoly_str(self):
        """The factored characteristic polynomial, e.g. (x-3)*(x+2)^2."""
        from . import polyz

        return polyz.factor_str(self.charpoly())


def identity_operator(h1):
    return OperatorMatrix(identity(h1.ngens), h1, h1)


class DoubleCoset:
    """Prepared double-coset operator [Gamma' alpha Gamma]."""

    def __init__(self, source, target, alpha):
        if alpha.det() <= 0:
            raise ValueError("alpha must have positive determinant")
        if source.k != target.k or source.ring != target.ring:
            raise ValueError("source and target must share degree and ring")
        self.source = source
        self.target = target
        self.alpha = alpha
        k = source.k
        modulus = source.ring.modulus
        # Gamma_1 = Gamma n alpha^-1 Gamma' alpha; Gamma_2 = Gamma' n
        # alpha Gamma alpha^-1 takes adj(alpha), a multiple of alpha^-1
        self.table1 = intersection_table(source.table, alpha, target.table)
        self.reps = subgroup_transversal(self.table1, source.table)
        self.res_map = restriction_map(source.table, self.table1, k, modulus,
                                       self.reps)
        self.table2 = intersection_table(target.table, alpha.adjugate(),
                                         source.table)
        self.cor_map = corestriction_map(self.table2, target.table, k, modulus)
        self._matrix = None

    @property
    def coset_count(self):
        """Number of single cosets in the double coset."""
        return len(self.reps)

    def apply_chain(self, c):
        return conj_star([self.res_map.apply(c)], self.table1, self.alpha,
                         self.cor_map)[0]

    def apply_coords(self, coords):
        """Target coordinates of the image of one class, given by its
        source coordinates."""
        return self.target.coords(self.apply_chain(self.source.chain(coords)))

    def operator(self):
        if self._matrix is None:
            chains = [self.res_map.apply(self.source.chain(unit))
                      for unit in identity(self.source.ngens)]
            images = conj_star(chains, self.table1, self.alpha, self.cor_map)
            cols = [list(self.target.coords(c)) for c in images]
            self._matrix = from_columns(cols, self.target.ngens)
        return OperatorMatrix(self._matrix, self.source, self.target)


def hecke_matrix_diag_p(h1, p):
    """[Gamma diag(1,p) Gamma] as an endomorphism of H1."""
    return DoubleCoset(h1, h1, Mat2(1, 0, 0, p))


def t_coset(p, h1):
    """The double coset of T_p, for p coprime to the level."""
    spec = h1.spec
    if spec is None or spec.N % p == 0:
        raise WrongDivisibility("T_p requires p coprime to the level")
    return hecke_matrix_diag_p(h1, p)


def hecke_T(p, h1):
    return t_coset(p, h1).operator()


def hecke_U(p, h1):
    spec = h1.spec
    if spec is None or spec.N % p:
        raise WrongDivisibility("U_p requires p dividing the level")
    return hecke_matrix_diag_p(h1, p).operator()


def hecke_operator(p, h1):
    """T_p or U_p according to the divisibility of the level by p; this
    single double coset drives the ordinary projector."""
    return hecke_matrix_diag_p(h1, p).operator()


def beta_matrix(N, p):
    """beta = [[m, n], [N, p]] in Gamma_0(N) with minimal nonnegative m
    solving m*p - n*N = 1."""
    if N == 1:
        return Mat2(0, -1, 1, p)
    x, _, g = xgcd(p, N)
    if g != 1:
        raise WrongDivisibility("p must be coprime to N")
    m = x % N
    n = (m * p - 1) // N
    return Mat2(m, n, N, p)


def diamond_matrix(N, d):
    """An element of Gamma_0(N) with lower row (N, d mod N)."""
    d = d % N
    x, _, g = xgcd(d, N)
    if g != 1:
        raise WrongDivisibility("diamond operator needs gcd(d, N) = 1")
    a = x % N
    b = (a * d - 1) // N
    return Mat2(a, b, N, d)


def diamond_coset(d, h1, beta=None):
    """The diamond operator <d> as a map of classes: the identity
    operator if d = 1 mod N, else the conjugation-push by any beta in
    Gamma_0(N) with lower-right entry d mod N.  Both have
    ``apply_coords``."""
    spec = h1.spec
    if spec is None:
        raise ValueError("diamond operator needs a subgroup spec")
    N = spec.N
    if N == 1 or d % N == 1 % N:
        return identity_operator(h1)
    if beta is None:
        beta = diamond_matrix(N, d)
    return DoubleCoset(h1, h1, beta)


def diamond(d, h1, beta=None):
    """The matrix of the diamond operator <d> (see diamond_coset)."""
    op = diamond_coset(d, h1, beta)
    return op.operator() if isinstance(op, DoubleCoset) else op


@dataclass
class PPhiV:
    """The canonical map pi, the transfer phi, and the shift V between
    the level-N and level-Np presentations, with U_p downstairs."""

    h1: H1Presentation
    h1p: H1Presentation
    pi: OperatorMatrix
    phi: OperatorMatrix
    V: OperatorMatrix
    Up: OperatorMatrix


def gamma0p_intersection(spec, p):
    """SubgroupSpec of Gamma n Gamma_0(p) for p coprime to the level."""
    if spec.N % p == 0:
        raise WrongDivisibility("p divides the level; intersection is trivial")
    Np = spec.N * p
    gens = tuple(x for x in range(1, Np)
                 if xgcd(x, Np)[2] == 1 and (x % spec.N) in spec.h_set)
    return SubgroupSpec(Np, gens,
                        label="%s&gamma0:%d" % (spec.name, p))


def pi_phi_V(h1, p):
    """The operators of the level-raising square at p (p coprime to
    the level): pi is corestriction, phi the double coset of diag(1,p)
    into the intersection with Gamma_0(p), V the shifted double coset
    of beta*diag(p,1), and U_p acts downstairs."""
    spec = h1.spec
    if spec is None or spec.N % p == 0:
        raise WrongDivisibility("pi/phi/V need p coprime to the level")
    specp = gamma0p_intersection(spec, p)
    h1p = compute_h1(specp, h1.k, h1.ring)
    pi = DoubleCoset(h1p, h1, I.lift()).operator()
    phi = DoubleCoset(h1, h1p, Mat2(1, 0, 0, p)).operator()
    beta = beta_matrix(spec.N, p)
    V = DoubleCoset(h1p, h1p, beta * Mat2(p, 0, 0, 1)).operator()
    Up = hecke_U(p, h1p)
    return PPhiV(h1, h1p, pi, phi, V, Up)
