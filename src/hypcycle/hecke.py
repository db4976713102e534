"""Double-coset operators on H1, and the specializations T_p, U_p and
the diamond operators: ``hecke_coset`` is the one constructor of the
double coset of diag(1,p), which is T_p or U_p by the divisibility of
the level, and ``diamond_coset`` the one constructor of <d>.

The double coset of alpha with det(alpha) > 0 maps classes from
H1(Gamma) to H1(Gamma').  A class is lifted to a cycle on Gamma, and
its restriction to Gamma_1 = Gamma n alpha^-1 Gamma' alpha (the
averaging map on coefficients) is read in subgroup form straight off
that cycle, through the restriction's entries and Gamma_1's steps
(homology.restricted_form).  Each term is conjugated through alpha
into Gamma_2 = alpha Gamma_1 alpha^-1, and its Fox chain there is read
straight into the ambient coordinates of Gamma''s LocalQuotient
through the corestriction, whose readers the double coset composes
with the target's once per block of Gamma_2.  No chain is built on
Gamma_1 or Gamma_2, and no chain of an image.  A check that needs the
images of a few classes maps just those (``DoubleCoset.apply_coords``);
the operator matrix is the images of the generators.  An
``OperatorMatrix`` carries that matrix, its ``apply_coords`` and the
characteristic polynomial on the free part.

Classes are mapped in batches (one class, or every generator for the
matrix).  A conjugated element used at least 2k+1 times in a batch has
its Fox map read into coordinates once; the other terms apply each Fox
entry to their coefficient and read the result.
"""

from collections import Counter
from operator import add, mul

from .cosets import build_cosets, subgroup_transversal
from .homology import _fox_unit_map, restricted_form
from .intlinalg import from_columns, identity, xgcd
from .psl2 import Mat2, PMat
from .symspace import act, corestriction_map, restriction_map


class WrongDivisibility(ValueError):
    """T_p needs p coprime to the level; U_p needs p dividing it."""


class ConjugateLeavesGroup(ValueError):
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


def _times(row, M):
    """The row vector row M, M None standing for the identity."""
    return row if M is None else [sum(map(mul, row, col)) for col in zip(*M)]


class CorestrictedReaders(dict):
    """The coordinate readers of the target's LocalQuotient composed with
    the corestriction: at (slot, block) of Gamma_2, the pairs
    (coordinate index, row C) for the readers (index, row) of the target
    block that C sends it to.  Filled on first use, so a map of a few
    classes composes only the blocks they reach.  ``entries`` are the
    corestriction's (symspace.corestriction_map)."""

    def __init__(self, entries, readers):
        super().__init__()
        self.entries = entries
        self.target = readers

    def __missing__(self, key):
        slot, blk = key
        (j, C), = self.entries[blk]
        pairs = self[key] = [(idx, _times(row, C))
                             for idx, row in self.target.get((slot, j), ())]
        return pairs


def _projected_fox_map(fox, readers):
    """The Fox map of an element on Gamma_2 read into target
    coordinates: per coordinate index, the sum of (row C) M over the
    Fox entries M and the readers of their blocks."""
    proj = {}
    for slot, blk, M in fox:
        for idx, row in readers[slot, blk]:
            r = _times(row, M)
            proj[idx] = list(map(add, proj[idx], r)) if idx in proj else r
    return list(proj.items())


def conj_star(forms, alpha, table2, readers, quotient):
    """Map classes of Gamma_1, each given in subgroup form (a list of
    (gamma, vector), as from homology.restricted_form), by conjugation
    through alpha into Gamma_2 = alpha Gamma_1 alpha^-1 (the group of
    ``table2``) and corestriction to Gamma'; returns the images as
    ambient coordinate vectors of Gamma''s LocalQuotient ``quotient``
    (which gives k and the modulus), reduced mod m.  ``readers`` are
    the ``CorestrictedReaders`` of the corestriction and that quotient.

    A term (gamma, v) of a subgroup form becomes the Fox chain of
    (alpha gamma alpha^-1 - 1) tensor alpha v on Gamma_2, which is read
    into coordinates and never built.  Reading a Fox entry M applied to
    a vector costs about one product by M, and reading M itself about
    d = 2k+1 such products, so an element used at least d times in the
    batch has its Fox map read into coordinates once; the terms of the
    others apply each Fox entry and read the result.
    """
    k, modulus = quotient.k, quotient.modulus
    d = 2 * k + 1
    uses = Counter(gamma.key() for form in forms for gamma, _ in form)
    maps = {}  # element key -> (projected Fox map or None, Fox map)
    images = []
    for form in forms:
        vec = [0] * quotient.ambient_rank
        for gamma, v in form:
            key = gamma.key()
            if key not in maps:
                cg = conjugate_by(alpha, gamma)
                if cg is None or table2.coset_of(cg)[0] != 0:
                    raise ConjugateLeavesGroup(
                        "conjugate of %r leaves the target group" % (gamma,))
                fox = _fox_unit_map(table2, cg, k, modulus)
                maps[key] = (_projected_fox_map(fox, readers)
                             if uses[key] >= d else None), fox
            proj, fox = maps[key]
            av = act(alpha, v, modulus)
            if proj is not None:
                for idx, row in proj:
                    vec[idx] += sum(map(mul, row, av))
                continue
            for slot, blk, M in fox:
                pairs = readers[slot, blk]
                if pairs:
                    w = av if M is None else [sum(map(mul, r, av)) for r in M]
                    for idx, row in pairs:
                        vec[idx] += sum(map(mul, row, w))
        images.append([x % modulus for x in vec] if modulus else vec)
    return images


class OperatorMatrix:
    """Matrix of an operator between two H1 presentations, columns
    indexed by source generators in canonical coordinates."""

    def __init__(self, matrix, source, target):
        self.matrix = matrix
        self.source = source
        self.target = target

    def apply_coords(self, coords):
        g = self.target.ngens
        out = [0] * g
        for j, c in enumerate(coords):
            if c:
                for i in range(g):
                    out[i] += self.matrix[i][j] * c
        return self.target.reduce_coords(out)

    def operator(self):
        """The matrix is its own operator, so it stands wherever a
        prepared DoubleCoset does (see diamond_coset)."""
        return self

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
        self.res_entries = restriction_map(source.table, self.table1, k,
                                           modulus, self.reps)
        self.table2 = intersection_table(target.table, alpha.adjugate(),
                                         source.table)
        self.readers = CorestrictedReaders(
            corestriction_map(self.table2, target.table, k, modulus),
            target.quotient.readers)
        self._matrix = None

    @property
    def coset_count(self):
        """Number of single cosets in the double coset."""
        return len(self.reps)

    def _images(self, classes):
        """Target coordinates of the images of classes, each given by its
        source coordinates, mapped as one batch."""
        source = self.source
        forms = [restricted_form(source.chain(c), self.res_entries,
                                 self.table1, source.k, source.ring.modulus)
                 for c in classes]
        vecs = conj_star(forms, self.alpha, self.table2, self.readers,
                         self.target.quotient)
        return [self.target.module.coords(v) for v in vecs]

    def apply_coords(self, coords):
        """Target coordinates of the image of one class, given by its
        source coordinates."""
        return self._images([coords])[0]

    def operator(self):
        if self._matrix is None:
            self._matrix = from_columns(self._images(identity(
                self.source.ngens)), self.target.ngens)
        return OperatorMatrix(self._matrix, self.source, self.target)


def hecke_coset(p, h1):
    """[Gamma diag(1,p) Gamma] on H1: T_p for p coprime to the level, U_p
    for p dividing it."""
    return DoubleCoset(h1, h1, Mat2(1, 0, 0, p))


def diamond_matrix(N, d):
    """An element of Gamma_0(N) with lower row (N, d mod N)."""
    d = d % N
    x, _, g = xgcd(d, N)
    if g != 1:
        raise WrongDivisibility("diamond operator needs gcd(d, N) = 1")
    a = x % N
    b = (a * d - 1) // N
    return Mat2(a, b, N, d)


def diamond_coset(d, h1):
    """The diamond operator <d>, the double coset of an element beta of
    Gamma_0(N) with lower-right entry d mod N (diamond_matrix): the
    identity operator when beta lies in the group (d in +-H), else a
    DoubleCoset.  Both have ``operator`` and ``apply_coords``."""
    spec = h1.spec
    if spec is None:
        raise ValueError("diamond operator needs a subgroup spec")
    beta = diamond_matrix(spec.N, d)
    if spec.contains(beta):
        return identity_operator(h1)
    return DoubleCoset(h1, h1, beta)
