"""Double-coset operators on H1, and the specializations T_p, U_p and
the diamond operators: ``hecke_coset`` is the one constructor of the
double coset of diag(1,p), which is T_p or U_p by the divisibility of
the level, and ``diamond_coset`` the one constructor of <d>, a
DoubleCoset for every unit d (for d in +-H the double coset is the
group itself, and its operator the identity).

The double coset of alpha with det(alpha) > 0 maps classes from
H1(Gamma) to H1(Gamma').  A class is given by its blocks off Gamma's
spanning tree (homology.LocalQuotient.blocks), and its restriction to
Gamma_1 = Gamma n alpha^-1 Gamma' alpha (the averaging map on
coefficients) is read in subgroup form straight off them
(``restricted_form``): the tree edges that would make the blocks
a cycle have twist 1 and restrict to no term, so no cycle is built.
Gamma_1 is read through Gamma's own table: its cosets are the s_r t_i, for t_i Gamma's
transversal and s_r the reps of its deg cosets in Gamma, walked on
restriction_key (cosets.subgroup_transversal).  Its step at (r, i) is
Gamma's step g at i with the move s_r g^-1 = gamma^-1 s_r' of the reps
(``DoubleCoset.moves``), and its restriction is rho(s_r) on every
block (symspace.restriction_map), so no table of Gamma_1 is built and
no coset is looked up.  Each term is conjugated through alpha into
Gamma', and its Fox chain on Gamma''s own table is read straight into
the ambient coordinates of Gamma''s LocalQuotient.  That chain is the
corestriction of the term's Fox chain on Gamma_2 = alpha Gamma_1
alpha^-1, so no table of Gamma_2 is built and nothing is corestricted.
No chain is built on Gamma_1 or Gamma', and no chain of an image.  A
check that needs the images of a few classes maps just those
(``DoubleCoset.apply_coords``); the operator matrix is the images of
the generators.  An ``OperatorMatrix`` carries that matrix, its
``apply_coords`` and the characteristic polynomial on the free part.

Classes are mapped in batches (one class, or every generator for the
matrix), and each conjugated element is walked once per batch: with
the summed vectors alpha v of the classes that use it as columns when
they are fewer than 2k+1, else with its (2k+1)-square Fox map, read
once per class.  That walk reads the element's word as
runs T^q (walk.word_runs) along the T-orbits of Gamma''s table: prefix
sums of the projected reader rows along each orbit, and sums over its
whole laps, give a run's rows in at most two products, however long it
is (walk.RunSums).  Each target H1's LocalQuotient keeps one
(``runs``), so every operator into it shares the orbits and sums.  The
conjugates for T_p and U_p have runs of length about p, so a Hecke
matrix costs about one step per run, not one per letter.
"""

from operator import add, mul

from .cosets import subgroup_transversal
from .homology import SLOT_STEP
from .intlinalg import from_columns, identity, mat_vec, xgcd
from .psl2 import Mat2, PMat
from .symspace import act_matrix, restriction_map


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


def restriction_key(alpha, key_prime):
    """Right-coset key, on Gamma, of Gamma_1 = Gamma n alpha^-1 Gamma'
    alpha, from the key of Gamma'.  Write alpha*h = sigma*beta
    (hermite_split).  For h, h' in Gamma, alpha h' h^-1 alpha^-1 is
    sigma' beta' beta^-1 sigma^-1, which lies in SL2(Z) only if
    beta' == beta; so h' h^-1 lies in Gamma_1 exactly when beta' ==
    beta and sigma' sigma^-1 lies in Gamma'."""

    def key(h):
        sigma, beta = hermite_split(alpha * h.lift())
        return key_prime(sigma), beta

    return key


def restricted_form(blocks, steps, rhos, moves):
    """The subgroup form of the restriction of a class to a subgroup
    Gamma_1 of the group Gamma of its table: a list of (gamma, vector)
    with gamma in Gamma_1.

    Gamma_1's cosets are the s_r t_i, s_r its reps in Gamma; its step
    at (r, i) is Gamma's step g at i (read from Gamma's letter steps
    ``steps``) with the element gamma = moves(g)[r], where s_r g^-1 ==
    gamma^-1 s_r'.  The restriction puts rho(s_r) v (``rhos``, from
    symspace.restriction_map) at (r, i), so each nonzero block (slot, i)
    of a cycle gives the terms (gamma, rho(s_r) v).  Terms with
    gamma = 1 are dropped, and with them every block whose g is 1, the
    tree edges among them (homology.LocalQuotient): so a class reads the
    same off its ``blocks`` off the tree (LocalQuotient.blocks) as off
    the cycle that the tree edges complete them to.
    """
    terms = []
    for (slot, i), v in blocks.items():
        g = steps[i, slot, SLOT_STEP[slot]][1]
        if any(v) and not g.is_identity():
            for M, gamma in zip(rhos, moves(g)):
                if not gamma.is_identity():
                    terms.append((gamma, v if M is None else
                                  [sum(map(mul, row, v)) for row in M]))
    return terms


def conj_star(forms, alpha, runs, rank):
    """Map classes of Gamma_1, each given in subgroup form (a list of
    (gamma, vector), as from restricted_form), by conjugation
    through alpha into Gamma'; returns the images as ambient coordinate
    vectors (of length ``rank``) of Gamma''s LocalQuotient, reduced mod
    m.  ``runs`` are the RunSums of that quotient; they give Gamma''s
    table, k and the modulus.

    A term (gamma, v) of a subgroup form becomes the Fox chain of
    (alpha gamma alpha^-1 - 1) tensor alpha v on Gamma', the
    corestriction of that chain on Gamma_2 = alpha Gamma_1 alpha^-1;
    it is read into coordinates and never built.  The terms are grouped
    by element, in the order first seen (the first element that leaves
    Gamma' raises), and their vectors summed per form, so each element
    is walked once by ``runs``: with its n vectors alpha v as columns
    when n < d = 2k+1, else with its d x d map, read once per form.
    The action matrix of alpha is built here, once per call.
    """
    m, d = runs.modulus, runs.d
    sums = {}  # element key -> (conjugate, {class: sum of its vectors})
    for j, form in enumerate(forms):
        for gamma, v in form:
            key = gamma.key()
            hit = sums.get(key)
            if hit is None:
                cg = conjugate_by(alpha, gamma)
                if cg is None or not runs.table.contains(cg):
                    raise ConjugateLeavesGroup(
                        "conjugate of %r leaves the target group" % (gamma,))
                hit = sums[key] = cg, {}
            acc = hit[1]
            acc[j] = list(map(add, acc[j], v)) if j in acc else v
    images = [[0] * rank for _ in forms]
    A = act_matrix(alpha, d // 2, m)
    for cg, acc in sums.values():
        avs = {j: mat_vec(A, v) for j, v in acc.items()}
        if len(avs) < d:  # walk the columns alpha v, one per class
            V = list(zip(*avs.values()))
            for idx, row in runs.project(cg, V):
                for j, x in zip(avs, row):
                    images[j][idx] += x
        else:  # walk the d x d map and read it once per class
            for idx, row in runs.project(cg):
                for j, av in avs.items():
                    images[j][idx] += sum(map(mul, row, av))
    return [[x % m for x in vec] for vec in images] if m else images


class OperatorMatrix:
    """Matrix of an operator between two H1 presentations, columns
    indexed by source generators in canonical coordinates."""

    def __init__(self, matrix, source, target):
        self.matrix = matrix
        self.source = source
        self.target = target

    def apply_coords(self, coords):
        return self.target.reduce_coords(mat_vec(self.matrix, coords))

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


class DoubleCoset:
    """Prepared double-coset operator [Gamma' alpha Gamma].  Gamma_1 is
    read through Gamma's table: ``reps`` are the s_r of its cosets s_r t_i
    (on the key ``key``), ``moves`` their moves by Gamma's steps and
    ``rhos`` the rho(s_r) of the restriction to it."""

    def __init__(self, source, target, alpha):
        if alpha.det() <= 0:
            raise ValueError("alpha must have positive determinant")
        if source.k != target.k or source.ring != target.ring:
            raise ValueError("source and target must share degree and ring")
        self.source = source
        self.target = target
        self.alpha = alpha
        self.key = restriction_key(alpha, target.table.key)
        self.reps, self._cosets = subgroup_transversal(self.key, source.table)
        self.rhos = restriction_map(self.reps, source.k, source.ring.modulus)
        self._moves = {}
        self.runs = target.quotient.runs
        self._matrix = None

    @property
    def coset_count(self):
        """Number of single cosets in the double coset."""
        return len(self.reps)

    def moves(self, g):
        """The move of the reps by an element g of Gamma: for each s_r,
        the gamma = s_r' g s_r^-1 in Gamma_1 with s_r g^-1 in the coset
        of s_r', so that s_r g^-1 == gamma^-1 s_r'.  Memoised per g."""
        hit = self._moves.get(g.key())
        if hit is None:
            reps, cosets, key, ginv = self.reps, self._cosets, self.key, g.inv()
            hit = self._moves[g.key()] = [reps[cosets[key(s * ginv)]] * g
                                          * s.inv() for s in reps]
        return hit

    def _images(self, classes):
        """Target coordinates of the images of classes, each given by its
        source coordinates, mapped as one batch."""
        source = self.source
        quo = source.quotient
        forms = [restricted_form(quo.blocks(source.module.lift(c)),
                                 quo.steps, self.rhos, self.moves)
                 for c in classes]
        vecs = conj_star(forms, self.alpha, self.runs,
                         self.target.quotient.ambient_rank)
        return [self.target.coords(v) for v in vecs]

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
    Gamma_0(N) with lower-right entry d mod N (diamond_matrix).  When
    beta lies in the group (d in +-H) that double coset is the group
    itself, one coset, and its operator is the identity."""
    spec = h1.spec
    if spec is None:
        raise ValueError("diamond operator needs a subgroup spec")
    return DoubleCoset(h1, h1, diamond_matrix(spec.N, d))
