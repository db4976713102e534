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
matrix), and each conjugated element has its Fox map read into
coordinates once per batch.  That read walks the element's word as
runs T^q (psl2.word_runs) along the T-orbits of Gamma_2's table: prefix
sums of the projected reader rows along each orbit, kept by the
double coset beside its corestricted readers (``RunSums``), give a
run's rows at a constant cost per lap of its orbit, however long it
is.  The conjugates for T_p and U_p have runs of length about p, so a
Hecke matrix costs about one step per run, not one per letter.
"""

from operator import add, mul, sub

from .cosets import build_cosets, subgroup_transversal
from .homology import (
    _compose,
    fox_step,
    letter_steps,
    merge_blocks,
    restricted_form,
)
from .intlinalg import from_columns, identity, xgcd
from .psl2 import T_LETTERS, Mat2, PMat, word_runs
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


def _add_rows(acc, pairs, M):
    """acc[idx] += row M for the pairs (idx, row), M None standing for
    the identity."""
    cols = None if M is None else list(zip(*M))
    for idx, row in pairs:
        r = row if cols is None else [sum(map(mul, row, c)) for c in cols]
        acc[idx] = list(map(add, acc[idx], r)) if idx in acc else r


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
        rows = {}
        _add_rows(rows, self.target.get((slot, j), ()), C)
        pairs = self[key] = list(rows.items())
        return pairs


class _Orbit:
    """One T^s-orbit b_0 -> ... -> b_(w-1) of a table's blocks, extended
    to a reach R <= w: for t <= R the twists Pi_t, their inverses and
    the prefix sums PS_t."""

    __slots__ = ("blocks", "pi", "pinv", "ps")

    def __init__(self, blocks):
        self.blocks = blocks
        self.pi = [None]
        self.pinv = [None]
        self.ps = [{}]


class RunSums:
    """The Fox walk of elements of Gamma_2 (the group of ``table``) read
    straight into target coordinates through the corestricted
    ``readers``, one step per run T^q of their words (psl2.word_runs).

    One step of T^s (s = +-1) is the two letters of T^s, walked as in
    homology.fox_step.  Along a T^s-orbit b_0 -> b_1 -> ... of Gamma_2's
    blocks, a walk that enters b_0 with matrix M is at b_u with Pi_u M,
    and G(b) are the reader rows that one step from b deposits per unit
    matrix.  The prefix sums are PS_t = sum over u < t of G(b_u) Pi_u,
    so a run of q steps entering b_t with M adds
    (PS_(t+q) - PS_t) Pi_t^-1 M to the element's projected map and
    leaves with Pi_(t+q) Pi_t^-1 M.  An orbit of length w closes with
    the lap twist P = Pi_w: a run that passes b_(w-1) is read up to the
    orbit's end, and goes on from b_0 with P Pi_t^-1 M.

    An orbit is found when a run first enters it, and its sums are
    extended only as far as runs reach; Pi^-1 is carried from the steps
    of T^-s, which walk the orbit backwards, as far as runs start.
    Single letters take one fox_step each, and their deposits are read
    once per block.
    """

    def __init__(self, table, readers, k, modulus):
        self.table = table
        self.steps = letter_steps(table, k, modulus)
        self.readers = readers
        self.d = 2 * k + 1
        self.modulus = modulus
        mulS, mulU = table.mulS, table.mulU
        # the block one step of T^s moves a walk to (see fox_step)
        self.next = {1: lambda b: mulS[mulU[mulU[b][0]][0]][0],
                     -1: lambda b: mulU[mulS[b][0]][0]}
        self.orbits = {}  # (s, block) -> (orbit, position)

    def project(self, g):
        """The projected Fox map of g: pairs (coordinate index, row),
        the sum of the reader rows times the Fox entries of g."""
        steps, m = self.steps, self.modulus
        proj, groups = {}, {}
        block, mat = 0, None
        for gen, e in reversed(word_runs(g)):
            if gen == "T":
                block, mat = self._run(proj, block, mat, e)
            else:
                block, mat = fox_step(steps, groups, block, mat, gen, e, m)
        for slot, blk, M in merge_blocks(groups, self.d, m):
            _add_rows(proj, self.readers[slot, blk], M)
        return list(proj.items())

    def _run(self, proj, block, mat, q):
        """Add the run T^q entering ``block`` with ``mat`` to proj, one
        lap at a time; returns the block and matrix it leaves with."""
        s, q = (1, q) if q > 0 else (-1, -q)
        m = self.modulus
        while q:
            orbit, t = self._position(s, block)
            w = len(orbit.blocks)
            u = min(t + q, w)
            self._extend(s, orbit, u)
            hi, lo = orbit.ps[u], orbit.ps[t]  # lo's indices are among hi's
            rows = [(idx, list(map(sub, row, lo[idx])) if idx in lo else row)
                    for idx, row in hi.items()]
            X = _compose(self._inverse(s, orbit, t), mat, m)
            _add_rows(proj, [(idx, row) for idx, row in rows if any(row)], X)
            block, mat = orbit.blocks[u % w], _compose(orbit.pi[u], X, m)
            q -= u - t
        return block, mat

    def _position(self, s, block):
        """(orbit, position) of a block on its T^s-orbit."""
        hit = self.orbits.get((s, block))
        if hit is None:
            nxt, blocks = self.next[s], [block]
            b = nxt(block)
            while b != block:
                blocks.append(b)
                b = nxt(b)
            orbit = _Orbit(blocks)
            for u, b in enumerate(blocks):
                self.orbits[s, b] = orbit, u
            hit = orbit, 0
        return hit

    def _extend(self, s, orbit, reach):
        """Extend the orbit's twists and prefix sums to ``reach`` <= w:
        one step is the two letters of T^s, each a fox_step."""
        steps, m, readers = self.steps, self.modulus, self.readers
        blocks, pi, ps = orbit.blocks, orbit.pi, orbit.ps
        for u in range(len(ps) - 1, reach):
            groups, rows = {}, {}
            blk, M = blocks[u], pi[u]
            for gen, e in reversed(T_LETTERS[s]):
                blk, M = fox_step(steps, groups, blk, M, gen, e, m)
            for key, mats in groups.items():
                for D in mats:
                    _add_rows(rows, readers[key], D)
            acc = dict(ps[u]) if rows else ps[u]  # sums are never changed
            _add_rows(acc, rows.items(), None)
            ps.append(acc)
            pi.append(M)

    def _inverse(self, s, orbit, t):
        """Pi_t^-1, extending the inverses as far as t: runs start at
        fewer positions than they cover."""
        steps, m, pinv = self.steps, self.modulus, orbit.pinv
        back = [(gen, 1 if gen == "S" else 3 - e)
                for gen, e in T_LETTERS[-s][::-1]]
        for u in range(len(pinv) - 1, t):
            # Pi_u is None (the identity) only while every twist so far
            # is, and then so is its inverse
            B = None  # the twist of one step of T^-s, back to b_u
            if orbit.pi[u + 1] is not None:
                blk = orbit.blocks[u + 1]
                for gen, n in back:
                    blk, _, A = steps[blk, gen, n]
                    B = _compose(A, B, m)
            pinv.append(_compose(pinv[u], B, m))
        return pinv[t]


def conj_star(forms, alpha, runs, rank):
    """Map classes of Gamma_1, each given in subgroup form (a list of
    (gamma, vector), as from homology.restricted_form), by conjugation
    through alpha into Gamma_2 = alpha Gamma_1 alpha^-1 and
    corestriction to Gamma'; returns the images as ambient coordinate
    vectors (of length ``rank``) of Gamma''s LocalQuotient, reduced mod
    m.  ``runs`` are the RunSums of Gamma_2's table and the corestricted
    readers of that quotient; they give k and the modulus.

    A term (gamma, v) of a subgroup form becomes the Fox chain of
    (alpha gamma alpha^-1 - 1) tensor alpha v on Gamma_2, which is read
    into coordinates and never built: each element's Fox map is read
    into coordinates once per batch by ``runs``, and each of its terms
    applies that map to alpha v.
    """
    modulus = runs.modulus
    maps = {}  # element key -> projected Fox map
    images = []
    for form in forms:
        vec = [0] * rank
        for gamma, v in form:
            key = gamma.key()
            proj = maps.get(key)
            if proj is None:
                cg = conjugate_by(alpha, gamma)
                if cg is None or runs.table.coset_of(cg)[0] != 0:
                    raise ConjugateLeavesGroup(
                        "conjugate of %r leaves the target group" % (gamma,))
                proj = maps[key] = runs.project(cg)
            av = act(alpha, v, modulus)
            for idx, row in proj:
                vec[idx] += sum(map(mul, row, av))
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
        self.runs = RunSums(self.table2, self.readers, k, modulus)
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
        vecs = conj_star(forms, self.alpha, self.runs,
                         self.target.quotient.ambient_rank)
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
