"""Exact dense linear algebra over Z, Q, F_p and Z/p^M.

Matrices are plain lists of rows of Python ints, so everything is
arbitrary precision.  The primitives are the Smith normal form with
its left transition matrices, a column echelon form used for integer
kernels and exact solving, the kernel modulo m in Hermite form, and a
row-style lattice accumulator for incremental spans and their closure
under linear maps (``Lattice.close_under``).
Finitely generated modules (subquotients of Z^n) are presented by
invariant factors together with an exact coordinate map.  They know no
coefficient ring: a ring is the relations its caller puts in the image
(homology.compute_h1 adds them for H1).  Submodules are formed in
generator coordinates: ``FgModule.span`` gives the lattice of the
relations plus some vectors, and ``FgModule.factors`` the invariant
factors of such a lattice modulo the relations.

Entry size, not dimension, drives the cost, so every elimination
bounds it: the column echelon clears each row by Euclidean steps on
its smallest entry with nearest-integer quotients, and the kernel
modulo m keeps every entry reduced mod m with pivots of least
valuation.  H1 hands these routines only small matrices (see
homology.LocalQuotient).
"""

from bisect import bisect_left
from collections import namedtuple
from math import isqrt


class ImageNotContained(ValueError):
    """Image columns do not lie in the span of the kernel columns."""


class NotInModule(ValueError):
    """Coordinate lookup of a vector outside the module."""


def xgcd(a, b):
    """Return (x, y, g) with a*x + b*y == g == gcd(a, b) >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


# ---------------------------------------------------------------------------
# basic dense matrix helpers (row-major lists of ints)


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def identity(n):
    M = zeros(n, n)
    for i in range(n):
        M[i][i] = 1
    return M


def mat_copy(A):
    return [row[:] for row in A]


def mat_mul(A, B):
    m, n = len(A), len(B[0]) if B else 0
    k = len(B)
    C = zeros(m, n)
    for i in range(m):
        Ai = A[i]
        Ci = C[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(n):
                    Ci[j] += a * Bt[j]
    return C

def mat_vec(A, v):
    nonzero = [(t, x) for t, x in enumerate(v) if x]
    return [sum(row[t] * x for t, x in nonzero) for row in A]


def columns(A):
    return [list(col) for col in zip(*A)] if A else []


def from_columns(cols, nrows):
    if not cols:
        return [[] for _ in range(nrows)]
    return [list(row) for row in zip(*cols)]


# ---------------------------------------------------------------------------
# Smith normal form with transition matrices


def _nearest_quotient(b, a):
    """q with |b - q*a| <= |a|/2."""
    q, r = divmod(b, a)
    if 2 * abs(r) > abs(a):
        q += 1
    return q


def _snf_inplace(D, U, Uinv):
    """Smith form by Euclidean steps: move the smallest entry of the
    remaining block to the pivot, reduce its row and column by
    nearest-integer quotients, and repeat on the remainders (each
    smaller than half the pivot) until the pivot divides the block.
    Only the left transition matrices U and Uinv are kept."""
    m = len(D)
    n = len(D[0]) if D else 0

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        for r in U:
            r[i], r[j] = r[j], r[i]
        Uinv[i], Uinv[j] = Uinv[j], Uinv[i]

    def col_swap(i, j):
        for r in D:
            r[i], r[j] = r[j], r[i]

    def row_sub(i, p, q):
        # row i -= q * row p
        Di, Dp = D[i], D[p]
        for t in range(n):
            Di[t] -= q * Dp[t]
        for r in U:
            r[p] += q * r[i]
        Ui, Up = Uinv[i], Uinv[p]
        for t in range(m):
            Ui[t] -= q * Up[t]

    def col_sub(j, p, q):
        # column j -= q * column p
        for r in D:
            r[j] -= q * r[p]

    for k in range(min(m, n)):
        piv = min(((abs(D[i][j]), i, j) for i in range(k, m)
                   for j in range(k, n) if D[i][j]), default=None)
        while piv is not None:
            _, i, j = piv
            if i != k:
                row_swap(k, i)
            if j != k:
                col_swap(k, j)
            a = D[k][k]
            for i in range(k + 1, m):
                if D[i][k]:
                    row_sub(i, k, _nearest_quotient(D[i][k], a))
            for j in range(k + 1, n):
                if D[k][j]:
                    col_sub(j, k, _nearest_quotient(D[k][j], a))
            piv = min([(abs(D[i][k]), i, k) for i in range(k + 1, m) if D[i][k]]
                      + [(abs(D[k][j]), k, j) for j in range(k + 1, n) if D[k][j]],
                      default=None)
            if piv is None:
                # force divisibility of the remaining block by the pivot
                bad = next((i for i in range(k + 1, m)
                            if any(D[i][j] % a for j in range(k + 1, n))), None)
                if bad is not None:
                    row_sub(k, bad, -1)
                    piv = (a, k, k)
        if not D[k][k]:
            return
        if D[k][k] < 0:
            for t in range(n):
                D[k][t] = -D[k][t]
            for r2 in U:
                r2[k] = -r2[k]
            for t in range(m):
                Uinv[k][t] = -Uinv[k][t]


def smith_normal_form_full(A):
    """Return (U, Uinv, D): the Smith form D of A with both left
    transition matrices, A == U*D*V for a unimodular V that is not
    formed."""
    m = len(A)
    D = mat_copy(A)
    U, Uinv = identity(m), identity(m)
    _snf_inplace(D, U, Uinv)
    return U, Uinv, D


def diagonal(D):
    r = min(len(D), len(D[0]) if D else 0)
    return [D[i][i] for i in range(r)]


# ---------------------------------------------------------------------------
# column echelon form, kernels, exact solving


class ColumnEchelon:
    """Unimodular column reduction A*W == H with H in echelon form.

    ``pivots`` lists (row, col) pairs with strictly increasing rows; every
    column of H past the last pivot is zero.  Each row is cleared by
    Euclidean steps on its smallest entry with nearest-integer
    quotients, which keeps the entries of W far smaller than pairwise
    extended-gcd combination does.  The rows above row i are zero from
    its first free column c on, so the steps touch only H[i:].
    """

    def __init__(self, A):
        m = len(A)
        n = len(A[0]) if A else 0
        H = mat_copy(A)
        W = identity(n)
        pivots = []
        c = 0
        for i in range(m):
            if c >= n:
                break
            row = H[i]
            live = [j for j in range(c, n) if row[j]]
            if not live:
                continue
            while len(live) > 1:
                p = min(live, key=lambda j: abs(row[j]))
                a = row[p]
                rest = [p]
                for j in live:
                    if j == p:
                        continue
                    q = _nearest_quotient(row[j], a)
                    for r in H[i:]:
                        r[j] -= q * r[p]
                    for r in W:
                        r[j] -= q * r[p]
                    if row[j]:
                        rest.append(j)
                live = rest
            p = live[0]
            if p != c:
                for r in H[i:]:
                    r[c], r[p] = r[p], r[c]
                for r in W:
                    r[c], r[p] = r[p], r[c]
            if row[c] < 0:
                for r in H[i:]:
                    r[c] = -r[c]
                for r in W:
                    r[c] = -r[c]
            pivots.append((i, c))
            c += 1
        self.H = H
        self.W = W
        self.pivots = pivots
        self.ncols = n
        self.nrows = m

    def kernel_columns(self):
        r = len(self.pivots)
        return [[self.W[i][j] for i in range(self.ncols)]
                for j in range(r, self.ncols)]

    def solve(self, b):
        """Integer x with A x == b, or None if none exists."""
        res = list(b)
        y = [0] * self.ncols
        for i, c in self.pivots:
            v = res[i]
            if v == 0:
                continue
            h = self.H[i][c]
            if v % h:
                return None
            q = v // h
            y[c] = q
            for t in range(i, self.nrows):
                if self.H[t][c]:
                    res[t] -= q * self.H[t][c]
        if any(res):
            return None
        return mat_vec(self.W, y)


def kernel_basis(A):
    """Columns spanning the integer kernel of A (a primitive sublattice),
    returned as a matrix with one column per kernel generator."""
    ech = ColumnEchelon(A)
    cols = ech.kernel_columns()
    return from_columns(cols, len(A[0]) if A else 0)


def kernel_mod(A, m):
    """Basis of the lattice {x in Z^n : A x == 0 mod m}, as columns.

    The lattice contains m*Z^n, so the basis always has n columns.  It
    is read off the Hermite form of the lattice spanned by the columns
    of [A; I] and m*Z^(rows+n): the columns whose pivots lie in the I
    part are exactly the kernel.  Every entry stays reduced mod m, and
    each pivot is gcd(entries, m), a power of p for m = p^M.  The basis
    is lower triangular with diagonal entries dividing m and all other
    entries in [0, m).
    """
    nrows = len(A)
    n = len(A[0]) if A else 0
    gens = [[row[j] for row in A] + [int(i == j) for i in range(n)]
            for j in range(n)]
    basis = _hermite_mod(gens, nrows + n, m)
    return from_columns([col[nrows:] for col in basis[nrows:]], n)


def _hermite_mod(gens, n, m):
    """Hermite basis (lower triangular columns) of the lattice spanned
    by ``gens`` and m*Z^n; since m*Z^n lies inside, every step reduces
    mod m, and row i starts from the generator m*e_i."""
    gens = [[x % m for x in g] for g in gens]
    basis = []
    for i in range(n):
        piv = [0] * n
        piv[i] = m
        for g in gens:
            b = g[i]
            if not b:
                continue
            a = piv[i]
            x, y, h = xgcd(a, b)
            ag, bg = a // h, b // h
            for t in range(i + 1, n):
                p, q = piv[t], g[t]
                piv[t] = (x * p + y * q) % m
                g[t] = (-bg * p + ag * q) % m
            piv[i] = h
            g[i] = 0
        basis.append(piv)
    for t in range(n):
        h = basis[t][t]
        for col in basis[:t]:
            q = col[t] // h
            if q:
                col[t] -= q * h
                for u in range(t + 1, n):
                    col[u] = (col[u] - q * basis[t][u]) % m
    return basis


# ---------------------------------------------------------------------------
# incremental lattice (row-style HNF), after the usual pivot bookkeeping


class Lattice:
    """Sublattice of Z^n accumulated one vector at a time, kept in
    reduced Hermite form: echelon rows with positive pivots and every
    entry above a pivot in [0, pivot)."""

    def __init__(self, n):
        self.n = n
        self.rows = []        # echelon rows, sorted by pivot column
        self.pivcol = []      # pivot column of each row

    def add(self, vec):
        """Add a vector; return True if the lattice grew."""
        v = list(vec)
        grew = False
        for j in range(self.n):
            if not v[j]:
                continue
            k = bisect_left(self.pivcol, j)
            if k == len(self.pivcol) or self.pivcol[k] != j:
                self.rows.insert(k, v if v[j] > 0 else [-x for x in v])
                self.pivcol.insert(k, j)
                grew = True
                break
            row = self.rows[k]
            a, b = row[j], v[j]
            if b % a == 0:
                q = b // a
                for t in range(j, self.n):
                    v[t] -= q * row[t]
            else:
                x, y, g = xgcd(a, b)
                ag, bg = a // g, b // g
                for t in range(j, self.n):
                    p, q = row[t], v[t]
                    row[t] = x * p + y * q
                    v[t] = -bg * p + ag * q
                grew = True
        if grew:
            self._reduce()
        return grew

    def _reduce(self):
        """Bring every entry above a pivot into [0, pivot)."""
        rows = self.rows
        for k, j in enumerate(self.pivcol):
            a = rows[k][j]
            for i in range(k):
                q = rows[i][j] // a
                if q:
                    ri, rk = rows[i], rows[k]
                    for t in range(j, self.n):
                        ri[t] -= q * rk[t]

    def close_under(self, maps, frontier, target=None):
        """Add images under the linear ``maps`` until a round adds
        nothing or canonical() equals ``target``; True if the lattice
        grew.  A round maps the vectors that grew the lattice in the
        round before (the first, ``frontier``): the rest lay in it
        already, so this adds the images of the whole lattice.  It ends:
        each round but the last grows the lattice, and Z^n is Noetherian."""
        grew = False
        while frontier:
            new = []
            for f in maps:
                for v in frontier:
                    image = list(f(v))
                    if self.add(image):
                        new.append(image)
            frontier = new
            grew = grew or bool(new)
            if self.canonical() == target:
                break
        return grew

    def contains(self, vec):
        v = list(vec)
        for j in range(self.n):
            if not v[j]:
                continue
            k = bisect_left(self.pivcol, j)
            if k == len(self.pivcol) or self.pivcol[k] != j:
                return False
            row = self.rows[k]
            if v[j] % row[j]:
                return False
            q = v[j] // row[j]
            for t in range(j, self.n):
                v[t] -= q * row[t]
        return True

    def canonical(self):
        """The reduced Hermite rows as a hashable value (equality test)."""
        return tuple(tuple(r) for r in self.rows)

    def basis_columns(self):
        """The reduced Hermite rows (see canonical) as columns."""
        return from_columns([list(r) for r in self.canonical()], self.n)


# ---------------------------------------------------------------------------
# rings and finitely generated modules


def is_prime(n):
    return n >= 2 and all(n % q for q in range(2, isqrt(n) + 1))


class RingSpec(namedtuple("RingSpec", "kind p M")):
    """Coefficient ring: Z, Q, F_p or Z/p^M; kind is "Z", "Q", "Fp" or
    "ZpM"."""

    def __new__(cls, kind, p=0, M=1):
        if kind not in ("Z", "Q", "Fp", "ZpM"):
            raise ValueError("unknown ring kind %r" % (kind,))
        if kind in ("Fp", "ZpM"):
            if not is_prime(p):
                raise ValueError("p = %r is not prime" % (p,))
        if kind == "ZpM" and M < 1:
            raise ValueError("M must be >= 1")
        return super().__new__(cls, kind, p, M)

    @property
    def modulus(self):
        if self.kind == "Fp":
            return self.p
        if self.kind == "ZpM":
            return self.p ** self.M
        return None

    @staticmethod
    def parse(text):
        """Z, Q, Fp:p or Zp:p[:M] (M = 2 if left out); any other number
        of fields is a ValueError."""
        kind, *fields = text.split(":")
        n = len(fields)
        if kind in ("Z", "ZZ") and n == 0:
            return RingSpec("Z")
        if kind in ("Q", "QQ") and n == 0:
            return RingSpec("Q")
        if kind in ("F", "Fp", "GF") and n == 1:
            return RingSpec("Fp", p=int(fields[0]))
        if kind in ("Zp", "ZpM") and n in (1, 2):
            M = int(fields[1]) if n == 2 else 2
            return RingSpec("ZpM", p=int(fields[0]), M=M)
        raise ValueError("cannot parse ring %r" % (text,))

    def __str__(self):
        if self.kind == "Fp":
            return "Fp:%d" % self.p
        if self.kind == "ZpM":
            return "Zp:%d:%d" % (self.p, self.M)
        return self.kind


ZZ = RingSpec("Z")
QQ = RingSpec("Q")


class FgModule:
    """Finitely generated subquotient of Z^n, over Z.

    Presented by generators (columns of ``gen_lift`` in ambient
    coordinates) and invariant factors: torsion orders first in
    increasing divisibility order, then 0 for each free factor.  For H1
    over Z/m the relations contain m*Z^n, so no factor is free; over Q
    the torsion has unit relations, so only free factors are left.
    """

    def __init__(self, invariant_factors, gen_lift, kernel_ech, uinv_rows):
        self.invariant_factors = tuple(invariant_factors)
        self.gen_lift = gen_lift
        self._kernel_ech = kernel_ech
        self._uinv_rows = uinv_rows   # rows of Uinv of the kept generators

    @property
    def ngens(self):
        return len(self.invariant_factors)

    @property
    def rank(self):
        return sum(1 for d in self.invariant_factors if d == 0)

    def reduce_coords(self, coords):
        out = []
        for d, c in zip(self.invariant_factors, coords):
            out.append(c % d if d else c)
        return tuple(out)

    def coords(self, vec):
        """Canonical generator coordinates of an ambient vector.

        Raises NotInModule if the vector is not in the module.
        """
        y = self._kernel_ech.solve(list(vec))
        if y is None:
            raise NotInModule("vector outside the module")
        return self.reduce_coords(mat_vec(self._uinv_rows, y))

    def lift(self, coords):
        """Ambient vector with the given generator coordinates."""
        return mat_vec(self.gen_lift, list(coords))

    def relation_columns(self):
        """Columns spanning the relation lattice in generator coordinates."""
        cols = []
        g = self.ngens
        for i, d in enumerate(self.invariant_factors):
            if d:
                col = [0] * g
                col[i] = d
                cols.append(col)
        return cols

    def span(self, vectors=()):
        """The submodule generated by ``vectors`` (generator
        coordinates), as the Lattice of the relations plus them."""
        lat = Lattice(self.ngens)
        for col in self.relation_columns() + list(vectors):
            lat.add(col)
        return lat

    def factors(self, lat):
        """Invariant factors of ``lat`` (from span) modulo the relations,
        over Z for any ring: the relations already hold the ring's."""
        rels = from_columns(self.relation_columns(), self.ngens)
        return subquotient(lat.basis_columns(), rels).invariant_factors


def subquotient(kernel, image):
    """FgModule presenting span(kernel)/span(image) over Z.

    ``kernel`` and ``image`` are matrices whose columns live in the same
    ambient Z^n; the image columns must lie in the span of the kernel
    columns.  The image holds every relation: a coefficient ring enters
    as relations its caller adds (homology.compute_h1).
    """
    n = len(kernel)
    s = len(kernel[0]) if kernel else 0
    ech = ColumnEchelon(kernel)
    ys = []
    for col in columns(image):
        y = ech.solve(col)
        if y is None:
            raise ImageNotContained("image column outside kernel span")
        ys.append(y)
    Y = from_columns(ys, s)
    U, Uinv, D = smith_normal_form_full(Y)
    diag = diagonal(D)
    dfull = diag + [0] * (s - len(diag))
    # SNF diagonal is 1,...,1, torsion increasing, then 0s: keep non-units
    kept = [i for i in range(s) if dfull[i] != 1]
    # generator i is kernel * (column i of U); on the free part these
    # columns are unit vectors, whose zeros mat_mul skips
    gen_cols = mat_mul([[U[r][i] for r in range(s)] for i in kept],
                       columns(kernel))
    return FgModule([dfull[i] for i in kept], from_columns(gen_cols, n),
                    ech, [Uinv[i] for i in kept])
