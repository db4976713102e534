"""Matrices in SL2(Z) and PSL2(Z), trace classification, word
decomposition over the order-2/order-3 generators, and the invariant
binary quadratic form of a non-elliptic matrix.

Generator convention: S = [[0,-1],[1,0]] and U = S*T = [[0,-1],[1,1]],
so T = S*U in PSL2(Z).  A word is a tuple of letters ('S', 1),
('U', 1), ('U', 2), reduced: no two adjacent letters on the same
generator.  The reduced word of an element comes as runs
(``word_runs``): letters and powers ('T', q) read off the quotients of
a nearest-integer Euclidean reduction, so a word of n letters costs one
step per quotient, not per letter.  The one walk of cycles and Hecke
images takes a run in one step (homology.RunSums).
"""

from math import gcd


class NotDefinedForElliptic(ValueError):
    """Quadratic form requested for an elliptic or identity matrix."""


class Mat2:
    """2x2 integer matrix with arbitrary-precision entries."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    def det(self):
        return self.a * self.d - self.b * self.c

    def __mul__(self, other):
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def adjugate(self):
        return Mat2(self.d, -self.b, -self.c, self.a)

    @staticmethod
    def parse(text):
        """The matrix written [[a, b], [c, d]] with integer entries; any
        other text is a ValueError."""
        import ast

        try:
            (a, b), (c, d) = ast.literal_eval(text)
        except (SyntaxError, TypeError, ValueError) as e:
            raise ValueError("cannot parse matrix %r" % (text,)) from e
        if any(type(x) is not int for x in (a, b, c, d)):
            raise ValueError("matrix entries must be integers: %r" % (text,))
        return Mat2(a, b, c, d)


class PMat:
    """Element of PSL2(Z): the pair {+g, -g} stored by a canonical sign.

    The representative has positive trace; for trace zero, the first
    nonzero entry in reading order (a, b, c, d) is positive.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        if a * d - b * c != 1:
            raise ValueError("not in SL2(Z): det = %d" % (a * d - b * c,))
        t = a + d
        if t < 0 or (t == 0 and _first_nonzero(a, b, c, d) < 0):
            a, b, c, d = -a, -b, -c, -d
        self.a, self.b, self.c, self.d = a, b, c, d

    @staticmethod
    def of(m):
        return PMat(m.a, m.b, m.c, m.d)

    def lift(self):
        return Mat2(self.a, self.b, self.c, self.d)

    def key(self):
        return (self.a, self.b, self.c, self.d)

    def trace(self):
        return self.a + self.d

    def __mul__(self, other):
        return PMat(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self):
        return PMat(self.d, -self.b, -self.c, self.a)

    def is_identity(self):
        return self.key() == (1, 0, 0, 1)

    def __eq__(self, other):
        return isinstance(other, PMat) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "[[%d,%d],[%d,%d]]" % self.key()

    @staticmethod
    def parse(text):
        m = Mat2.parse(text)
        return PMat.of(m)


def _first_nonzero(*xs):
    for x in xs:
        if x:
            return x
    return 0


S = PMat(0, -1, 1, 0)
U = PMat(0, -1, 1, 1)           # U = S*T, order 3 in PSL2(Z)
T = PMat(1, 1, 0, 1)
I = PMat(1, 0, 0, 1)

IDENTITY = "identity"
ELLIPTIC = "elliptic"
PARABOLIC = "parabolic"
HYPERBOLIC = "hyperbolic"


def classify(g):
    """Trace classification of an element of PSL2(Z)."""
    t = abs(g.trace())
    if t > 2:
        return HYPERBOLIC
    if t < 2:
        return IDENTITY if g.is_identity() else ELLIPTIC
    return IDENTITY if g.is_identity() else PARABOLIC


# ---------------------------------------------------------------------------
# words over {S, U, U^2}


# the letters of T = S*U and of T^-1 = U^2*S
T_LETTERS = {1: (("S", 1), ("U", 1)), -1: (("U", 2), ("S", 1))}


def _last_letter(runs):
    gen, e = runs[-1]
    if gen == "T":
        return T_LETTERS[1 if e > 0 else -1][1]
    return gen, e


def _push_letter(runs, gen, e):
    """Append a letter to a reduced run list, merging it with the last
    letter; a run gives up its last letter to the merge."""
    if runs and _last_letter(runs)[0] == gen:
        top, q = runs.pop()
        if top == "T":
            s = 1 if q > 0 else -1
            if q != s:
                runs.append(("T", q - s))
            runs.append(T_LETTERS[s][0])
            q = 1  # the run's last letter, U or S
        e += q
    e %= 2 if gen == "S" else 3
    if e:
        runs.append((gen, e))


def _push_run(runs, q):
    """Append T^q to a reduced run list: while the first letter of T^q
    merges with the last letter, one factor T^(+-1) goes letter by
    letter; the rest is one run."""
    s = 1 if q > 0 else -1
    while q and runs and _last_letter(runs)[0] == T_LETTERS[s][0][0]:
        for gen, e in T_LETTERS[s]:
            _push_letter(runs, gen, e)
        q -= s
    if q:
        runs.append(("T", q))


def word_runs(g):
    """The reduced word in S, U evaluating to g in PSL2(Z), as runs: a
    tuple of letters and runs ('T', q), q != 0, a run standing for
    T^q, spelled (S U)^q for q > 0 and (U^2 S)^-q for q < 0.

    Euclidean reduction on the bottom row: while c != 0, split off
    T^q, q the nearest integer to a/c, and a swap by S; the tail is a
    power of T.  Each quotient is one run, and only the letters where a
    run meets the next S merge (S S = 1, U U = U^2, U^2 U^2 = U).  After
    the first, every quotient has |q| >= 2, and a merge takes at most
    one factor T^(+-1) off each end of a run.
    """
    runs = []
    a, b, c, d = g.key()
    while c:
        q, r = divmod(a, c)
        if 2 * abs(r) > abs(c):
            q += 1
        _push_run(runs, q)
        _push_letter(runs, "S", 1)
        # g <- S^-1 * T^-q * g, with S^-1 = S in PSL2(Z)
        a, b = a - q * c, b - q * d
        a, b, c, d = c, d, -a, -b
    # now +-(1, m; 0, 1): a = d = +-1, so the T-power is b/a = b*a
    _push_run(runs, b * a)
    return tuple(runs)


def quadratic_form(g):
    """Primitive g-invariant binary quadratic form of a non-elliptic g.

    Returns coefficients (q20, q11, q02) of q20*X1^2 + q11*X1*X2 +
    q02*X2^2; the content is 1 and the form only depends on the class
    of g in PSL2(Z).
    """
    cls = classify(g)
    if cls not in (PARABOLIC, HYPERBOLIC):
        raise NotDefinedForElliptic("no invariant form for %s matrix" % cls)
    a, b, c, d = g.key()
    # canonical representative has a + d > 0, so sgn(a + d) = 1
    content = gcd(gcd(abs(c), abs(a - d)), abs(b))
    return (-c // content, (a - d) // content, b // content)


def poly_str(coeffs, names=("X1", "X2")):
    """Pretty form like '-X1^2 + X1*X2 + X2^2' for homogeneous coeffs.

    ``coeffs[i]`` is the coefficient of X1^(n-i) X2^i.
    """
    n = len(coeffs) - 1
    parts = []
    for i, coef in enumerate(coeffs):
        if not coef:
            continue
        e1, e2 = n - i, i
        factors = []
        if e1:
            factors.append(names[0] if e1 == 1 else "%s^%d" % (names[0], e1))
        if e2:
            factors.append(names[1] if e2 == 1 else "%s^%d" % (names[1], e2))
        body = "*".join(factors) if factors else "1"
        if abs(coef) == 1 and factors:
            term = body
        else:
            term = "%d*%s" % (abs(coef), body) if factors else str(abs(coef))
        if not parts:
            parts.append(term if coef > 0 else "-" + term)
        else:
            parts.append(("+ " if coef > 0 else "- ") + term)
    return " ".join(parts) if parts else "0"
