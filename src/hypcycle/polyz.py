"""Characteristic polynomials and their factorization over Z.

A polynomial is the list of its integer coefficients, leading first:
[1, -3, 2] is x^2 - 3x + 2 and [] is zero.  ``charpoly`` is
Faddeev-LeVerrier, whose divisions are exact over Z.  ``factor`` pulls
out the power of x, splits the rest into square-free parts (Yun) and
factors each part by Zassenhaus: factor it modulo the least odd prime
that keeps it square-free (distinct-degree, then equal-degree splitting),
Hensel-lift the factors past twice the Mignotte bound, and recombine
them by trial division over Z (Cohen, *A Course in Computational
Algebraic Number Theory*, GTM 138, 2.2.4 and 3.4-3.5).  ``factor_str``
prints a factorization in one canonical text form.
"""

import random
from itertools import combinations, count
from math import gcd, isqrt

from .intlinalg import identity, is_prime, mat_mul

X = [1, 0]


def charpoly(A):
    """Coefficients of det(xI - A) for a square integer matrix A.

    M_1 = I, c_k = -tr(A M_k) / k and M_{k+1} = A M_k + c_k I; c_k is
    the coefficient of x^(n-k).
    """
    n = len(A)
    coeffs = [1]
    M = identity(n)
    for k in range(1, n + 1):
        M = mat_mul(A, M)
        c = -sum(M[i][i] for i in range(n)) // k
        coeffs.append(c)
        for i in range(n):
            M[i][i] += c
    return coeffs


# ---------------------------------------------------------------------------
# arithmetic in Z[x] and (Z/m)[x]


def _trim(f):
    i = 0
    while i < len(f) and not f[i]:
        i += 1
    return f[i:]


def _reduce(f, m):
    return _trim([c % m for c in f])


def _sub(f, g, m=None):
    n = max(len(f), len(g))
    f = [0] * (n - len(f)) + f
    g = [0] * (n - len(g)) + g
    d = [a - b for a, b in zip(f, g)]
    return _reduce(d, m) if m else _trim(d)


def _mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def _divmod(f, g, m=None):
    """Quotient and remainder of f by g; over Z g must be monic, modulo
    m its leading coefficient must be a unit."""
    n = len(f) - len(g) + 1
    if n <= 0:
        return [], f
    f = list(f)
    inv = pow(g[0], -1, m) if m else 1
    for i in range(n):
        c = f[i] = f[i] * inv % m if m else f[i]
        if c:
            for j in range(1, len(g)):
                f[i + j] -= c * g[j]
    return f[:n], (_reduce(f[n:], m) if m else _trim(f[n:]))


def _deriv(f):
    n = len(f) - 1
    return _trim([c * (n - i) for i, c in enumerate(f[:-1])])


def _primitive(f):
    c = gcd(*f)
    if f[0] < 0:
        c = -c
    return [a // c for a in f]


def _gcd_z(f, g):
    """gcd of a monic f and any g in Z[x], monic (Gauss's lemma), by
    the primitive pseudo-remainder sequence."""
    while g:
        g = _primitive(g)
        while len(f) >= len(g):
            c = f[0]
            f = _trim([g[0] * a - c * b
                       for a, b in zip(f, g + [0] * (len(f) - len(g)))])
        f, g = g, f
    return _primitive(f)


def _gcd_mod(f, g, p):
    """Monic gcd of f and g modulo a prime p."""
    while g:
        f, g = g, _divmod(f, g, p)[1]
    if not f:
        return f
    inv = pow(f[0], -1, p)
    return [c * inv % p for c in f]


def _powmod(a, e, f, p):
    """a^e modulo f and p."""
    out = [1]
    a = _divmod(a, f, p)[1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, a), f, p)[1]
        e >>= 1
        if e:
            a = _divmod(_mul(a, a), f, p)[1]
    return out


def _inverse_mod(w, u, p):
    """t with t*w == 1 modulo u and p, for w and u coprime modulo p."""
    r0, r1 = u, _divmod(w, u, p)[1]
    t0, t1 = [], [1]
    while len(r1) > 1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        t0, t1 = t1, _sub(t0, _mul(q, t1), p)
    c = pow(r1[0], -1, p)
    return [a * c % p for a in t1]


# ---------------------------------------------------------------------------
# factoring


def _squarefree(f):
    """Yun's algorithm: [(g, i)] with f the product of the g^i, each g
    monic, square-free, of positive degree and coprime to the others."""
    out = []
    d = _deriv(f)
    a = _gcd_z(f, d)
    b, c = _divmod(f, a)[0], _divmod(d, a)[0]
    i = 1
    while len(b) > 1:
        d = _sub(c, _deriv(b))
        a = _gcd_z(b, d)
        b, c = _divmod(b, a)[0], _divmod(d, a)[0]
        if len(a) > 1:
            out.append((a, i))
        i += 1
    return out


def _factor_mod(f, p):
    """Monic irreducible factors of a monic f, square-free modulo an odd
    prime p."""
    rng = random.Random(p)
    out = []
    h = X
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _powmod(h, p, f, p)
        g = _gcd_mod(f, _sub(h, X, p), p)
        if len(g) > 1:
            out += _split_equal_degree(g, d, p, rng)
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
    if len(f) > 1:
        out.append(f)
    return out


def _split_equal_degree(f, d, p, rng):
    """Cantor-Zassenhaus: the factors of f, all of degree d, modulo an
    odd prime p, split off by gcd(f, a^((p^d - 1)/2) - 1) for random a."""
    if len(f) - 1 == d:
        return [f]
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(f) - 1)])
        t = _sub(_powmod(a, (p ** d - 1) // 2, f, p), [1], p)
        g = _gcd_mod(f, t, p)
        if 1 < len(g) < len(f):
            return (_split_equal_degree(g, d, p, rng)
                    + _split_equal_degree(_divmod(f, g, p)[0], d, p, rng))


def _hensel(g, factors, p, a):
    """Lift g == prod(factors) modulo p, the factors monic and pairwise
    coprime, to monic factors modulo p^a, one factor at a time."""
    q = p ** a
    out = []
    for u in factors[:-1]:
        w = _divmod(_reduce(g, p), u, p)[0]
        t = _inverse_mod(w, u, p)
        pk = p
        # with e == (g - u*w) / p^k, du == t*e mod u and dw == (e - w*du) / u
        # modulo p, (u + p^k du) * (w + p^k dw) == g modulo p^(k+1)
        for _ in range(a - 1):
            e = _reduce([c // pk for c in _sub(g, _mul(u, w))], p)
            du = _divmod(_mul(t, e), u, p)[1]
            dw = _divmod(_sub(e, _mul(w, du), p), u, p)[0]
            u = _sub(u, [-pk * c for c in du])
            w = _sub(w, [-pk * c for c in dw])
            pk *= p
        out.append(u)
        g = _reduce(w, q)
    return out + [g]


def _zassenhaus(g):
    """Irreducible factors of a monic square-free g with g(0) != 0."""
    dg = _deriv(g)
    p = next(p for p in count(3, 2) if is_prime(p)
             and _gcd_mod(_reduce(g, p), _reduce(dg, p), p) == [1])
    factors = _factor_mod(_reduce(g, p), p)
    if len(factors) == 1:
        return [g]
    # Mignotte: every coefficient of a factor of g is at most 2^deg * |g|_2
    bound = 2 ** (len(g) - 1) * (isqrt(sum(c * c for c in g)) + 1)
    a = 1
    while p ** a <= 2 * bound:
        a += 1
    q = p ** a
    factors = _hensel(g, factors, p, a)
    out = []
    s = 1
    while 2 * s <= len(factors):
        for subset in combinations(range(len(factors)), s):
            h = [1]
            for i in subset:
                h = _reduce(_mul(h, factors[i]), q)
            h = [c - q if 2 * c > q else c for c in h]
            if h[-1] and g[-1] % h[-1] == 0:
                quo, rem = _divmod(g, h)
                if not rem:
                    out.append(h)
                    g = quo
                    factors = [f for i, f in enumerate(factors)
                               if i not in subset]
                    break
        else:
            s += 1
    return out + [g]


def factor(f):
    """Irreducible factors of a monic f in Z[x] as (factor, exponent)
    pairs, each factor monic; x comes first when it divides f."""
    if not f or f[0] != 1:
        raise ValueError("factor expects a monic polynomial")
    e = 0
    while f[-1] == 0:
        f = f[:-1]
        e += 1
    out = [(X, e)] if e else []
    for g, i in _squarefree(f):
        out += [(h, i) for h in (_zassenhaus(g) if len(g) > 2 else [g])]
    return out


def _terms(g):
    n = len(g) - 1
    return [(n - i, c) for i, c in enumerate(g) if c]


def _poly_str(g):
    out = ""
    for d, c in _terms(g):
        mono = "x" if d == 1 else "x^%d" % d
        body = (str(abs(c)) if d == 0 else mono if abs(c) == 1
                else "%d*%s" % (abs(c), mono))
        out += ("-" if c < 0 else "+" if out else "") + body
    return out


def factor_str(f):
    """The factorization of a monic f as text without spaces, such as
    x^2*(x-1)*(x+1)^3*(x^2+1): the power of x first, then the factors
    by their number of terms, by their terms in descending degree
    ((0, 0, c) for a constant c, (1, d, c) for c*x^d), and by exponent;
    a factor other than a monomial is parenthesised unless it is the
    whole product.  This is the form of the reports' ``charpoly``
    field; tests/test_polyz.py checks it against an independent oracle."""
    pairs = factor(f)
    if not pairs:
        return "1"

    def order(pair):
        g, e = pair
        terms = _terms(g)
        return (g != X, len(terms),
                tuple((1, d, c) if d else (0, 0, c) for d, c in terms), e)

    parts = []
    for g, e in sorted(pairs, key=order):
        text = _poly_str(g)
        if len(_terms(g)) > 1 and (len(pairs) > 1 or e > 1):
            text = "(%s)" % text
        parts.append(text if e == 1 else "%s^%d" % (text, e))
    return "*".join(parts)
