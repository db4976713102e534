"""Closed forms from the theory of modular forms, for oracles that share
no code path with ``hypcycle``: stdlib only, and nothing is imported
from the package.

``ramanujan_tau`` gives the coefficients tau(n) of the discriminant
Delta = q prod_(n >= 1) (1 - q^n)^24, the normalised cusp form of
weight 12 and level one.  H1(SL2(Z), Sym^10) has rank 3 (Eichler-
Shimura: twice dim S_12 plus dim E_12), and for a prime p its T_p has
the Eisenstein eigenvalue 1 + p^11 once and tau(p) twice.

The ``gamma0_*`` functions give the index in PSL2(Z), the numbers of
elliptic points of orders 2 and 3, the cusp count and the genus of
Gamma_0(N) (Shimura, Introduction to the Arithmetic Theory of
Automorphic Functions, Props. 1.40 and 1.43; Diamond-Shurman, ch. 3).
H1(Gamma_0(N), Z) with trivial coefficients is free of rank 2g + c - 1
beside its 2- and 3-torsion: the compact curve contributes 2g and each
cusp past the first one more.

``level_one_hecke_charpoly`` gives the characteristic polynomial of T_p
on S_w(SL2(Z)), read off q-expansions: the forms Delta^j E_4^a E_6^b of
weight w, one for each order j >= 1 of vanishing at infinity, are a
basis of S_w whose expansions start with q^j, and T_p maps sum a(n) q^n
to sum (a(pn) + p^(w-1) a(n/p)) q^n.  H1(SL2(Z), Sym^(w-2)) has T_p
with the Eisenstein eigenvalue 1 + p^(w-1) once and that polynomial
twice (Eichler-Shimura).

``gamma0_cusp_forms`` gives dim S_w(Gamma_0(N)) for even w >= 4 from the
same numbers (Diamond-Shurman, Thm. 3.5.1; Stein, *Modular Forms: A
Computational Approach*, GSM 79, 6.1).  For k >= 1, Eichler-Shimura
gives H1(Gamma_0(N), Sym^2k) the rank 2 dim S_(2k+2) + c, the Eisenstein
series contributing dim E_(2k+2) = c.

The ``gamma1_*`` functions give the same numbers for Gamma_1(N), N >= 5,
which has no elliptic points and does not contain -1 (Diamond-Shurman,
section 3.9): its index in PSL2(Z) is
mu = (N^2/2) prod_(p | N) (1 - 1/p^2), its cusp count
c = (1/2) sum_(d | N) phi(d) phi(N/d), its genus g = 1 + mu/12 - c/2,
and dim S_w = (w - 1)(g - 1) + (w/2 - 1) c for even w >= 4.
"""

from fractions import Fraction
from math import gcd


def ramanujan_tau(n_max):
    """[tau(0), tau(1), ..., tau(n_max)], read off the product expansion
    of Delta truncated past q^n_max (tau(0) = 0)."""
    series = [1] + [0] * (n_max - 1)  # prod (1 - q^n)^24 up to q^(n_max-1)
    for n in range(1, n_max):
        for _ in range(24):
            for i in range(n_max - 1, n - 1, -1):
                series[i] -= series[i - n]
    return [0] + series


def _sigma(n, e):
    return sum(d ** e for d in range(1, n + 1) if n % d == 0)


def _series_mul(f, g):
    """The product of two q-expansions, truncated to the shorter one."""
    n = min(len(f), len(g))
    return [sum(f[i] * g[t - i] for i in range(t + 1)) for t in range(n)]


def level_one_hecke_charpoly(w, p):
    """Coefficients, leading first, of the characteristic polynomial of
    T_p on S_w(SL2(Z)) for even w >= 4, in the basis Delta^j E_4^a E_6^b
    (4a + 6b = w - 12j, b <= 1) for j = 1 .. dim S_w."""
    dims = [j for j in range(1, w // 12 + 1) if w - 12 * j != 2]
    n = p * len(dims) + 1  # coefficients of q^0 .. q^(p dim)
    e4 = [1] + [240 * _sigma(i, 3) for i in range(1, n)]
    e6 = [1] + [-504 * _sigma(i, 5) for i in range(1, n)]
    delta = ramanujan_tau(n - 1)
    basis = []
    for j in dims:
        a, two = divmod(w - 12 * j, 4)  # weight 4a + 2 is E_6 E_4^(a-1)
        f = [1] + [0] * (n - 1)
        for g in [delta] * j + ([e6] + [e4] * (a - 1) if two else [e4] * a):
            f = _series_mul(f, g)
        basis.append(f)
    # each image in the basis, by its coefficients of q^1 .. q^dim: the
    # basis is unitriangular there, so the coordinates are integers
    matrix = []
    for f in basis:
        image = [f[p * m] + (p ** (w - 1) * f[m // p] if m % p == 0 else 0)
                 for m in range(len(dims) + 1)]
        coords = []
        for j, g in zip(dims, basis):
            c = image[j]
            coords.append(c)
            image = [x - c * y for x, y in zip(image, g)]
        matrix.append(coords)  # a column, stored as a row: same charpoly
    return _charpoly(matrix)


def _charpoly(A):
    """Coefficients, leading first, of det(x I - A) for an integer
    matrix, by Faddeev-LeVerrier: M_1 = I, c_t = -tr(A M_t) / t and
    M_(t+1) = A M_t + c_t I, each division exact."""
    n = len(A)
    coeffs, M = [1], [[int(i == j) for j in range(n)] for i in range(n)]
    for t in range(1, n + 1):
        AM = [[sum(A[i][s] * M[s][j] for s in range(n)) for j in range(n)]
              for i in range(n)]
        c = Fraction(-sum(AM[i][i] for i in range(n)), t)
        assert c.denominator == 1
        coeffs.append(int(c))
        M = [[AM[i][j] + int(c) * (i == j) for j in range(n)]
             for i in range(n)]
    return coeffs


def prime_factors(n):
    """The distinct primes dividing n, by trial division."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + ([n] if n > 1 else [])


def _phi(n):
    for p in prime_factors(n):
        n = n // p * (p - 1)
    return n


def gamma0_index(N):
    """[PSL2(Z) : Gamma_0(N)] = N prod_(p | N) (1 + 1/p)."""
    for p in prime_factors(N):
        N = N // p * (p + 1)
    return N


def gamma0_nu2(N):
    """Elliptic points of order 2: none if 4 | N, else
    prod_(p | N) (1 + (-1/p))."""
    if N % 4 == 0:
        return 0
    out = 1
    for p in prime_factors(N):
        out *= 1 if p == 2 else 2 if p % 4 == 1 else 0
    return out


def gamma0_nu3(N):
    """Elliptic points of order 3: none if 9 | N, else
    prod_(p | N) (1 + (-3/p))."""
    if N % 9 == 0:
        return 0
    out = 1
    for p in prime_factors(N):
        out *= 1 if p == 3 else 2 if p % 3 == 1 else 0
    return out


def gamma0_cusps(N):
    """sum_(d | N) phi(gcd(d, N/d))."""
    return sum(_phi(gcd(d, N // d)) for d in range(1, N + 1) if N % d == 0)


def gamma0_genus(N):
    """g = 1 + index/12 - nu2/4 - nu3/3 - cusps/2 (Shimura, Prop. 1.40)."""
    twelve_g = (12 + gamma0_index(N) - 3 * gamma0_nu2(N)
                - 4 * gamma0_nu3(N) - 6 * gamma0_cusps(N))
    assert twelve_g % 12 == 0, N
    return twelve_g // 12


def gamma0_cusp_forms(N, w):
    """dim S_w(Gamma_0(N)) for even w >= 4: (w - 1)(g - 1)
    + floor(w/4) nu2 + floor(w/3) nu3 + (w/2 - 1) c."""
    assert w >= 4 and w % 2 == 0, w
    return ((w - 1) * (gamma0_genus(N) - 1) + w // 4 * gamma0_nu2(N)
            + w // 3 * gamma0_nu3(N) + (w // 2 - 1) * gamma0_cusps(N))



def gamma1_index(N):
    """[PSL2(Z) : Gamma_1(N)] = (N^2/2) prod_(p | N) (1 - 1/p^2), N >= 5."""
    assert N >= 5, N
    twice = N * N
    for p in prime_factors(N):
        twice = twice // (p * p) * (p * p - 1)
    return twice // 2


def gamma1_cusps(N):
    """(1/2) sum_(d | N) phi(d) phi(N/d), N >= 5."""
    assert N >= 5, N
    return sum(_phi(d) * _phi(N // d)
               for d in range(1, N + 1) if N % d == 0) // 2


def gamma1_genus(N):
    """g = 1 + mu/12 - c/2, N >= 5: there are no elliptic points."""
    twelve_g = 12 + gamma1_index(N) - 6 * gamma1_cusps(N)
    assert twelve_g % 12 == 0, N
    return twelve_g // 12


def gamma1_cusp_forms(N, w):
    """dim S_w(Gamma_1(N)) for even w >= 4 and N >= 5:
    (w - 1)(g - 1) + (w/2 - 1) c."""
    assert w >= 4 and w % 2 == 0, w
    return (w - 1) * (gamma1_genus(N) - 1) + (w // 2 - 1) * gamma1_cusps(N)
