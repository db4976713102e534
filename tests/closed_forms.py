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

``gamma0_cusp_forms`` gives dim S_w(Gamma_0(N)) for even w >= 4 from the
same numbers (Diamond-Shurman, Thm. 3.5.1; Stein, *Modular Forms: A
Computational Approach*, GSM 79, 6.1).  For k >= 1, Eichler-Shimura
gives H1(Gamma_0(N), Sym^2k) the rank 2 dim S_(2k+2) + c, the Eisenstein
series contributing dim E_(2k+2) = c.
"""

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
