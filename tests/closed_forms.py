"""Closed forms from the theory of modular forms, for oracles that share
no code path with ``hypcycle``: stdlib only, and nothing is imported
from the package.

``ramanujan_tau`` gives the coefficients tau(n) of the discriminant
Delta = q prod_(n >= 1) (1 - q^n)^24, the normalised cusp form of
weight 12 and level one.  H1(SL2(Z), Sym^10) has rank 3 (Eichler-
Shimura: twice dim S_12 plus dim E_12), and for a prime p its T_p has
the Eisenstein eigenvalue 1 + p^11 once and tau(p) twice.
"""


def ramanujan_tau(n_max):
    """[tau(0), tau(1), ..., tau(n_max)], read off the product expansion
    of Delta truncated past q^n_max (tau(0) = 0)."""
    series = [1] + [0] * (n_max - 1)  # prod (1 - q^n)^24 up to q^(n_max-1)
    for n in range(1, n_max):
        for _ in range(24):
            for i in range(n_max - 1, n - 1, -1):
                series[i] -= series[i - n]
    return [0] + series
