"""Rank oracles across levels and weights: p-stabilization and Hida's
control theorem, each a rank equality between two computations on
different coset tables with different operators, so that no data is
shared between its two sides.

For p not dividing N and k >= 1, the T_p-ordinary part of H1 of
Gamma_0(N) with Sym^2k coefficients and the U_p-ordinary part at level
Np have the same rank: an ordinary eigenform has one ordinary
p-stabilization, and the p-new forms at level Np have U_p = +-p^k, not
units.  When (p - 1) | 2k the U_p-ordinary rank at level Np is also the
k = 0 rank there (Hida, Invent. Math. 85, 1986).  On Gamma_1(N) with p
dividing N, the group holds every character mod p, so the U_p-ordinary
rank is the same at every weight.  The rows at p = 2 and 3 lie outside
that reference; they hold all the same.  Ranks are read at M = 1, by
``ordinary.ordinary_part``."""

from functools import lru_cache

import pytest

from hypcycle.cosets import SubgroupSpec
from hypcycle.ordinary import ordinary_part

ROWS = [(N, p, k) for N in (1, 2, 3, 5, 7, 11) for p in (2, 3, 5)
        if N % p for k in (1, 2, 3)]


# (N, p) with p | N for Gamma_1(N)
GAMMA1_ROWS = [(5, 5), (10, 5), (15, 5), (7, 7), (14, 7), (6, 3), (9, 3),
               (12, 3), (4, 2), (8, 2)]


@lru_cache(maxsize=None)
def ordinary_rank(level, k, p, group=SubgroupSpec.gamma0):
    """Rank of the ordinary part of H1(group(level), Sym^2k) mod p under
    T_p or U_p, whichever the level takes."""
    split, _, _ = ordinary_part(group(level), k, p, 1)
    return split.ordinary_rank


@pytest.mark.parametrize("N,p,k", ROWS)
def test_p_stabilization_keeps_the_ordinary_rank(N, p, k):
    assert ordinary_rank(N, k, p) == ordinary_rank(N * p, k, p)


@pytest.mark.parametrize("N,p,k", [row for row in ROWS
                                   if 2 * row[2] % (row[1] - 1) == 0])
def test_ordinary_rank_depends_on_the_weight_mod_p_minus_1(N, p, k):
    assert ordinary_rank(N * p, k, p) == ordinary_rank(N * p, 0, p)


@pytest.mark.parametrize("k", range(1, 5))
@pytest.mark.parametrize("N,p", GAMMA1_ROWS)
def test_gamma1_ordinary_rank_is_the_same_at_every_weight(N, p, k):
    gamma1 = SubgroupSpec.gamma1
    assert ordinary_rank(N, k, p, gamma1) == ordinary_rank(N, 0, p, gamma1)
