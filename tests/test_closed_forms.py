"""H1 and Hecke charpolys against closed forms that share no code path
with ``hypcycle`` (``closed_forms``): on level one with Sym^10
coefficients, T_p has the Eisenstein eigenvalue 1 + p^11 and, on the two
classes of the discriminant form, Ramanujan's tau(p), and with Sym^22
coefficients, twice the irreducible quadratic charpoly of T_p on the
two cusp forms of weight 24, read off q-expansions; with trivial
coefficients, H1 of Gamma_0(N) has rank 2g + c - 1 and the torsion of
its elliptic points; with Sym^2k coefficients, k >= 1, it has the
Eichler-Shimura rank 2 dim S_(2k+2) + c; and H1 of Gamma_1(N), N >= 5,
is free of the same ranks from the closed forms of Gamma_1(N)."""

import json

import pytest

from closed_forms import (
    gamma0_cusp_forms,
    gamma0_cusps,
    gamma0_genus,
    gamma0_nu2,
    gamma0_nu3,
    gamma1_cusp_forms,
    gamma1_cusps,
    gamma1_genus,
    gamma1_index,
    level_one_hecke_charpoly,
    ramanujan_tau,
)
from hypcycle import cli
from hypcycle.cosets import SubgroupSpec, build_cosets
from hypcycle.homology import compute_h1
from hypcycle.intlinalg import RingSpec

TAU = ramanujan_tau(97)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 97])
def test_level_one_weight_12_charpoly_is_eisenstein_and_tau(p, capsys):
    # runs T^q on the one coset of SL2(Z) make about p laps each of the
    # orbit of width 1, read by the run walk in closed form
    argv = "hecke --group gamma0:1 --k 5 --op Tp --p %d" % p
    assert cli.main(argv.split()) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["charpoly"] == "(x-%d)*(x%+d)^2" % (1 + p ** 11, -TAU[p])


# T_p on S_24(SL2(Z)), pinned: p = 2 has the eigenvalues 540 +- 12 sqrt(144169)
WEIGHT_24 = {2: [1, -1080, -20468736], 3: [1, -339480, -19020146544]}


@pytest.mark.parametrize("p", sorted(WEIGHT_24))
def test_level_one_weight_24_charpoly_is_eisenstein_and_a_quadratic(p, capsys):
    # the first closed-form rows with an irreducible factor; d = 23, and
    # each term is walked with only the columns it is applied to
    quadratic = WEIGHT_24[p]
    assert level_one_hecke_charpoly(24, p) == quadratic
    assert level_one_hecke_charpoly(12, p) == [1, -TAU[p]]
    argv = "hecke --group gamma0:1 --k 11 --op Tp --p %d" % p
    assert cli.main(argv.split()) == 0
    report = json.loads(capsys.readouterr().out)
    _, b, c = quadratic
    assert report["charpoly"] == "(x-%d)*(x^2%+d*x%+d)^2" % (1 + p ** 23, b, c)


def _check_gamma0_h1(N):
    # Gamma_0(N) in PSL2(Z) is a free product of nu2 copies of Z/2, nu3
    # of Z/3 and a free group of rank 2g + c - 1
    h1 = compute_h1(SubgroupSpec.gamma0(N), 0)
    assert h1.rank == 2 * gamma0_genus(N) + gamma0_cusps(N) - 1, N
    two, three = gamma0_nu2(N), gamma0_nu3(N)
    six = min(two, three)
    torsion = [2] * (two - six) + [3] * (three - six) + [6] * six
    assert [d for d in h1.invariant_factors if d] == torsion, N


def test_gamma0_h1_rank_is_2g_plus_c_minus_1_up_to_100():
    for N in range(1, 101):
        _check_gamma0_h1(N)


@pytest.mark.parametrize("N,rank", [(360, 145), (720, 289), (1000, 301),
                                    (2000, 601)])
def test_gamma0_h1_rank_at_large_index(N, rank):
    # index 864 to 3,600; about 2 s in all, most of it at 2000
    assert 2 * gamma0_genus(N) + gamma0_cusps(N) - 1 == rank
    _check_gamma0_h1(N)


def test_level_one_and_gamma0_11_eichler_shimura_ranks():
    # the formula alone: level one at k = 30 and 40, Gamma_0(11) at k = 2
    for N, k, rank in ((1, 30, 9), (1, 40, 13), (11, 2, 10)):
        assert 2 * gamma0_cusp_forms(N, 2 * k + 2) + gamma0_cusps(N) == rank


@pytest.mark.parametrize("k,N_max", [(1, 50), (2, 50), (3, 26)])
def test_gamma0_h1_rank_is_eichler_shimura(k, N_max):
    # the rho-twists of Sym^2k on every letter step enter d1, so a twist
    # that breaks the action (an untwisted S step, say) moves the rank
    # off 2 dim S_(2k+2) + c; about 3.5 s in all
    for N in range(1, N_max + 1):
        h1 = compute_h1(SubgroupSpec.gamma0(N), k)
        expect = 2 * gamma0_cusp_forms(N, 2 * k + 2) + gamma0_cusps(N)
        assert h1.rank == expect, (N, k)


@pytest.mark.parametrize("N", list(range(1, 41)) + [360])
def test_gamma0_h1_mod_small_primes_and_mod_4(N):
    # at k = 0, H0 = Z is free, so H1 over Z/m is H1 tensor Z/m: the
    # relations compute_h1 adds for the ring, against the closed form
    table = build_cosets(SubgroupSpec.gamma0(N))
    rank = 2 * gamma0_genus(N) + gamma0_cusps(N) - 1
    two, three = gamma0_nu2(N), gamma0_nu3(N)
    for ell in (2, 3, 5):
        h1 = compute_h1(table, 0, RingSpec("Fp", p=ell))
        count = rank + two * (ell == 2) + three * (ell == 3)
        assert h1.invariant_factors == (ell,) * count, (N, ell)
    h1 = compute_h1(table, 0, RingSpec("ZpM", p=2, M=2))
    assert h1.invariant_factors == (2,) * two + (4,) * rank, N


@pytest.mark.parametrize("N", range(5, 21))
def test_gamma1_h1_is_free_of_closed_form_rank(N):
    # Gamma_1(N), N >= 5, is free (no elliptic points, -1 not in it), so
    # H1 is free: rank 2g + c - 1 at k = 0 and, by Eichler-Shimura,
    # 2 dim S_(2k+2) + c at k >= 1
    table = build_cosets(SubgroupSpec.gamma1(N))
    assert table.index == gamma1_index(N)
    g, c = gamma1_genus(N), gamma1_cusps(N)
    for k in range(3):
        h1 = compute_h1(table, k)
        rank = 2 * g + c - 1 if k == 0 else 2 * gamma1_cusp_forms(
            N, 2 * k + 2) + c
        assert h1.invariant_factors == (0,) * rank, (N, k)
