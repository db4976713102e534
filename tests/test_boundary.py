"""Cusp data against classical formulas that share no code with the
coset tables: the cusp count and cusp widths of Gamma_0(N), the cusp
count of Gamma_1(N), and membership of every stabilizer; the boundary
subgroup and its Hecke generation."""

from math import gcd

import pytest

from hypcycle.boundary import boundary_subgroup, check_hecke_generation, cusp_data
from hypcycle.cosets import SubgroupSpec, build_cosets
from hypcycle.homology import compute_h1
from hypcycle.psl2 import PARABOLIC, classify
from oracles import p1_size, subgroup_cosets


def phi(n):
    return sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def gamma0_cusp_count(N):
    return sum(phi(gcd(d, N // d)) for d in divisors(N))


def gamma0_widths(N):
    """Sorted widths: phi(gcd(c, N/c)) cusps of denominator c | N, each
    of width N / gcd(c^2, N)."""
    out = []
    for c in divisors(N):
        out += [N // gcd(c * c, N)] * phi(gcd(c, N // c))
    return sorted(out)


def gamma1_cusp_count(N):
    """Cusps of Gamma_1(N) in PSL2: 1, 2, 2, 3 for N <= 4, and
    (1/2) sum_{d | N} phi(d) phi(N/d) beyond."""
    if N <= 4:
        return (1, 2, 2, 3)[N - 1]
    return sum(phi(d) * phi(N // d) for d in divisors(N)) // 2


@pytest.mark.parametrize("N", range(1, 31))
def test_gamma0_cusps(N):
    spec = SubgroupSpec.gamma0(N)
    data = cusp_data(build_cosets(spec))
    assert len(data) == gamma0_cusp_count(N)
    assert sorted(c.width for c in data) == gamma0_widths(N)
    assert sum(c.width for c in data) == p1_size(N)
    for c in data:
        assert spec.contains(c.stabilizer)
        assert classify(c.stabilizer) == PARABOLIC
        # the cusp representative * infinity has denominator class
        # gcd(c, N), which fixes its width
        g = gcd(c.representative.c, N)
        assert c.width == N // gcd(g * g, N)


@pytest.mark.parametrize("N", range(1, 19))
def test_gamma1_cusps(N):
    spec = SubgroupSpec.gamma1(N)
    table = build_cosets(spec)
    data = cusp_data(table)
    assert len(data) == gamma1_cusp_count(N)
    assert sum(c.width for c in data) == table.index
    assert all(spec.contains(c.stabilizer) for c in data)


@pytest.mark.parametrize("spec_name", ["gamma0:12", "gamma1:10", "gammaH:13:3"])
def test_cusps_independent_of_transversal(spec_name):
    spec = SubgroupSpec.parse(spec_name)
    base = sorted(c.width for c in cusp_data(build_cosets(spec)))
    for seed in (1, 2, 3):
        shuffled = cusp_data(subgroup_cosets(spec.contains, shuffle_seed=seed))
        assert sorted(c.width for c in shuffled) == base
        assert all(spec.contains(c.stabilizer) for c in shuffled)


def test_hecke_generation_gamma1_9():
    report = check_hecke_generation(SubgroupSpec.gamma1(9), 0)
    assert report.verdict == "Verified"
    assert report.span_factors == report.boundary_factors == (0,) * 7


@pytest.mark.parametrize("group,named,cusps", [
    ("gamma0:11", ["T2", "T3", "T5"], 2),
    # (Z/9)^x / +-1 = {1, 8}, {2, 7}, {4, 5}
    ("gamma1:9", ["T2", "U3", "T5", "<2>", "<4>"], 8),
    # (Z/13)^x / +-<3> = {1, 3, 4, 9, 10, 12}, {2, 5, 6, 7, 8, 11}
    ("gammaH:13:3", ["T2", "T3", "T5", "<2>"], 4),
    ("gamma1:13", ["T2", "T3", "T5", "<2>", "<3>", "<4>", "<5>", "<6>"], 12),
])
def test_hecke_generation_operators(group, named, cusps):
    # one diamond per nontrivial class of (Z/N)^x / +-H, named by its
    # least element, then one double coset per cusp other than infinity
    report = check_hecke_generation(SubgroupSpec.parse(group), 0)
    assert report.verdict == "Verified"
    ops = list(report.operators)
    assert ops[:len(named)] == named
    movers = ops[len(named):]
    assert len(movers) == cusps - 1
    assert all(name.startswith("[G ") for name in movers)


def test_boundary_subgroup_gamma1_13():
    # 12 cusps: the parabolic cycles span a free module of rank 12
    spec = SubgroupSpec.gamma1(13)
    h1 = compute_h1(spec, 1)
    factors, _ = boundary_subgroup(h1, cusp_data(h1.table))
    assert h1.rank == 42 and h1.invariant_factors == (0,) * 42
    assert factors == (0,) * 12
