import random
from math import gcd

import pytest

from hypcycle.cosets import (
    SubgroupSpec,
    build_cosets,
    subgroup_transversal,
)
from hypcycle.hecke import diamond_matrix
from hypcycle.psl2 import I, PMat, S, T, U
from oracles import (
    BudgetExceeded,
    h_closure,
    p1_size,
    schreier,
    subgroup_cosets,
)


def p1_brute_force(N):
    """Count P^1(Z/N) by enumerating pairs up to unit scaling."""
    units = [u for u in range(N) if gcd(u, N) == 1]
    seen = set()
    count = 0
    for c in range(N):
        for d in range(N):
            if gcd(gcd(c, d), N) != 1:
                continue
            if (c, d) in seen:
                continue
            count += 1
            for u in units:
                seen.add(((u * c) % N, (u * d) % N))
    return count


def gamma1_index(N):
    """Index of the image of Gamma_1(N) in PSL2(Z)."""
    if N <= 2:
        return p1_size(N)
    idx = N * N
    n = N
    p = 2
    while p * p <= n:
        if n % p == 0:
            idx = idx // (p * p) * (p * p - 1)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        idx = idx // (n * n) * (n * n - 1)
    return idx // 2


class TestMembership:
    def test_t_in_gamma1(self):
        for N in (1, 2, 3, 5, 12):
            assert SubgroupSpec.gamma1(N).contains(T)

    def test_s_not_in_gamma0_5(self):
        assert not SubgroupSpec.gamma0(5).contains(S)

    def test_lower_unipotent(self):
        for N in (2, 3, 7):
            assert SubgroupSpec.gamma1(N).contains(PMat(1, 0, N, 1))
            assert not SubgroupSpec.gamma1(N).contains(PMat(1, 0, 1, 1)) or N == 1

    def test_minus_lift(self):
        # -(1,0;0,1) type elements: d = N-1 must be accepted for Gamma_1
        N = 5
        g = PMat(-1, 0, 5, -1)  # canonical rep is (1,0,-5,1)
        assert SubgroupSpec.gamma1(N).contains(g)


class TestBuildCosets:
    def test_level_one(self):
        assert build_cosets(SubgroupSpec.gamma1(1)).index == 1

    def test_gamma0_11(self):
        assert p1_brute_force(11) == 12
        table = build_cosets(SubgroupSpec.gamma0(11))
        assert table.index == 12

    def test_gamma1_5(self):
        table = build_cosets(SubgroupSpec.gamma1(5))
        assert table.index == 12
        assert gamma1_index(5) == 12

    def test_p1_counts(self):
        for N in range(1, 51):
            assert p1_size(N) == p1_brute_force(N)
        for N in (2, 3, 4, 6, 10, 12, 25):
            assert build_cosets(SubgroupSpec.gamma0(N)).index == p1_size(N)

    def test_index_multiplicativity(self):
        for N in range(1, 31):
            i0 = build_cosets(SubgroupSpec.gamma0(N)).index
            i1 = build_cosets(SubgroupSpec.gamma1(N)).index
            units = len([a for a in range(N) if gcd(a, N) == 1]) if N > 1 else 1
            ratio = units if N <= 2 else units // 2
            assert i1 == i0 * ratio
            assert i1 == gamma1_index(N)

    def test_act_orders(self):
        for spec in (SubgroupSpec.gamma0(6), SubgroupSpec.gamma1(5)):
            table = build_cosets(spec)
            n = table.index
            permS = [table.mulS[i][0] for i in range(n)]
            permU = [table.mulU[i][0] for i in range(n)]
            assert [permS[permS[i]] for i in range(n)] == list(range(n))
            assert [permU[permU[permU[i]]] for i in range(n)] == list(range(n))

    def test_step_consistency(self):
        table = build_cosets(SubgroupSpec.gamma0(7))
        for i, t in enumerate(table.transversal):
            for gen, x in (("S", S), ("U", U)):
                j, tw = (table.mulS if gen == "S" else table.mulU)[i]
                assert tw * table.transversal[j] == t * x
                assert table.contains(tw)


class TestSchreier:
    def test_in_group(self):
        spec = SubgroupSpec.gamma0(4)
        table = build_cosets(spec)
        g = PMat(1, 0, 4, 1)
        gamma, t = schreier(table, g)
        assert gamma == g and t == I

    def test_transversal_element(self):
        table = build_cosets(SubgroupSpec.gamma0(3))
        for t in table.transversal:
            gamma, t2 = schreier(table, t)
            assert gamma.is_identity() and t2 == t

    def test_roundtrip_random(self):
        rng = random.Random(21)
        table = build_cosets(SubgroupSpec.gamma1(6))
        from oracles import TP

        for _ in range(200):
            g = I
            for _ in range(rng.randint(1, 10)):
                g = g * (T if rng.random() < 0.5 else TP)
                if rng.random() < 0.3:
                    g = g * S
            gamma, t = schreier(table, g)
            assert gamma * t == g
            assert table.contains(gamma)


class TestSubgroupCosets:
    def test_trivial_predicate(self):
        spec = SubgroupSpec.gamma0(5)
        assert subgroup_cosets(spec.contains).index == build_cosets(spec).index

    def test_theta_group_level_one(self):
        # gamma in SL2(Z) with diag(1,2) gamma diag(1,2)^-1 integral: b = 0 mod 2
        def pred(g):
            return g.b % 2 == 0

        assert subgroup_cosets(pred).index == 3

    def test_gamma0_11_cap(self):
        spec = SubgroupSpec.gamma0(11)
        table = build_cosets(spec)

        def pred(g):
            return spec.contains(g) and g.b % 2 == 0

        sub = subgroup_cosets(pred)
        assert sub.index == 3 * table.index

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            subgroup_cosets(lambda g: g.is_identity(), max_index=50)


class TestSubgroupTransversal:
    def test_inside_ambient(self):
        spec = SubgroupSpec.gamma0(11)
        amb = build_cosets(spec)

        def pred(g):
            return spec.contains(g) and g.b % 2 == 0

        sub = subgroup_cosets(pred)
        reps, cosets = subgroup_transversal(
            lambda g: sub.coset_of(g)[0], amb)
        assert len(reps) == 3 and reps[0].is_identity()
        assert all(spec.contains(r) for r in reps)
        assert cosets == {sub.coset_of(r)[0]: i for i, r in enumerate(reps)}
        # pairwise inequivalent modulo the subgroup
        for i, r1 in enumerate(reps):
            for r2 in reps[i + 1:]:
                assert not pred(r1 * r2.inv())


def test_shuffled_tables_same_index():
    spec = SubgroupSpec.gamma1(5)
    base = build_cosets(spec)
    for seed in (1, 2):
        shuffled = subgroup_cosets(spec.contains, shuffle_seed=seed)
        assert shuffled.index == base.index


def test_parse():
    assert SubgroupSpec.parse("gamma0:11") == SubgroupSpec.gamma0(11)
    assert SubgroupSpec.parse("gamma1:4") == SubgroupSpec.gamma1(4)
    s = SubgroupSpec.parse("gammaH:8:3")
    assert s == SubgroupSpec(8, (3,))
    assert h_closure(s) == frozenset({1, 3})
    # membership reads +-H: on Gamma_H(13; 3), H = {1, 3, 9}
    s = SubgroupSpec.parse("gammaH:13:3")
    pm_h = {x for h in h_closure(s) for x in (h, 13 - h)}
    assert pm_h == {1, 3, 4, 9, 10, 12}
    assert {d for d in range(1, 13)
            if s.contains(PMat.of(diamond_matrix(13, d)))} == pm_h
