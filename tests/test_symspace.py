import random

import pytest

from hypcycle.cosets import SubgroupSpec, build_cosets, subgroup_transversal
from hypcycle.intlinalg import from_columns, identity, subquotient
from hypcycle.psl2 import I, Mat2, S, T
from hypcycle.symspace import (
    NonPositiveDeterminant,
    act,
    poly_mul,
    poly_pow,
)
from oracles import (
    TP,
    IndVec,
    corestrict_coeff,
    ind_act,
    monomial,
    poly_add,
    poly_sub,
    restrict_coeff,
    subgroup_cosets,
    x2_power,
    zero_poly,
)


def random_psl(rng, steps=6):
    g = I
    for _ in range(rng.randint(1, steps)):
        g = g * (T if rng.random() < 0.5 else TP)
        if rng.random() < 0.3:
            g = g * S
    return g


def random_poly(rng, k, lo=-5, hi=5):
    return tuple(rng.randint(lo, hi) for _ in range(2 * k + 1))


class TestAct:
    def test_identity(self):
        rng = random.Random(31)
        for k in (0, 1, 3):
            P = random_poly(rng, k)
            assert act(I, P) == P

    def test_diagonal_on_monomials(self):
        for p in (2, 3, 5):
            for k in (1, 2, 5):
                dg = Mat2(1, 0, 0, p)
                assert act(dg, x2_power(k)) == x2_power(k)
                assert act(dg, monomial(k, 0)) == monomial(k, 0, p ** (2 * k))

    def test_upper_triangular_mod_p(self):
        # (1, u; 0, p) sends P(X1, X2) to P(-u*X2, X2) mod p
        rng = random.Random(32)
        for p in (2, 3, 5):
            for u in range(p):
                k = 2
                P = random_poly(rng, k)
                g = Mat2(1, u, 0, p)
                got = act(g, P, modulus=p)
                # P(-u*X2, X2) = sum_i c_i (-u)^(2k-i) X2^(2k)
                coef = sum(c * (-u) ** (2 * k - i) for i, c in enumerate(P))
                expect = tuple(0 for _ in range(2 * k)) + ((coef % p),)
                assert got == expect

    def test_action_law(self):
        rng = random.Random(33)
        for _ in range(1000):
            k = rng.randint(0, 3)
            P = random_poly(rng, k)
            g, h = random_psl(rng), random_psl(rng)
            assert act((g * h).lift(), act(I, P)) == act(g.lift(), act(h.lift(), P))

    def test_minus_one_trivial(self):
        rng = random.Random(34)
        for k in (0, 1, 2):
            P = random_poly(rng, k)
            assert act(Mat2(-1, 0, 0, -1), P) == P

    def test_nonpositive_det(self):
        with pytest.raises(NonPositiveDeterminant):
            act(Mat2(1, 0, 0, -1), (1, 0, 0))

    def test_linear_and_degree_preserving(self):
        rng = random.Random(35)
        for _ in range(100):
            k = rng.randint(0, 3)
            P, Q = random_poly(rng, k), random_poly(rng, k)
            g = random_psl(rng).lift()
            assert act(g, poly_add(P, Q)) == poly_add(act(g, P), act(g, Q))
            assert len(act(g, P)) == 2 * k + 1

    def test_invariance_of_quadratic_form(self):
        from hypcycle.psl2 import HYPERBOLIC, PARABOLIC, classify, quadratic_form

        rng = random.Random(36)
        checked = 0
        while checked < 1000:
            g = random_psl(rng, steps=8)
            if classify(g) not in (HYPERBOLIC, PARABOLIC):
                continue
            Q = quadratic_form(g)
            assert act(g.lift(), Q) == Q
            checked += 1

    def test_conjugation_scales_by_unit(self):
        from hypcycle.psl2 import HYPERBOLIC, classify, quadratic_form

        rng = random.Random(37)
        checked = 0
        while checked < 300:
            g = random_psl(rng)
            if classify(g) != HYPERBOLIC:
                continue
            a = random_psl(rng)
            lhs = act(a.lift(), quadratic_form(g))
            rhs = quadratic_form(a * g * a.inv())
            assert lhs == rhs or lhs == tuple(-x for x in rhs)
            checked += 1


class TestIndAct:
    def setup_method(self):
        self.table = build_cosets(SubgroupSpec.gamma0(5))

    def test_identity(self):
        rng = random.Random(41)
        v = IndVec(self.table, 1, None,
                   [random_poly(rng, 1) for _ in range(self.table.index)])
        assert ind_act(I, v) == v

    def test_index_one_degenerate(self):
        table1 = build_cosets(SubgroupSpec.gamma1(1))
        rng = random.Random(42)
        for _ in range(50):
            g = random_psl(rng)
            P = random_poly(rng, 2)
            v = IndVec.unit(table1, 2, P)
            assert ind_act(g, v).blocks[0] == act(g.lift(), P)

    def test_action_law(self):
        rng = random.Random(43)
        for _ in range(120):
            k = rng.randint(0, 2)
            v = IndVec(self.table, k, None,
                       [random_poly(rng, k) for _ in range(self.table.index)])
            g, h = random_psl(rng), random_psl(rng)
            assert ind_act(g, ind_act(h, v)) == ind_act(g * h, v)

    def test_commutes_with_reduction(self):
        rng = random.Random(44)
        for _ in range(40):
            k = rng.randint(0, 2)
            blocks = [random_poly(rng, k) for _ in range(self.table.index)]
            g = random_psl(rng)
            over_z = ind_act(g, IndVec(self.table, k, None, blocks))
            over_m = ind_act(g, IndVec(self.table, k, 9, [tuple(x % 9 for x in b) for b in blocks]))
            assert [tuple(x % 9 for x in b) for b in over_z.blocks] == list(over_m.blocks)


def coinvariant_module(table, k):
    """V / span{(gamma - 1) w} over the subgroup of the table."""
    d = 2 * k + 1
    cols = []
    for gamma in table.schreier_generators():
        for i in range(d):
            w = monomial(k, i)
            cols.append(list(poly_sub(act(gamma.lift(), w), w)))
    img = from_columns(cols, d) if cols else [[0] * 0 for _ in range(d)]
    return subquotient(identity(d), img)


class TestRestrictCorestrict:
    def setup_method(self):
        self.spec = SubgroupSpec.gamma0(3)
        self.amb = build_cosets(self.spec)

        def pred(g):
            return self.spec.contains(g) and g.b % 2 == 0

        self.pred = pred
        self.sub = subgroup_cosets(pred)
        self.reps = subgroup_transversal(self.sub, self.amb)

    def test_restrict_identity_when_equal(self):
        rng = random.Random(51)
        v = IndVec(self.amb, 1, None,
                   [random_poly(rng, 1) for _ in range(self.amb.index)])
        assert restrict_coeff(v, self.amb, reps=[I]) == v

    def test_corestrict_identity_when_equal(self):
        rng = random.Random(52)
        v = IndVec(self.amb, 1, None,
                   [random_poly(rng, 1) for _ in range(self.amb.index)])
        assert corestrict_coeff(v, self.amb) == v

    def test_restrict_equivariance(self):
        rng = random.Random(53)
        for _ in range(40):
            k = rng.randint(0, 2)
            v = IndVec(self.amb, k, None,
                       [random_poly(rng, k) for _ in range(self.amb.index)])
            g = random_psl(rng)
            lhs = restrict_coeff(ind_act(g, v), self.sub, reps=self.reps)
            rhs = ind_act(g, restrict_coeff(v, self.sub, reps=self.reps))
            assert lhs == rhs

    def test_corestrict_equivariance(self):
        rng = random.Random(54)
        for _ in range(40):
            k = rng.randint(0, 2)
            v = IndVec(self.sub, k, None,
                       [random_poly(rng, k) for _ in range(self.sub.index)])
            g = random_psl(rng)
            assert corestrict_coeff(ind_act(g, v), self.amb) == ind_act(g, corestrict_coeff(v, self.amb))

    def test_rep_choice_independence(self):
        rng = random.Random(55)
        twisted = []
        for s in self.reps:
            gamma = I
            for _ in range(rng.randint(0, 3)):
                gamma = gamma * self.sub.schreier_generators()[
                    rng.randrange(len(self.sub.schreier_generators()))]
            if not self.pred(gamma):
                gamma = I
            twisted.append(gamma * s)
        for _ in range(20):
            k = rng.randint(0, 2)
            v = IndVec(self.amb, k, None,
                       [random_poly(rng, k) for _ in range(self.amb.index)])
            a = restrict_coeff(v, self.sub, reps=self.reps)
            b = restrict_coeff(v, self.sub, reps=twisted)
            assert a == b

    def test_degree_zero_shadow(self):
        # restriction followed by augmentation is m -> sum_i s_i m in
        # the subgroup coinvariants
        rng = random.Random(56)
        k = 1
        coinv = coinvariant_module(self.sub, k)
        for _ in range(30):
            m = random_poly(rng, k)
            v = IndVec.unit(self.amb, k, m)
            rv = restrict_coeff(v, self.sub, reps=self.reps)
            total = zero_poly(k)
            for b in rv.blocks:
                total = poly_add(total, b)
            expect = zero_poly(k)
            for s in self.reps:
                expect = poly_add(expect, act(s.lift(), m))
            assert coinv.coords(list(total)) == coinv.coords(list(expect))

    def test_cor_res_augmentation_is_index(self):
        # corestrict(restrict(m)) sums to index * m in ambient coinvariants
        rng = random.Random(57)
        k = 1
        coinv = coinvariant_module(self.amb, k)
        r = len(self.reps)
        for _ in range(30):
            m = random_poly(rng, k)
            v = IndVec.unit(self.amb, k, m)
            back = corestrict_coeff(restrict_coeff(v, self.sub, reps=self.reps), self.amb)
            total = zero_poly(k)
            for b in back.blocks:
                total = poly_add(total, b)
            assert coinv.coords(list(total)) == coinv.coords([r * x for x in m])


def test_poly_mul_pow():
    # (X1 + X2)^2 = X1^2 + 2 X1 X2 + X2^2
    assert poly_mul((1, 1), (1, 1)) == (1, 2, 1)
    assert poly_pow((1, 1), 2) == (1, 2, 1)
    assert poly_pow((0, 0, 1), 0) == (1,)
