import random

import pytest

from hypcycle.cosets import SubgroupSpec, build_cosets
from hypcycle.homology import compute_h1
from hypcycle.psl2 import HYPERBOLIC, I, Mat2, S, T, classify, quadratic_form
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
    coset_reps,
    group_chain_to_chain1,
    ind_act,
    monomial,
    poly_add,
    poly_sub,
    sparse,
    subgroup_cosets,
    transfer,
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


class TestRestrictCorestrict:
    """The bar-complex transfer of ``oracles.transfer``, from Gamma_0(3)
    to its subgroup of index 3 with b even (known by membership, with
    reps found by membership alone), and the blockwise corestriction of
    ``symspace.corestriction_map`` back."""

    def setup_method(self):
        self.spec = SubgroupSpec.gamma0(3)
        self.amb = build_cosets(self.spec)

        def pred(g):
            return self.spec.contains(g) and g.b % 2 == 0

        self.pred = pred
        self.sub = subgroup_cosets(pred)
        self.reps = coset_reps(pred, self.amb.schreier_generators())
        assert len(self.reps) == self.sub.index // self.amb.index == 3

    def elements(self, rng, count, hyperbolic=False):
        """Nontrivial elements of Gamma_0(3), or hyperbolic ones, whose
        (g, q_g^k) are single-term cycles."""
        out = []
        while len(out) < count:
            g = random_psl(rng, steps=8)
            if (self.spec.contains(g) and not g.is_identity()
                    and (not hyperbolic or classify(g) == HYPERBOLIC)):
                out.append(g)
        return out

    def coords(self, h1, terms):
        chain = group_chain_to_chain1(terms, h1.table, h1.k)
        return h1.coords(h1.quotient.project(sparse(chain)))

    def test_restrict_identity_when_equal(self):
        rng = random.Random(51)
        terms = [(g, random_poly(rng, 1)) for g in self.elements(rng, 10)]
        assert transfer(terms, [I], self.spec.contains) == terms

    def test_corestrict_identity_when_equal(self):
        rng = random.Random(52)
        v = IndVec(self.amb, 1, None,
                   [random_poly(rng, 1) for _ in range(self.amb.index)])
        assert corestrict_coeff(v, self.amb) == v

    def test_corestrict_equivariance(self):
        rng = random.Random(54)
        for _ in range(40):
            k = rng.randint(0, 2)
            v = IndVec(self.sub, k, None,
                       [random_poly(rng, k) for _ in range(self.sub.index)])
            g = random_psl(rng)
            assert corestrict_coeff(ind_act(g, v), self.amb) == ind_act(g, corestrict_coeff(v, self.amb))

    def test_rep_choice_independence(self):
        # other reps of the same cosets give the same class on the
        # subgroup
        rng = random.Random(55)
        gens = self.sub.schreier_generators()
        twisted = []
        for s in self.reps:
            gamma = I
            for _ in range(rng.randint(0, 3)):
                gamma = gamma * gens[rng.randrange(len(gens))]
            twisted.append(gamma * s)
        assert twisted != self.reps
        for k in (0, 1, 2):
            h1 = compute_h1(self.sub, k)
            for g in self.elements(rng, 4, hyperbolic=True):
                z = [(g, poly_pow(quadratic_form(g), k))]
                assert (self.coords(h1, transfer(z, self.reps, self.pred))
                        == self.coords(h1, transfer(z, twisted, self.pred)))

    def test_degree_zero_shadow(self):
        # the transfer is a chain map: the boundary sum (h w - w) of the
        # transferred terms is sum_r s_r applied to the boundary of the
        # terms, whether or not they form a cycle
        rng = random.Random(56)

        def boundary(terms):
            total = zero_poly(1)
            for g, v in terms:
                total = poly_add(total, poly_sub(act(g.lift(), v), v))
            return total

        for _ in range(30):
            terms = [(g, random_poly(rng, 1)) for g in self.elements(rng, 2)]
            expect = zero_poly(1)
            for s in self.reps:
                expect = poly_add(expect, act(s.lift(), boundary(terms)))
            assert boundary(transfer(terms, self.reps, self.pred)) == expect

    def test_cor_res_augmentation_is_index(self):
        # corestriction after restriction, read back on Gamma_0(3), is
        # multiplication by the index 3
        rng = random.Random(57)
        for k in (0, 1, 2):
            h1 = compute_h1(self.spec, k)
            for g in self.elements(rng, 4, hyperbolic=True):
                z = [(g, poly_pow(quadratic_form(g), k))]
                back = self.coords(h1, transfer(z, self.reps, self.pred))
                assert back == h1.reduce_coords(
                    [3 * x for x in self.coords(h1, z)])


def test_poly_mul_pow():
    # (X1 + X2)^2 = X1^2 + 2 X1 X2 + X2^2
    assert poly_mul((1, 1), (1, 1)) == (1, 2, 1)
    assert poly_pow((1, 1), 2) == (1, 2, 1)
    assert poly_pow((0, 0, 1), 0) == (1,)
