import random
from math import gcd

import pytest

from hypcycle.cosets import SubgroupSpec, build_cosets
from hypcycle.hecke import DoubleCoset
from hypcycle.homology import (
    LocalQuotient,
    NotACycle,
    compute_h1,
    cycle_of,
    fox_expand_unit,
    letter_steps,
)
from hypcycle.intlinalg import RingSpec, QQ, ZZ
from hypcycle.psl2 import (
    HYPERBOLIC,
    I,
    Mat2,
    PMat,
    S,
    T,
    U,
    classify,
    decompose_word,
    quadratic_form,
    word_from_letters,
)
from hypcycle.symspace import poly_pow, rho
from oracles import (
    TP,
    Chain1,
    IndVec,
    boundary1,
    boundary2,
    cycle_coords_of,
    dense,
    evaluate_word,
    fox_expand,
    group_chain_to_chain1,
    sparse,
    subgroup_cosets,
    to_group_chain,
    x2_power,
)


def dim_cusp_forms_level_one(weight):
    """Classical dimension of level-one cusp forms of even weight."""
    if weight < 12 or weight % 2:
        return 0
    if weight % 12 == 2:
        return weight // 12 - 1
    return weight // 12


def h1_dim_level_one(k):
    """2 * dim S_{2k+2} + 1 Eisenstein class (weight >= 4)."""
    if k == 0:
        return 0
    return 2 * dim_cusp_forms_level_one(2 * k + 2) + 1


def random_poly(rng, k):
    return tuple(rng.randint(-4, 4) for _ in range(2 * k + 1))


def random_psl(rng, steps=6):
    g = I
    for _ in range(rng.randint(1, steps)):
        g = g * (T if rng.random() < 0.5 else TP)
        if rng.random() < 0.3:
            g = g * S
    return g


def random_word(rng, max_len):
    letters = []
    for _ in range(rng.randint(0, max_len)):
        if rng.random() < 0.5:
            letters.append(("S", 1))
        else:
            letters.append(("U", rng.randint(1, 2)))
    return word_from_letters(letters)


class TestBoundaries:
    def setup_method(self):
        self.table = build_cosets(SubgroupSpec.gamma0(3))

    def test_zero_chain(self):
        c = Chain1.zero(self.table, 1)
        assert boundary1(c).is_zero()

    def test_single_slot(self):
        from oracles import ind_act

        rng = random.Random(61)
        v = IndVec(self.table, 1, None,
                   [random_poly(rng, 1) for _ in range(self.table.index)])
        z = IndVec.zero(self.table, 1)
        got = boundary1(Chain1(v, z))
        assert got == ind_act(S, v) - v

    def test_d1_after_d2_vanishes(self):
        rng = random.Random(62)
        for _ in range(30):
            k = rng.randint(0, 2)
            n1 = IndVec(self.table, k, None,
                        [random_poly(rng, k) for _ in range(self.table.index)])
            n2 = IndVec(self.table, k, None,
                        [random_poly(rng, k) for _ in range(self.table.index)])
            assert boundary1(boundary2((n1, n2))).is_zero()

    def test_d2_formula(self):
        from oracles import ind_act

        rng = random.Random(63)
        n1 = IndVec(self.table, 1, None,
                    [random_poly(rng, 1) for _ in range(self.table.index)])
        z = IndVec.zero(self.table, 1)
        got = boundary2((n1, z))
        assert got.mS == n1 + ind_act(S, n1)
        assert got.mU.is_zero()


class TestFoxExpand:
    def setup_method(self):
        self.table = build_cosets(SubgroupSpec.gamma0(3))

    def test_single_s(self):
        rng = random.Random(64)
        v = IndVec(self.table, 1, None,
                   [random_poly(rng, 1) for _ in range(self.table.index)])
        c = fox_expand((("S", 1),), v)
        assert c.mS == v and c.mU.is_zero()

    def test_su(self):
        from oracles import ind_act

        rng = random.Random(65)
        v = IndVec(self.table, 1, None,
                   [random_poly(rng, 1) for _ in range(self.table.index)])
        c = fox_expand((("S", 1), ("U", 1)), v)
        assert c.mS == ind_act(U, v)
        assert c.mU == v

    def test_u_squared(self):
        from oracles import ind_act

        rng = random.Random(66)
        v = IndVec(self.table, 2, None,
                   [random_poly(rng, 2) for _ in range(self.table.index)])
        c = fox_expand((("U", 2),), v)
        assert c.mS.is_zero()
        assert c.mU == ind_act(U, v) + v

    def test_telescoping(self):
        from oracles import ind_act

        rng = random.Random(67)
        for _ in range(60):
            k = rng.randint(0, 2)
            v = IndVec(self.table, k, None,
                       [random_poly(rng, k) for _ in range(self.table.index)])
            w = random_word(rng, 40)
            c = fox_expand(w, v)
            assert boundary1(c) == ind_act(evaluate_word(w), v) - v

    def test_unit_map_agrees(self):
        rng = random.Random(68)
        for _ in range(40):
            k = rng.randint(0, 2)
            p = random_poly(rng, k)
            w = random_word(rng, 25)
            direct = fox_expand(w, IndVec.unit(self.table, k, p))
            cached = fox_expand_unit(self.table, evaluate_word(w), p, k)
            assert direct == dense(cached, self.table, k)

    def test_boundary_of_fox_mod_p(self):
        from oracles import ind_act

        rng = random.Random(69)
        for _ in range(25):
            k = rng.randint(0, 2)
            blocks = [tuple(x % 5 for x in random_poly(rng, k))
                      for _ in range(self.table.index)]
            v = IndVec(self.table, k, 5, blocks)
            w = random_word(rng, 20)
            assert boundary1(fox_expand(w, v)) == ind_act(evaluate_word(w), v) - v


class TestComputeH1:
    def test_level_one_degree_zero(self):
        h1 = compute_h1(SubgroupSpec.gamma1(1), 0, ZZ)
        assert h1.invariant_factors == (6,)

    def test_level_one_weight_twelve_dimension(self):
        assert h1_dim_level_one(5) == 3
        h1 = compute_h1(SubgroupSpec.gamma1(1), 5, QQ)
        assert h1.rank == 3

    def test_level_one_weight_four_dimension(self):
        assert h1_dim_level_one(1) == 1
        h1 = compute_h1(SubgroupSpec.gamma1(1), 1, QQ)
        assert h1.rank == 1

    def test_level_one_weight_two(self):
        h1 = compute_h1(SubgroupSpec.gamma1(1), 0, QQ)
        assert h1.rank == 0

    def test_gamma0_11(self):
        # genus 1, two cusps: rank 2g + (#cusps - 1) = 3
        h1 = compute_h1(SubgroupSpec.gamma0(11), 0, QQ)
        assert h1.rank == 3

    def test_more_eichler_shimura(self):
        assert h1_dim_level_one(3) == 1   # weight 8: no cusp forms
        for k in (2, 3, 4):
            h1 = compute_h1(SubgroupSpec.gamma1(1), k, QQ)
            assert h1.rank == h1_dim_level_one(k)

    def test_transversal_independence(self):
        spec = SubgroupSpec.gamma1(5)
        base = compute_h1(spec, 1, ZZ)
        for seed in (1, 5):
            table = subgroup_cosets(spec.contains, shuffle_seed=seed)
            other = compute_h1(table, 1, ZZ)
            assert other.invariant_factors == base.invariant_factors

    def test_universal_coefficients(self):
        # H1 of the reduced complex = H1 tensor Z/m + Tor(H0, Z/m)
        from hypcycle.intlinalg import from_columns, identity as id_mat, subquotient
        from oracles import action_matrix_on_induced

        for spec, k in ((SubgroupSpec.gamma1(1), 1), (SubgroupSpec.gamma1(1), 2),
                        (SubgroupSpec.gamma0(2), 1), (SubgroupSpec.gamma1(4), 1)):
            hz = compute_h1(spec, k, ZZ)
            table = hz.table
            n = table.index
            d = 2 * k + 1
            N = n * d
            AS = action_matrix_on_induced(table, k, ("S", 1), None)
            AU = action_matrix_on_induced(table, k, ("U", 1), None)
            d1cols = []
            for j in range(N):
                col = [AS[i][j] for i in range(N)]
                col[j] -= 1
                d1cols.append(col)
            for j in range(N):
                col = [AU[i][j] for i in range(N)]
                col[j] -= 1
                d1cols.append(col)
            h0 = subquotient(id_mat(N), from_columns(d1cols, N))
            for p, M in ((2, 1), (3, 1), (2, 2), (5, 1)):
                m = p ** M
                ring = RingSpec("ZpM", p=p, M=M) if M > 1 else RingSpec("Fp", p=p)
                hm = compute_h1(table, k, ring)
                expect = sorted(
                    [gcd(dd, m) for dd in hz.invariant_factors if gcd(dd, m) > 1 or dd == 0]
                    + [gcd(dd, m) for dd in h0.invariant_factors if dd and gcd(dd, m) > 1])
                expect = [m if e == 0 else e for e in expect]
                got = sorted(m if e == 0 else e for e in hm.invariant_factors)
                # compare as multisets of prime powers (both p-groups)
                assert sorted(got) == sorted(expect), (spec.name, k, p, M, got, expect)

    def test_mod_p_reduction_injective(self):
        # the map H1(Z) tensor F_p -> H1(F_p) is injective: images of the
        # surviving integral generators stay F_p-linearly independent
        from hypcycle.intlinalg import ColumnEchelon, kernel_mod

        for spec, k, p in ((SubgroupSpec.gamma1(1), 5, 11),
                           (SubgroupSpec.gamma0(11), 0, 3),
                           (SubgroupSpec.gamma1(4), 1, 2)):
            hz = compute_h1(spec, k, ZZ)
            hp = compute_h1(hz.table, k, RingSpec("Fp", p=p))
            cols = []
            for i in range(hz.ngens):
                dd = hz.invariant_factors[i]
                if dd != 0 and dd % p:
                    continue  # this cyclic factor dies after tensoring
                chain = dense(hz.generator_chain(i), hz.table, k)
                chain = Chain1(
                    IndVec(hz.table, k, p, [tuple(x % p for x in b) for b in chain.mS.blocks]),
                    IndVec(hz.table, k, p, [tuple(x % p for x in b) for b in chain.mU.blocks]))
                cols.append(list(hp.coords(sparse(chain))))
            if not cols:
                continue
            g = hp.ngens
            K = kernel_mod([[cols[t][i] for t in range(len(cols))] for i in range(g)], p)
            # independence: the mod-p kernel of the column matrix is p*Z^t
            ech = ColumnEchelon(K)
            for t in range(len(cols)):
                e = [0] * len(cols)
                e[t] = 1
                assert ech.solve(e) is None, "reduction map not injective"


class TestCycleOf:
    def test_degree_zero_is_abelianization(self):
        table = build_cosets(SubgroupSpec.gamma1(1))
        h1 = compute_h1(SubgroupSpec.gamma1(1), 0, ZZ)
        rng = random.Random(71)
        cs = cycle_coords_of(h1, S, (1,))
        cu = cycle_coords_of(h1, U, (1,))
        for _ in range(50):
            g = random_psl(rng)
            w = decompose_word(g)
            ns = sum(e for gen, e in w if gen == "S")
            nu = sum(e for gen, e in w if gen == "U")
            coords = cycle_coords_of(h1, g, (1,))
            # abelianized class is determined by the exponent sums
            lin = h1.reduce_coords(tuple(ns * a + nu * b for a, b in zip(cs, cu)))
            assert coords == lin

    def test_hyperbolic_example_class_zero(self):
        h1 = compute_h1(SubgroupSpec.gamma1(1), 0, ZZ)
        g = PMat(2, 1, 1, 1)  # word S U S U^2: exponents (2, 3) = 0 in Z/6
        assert h1.cycle_coords(g) == (0,) * h1.ngens

    def test_power_linearity(self):
        h1 = compute_h1(SubgroupSpec.gamma1(1), 2, ZZ)
        rng = random.Random(72)
        checked = 0
        while checked < 20:
            g = random_psl(rng)
            if classify(g) != HYPERBOLIC:
                continue
            base = h1.cycle_coords(g)
            gp = g
            for dd in range(2, 6):
                gp = gp * g
                got = h1.cycle_coords(gp)
                expect = h1.reduce_coords(tuple(dd * x for x in base))
                assert got == expect
            checked += 1

    def test_invariance_required(self):
        h1 = compute_h1(SubgroupSpec.gamma1(1), 1, ZZ)
        g = PMat(2, 1, 1, 1)
        with pytest.raises(NotACycle):
            cycle_of(g, (1, 0, 0), h1.table, 1)

    def test_membership_required(self):
        h1 = compute_h1(SubgroupSpec.gamma0(11), 0, ZZ)
        with pytest.raises(NotACycle):
            cycle_of(S, (1,), h1.table, 0)

    @pytest.mark.parametrize("name", ["gamma0:11", "gamma1:5", "gammaH:13:3"])
    @pytest.mark.parametrize("ring", ["Z", "Zp:3:2"])
    def test_cycle_coords_is_z_gamma(self, name, ring):
        # z(gamma) = (gamma - 1) tensor q_gamma^k, on hyperbolic elements
        # and on the cusp stabilisers
        from hypcycle.boundary import cusp_data
        from hypcycle.ordinary import Budget, enumerate_hyperbolic

        spec = SubgroupSpec.parse(name)
        table = build_cosets(spec)
        elements = list(enumerate_hyperbolic(table, Budget(4)))
        elements += [c.stabilizer for c in cusp_data(table)]
        for k in range(3):
            h1 = compute_h1(table, k, RingSpec.parse(ring))
            m = h1.ring.modulus
            for g in elements:
                w = poly_pow(quadratic_form(g), k)
                assert h1.cycle_coords(g) == h1.coords(
                    cycle_of(g, w, h1.table, k, m))

    def test_translation_coefficient_is_x2_power(self):
        h1 = compute_h1(SubgroupSpec.gamma0(11), 2, ZZ)
        assert poly_pow(quadratic_form(T), 2) == x2_power(2)
        assert h1.cycle_coords(T) == cycle_coords_of(h1, T, x2_power(2))

    def test_elliptic_has_no_cycle(self):
        h1 = compute_h1(SubgroupSpec.gamma0(1), 1, ZZ)
        with pytest.raises(ValueError):
            h1.cycle_coords(S)

    def test_boundary_zero(self):
        h1 = compute_h1(SubgroupSpec.gamma0(11), 1, ZZ)
        rng = random.Random(73)
        checked = 0
        while checked < 15:
            g = random_psl(rng)
            if classify(g) != HYPERBOLIC or not SubgroupSpec.gamma0(11).contains(g):
                continue
            q = quadratic_form(g)
            c = cycle_of(g, q, h1.table, 1)
            assert boundary1(dense(c, h1.table, 1)).is_zero()
            checked += 1


class TestToGroupChain:
    def setup_method(self):
        self.spec = SubgroupSpec.gamma1(5)
        self.h1 = compute_h1(self.spec, 1, ZZ)

    def test_zero_chain(self):
        assert to_group_chain(sparse(Chain1.zero(self.h1.table, 1)),
                              self.h1.table, 1) == []

    def test_noncycle_rejected(self):
        v = IndVec.unit(self.h1.table, 1, (1, 0, 0))
        with pytest.raises(NotACycle):
            to_group_chain(sparse(Chain1(v, IndVec.zero(self.h1.table, 1))),
                           self.h1.table, 1)

    def test_cycle_check_modulo_m(self):
        # for a cycle c and a chain n that is no cycle over Z: c + 3n is
        # a cycle mod 3 but not over Z, and c + n is no cycle mod 3
        # whenever d1(n) is nonzero mod 3 (read by the dense oracle)
        table = self.h1.table
        c = self.h1.generator_chain(0)

        def plus(n, s):
            out = {key: list(v) for key, v in c.items()}
            for key, v in n.items():
                out[key] = [x + s * y for x, y in
                            zip(out.get(key, [0, 0, 0]), v)]
            return out

        seen = {3: 0, None: 0}
        for slot in "SU":
            for i in range(table.index):
                for t in range(3):
                    n = {(slot, i): [int(t == r) for r in range(3)]}
                    if boundary1(dense(n, table, 1)).is_zero():
                        continue
                    to_group_chain(plus(n, 3), table, 1, 3)
                    with pytest.raises(NotACycle):
                        to_group_chain(plus(n, 3), table, 1)
                    seen[None] += 1
                    if boundary1(dense(n, table, 1, 3)).is_zero():
                        continue
                    with pytest.raises(NotACycle):
                        to_group_chain(plus(n, 1), table, 1, 3)
                    seen[3] += 1
        assert seen[3] and seen[None]

    def test_roundtrip_single_cycles(self):
        rng = random.Random(74)
        checked = 0
        while checked < 15:
            g = random_psl(rng, steps=8)
            if classify(g) != HYPERBOLIC or not self.spec.contains(g):
                continue
            q = quadratic_form(g)
            c = cycle_of(g, q, self.h1.table, 1)
            terms = to_group_chain(c, self.h1.table, 1)
            for gamma, _ in terms:
                assert self.spec.contains(gamma)
            back = group_chain_to_chain1(terms, self.h1.table, 1)
            assert self.h1.coords(sparse(back)) == self.h1.coords(c)
            checked += 1

    def test_roundtrip_generators(self):
        for i in range(self.h1.ngens):
            c = self.h1.generator_chain(i)
            terms = to_group_chain(c, self.h1.table, 1)
            back = group_chain_to_chain1(terms, self.h1.table, 1)
            assert self.h1.coords(sparse(back)) == self.h1.coords(c)

    def test_coefficient_identity(self):
        from hypcycle.symspace import act
        from oracles import poly_add, zero_poly

        rng = random.Random(75)
        checked = 0
        while checked < 10:
            g = random_psl(rng, steps=8)
            if classify(g) != HYPERBOLIC or not self.spec.contains(g):
                continue
            c = cycle_of(g, quadratic_form(g), self.h1.table, 1)
            total = zero_poly(1)
            for gamma, v in to_group_chain(c, self.h1.table, 1):
                total = poly_add(total, act(gamma.lift(), v))
                total = poly_add(total, tuple(-x for x in v))
            assert not any(total)
            checked += 1


def project_by_coordinates(quo, chain):
    """The projection as one sum per ambient coordinate: its row at its
    block, minus its prow at its orbit root."""
    def dot(row, key):
        return sum(a * x for a, x in zip(row, chain.get(key, ())))

    out = [dot(c.row, (c.slot, c.block))
           - (dot(c.prow, (c.slot, c.root)) if c.prow else 0)
           for c in quo.coords]
    return [x % quo.modulus for x in out] if quo.modulus else out


@pytest.mark.parametrize("spec", [SubgroupSpec.gamma0(11),
                                  SubgroupSpec.gamma1(13)],
                         ids=["gamma0:11", "gamma1:13"])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("m", [None, 9], ids=["Z", "Z/9"])
def test_readers_match_coordinate_formula(spec, k, m):
    table = build_cosets(spec)
    quo = LocalQuotient(table, k, m)
    rng = random.Random(97 + 10 * k)
    lo, hi = (0, m - 1) if m else (-9, 9)
    for _ in range(20):
        chain = {(rng.choice("SU"), rng.randrange(table.index)):
                 [rng.randint(lo, hi) for _ in range(2 * k + 1)]
                 for _ in range(rng.randint(0, 2 * table.index))}
        assert quo.project(chain) == project_by_coordinates(quo, chain)


@pytest.mark.parametrize("name,ring", [("gamma0:11", "Z"),
                                       ("gamma1:5", "Zp:3:2")])
def test_lift_rejects_vectors_outside_the_residue_kernel(name, ring):
    # the one residue check on the way to a Hecke image: a free unit
    # vector whose residue column is nonzero (mod m) is no cycle, and
    # the lift of every generator is a cycle by the dense boundary
    h1 = compute_h1(SubgroupSpec.parse(name), 1, RingSpec.parse(ring))
    quo, m = h1.quotient, h1.ring.modulus
    outside = [j for j in range(quo.nfree)
               if any(row[j] % m if m else row[j] for row in quo.residues)]
    assert outside
    for j in outside:
        with pytest.raises(NotACycle):
            quo.lift([int(t == j) for t in range(quo.ambient_rank)])
    for i in range(h1.ngens):
        chain = h1.generator_chain(i)
        assert boundary1(dense(chain, h1.table, 1, m)).is_zero()


@pytest.mark.parametrize("name", ["gamma0:7", "gamma1:5", "gammaH:13:3",
                                  "T2 table1 on gamma0:7"])
def test_letter_steps_match_transversal(name):
    # every step (j, g, rho(g)) against the transversal itself:
    # g^-1 t_j == t_i gen^e with g in the subgroup
    if name.startswith("T2"):
        h1 = compute_h1(SubgroupSpec.gamma0(7), 0, ZZ)
        table = DoubleCoset(h1, h1, Mat2(1, 0, 0, 2)).table1
    else:
        table = build_cosets(SubgroupSpec.parse(name))
    for k, m in ((0, None), (1, None), (2, 9)):
        steps = letter_steps(table, k, m)
        for i, t in enumerate(table.transversal):
            for gen, e in (("S", 1), ("U", 1), ("U", 2)):
                j, g, M = steps[i, gen, e]
                x = S if gen == "S" else U
                assert g.inv() * table.transversal[j] == t * (x if e == 1
                                                              else x * x)
                assert table.contains(g)
                assert M == rho(g, k, m)


def test_steps_kept_per_k_and_modulus():
    # over Z/9 the local quotient reads the Z steps, the Fox walk of a
    # cycle its own steps mod 9, both on the one table
    h1 = compute_h1(SubgroupSpec.gamma0(11), 1, RingSpec.parse("Zp:3:2"))
    table = h1.table
    assert h1.quotient.steps is table.letter_steps[1, None]
    g = PMat(3, 1, 11, 4)
    h1.cycle_coords(g)
    assert set(table.letter_steps) == {(1, None), (1, 9)}
    z_steps, mod9 = table.letter_steps[1, None], table.letter_steps[1, 9]
    assert any(x < 0 for _, _, M in z_steps.values() if M
               for row in M for x in row)
    assert all(0 <= x < 9 for _, _, M in mod9.values() if M
               for row in M for x in row)
