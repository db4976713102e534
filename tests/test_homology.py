import random
from functools import cache
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcycle.cosets import SubgroupSpec, build_cosets
from hypcycle.homology import (
    LocalQuotient,
    NotACycle,
    compute_h1,
    cycle_of,
    lap_sums,
    letter_steps,
)
from hypcycle.intlinalg import RingSpec, QQ, ZZ, identity, mat_mul
from hypcycle.psl2 import (
    HYPERBOLIC,
    I,
    Mat2,
    PMat,
    S,
    T,
    U,
    classify,
    quadratic_form,
)
from hypcycle.symspace import act, poly_pow, rho
from oracles import (
    TP,
    Chain1,
    IndVec,
    boundary1,
    boundary2,
    cycle_coords_of,
    decompose_word,
    dense,
    dense_h1,
    double_coset_predicates,
    evaluate_word,
    fox_expand,
    generator_chain,
    group_chain_to_chain1,
    lift_cycle,
    power,
    sparse,
    subgroup_cosets,
    to_group_chain,
    word_from_letters,
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
        # on a unit vector, the letter walk of a word and the run walk of
        # the element it spells give the same coordinates
        quotients = {k: LocalQuotient(self.table, k) for k in range(3)}
        rng = random.Random(68)
        for _ in range(40):
            k = rng.randint(0, 2)
            p = random_poly(rng, k)
            w = random_word(rng, 25)
            quo = quotients[k]
            direct = quo.project(sparse(fox_expand(w, IndVec.unit(
                self.table, k, p))))
            runs = [0] * quo.ambient_rank
            for idx, row in quo.runs.project(evaluate_word(w)):
                runs[idx] = sum(a * x for a, x in zip(row, p))
            assert direct == runs

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

    @pytest.mark.parametrize("N, k", [(1, 9), (7, 3), (13, 0), (13, 6),
                                      (37, 2)])
    def test_q_is_the_free_part_over_z(self, N, k):
        # over Q the local torsion takes unit relations; H1 keeps the
        # free generators of H1 over Z, the basis the default hecke
        # report prints, and a cycle keeps its free coordinates
        table = build_cosets(SubgroupSpec.gamma0(N))
        hz, hq = compute_h1(table, k, ZZ), compute_h1(table, k, QQ)
        assert any(c.order for c in hz.quotient.coords)
        free = [i for i, d in enumerate(hz.invariant_factors) if d == 0]
        assert hq.invariant_factors == (0,) * len(free)
        assert hq.module.gen_lift == [[row[i] for i in free]
                                      for row in hz.module.gen_lift]
        for j in (1, 2, 5):
            g = PMat(1, j, N, 1 + j * N)
            z = hz.cycle_coords(g)
            assert hq.cycle_coords(g) == tuple(z[i] for i in free)

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
                chain = dense(generator_chain(hz, i), hz.table, k)
                chain = Chain1(
                    IndVec(hz.table, k, p, [tuple(x % p for x in b) for b in chain.mS.blocks]),
                    IndVec(hz.table, k, p, [tuple(x % p for x in b) for b in chain.mU.blocks]))
                cols.append(list(hp.coords(hp.quotient.project(sparse(chain)))))
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
            cycle_of(g, (1, 0, 0), h1.quotient)

    def test_membership_required(self):
        h1 = compute_h1(SubgroupSpec.gamma0(11), 0, ZZ)
        with pytest.raises(NotACycle):
            cycle_of(S, (1,), h1.quotient)

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
            for g in elements:
                w = poly_pow(quadratic_form(g), k)
                assert h1.cycle_coords(g) == cycle_coords_of(h1, g, w)

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
            c = fox_expand(decompose_word(g), IndVec.unit(h1.table, 1, q))
            assert boundary1(c).is_zero()
            # the run walk's coordinates lie in the kernel of the
            # residues: the oracle's lift_cycle raises NotACycle outside it
            lift_cycle(h1.quotient, cycle_of(g, q, h1.quotient))
            checked += 1

    @pytest.mark.parametrize("ring", ["Z", "Q", "Fp:5", "Zp:3:2"])
    @pytest.mark.parametrize("name,k", [("gamma0:1", 5), ("gamma0:11", 0),
                                        ("gamma0:11", 1), ("gamma0:11", 2),
                                        ("gamma1:5", 1)])
    def test_cycle_of_a_power_is_the_multiple(self, name, k, ring):
        # z(gamma^n) = n z(gamma): gamma^n - 1 = (1 + gamma + ... +
        # gamma^(n-1))(gamma - 1), and each gamma^j fixes q_gamma.  A law
        # that holds whatever walk reads z: T^n makes n laps of the
        # orbit of width 1 at infinity, the n-th power of the stabiliser
        # of a cusp of width w about n laps of an orbit of width w, and
        # hyperbolic powers have long words
        from hypcycle.boundary import cusp_data
        from hypcycle.ordinary import Budget, enumerate_hyperbolic

        table = build_cosets(SubgroupSpec.parse(name))
        h1 = compute_h1(table, k, RingSpec.parse(ring))
        stabs = sorted((c.stabilizer for c in cusp_data(table)),
                       key=lambda g: -abs(g.c))
        cases = [(T, n, PMat(1, n, 0, 1))
                 for n in (1, 2, 3, 7, 64, 1000, 99991, 100000)]
        cases += [(g, n, power(g, n)) for g, n in
                  [(stabs[0], n) for n in (2, 5, 13, 400)]
                  + [(g, n) for g in enumerate_hyperbolic(table, Budget(3))
                     for n in (2, 3, 6)]]
        for g, n, gn in cases:
            z = h1.cycle_coords(g)
            assert h1.cycle_coords(gn) == h1.reduce_coords(
                [n * x for x in z]), (g, n)


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
        c = generator_chain(self.h1, 0)

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
            c = group_chain_to_chain1([(g, q)], self.h1.table, 1)
            terms = to_group_chain(sparse(c), self.h1.table, 1)
            for gamma, _ in terms:
                assert self.spec.contains(gamma)
            back = group_chain_to_chain1(terms, self.h1.table, 1)
            h1 = self.h1
            assert (h1.coords(h1.quotient.project(sparse(back)))
                    == h1.coords(h1.quotient.project(sparse(c))))
            checked += 1

    def test_roundtrip_generators(self):
        for i in range(self.h1.ngens):
            c = generator_chain(self.h1, i)
            terms = to_group_chain(c, self.h1.table, 1)
            back = group_chain_to_chain1(terms, self.h1.table, 1)
            h1 = self.h1
            assert (h1.coords(h1.quotient.project(sparse(back)))
                    == h1.coords(h1.quotient.project(c)))

    def test_coefficient_identity(self):
        from oracles import poly_add, zero_poly

        rng = random.Random(75)
        checked = 0
        while checked < 10:
            g = random_psl(rng, steps=8)
            if classify(g) != HYPERBOLIC or not self.spec.contains(g):
                continue
            c = group_chain_to_chain1([(g, quadratic_form(g))],
                                      self.h1.table, 1)
            total = zero_poly(1)
            for gamma, v in to_group_chain(sparse(c), self.h1.table, 1):
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
    # a residue is the dense boundary that the tree leaves at the
    # identity coset: a free unit vector whose residue column is nonzero
    # (mod m) lifts to no cycle (oracles.lift_cycle), and every
    # generator lifts to a cycle by the dense boundary
    h1 = compute_h1(SubgroupSpec.parse(name), 1, RingSpec.parse(ring))
    quo, m = h1.quotient, h1.ring.modulus
    outside = [j for j in range(quo.nfree)
               if any(row[j] % m if m else row[j] for row in quo.residues)]
    assert outside
    for j in outside:
        with pytest.raises(NotACycle):
            lift_cycle(quo, [int(t == j) for t in range(quo.ambient_rank)])
    for i in range(h1.ngens):
        chain = generator_chain(h1, i)
        assert boundary1(dense(chain, h1.table, 1, m)).is_zero()


@pytest.mark.parametrize("name", ["gamma0:7", "gamma1:5", "gammaH:13:3",
                                  "T2 table1 on gamma0:7"])
def test_letter_steps_match_transversal(name):
    # every step (j, g, rho(g)) against the transversal itself:
    # g^-1 t_j == t_i gen^e with g in the subgroup
    if name.startswith("T2"):
        # Gamma_1 of T_2, known by its membership test alone
        contains = build_cosets(SubgroupSpec.gamma0(7)).contains
        pred1, _ = double_coset_predicates(contains, contains,
                                           Mat2(1, 0, 0, 2))
        table = subgroup_cosets(pred1)
    else:
        table = build_cosets(SubgroupSpec.parse(name))
    for k, m in ((0, None), (1, None), (2, 9)):
        steps = letter_steps(table, k, m)
        # built whole: a plain dict with every letter at every coset
        assert type(steps) is dict and len(steps) == 3 * table.index
        for i, t in enumerate(table.transversal):
            for gen, e in (("S", 1), ("U", 1), ("U", 2)):
                j, g, M = steps[i, gen, e]
                x = S if gen == "S" else U
                assert g.inv() * table.transversal[j] == t * (x if e == 1
                                                              else x * x)
                assert table.contains(g)
                assert M == rho(g, k, m)


@cache
def _table(name):
    return build_cosets(SubgroupSpec.parse(name))


# every group here but Gamma_0(1) and Gamma_0(2) has a coset whose first
# step to a smaller coset is twisted, so a tree that takes it fails
@pytest.mark.parametrize("ring", ["Z", "Q", "Fp:5", "Zp:3:2"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("name", ["gamma0:1", "gamma0:2", "gamma0:11",
                                  "gamma0:23", "gamma0:37", "gamma0:64",
                                  "gamma1:9", "gamma1:13", "gammaH:13:3"])
def test_tree_is_untwisted_and_residues_are_twist_minus_one(name, k, ring):
    # every coset b > 0 has a tree edge x with t_b x^-1 == t_parent for
    # a smaller parent (read off the transversal itself), and the
    # residue column of each free generator off the tree is
    # (rho(g) - 1) times its lift, mod m, where t_i x^-1 == g^-1 t_j
    table = _table(name)
    h1 = compute_h1(table, k, RingSpec.parse(ring))
    quo, m = h1.quotient, h1.ring.modulus
    assert sorted(quo.tree) == list(range(1, table.index))
    inverse = {"S": S, "U": U * U}
    for b, slot in quo.tree.items():
        parent, twist = table.coset_of(table.transversal[b] * inverse[slot])
        assert parent < b and twist.is_identity(), (b, slot)
    assert len(quo.residues) == 2 * k + 1
    for j, c in enumerate(quo.coords[:quo.nfree]):
        _, twist = table.coset_of(table.transversal[c.block]
                                  * inverse[c.slot])
        moved = act(twist.inv(), c.lift, m)
        want = [x - y for x, y in zip(moved, c.lift)]
        assert [row[j] for row in quo.residues] == (
            [x % m for x in want] if m else want), (j, c)


@pytest.mark.parametrize("name,k,ring", [("gamma0:11", 1, "Z"),
                                         ("gamma1:13", 0, "Z"),
                                         ("gamma0:9", 1, "Zp:3:2"),
                                         ("gamma0:1", 5, "Z")])
def test_run_orbits_built_whole(name, k, ring):
    # entering every block on both T-orbits builds each orbit whole:
    # the orbits of T^s partition the blocks, b_(u+1) is the coset of
    # t_(b_u) T^-s, and Pi_t Pi_t^-1 = I (mod m) at every t <= w
    h1 = compute_h1(SubgroupSpec.parse(name), k, RingSpec.parse(ring))
    table, runs, m = h1.table, h1.quotient.runs, h1.ring.modulus
    d = 2 * k + 1
    for s in (1, -1):
        orbits = {}
        for b in range(table.index):
            orbit, u = runs._position(s, b)
            assert orbit.blocks[u] == b
            orbits[id(orbit)] = orbit
        blocks = [b for orbit in orbits.values() for b in orbit.blocks]
        assert sorted(blocks) == list(range(table.index))
        for orbit in orbits.values():
            w = len(orbit.blocks)
            assert len(orbit.pi) == len(orbit.pinv) == len(orbit.ps) == w + 1
            for u, b in enumerate(orbit.blocks):
                after = table.transversal[b] * power(T, -s)
                assert table.coset_of(after)[0] == orbit.blocks[(u + 1) % w]
            for P, Q in zip(orbit.pi, orbit.pinv):
                assert (P is None) == (Q is None)
                if P is not None:
                    prod = mat_mul(P, Q)
                    if m:
                        prod = [[x % m for x in row] for row in prod]
                    assert prod == identity(d)


def test_quotient_builds_one_step_table_at_its_modulus():
    # over Z/9 the local quotient builds its steps mod 9, and its run
    # walk reads those same steps
    h1 = compute_h1(SubgroupSpec.gamma0(11), 1, RingSpec.parse("Zp:3:2"))
    quo = h1.quotient
    assert quo.runs.steps is quo.steps
    assert len(quo.steps) == 3 * h1.table.index
    assert any(M for _, _, M in quo.steps.values())
    assert all(0 <= x < 9 for _, _, M in quo.steps.values() if M
               for row in M for x in row)


# the elliptic levels: the fixed cosets' Smith forms, taken over Z,
# give the 2- and 3-torsion that a ring of modulus 4, 9 or 3 sees
ELLIPTIC = [("gamma0:1", k) for k in range(5)] + [
    (name, k) for name in ("gamma0:2", "gamma0:3", "gamma0:13", "gammaH:13:3")
    for k in range(4)]


@pytest.mark.parametrize("ring", ["Zp:2:2", "Zp:3:2", "Fp:3"])
@pytest.mark.parametrize("name,k", ELLIPTIC)
def test_fixed_cosets_mod_m_match_dense_route(name, k, ring):
    table = _table(name)
    ring = RingSpec.parse(ring)
    got = compute_h1(table, k, ring).invariant_factors
    assert got == dense_h1(table, k, ring).invariant_factors


@pytest.mark.parametrize("modulus", [None, 7, 27])
@pytest.mark.parametrize("k", range(7))
def test_lap_sums_closed_form(k, modulus):
    # (I + P + ... + P^(n-1), P^n) against the naive sums, for P = rho
    # of parabolic elements t T^w t^-1, as the lap twists of the T-orbits
    # are (None at k = 0, standing for the identity); one powers list
    # serves every n of one P, read in no order.  The sums up to 3d are
    # taken term by term, the one at 1000 by doubling: S_2m = S_m +
    # P^m S_m and S_(m+1) = S_m + P^m
    d = 2 * k + 1

    def reduced(M):
        return [[x % modulus for x in row] for row in M] if modulus else M

    def add(A, B):
        return [[x + y for x, y in zip(r, s)] for r, s in zip(A, B)]

    for t, w in ((I, 1), (PMat(2, 1, 5, 3), -3), (PMat(1, 0, 11, 1), 11)):
        P = rho(t * PMat(1, w, 0, 1) * t.inv(), k, modulus)
        assert (P is None) == (k == 0)
        step = P or identity(d)
        naive, total, power = {}, [[0] * d for _ in range(d)], identity(d)
        for n in range(3 * d + 1):
            naive[n] = reduced(total), power if P else None
            total = add(total, power)
            power = reduced(mat_mul(step, power))
        total, power = [[0] * d for _ in range(d)], identity(d)
        for bit in bin(1000)[2:]:
            total = reduced(add(total, mat_mul(power, total)))
            power = reduced(mat_mul(power, power))
            if bit == "1":
                total = reduced(add(total, power))
                power = reduced(mat_mul(step, power))
        naive[1000] = total, power if P else None
        powers = []
        for n in sorted(naive, key=lambda n: (n * 7) % 11):
            assert lap_sums(P, n, d, powers, modulus) == naive[n], n
        assert len(powers) <= max(d, 2)  # N^0 .. N^(d-1), and N itself


@cache
def _runs(name, k, m):
    return LocalQuotient(build_cosets(SubgroupSpec.parse(name)), k, m).runs


# letters S, U and runs T^q up to 40 long, past the width of every T-orbit
# of these groups (at most 13), so the lap sums carry the walk too
LETTERS = st.one_of(st.just(S), st.just(U),
                    st.integers(-40, 40).map(lambda q: PMat(1, q, 0, 1)))


@settings(max_examples=6, deadline=None, derandomize=True)
@given(st.lists(LETTERS, max_size=6), st.integers(0, 2 ** 32))
def _check_columns(runs, letters, seed):
    # project(g, V) against project(g) times V, for V of every width
    d, m = runs.d, runs.modulus
    rng = random.Random(seed)
    lo, hi = (0, m - 1) if m else (-9, 9)
    g = I
    for x in letters:
        g = g * x
    V = [[rng.randint(lo, hi) for _ in range(d)] for _ in range(d)]
    for h in (g, power(T, 50) * S * power(T, -37) * g):
        full = dict(runs.project(h))
        want = {idx: [sum(map(mul, row, col)) for col in zip(*V)]
                for idx, row in full.items()}
        for w in range(1, d + 1):  # V's first w columns
            got = dict(runs.project(h, [row[:w] for row in V]))
            for idx in set(want) | set(got):
                pair = (want.get(idx, [0] * d)[:w], got.get(idx, [0] * w))
                if m:
                    pair = [[x % m for x in v] for v in pair]
                assert pair[0] == pair[1], (h, w, idx)


@pytest.mark.parametrize("name", ["gamma0:11", "gamma1:5", "gammaH:13:3",
                                  "gamma0:1"])
@pytest.mark.parametrize("k", [0, 1, 2, 5])
@pytest.mark.parametrize("m", [None, 9], ids=["Z", "Z/9"])
def test_run_walk_of_columns_is_the_map_times_them(name, k, m):
    # cycles and narrow batches of Hecke terms walk only the columns
    # they apply the projected Fox map to
    _check_columns(_runs(name, k, m))
