import json
import random
import zlib

import pytest

from hypcycle import cli
from hypcycle.boundary import cusp_data
from hypcycle.cosets import SubgroupSpec, build_cosets
from hypcycle.hecke import (
    ConjugateLeavesGroup,
    DoubleCoset,
    WrongDivisibility,
    conj_star,
    conjugate_by,
    diamond_coset,
    diamond_matrix,
    hecke_coset,
)
from hypcycle.homology import NotACycle, compute_h1
from hypcycle.intlinalg import QQ, RingSpec, ZZ, identity
from hypcycle.psl2 import (
    HYPERBOLIC,
    I,
    Mat2,
    T,
    classify,
    quadratic_form,
)
from hypcycle.symspace import act, poly_pow
from hypcycle.walk import RunSums
from oracles import (
    TP,
    HeckeOracle,
    IndVec,
    beta_matrix,
    compose,
    coset_reps,
    cycle_coords_of,
    decompose_word,
    equals,
    fox_expand,
    gamma0p_intersection,
    identity_operator,
    is_zero,
    pi_phi_V,
    plus,
    scaled,
    sparse,
    to_group_chain,
    transfer,
    x2_power,
)


def random_hyperbolic_in(spec, rng, count, steps=8):
    out = []
    while len(out) < count:
        g = I
        for _ in range(rng.randint(2, steps)):
            g = g * (T if rng.random() < 0.5 else TP)
        if classify(g) == HYPERBOLIC and spec.contains(g):
            out.append(g)
    return out


def orbit_formula_image(alpha, gamma, w, src_table, tgt_contains):
    """Independent oracle: the pushforward of the single-term cycle
    (gamma - 1) x w through [Gamma' alpha Gamma], via the permutation
    of subgroup-coset representatives.  Returns [(delta, w')] terms."""

    def pred1(g):
        if src_table.coset_of(g)[0] != 0:
            return False
        cg = conjugate_by(alpha, g)
        return cg is not None and tgt_contains(cg)

    reps = coset_reps(pred1, src_table.schreier_generators())
    r = len(reps)
    nu = {}
    for i, s in enumerate(reps):
        x = s * gamma.inv()
        for j, s2 in enumerate(reps):
            if pred1(x * s2.inv()):
                nu[i] = j
                break
    seen = set()
    out = []
    for i in range(r):
        if i in seen:
            continue
        h = 0
        j = i
        while True:
            seen.add(j)
            j = nu[j]
            h += 1
            if j == i:
                break
        gp = gamma
        for _ in range(h - 1):
            gp = gp * gamma
        delta = conjugate_by(alpha, reps[i] * gp * reps[i].inv())
        assert delta is not None
        out.append((delta, act(alpha * reps[i].lift(), w)))
    return out


class TestCosetCounts:
    def test_tp_counts(self):
        for spec, p in ((SubgroupSpec.gamma1(1), 2), (SubgroupSpec.gamma1(1), 3),
                        (SubgroupSpec.gamma0(11), 2), (SubgroupSpec.gamma1(5), 3)):
            h1 = compute_h1(spec, 0, ZZ)
            dc = hecke_coset(p, h1)
            assert dc.coset_count == p + 1

    def test_up_counts(self):
        for spec, p in ((SubgroupSpec.gamma1(4), 2), (SubgroupSpec.gamma0(9), 3),
                        (SubgroupSpec.gamma1(6), 2), (SubgroupSpec.gamma1(6), 3)):
            h1 = compute_h1(spec, 0, ZZ)
            dc = hecke_coset(p, h1)
            assert dc.coset_count == p

    def test_divisibility_guards(self, capsys):
        # the guard lives in the CLI: hecke_coset itself is T_p or U_p
        # by divisibility
        for op, p, message in (("Tp", 2, "T_p requires p coprime to the level"),
                               ("Up", 3, "U_p requires p dividing the level")):
            argv = "hecke --group gamma1:4 --k 0 --op %s --p %d" % (op, p)
            assert cli.main(argv.split()) == 3
            assert json.loads(capsys.readouterr().out)["error"] == message


class TestIdentityOperator:
    def test_trivial_double_coset(self):
        h1 = compute_h1(SubgroupSpec.gamma0(11), 0, ZZ)
        op = DoubleCoset(h1, h1, I.lift()).operator()
        assert equals(op, identity_operator(h1))


class TestCharpolys:
    def test_level_one_weight_twelve(self):
        h1 = compute_h1(SubgroupSpec.gamma1(1), 5, QQ)
        assert hecke_coset(2, h1).operator().charpoly_str() == "(x-2049)*(x+24)^2"
        # tau(3) = 252, Eisenstein 1 + 3^11 = 177148
        assert hecke_coset(3, h1).operator().charpoly_str() == "(x-177148)*(x-252)^2"

    def test_gamma0_11(self):
        h1 = compute_h1(SubgroupSpec.gamma0(11), 0, QQ)
        assert hecke_coset(2, h1).operator().charpoly_str() == "(x-3)*(x+2)^2"
        # a_3(11a) = -1, Eisenstein 1 + 3 = 4
        assert hecke_coset(3, h1).operator().charpoly_str() == "(x-4)*(x+1)^2"

    def test_level_one_weight_four(self):
        # only the Eisenstein class: T_p eigenvalue 1 + p^3
        h1 = compute_h1(SubgroupSpec.gamma1(1), 1, QQ)
        assert hecke_coset(2, h1).operator().charpoly_str() == "x-9"
        assert hecke_coset(5, h1).operator().charpoly_str() == "x-126"


def points_11a(p):
    """#E(F_p) for 11a, y^2 + y = x^3 - x^2 - 10x - 20, by counting
    affine solutions and the point at infinity."""
    return 1 + sum(1 for x in range(p) for y in range(p)
                   if (y * y + y - (x ** 3 - x * x - 10 * x - 20)) % p == 0)


def poly_times(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


class TestLargePrimeOracles:
    """Charpolys at large p against values computed outside the Hecke
    code: point counts on 11a and the Eisenstein eigenvalue 1 + p^3."""

    @pytest.mark.parametrize("p, a_p", [(53, -6), (97, -7)])
    def test_gamma0_11_point_count(self, p, a_p):
        assert p + 1 - points_11a(p) == a_p
        h1 = compute_h1(SubgroupSpec.gamma0(11), 0, ZZ)
        cusp_form = [1, -a_p]
        expect = poly_times([1, -(p + 1)], poly_times(cusp_form, cusp_form))
        assert hecke_coset(p, h1).operator().charpoly() == expect

    def test_level_one_weight_four_at_97(self):
        h1 = compute_h1(SubgroupSpec.gamma1(1), 1, ZZ)
        assert hecke_coset(97, h1).operator().charpoly() == [1, -(1 + 97 ** 3)]


class TestTransfer:
    def test_cor_res_is_index_level_one(self):
        spec_sub = SubgroupSpec.gamma0(2)
        for k in (0, 1):
            h1 = compute_h1(SubgroupSpec.gamma1(1), k, ZZ)
            h1s = compute_h1(spec_sub, k, ZZ)
            res = DoubleCoset(h1, h1s, I.lift()).operator()
            cor = DoubleCoset(h1s, h1, I.lift()).operator()
            got = compose(cor, res)
            assert equals(got, scaled(identity_operator(h1), 3))

    def test_cor_res_gamma0_11(self):
        h1 = compute_h1(SubgroupSpec.gamma0(11), 0, ZZ)
        h1s = compute_h1(SubgroupSpec.gamma1(11), 0, ZZ)
        res = DoubleCoset(h1, h1s, I.lift()).operator()
        cor = DoubleCoset(h1s, h1, I.lift()).operator()
        got = compose(cor, res)
        assert equals(got, scaled(identity_operator(h1), 5))

    def test_transfer_requires_cycle(self):
        # the oracle restricts a cycle only: a chain with nonzero
        # boundary has no subgroup form
        h1 = compute_h1(SubgroupSpec.gamma1(1), 1, ZZ)
        sub = compute_h1(SubgroupSpec.gamma0(2), 1, ZZ)
        oracle = HeckeOracle(h1, sub, I.lift())
        with pytest.raises(NotACycle):
            oracle.restricted({("S", 0): [1, 0, 0]})

    def test_chain_level_transfer_is_cycle(self):
        # the bar-complex transfer of a cycle (gamma, q_gamma) on level
        # one to Gamma_0(2) is a cycle there: its terms lie in
        # Gamma_0(2), and sum (h w - w) = 0
        spec = SubgroupSpec.gamma0(2)
        level_one = build_cosets(SubgroupSpec.gamma1(1))
        reps = coset_reps(spec.contains, level_one.schreier_generators())
        assert len(reps) == 3
        rng = random.Random(81)
        for g in random_hyperbolic_in(SubgroupSpec.gamma1(1), rng, 5):
            terms = transfer([(g, quadratic_form(g))], reps, spec.contains)
            assert terms and all(spec.contains(h) for h, _ in terms)
            total = [0, 0, 0]
            for h, w in terms:
                total = [t + x - y
                         for t, x, y in zip(total, act(h.lift(), w), w)]
            assert total == [0, 0, 0]


class TestConjStar:
    def test_identity_alpha(self):
        h1 = compute_h1(SubgroupSpec.gamma0(11), 0, ZZ)
        runs = RunSums(h1.quotient)
        rng = random.Random(82)
        for g in random_hyperbolic_in(SubgroupSpec.gamma0(11), rng, 4):
            c = sparse(fox_expand(decompose_word(g),
                                  IndVec.unit(h1.table, 0, (1,))))
            out, = conj_star([to_group_chain(c, h1.table, 0)], I.lift(),
                             runs, h1.quotient.ambient_rank)
            assert h1.coords(out) == h1.coords(h1.quotient.project(c))

    def test_inner_automorphism_trivial(self):
        spec = SubgroupSpec.gamma0(11)
        h1 = compute_h1(spec, 0, ZZ)
        rng = random.Random(83)
        alpha = random_hyperbolic_in(spec, rng, 1)[0]
        op = DoubleCoset(h1, h1, alpha.lift()).operator()
        assert equals(op, identity_operator(h1))

    def test_conjugate_leaves_group(self):
        h1 = compute_h1(SubgroupSpec.gamma1(1), 1, ZZ)
        g = T * T * TP
        c = sparse(fox_expand(decompose_word(g),
                              IndVec.unit(h1.table, 1, quadratic_form(g))))
        tgt = compute_h1(SubgroupSpec.gamma0(11), 1, ZZ)
        runs = RunSums(tgt.quotient)
        with pytest.raises(ConjugateLeavesGroup):
            conj_star([to_group_chain(c, h1.table, 1)], Mat2(1, 0, 0, 2),
                      runs, tgt.quotient.ambient_rank)


def single_class_op(name, k, ring, op):
    """A fresh double coset of the given kind on H1(name) with degree 2k:
    T_p or U_p ("hecke:p"), <d> ("diamond:d"), or the double coset of
    the last cusp representative ("cusp")."""
    h1 = compute_h1(SubgroupSpec.parse(name), k, ring)
    kind, _, arg = op.partition(":")
    if kind == "hecke":
        return hecke_coset(int(arg), h1)
    if kind == "diamond":
        return DoubleCoset(h1, h1, diamond_matrix(h1.spec.N, int(arg)))
    rep = [c.representative for c in cusp_data(h1.table)][-1]
    return DoubleCoset(h1, h1, rep.lift())


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("name,ring,op", [
    ("gamma0:11", ZZ, "hecke:2"),
    ("gamma0:9", RingSpec("ZpM", p=3, M=2), "hecke:3"),
    ("gamma1:7", RingSpec("Fp", p=5), "diamond:3"),
    ("gamma0:4", ZZ, "cusp"),
])
def test_apply_coords_matches_operator_columns(name, ring, op, k):
    # the image of one class, mapped alone through a double coset of its
    # own, is the column of the operator matrix that maps every
    # generator in one batch
    matrix = single_class_op(name, k, ring, op).operator().matrix
    dc = single_class_op(name, k, ring, op)
    for i, unit in enumerate(identity(dc.source.ngens)):
        assert list(dc.apply_coords(unit)) == [row[i] for row in matrix]


class TestDiamond:
    def test_diamond_one(self):
        h1 = compute_h1(SubgroupSpec.gamma1(5), 1, ZZ)
        assert equals(diamond_coset(1, h1).operator(), identity_operator(h1))

    def test_diamond_on_gamma0_trivial(self):
        h1 = compute_h1(SubgroupSpec.gamma0(7), 1, ZZ)
        for d in (2, 3, 5):
            assert equals(diamond_coset(d, h1).operator(), identity_operator(h1))

    def test_beta_independence(self):
        h1 = compute_h1(SubgroupSpec.gamma1(9), 1, ZZ)
        base = diamond_matrix(9, 2)
        # any beta in Gamma_0(9) with lower row (9, 2): shift the top row
        other = Mat2(base.a + 9, base.b + 2, 9, 2)
        assert other.det() == 1
        d1 = diamond_coset(2, h1).operator()
        d2 = DoubleCoset(h1, h1, other).operator()
        assert equals(d1, d2)

    def test_diamond_reuses_the_group_table(self, monkeypatch):
        # beta in Gamma_0(N) normalizes Gamma_1(N): the intersection
        # groups are Gamma_1(N) itself, and no table is built for them;
        # the operator is the Hecke oracle's
        from hypcycle.cosets import CosetTable

        h1 = compute_h1(SubgroupSpec.gamma1(9), 1, ZZ)
        built = []
        init = CosetTable.__init__
        monkeypatch.setattr(CosetTable, "__init__", lambda self, *args:
                            built.append(args[0]) or init(self, *args))
        dc = DoubleCoset(h1, h1, diamond_matrix(9, 2))
        # one coset, the identity's, and no table of Gamma_1 built
        assert dc.reps == [I] and built == []
        oracle = HeckeOracle(h1, h1, dc.alpha)
        assert oracle.reps == [I]
        assert all(oracle.contains(g) for g in h1.table.schreier_generators())
        assert dc.operator().matrix == oracle.matrix()
        assert built == []

    @pytest.mark.parametrize("group,k,ring,d", [
        ("gamma1:9", 1, ZZ, 8),
        ("gamma1:13", 1, ZZ, 12),
        ("gamma1:16", 1, RingSpec("Fp", p=3), 15),
        ("gammaH:13:3", 1, ZZ, 3),
        ("gammaH:13:3", 1, ZZ, 9),
        ("gammaH:13:3", 1, ZZ, 10),
        ("gamma1:7", 1, QQ, 6),
        ("gammaH:13:3", 1, RingSpec("ZpM", p=3, M=2), 10),
    ])
    def test_diamond_in_the_group_is_the_identity(self, group, k, ring, d):
        # d in +-H: beta lies in the group, so its double coset is the
        # group itself, and the DoubleCoset that diamond_coset builds
        # gives exactly the identity matrix
        spec = SubgroupSpec.parse(group)
        h1 = compute_h1(spec, k, ring)
        beta = diamond_matrix(spec.N, d)
        assert spec.contains(beta)
        identity = identity_operator(h1).matrix
        assert DoubleCoset(h1, h1, beta).operator().matrix == identity
        op = diamond_coset(d, h1)
        assert isinstance(op, DoubleCoset)
        assert op.operator().matrix == identity

    def test_diamond_commutes_with_tp(self):
        h1 = compute_h1(SubgroupSpec.gamma1(5), 1, ZZ)
        Tp = hecke_coset(2, h1).operator()
        D = diamond_coset(2, h1).operator()
        assert equals(compose(Tp, D), compose(D, Tp))

    def test_diamond_group_structure(self):
        # <d> depends only on d mod N and is multiplicative
        h1 = compute_h1(SubgroupSpec.gamma1(5), 1, ZZ)
        d2 = diamond_coset(2, h1).operator()
        d4 = diamond_coset(4, h1).operator()
        d7 = diamond_coset(7, h1).operator()
        assert equals(compose(d2, d2), d4)
        assert equals(d2, d7)


class TestCommutativity:
    def test_tl_tq_level_one(self):
        h1 = compute_h1(SubgroupSpec.gamma1(1), 1, ZZ)
        T2, T3 = hecke_coset(2, h1).operator(), hecke_coset(3, h1).operator()
        assert equals(compose(T2, T3), compose(T3, T2))

    def test_tl_tq_gamma0_11(self):
        h1 = compute_h1(SubgroupSpec.gamma0(11), 0, ZZ)
        T2, T3 = hecke_coset(2, h1).operator(), hecke_coset(3, h1).operator()
        assert equals(compose(T2, T3), compose(T3, T2))


class TestOrbitFormulaOracle:
    """Operator pipeline vs the independent coset-orbit pushforward."""

    @pytest.mark.parametrize("spec_name,k,p", [
        ("gamma1:1", 1, 2),
        ("gamma1:1", 2, 3),
        ("gamma0:11", 0, 2),
        ("gamma1:5", 1, 2),
    ])
    def test_tp_on_hyperbolic_cycles(self, spec_name, k, p):
        spec = SubgroupSpec.parse(spec_name)
        h1 = compute_h1(spec, k, ZZ)
        op = hecke_coset(p, h1).operator()
        # a fixed seed per parameter set: str hashes change with
        # PYTHONHASHSEED, and a failure must replay
        rng = random.Random(zlib.crc32(repr((spec_name, k, p)).encode()))
        for g in random_hyperbolic_in(spec, rng, 3):
            w = poly_pow(quadratic_form(g), k)
            z = list(h1.cycle_coords(g))
            via_matrix = op.apply_coords(z)
            acc = (0,) * h1.ngens
            for delta, w2 in orbit_formula_image(Mat2(1, 0, 0, p), g, w,
                                                 h1.table, h1.table.contains):
                c = cycle_coords_of(h1, delta, w2)
                acc = tuple(a + b for a, b in zip(acc, c))
            assert h1.reduce_coords(acc) == tuple(via_matrix)

    def test_up_on_hyperbolic_cycles(self):
        spec = SubgroupSpec.gamma1(4)
        h1 = compute_h1(spec, 1, ZZ)
        op = hecke_coset(2, h1).operator()
        rng = random.Random(84)
        for g in random_hyperbolic_in(spec, rng, 3, steps=10):
            w = quadratic_form(g)
            z = list(h1.cycle_coords(g))
            via_matrix = op.apply_coords(z)
            acc = (0,) * h1.ngens
            for delta, w2 in orbit_formula_image(Mat2(1, 0, 0, 2), g, w,
                                                 h1.table, h1.table.contains):
                acc = tuple(a + b for a, b in
                            zip(acc, cycle_coords_of(h1, delta, w2)))
            assert h1.reduce_coords(acc) == tuple(via_matrix)


class TestHeckeStability:
    def test_images_in_saturated_span(self):
        # the hyperbolic-cycle span, saturated, absorbs Hecke images
        from hypcycle.intlinalg import ColumnEchelon, from_columns
        from oracles import saturate_columns

        spec = SubgroupSpec.gamma1(1)
        for k, p in ((1, 2), (2, 2), (5, 2)):
            h1 = compute_h1(spec, k, ZZ)
            rng = random.Random(100 + k)
            gens = random_hyperbolic_in(spec, rng, 12, steps=9)
            cols = [list(h1.cycle_coords(g)) for g in gens]
            rel = h1.module.relation_columns()
            span = from_columns(cols + rel, h1.ngens) if (cols + rel) else [[] for _ in range(h1.ngens)]
            sat = saturate_columns(span)
            ech = ColumnEchelon(sat)
            op = hecke_coset(p, h1).operator()
            for g in gens[:6]:
                z = list(h1.cycle_coords(g))
                image = list(op.apply_coords(z))
                assert ech.solve(image) is not None


class TestPiPhiV:
    @pytest.mark.parametrize("p", [2, 3])
    def test_level_one_k1_identities(self, p):
        ring = RingSpec("Fp", p=p)
        h1 = compute_h1(SubgroupSpec.gamma1(1), 1, ring)
        r = pi_phi_V(h1, p)
        Tp = hecke_coset(p, h1).operator()
        assert equals(compose(r.pi, r.phi), Tp)
        assert equals(compose(r.phi, r.pi), plus(r.Up, r.V))
        assert is_zero(compose(r.V, r.V))
        assert is_zero(compose(r.V, r.Up))

    def test_phi_coset_count(self):
        h1 = compute_h1(SubgroupSpec.gamma1(1), 1, RingSpec("Fp", p=2))
        specp = gamma0p_intersection(SubgroupSpec.gamma1(1), 2)
        h1p = compute_h1(specp, 1, RingSpec("Fp", p=2))
        dc = DoubleCoset(h1, h1p, Mat2(1, 0, 0, 2))
        assert dc.coset_count == 3  # p + 1 cosets split off the level

    def test_up_v_composite_consistency(self):
        # U_p o V equals the direct double coset of the product matrix;
        # it is NOT zero (see the decisions ledger: the claimed vanishing
        # fails, only V o U_p = 0 holds)
        p = 2
        ring = RingSpec("Fp", p=p)
        h1 = compute_h1(SubgroupSpec.gamma1(1), 1, ring)
        r = pi_phi_V(h1, p)
        beta = beta_matrix(1, p)
        alpha = Mat2(1, 0, 0, p) * beta * Mat2(p, 0, 0, 1)
        direct = DoubleCoset(r.h1p, r.h1p, alpha).operator()
        assert equals(compose(r.Up, r.V), direct)

    def test_pi_phi_v_wrong_divisibility(self):
        h1 = compute_h1(SubgroupSpec.gamma1(4), 1, RingSpec("Fp", p=2))
        with pytest.raises(WrongDivisibility):
            pi_phi_V(h1, 2)


class TestBoundaryIdentityCore:
    """T_p z(T) = (1 + p^(2k+1) <p>) z(T) on Gamma_1(N^2)."""

    @pytest.mark.parametrize("N,p,k", [(2, 3, 0), (2, 3, 1)])
    def test_small_cases(self, N, p, k):
        spec = SubgroupSpec.gamma1(N * N)
        h1 = compute_h1(spec, k, ZZ)
        z = list(cycle_coords_of(h1, T, x2_power(k)))
        lhs = hecke_coset(p, h1).operator().apply_coords(z)
        dz = diamond_coset(p, h1).operator().apply_coords(z)
        rhs = h1.reduce_coords([a + p ** (2 * k + 1) * b for a, b in zip(z, dz)])
        assert tuple(lhs) == tuple(rhs)
