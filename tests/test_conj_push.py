"""The conjugation push of ``hecke.conj_star``, read straight into target
coordinates, against ``oracles.conj_star_letter_walk``, which expands
every term letter by letter on the table of Gamma_2 and corestricts the
whole chain, over every kind of double coset; the run walk of
``homology.RunSums``, against the letter walk ``oracles.fox_expand``
projected through the same readers, on words with long runs and runs of
hundreds of whole laps, on Hecke conjugates (on the target's own table
and, through the corestriction, on Gamma_2's), and shared by four
operators on one H1; the subgroup form that ``homology.restricted_form``
reads off a source cycle, against the restricted chain rewritten by
``oracles.to_group_chain`` on Gamma_1's table on the transversal s_r t_i
that the double coset reads; and the Fox-map identities the push rests
on, among them that the walk on the target's own table is the
corestricted walk on Gamma_2's."""

import random
from collections import Counter
from math import gcd
from operator import mul

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hypcycle.boundary import cusp_data
from hypcycle.cosets import SubgroupSpec, build_cosets
from hypcycle.hecke import (
    DoubleCoset,
    conj_star,
    conjugate_by,
    diamond_coset,
    diamond_matrix,
    hecke_coset,
)
from hypcycle.homology import (
    LocalQuotient,
    RunSums,
    compute_h1,
    restricted_form,
)
from hypcycle.intlinalg import RingSpec, ZZ, identity
from hypcycle.psl2 import I, Mat2, S, T, U
from hypcycle.symspace import corestriction_map
from oracles import (
    TP,
    IndVec,
    apply_blockwise,
    beta_matrix,
    conj_star_letter_walk,
    corestricted_quotient,
    decompose_word,
    dense,
    fox_expand,
    fox_expand_unit,
    gamma0p_intersection,
    gamma1_restriction,
    gamma1_table,
    gamma2_table,
    power,
    product_table,
    restriction_entries,
    sparse,
    to_group_chain,
)

PUSH = settings(max_examples=30, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.filter_too_much])
FOX = settings(max_examples=60, deadline=None, derandomize=True)
RUNS = settings(max_examples=60, deadline=None, derandomize=True)

OPS = ["hecke", "diamond", "pi", "phi", "V", "cusp"]
# level times (p+1)^2 bounds the tables of V, the largest kind, before
# any is built; blocks of the Gamma_2 table times 2k+1 bounds the
# letter walk of the oracle
MAX_LEVEL_WORK = 200
MAX_WORK = 1200

words = st.lists(st.sampled_from([S, U, T, TP, T.inv(), TP.inv()]),
                 min_size=0, max_size=12)


def evaluate(word):
    g = I
    for x in word:
        g = g * x
    return g


@st.composite
def rings(draw):
    ell = draw(st.sampled_from([2, 3, 5]))
    return draw(st.sampled_from([ZZ, RingSpec("Fp", p=ell),
                                 RingSpec("ZpM", p=ell, M=2)]))


@st.composite
def groups(draw):
    kind = draw(st.sampled_from(["gamma0", "gamma1"]))
    return SubgroupSpec.parse("%s:%d" % (kind, draw(st.integers(1, 13))))


@st.composite
def push_cases(draw):
    return (draw(groups()), draw(st.integers(0, 2)), draw(rings()),
            draw(st.sampled_from([2, 3])), draw(st.sampled_from(OPS)))


def polys(k, ring):
    hi = ring.modulus - 1 if ring.modulus else 6
    lo = 0 if ring.modulus else -6
    return st.tuples(*[st.integers(lo, hi)] * (2 * k + 1))


def double_coset(spec, k, ring, p, op):
    """The double coset of the given kind on H1(spec) with degree 2k."""
    h1 = compute_h1(spec, k, ring)
    N = spec.N
    if op == "hecke":
        return DoubleCoset(h1, h1, Mat2(1, 0, 0, p))
    if op == "diamond":
        units = [d for d in range(2, N) if gcd(d, N) == 1]
        assume(units)
        return DoubleCoset(h1, h1, diamond_matrix(N, units[-1]))
    if op == "cusp":
        reps = [c.representative for c in cusp_data(h1.table)
                if not c.representative.is_identity()]
        assume(reps)
        return DoubleCoset(h1, h1, reps[-1].lift())
    assume(N % p)
    h1p = compute_h1(gamma0p_intersection(spec, p), k, ring)
    if op == "pi":
        return DoubleCoset(h1p, h1, I.lift())
    if op == "phi":
        return DoubleCoset(h1, h1p, Mat2(1, 0, 0, p))
    return DoubleCoset(h1p, h1p, beta_matrix(N, p) * Mat2(p, 0, 0, 1))


@PUSH
@given(push_cases())
def test_conj_star_matches_letter_walk(case):
    spec, k, ring, p, op = case
    assume(spec.N * (p + 1) ** 2 <= MAX_LEVEL_WORK)
    dc = double_coset(spec, k, ring, p, op)
    assume(gamma2_table(dc).index * (2 * k + 1) <= MAX_WORK)
    quotient, m = dc.target.quotient, ring.modulus
    table1, entries = gamma1_restriction(dc)
    for i, unit in enumerate(identity(dc.source.ngens)[:3]):
        rc = apply_blockwise(entries, dc.source.generator_chain(i), m)
        walk = conj_star_letter_walk(dense(rc, table1, k, m), dc)
        expect = quotient.project(sparse(walk))
        # each element's Fox map is read into coordinates once per
        # batch; batches of 1, 2k and 2k+1 copies of the cycle reuse it
        form = to_group_chain(rc, table1, k, m)
        for size in (1, 2 * k, 2 * k + 1):
            got = conj_star([form] * size, dc.alpha, dc.runs,
                            quotient.ambient_rank)
            assert got == [expect] * size
        assert dc.apply_coords(unit) == dc.target.module.coords(expect)


def read_by_runs(runs, g, poly, rank):
    """The coordinates of (g - 1) tensor poly that a RunSums reads."""
    got = [0] * rank
    for idx, row in runs.project(g):
        got[idx] += sum(map(mul, row, poly))
    m = runs.modulus
    return [x % m for x in got] if m else got


# long runs T^(+-q), which wrap past the T-orbits (of length 1 on
# Gamma_0(1), 1 and 2 on Gamma_0(2), 1 and 11 on Gamma_0(11)), short
# runs inside the orbit of length 23 on Gamma_0(23), and runs that meet
# at merged S and U^2 letters (T^a S T^b, T^a U^2 T^b)
run_words = st.lists(st.tuples(st.sampled_from([T, TP, S, U]),
                               st.integers(-30, 30) | st.integers(-3, 3)),
                     min_size=1, max_size=6)


@RUNS
@given(st.sampled_from(["gamma0:1", "gamma0:2", "gamma0:11", "gamma0:23"]),
       st.integers(0, 3), rings(), st.lists(run_words, min_size=1,
                                             max_size=4), st.data())
def test_run_walk_matches_letter_walk(name, k, ring, words, data):
    table = build_cosets(SubgroupSpec.parse(name))
    m = ring.modulus
    quotient = LocalQuotient(table, k, m)
    runs = RunSums(quotient)
    # one RunSums for all the words: later words read the sums and
    # orbits that earlier ones left
    for word in words:
        g = I
        for x, e in word:
            g = g * power(x, e)
        poly = data.draw(polys(k, ring))
        chain = fox_expand(decompose_word(g),
                           IndVec.unit(table, k, poly, modulus=m))
        assert (read_by_runs(runs, g, poly, quotient.ambient_rank)
                == quotient.project(sparse(chain)))


# runs of about 500 steps on the orbits of width 1 (the cusp at infinity
# of Gamma_0(1) and Gamma_0(11)) and 11 (the cusp 0 of Gamma_0(11)),
# entered at several positions; later words need more laps of an orbit
# than earlier ones, or fewer
LAP_WORDS = [
    [(T, 497)],
    [(T, -503), (S, 1), (T, 250)],
    [(T, 12), (TP, 311), (U, 1), (T, -499), (S, 1), (T, 511)],
    [(S, 1), (T, 11 * 37 + 5), (U, 2), (T, -60), (TP, -480)],
]


@pytest.mark.parametrize("ring", [ZZ, RingSpec("Fp", p=5),
                                  RingSpec("ZpM", p=3, M=2)],
                         ids=["Z", "F5", "Z/9"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("name", ["gamma0:1", "gamma0:11"])
def test_whole_laps_match_letter_walk(name, k, ring):
    # a run that passes b_0 n times adds the lap sums R_n = PS_w (I + P
    # + ... + P^(n-1)) in one step; one RunSums reads every word
    table = build_cosets(SubgroupSpec.parse(name))
    m = ring.modulus
    quotient = LocalQuotient(table, k, m)
    runs = RunSums(quotient)
    rng = random.Random(k)
    for word in LAP_WORDS:
        g = I
        for x, e in word:
            g = g * power(x, e)
        poly = [rng.randint(-9, 9) for _ in range(2 * k + 1)]
        chain = fox_expand(decompose_word(g),
                           IndVec.unit(table, k, poly, modulus=m))
        assert (read_by_runs(runs, g, poly, quotient.ambient_rank)
                == quotient.project(sparse(chain)))
    # the runs made whole laps: at least 497 of the orbit of width 1
    laps = [n for orbit, _ in runs.orbits.values() for n in orbit.laps]
    assert max(laps) >= 497


def operator_by_letter_walk(dc):
    """The matrix of a double coset, column by column from the letter
    walk on Gamma_2 (oracles.conj_star_letter_walk) of the restriction
    to Gamma_1's breadth-first table (oracles.gamma1_restriction)."""
    source, target = dc.source, dc.target
    k, m = source.k, source.ring.modulus
    table1, entries = gamma1_restriction(dc)
    cols = []
    for i in range(source.ngens):
        rc = apply_blockwise(entries, source.generator_chain(i), m)
        walk = conj_star_letter_walk(dense(rc, table1, k, m), dc)
        cols.append(list(target.module.coords(
            target.quotient.project(sparse(walk)))))
    return [list(row) for row in zip(*cols)]


# T_2, T_3, U_7 and <3> on Gamma_1(7)
SHARED_OPS = {"T2": lambda h1: hecke_coset(2, h1),
              "T3": lambda h1: hecke_coset(3, h1),
              "U7": lambda h1: hecke_coset(7, h1),
              "<3>": lambda h1: diamond_coset(3, h1)}


def shared_matrices(ring, order):
    """The matrices of SHARED_OPS on one H1 of Gamma_1(7) with k = 1,
    the double cosets built in the given order; they share one
    RunSums."""
    h1 = compute_h1(SubgroupSpec.gamma1(7), 1, ring)
    cosets = {name: SHARED_OPS[name](h1) for name in order}
    assert all(dc.runs is h1.quotient.runs for dc in cosets.values())
    return {name: cosets[name].operator().matrix for name in order}


@pytest.mark.parametrize("ring", [ZZ, RingSpec("ZpM", p=3, M=2)],
                         ids=["Z", "Z/9"])
def test_operators_share_one_run_sums(ring):
    # each operator reads the orbits and sums that the ones before it
    # left, so the order they are built and mapped in changes nothing
    assert (shared_matrices(ring, sorted(SHARED_OPS))
            == shared_matrices(ring, sorted(SHARED_OPS, reverse=True)))


def test_shared_run_sums_match_letter_walk():
    h1 = compute_h1(SubgroupSpec.gamma1(7), 1, ZZ)
    for name, matrix in shared_matrices(ZZ, sorted(SHARED_OPS)).items():
        assert matrix == operator_by_letter_walk(SHARED_OPS[name](h1)), name


@pytest.mark.parametrize("name,p,k,ring", [
    ("gamma0:11", 5, 1, ZZ),
    ("gamma0:11", 7, 0, ZZ),
    ("gamma0:9", 3, 2, RingSpec("ZpM", p=3, M=2)),
    ("gamma0:6", 5, 1, RingSpec("Fp", p=5)),
    ("gamma0:2", 13, 3, ZZ),
])
def test_run_walk_on_hecke_conjugates(name, p, k, ring):
    # the conjugates that a Hecke matrix walks (of the elements that
    # the reps' moves give, and of the Schreier generators of Gamma_1's
    # breadth-first table), through the double coset's RunSums on the
    # target's own table and through one on Gamma_2 read through the
    # corestriction, against the letter walk on Gamma_2, corestricted:
    # their runs start all over the orbits, so they read differences of
    # two prefix sums and runs that pass an orbit's end, on Gamma_0(N)
    # many times over at the orbit of width 1
    h1 = compute_h1(SubgroupSpec.parse(name), k, ring)
    dc = DoubleCoset(h1, h1, Mat2(1, 0, 0, p))
    m = ring.modulus
    gamma2 = corestricted_quotient(dc)
    rng = random.Random(p)
    poly = [rng.randint(-9, 9) for _ in range(2 * k + 1)]
    moved = [gamma for g in h1.table.schreier_generators()
             for gamma in dc.moves(g) if not gamma.is_identity()]
    for gamma in moved + gamma1_table(dc).schreier_generators():
        cg = conjugate_by(dc.alpha, gamma)
        chain = fox_expand(decompose_word(cg),
                           IndVec.unit(gamma2.table, k, poly, modulus=m))
        image = apply_blockwise(gamma2.readers.entries, sparse(chain), m)
        for runs in (dc.runs, RunSums(gamma2)):
            assert (read_by_runs(runs, cg, poly, h1.quotient.ambient_rank)
                    == h1.quotient.project(image))


def form_terms(form, m):
    """The multiset of terms (gamma key, vector mod m) of a subgroup
    form, zero vectors dropped."""
    terms = ((g.key(), tuple(x % m for x in v) if m else tuple(v))
             for g, v in form)
    return Counter(t for t in terms if any(t[1]))


@PUSH
@given(push_cases())
def test_restricted_form_matches_oracle(case):
    # the subgroup form read off the source cycle, against the old
    # route: restrict the cycle blockwise to a chain on Gamma_1, then
    # rewrite that chain by its letter steps.  Gamma_1's table is the
    # one on the transversal s_r t_i that the double coset reads, its
    # steps found by coset lookups on the intersection key, and the
    # restriction's entries by coset lookups on it
    spec, k, ring, p, op = case
    assume(spec.N * (p + 1) ** 2 <= MAX_LEVEL_WORK)
    dc = double_coset(spec, k, ring, p, op)
    m = ring.modulus
    table1 = product_table(dc)
    entries = restriction_entries(dc.source.table, table1, k, m, dc.reps)
    for i in range(min(dc.source.ngens, 3)):
        c = dc.source.generator_chain(i)
        got = restricted_form(c, dc.source.quotient.steps, dc.rhos,
                              dc.moves)
        want = to_group_chain(apply_blockwise(entries, c, m), table1, k, m)
        assert form_terms(got, m) == form_terms(want, m)


@FOX
@given(groups(), st.integers(0, 2), rings(), words, st.data())
def test_fox_unit_map_matches_letter_walk(spec, k, ring, word, data):
    table = build_cosets(spec)
    m = ring.modulus
    g = evaluate(word)
    poly = data.draw(polys(k, ring))
    expect = fox_expand(decompose_word(g), IndVec.unit(table, k, poly, modulus=m))
    assert dense(fox_expand_unit(table, g, poly, k, m), table, k, m) == expect
    # the second expansion reads the letter steps the first one cached
    assert dense(fox_expand_unit(table, g, poly, k, m), table, k, m) == expect


@PUSH
@given(push_cases(), words, st.data())
def test_corestricted_fox_map_is_target_fox_map(case, word, data):
    spec, k, ring, p, op = case
    assume(spec.N * (p + 1) ** 2 <= MAX_LEVEL_WORK)
    dc = double_coset(spec, k, ring, p, op)
    m = ring.modulus
    poly = data.draw(polys(k, ring))
    table2 = gamma2_table(dc)
    entries = corestriction_map(table2, dc.target.table, k, m)
    for g in [evaluate(word)] + table2.schreier_generators()[:4]:
        fox2 = fox_expand_unit(table2, g, poly, k, m)
        pushed = dense(apply_blockwise(entries, fox2, m),
                       dc.target.table, k, m)
        direct = fox_expand_unit(dc.target.table, g, poly, k, m)
        assert pushed == dense(direct, dc.target.table, k, m)
