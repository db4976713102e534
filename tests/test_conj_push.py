"""Hecke images against the independent oracle ``oracles.HeckeOracle``,
which restricts a cycle by the bar-complex transfer, conjugates each
term and walks it letter by letter on the target's table (``fox_expand``),
over every kind of double coset; the run walk of ``walk.RunSums``
against that letter walk, on words with long runs and runs of hundreds
of whole laps, on Hecke conjugates, and shared by four operators on one
H1; the subgroup form that ``hecke.restricted_form`` reads off a
source cycle, against the transfer; and the soundness lemma the push
rests on: the walk on the target's own table is the corestricted walk on
Gamma_2's."""

import random
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
    restricted_form,
)
from hypcycle.homology import LocalQuotient, compute_h1
from hypcycle.intlinalg import RingSpec, ZZ
from hypcycle.psl2 import I, Mat2, S, T, U
from hypcycle.symspace import corestriction_map
from hypcycle.walk import RunSums
from oracles import (
    TP,
    HeckeOracle,
    IndVec,
    apply_blockwise,
    beta_matrix,
    decompose_word,
    dense,
    double_coset_predicates,
    fox_expand,
    gamma0p_intersection,
    generator_chain,
    power,
    sparse,
    subgroup_cosets,
)

PUSH = settings(max_examples=30, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.filter_too_much])
FOX = settings(max_examples=60, deadline=None, derandomize=True)
RUNS = settings(max_examples=60, deadline=None, derandomize=True)

OPS = ["hecke", "diamond", "pi", "phi", "V", "cusp"]
# level times (p+1)^2 bounds the tables of V, the largest kind, before
# any is built; the target's blocks times the cosets times 2k+1 bounds
# the oracle's letter walk, and Gamma_2's index, that of Gamma_1, the
# membership scans that build its table
MAX_LEVEL_WORK = 200
MAX_WORK = 1200
MAX_GAMMA2_INDEX = 200

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
    # the operator against the Hecke oracle, which walks each conjugate
    # letter by letter on Gamma''s table; each element's Fox map is read
    # into coordinates once per batch, so batches of 1, 2k and 2k+1
    # copies of a cycle's subgroup form give copies of its image
    spec, k, ring, p, op = case
    assume(spec.N * (p + 1) ** 2 <= MAX_LEVEL_WORK)
    dc = double_coset(spec, k, ring, p, op)
    assume(dc.target.table.index * dc.coset_count * (2 * k + 1) <= MAX_WORK)
    source, target = dc.source, dc.target
    want = HeckeOracle(source, target, dc.alpha).matrix()
    assert dc.operator().matrix == want
    for i in range(min(source.ngens, 2)):
        form = restricted_form(generator_chain(source, i),
                               source.quotient.steps, dc.rhos, dc.moves)
        for size in (1, 2 * k, 2 * k + 1):
            got = conj_star([form] * size, dc.alpha, dc.runs,
                            target.quotient.ambient_rank)
            assert [list(target.coords(v)) for v in got] == [
                [row[i] for row in want]] * size


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
    # the four matrices read through one RunSums, against the Hecke
    # oracle's letter walk
    h1 = compute_h1(SubgroupSpec.gamma1(7), 1, ZZ)
    for name, matrix in shared_matrices(ZZ, sorted(SHARED_OPS)).items():
        oracle = HeckeOracle(h1, h1, SHARED_OPS[name](h1).alpha)
        assert matrix == oracle.matrix(), name


@pytest.mark.parametrize("name,p,k,ring", [
    ("gamma0:11", 5, 1, ZZ),
    ("gamma0:11", 7, 0, ZZ),
    ("gamma0:9", 3, 2, RingSpec("ZpM", p=3, M=2)),
    ("gamma0:6", 5, 1, RingSpec("Fp", p=5)),
    ("gamma0:2", 13, 3, ZZ),
])
def test_run_walk_on_hecke_conjugates(name, p, k, ring):
    # the conjugates that a Hecke matrix walks (of the elements that the
    # reps' moves give, and of the elements of Gamma_1 that the oracle's
    # transfer of each generator gives), through the double coset's
    # RunSums on the target's own table, against the letter walk there:
    # their runs start all over the orbits, so they read differences of
    # two prefix sums and runs that pass an orbit's end, on Gamma_0(N)
    # many times over at the orbit of width 1
    h1 = compute_h1(SubgroupSpec.parse(name), k, ring)
    dc = DoubleCoset(h1, h1, Mat2(1, 0, 0, p))
    oracle = HeckeOracle(h1, h1, dc.alpha)
    m = ring.modulus
    rng = random.Random(p)
    poly = [rng.randint(-9, 9) for _ in range(2 * k + 1)]
    moved = [gamma for g in h1.table.schreier_generators()
             for gamma in dc.moves(g)]
    moved += [h for i in range(h1.ngens)
              for h, _ in oracle.restricted(generator_chain(h1, i))]
    elements = {gamma.key(): gamma for gamma in moved
                if not gamma.is_identity()}
    for gamma in elements.values():
        cg = conjugate_by(dc.alpha, gamma)
        chain = fox_expand(decompose_word(cg),
                           IndVec.unit(h1.table, k, poly, modulus=m))
        assert (read_by_runs(dc.runs, cg, poly, h1.quotient.ambient_rank)
                == h1.quotient.project(sparse(chain)))


@PUSH
@given(push_cases())
def test_restricted_form_matches_oracle(case):
    # the subgroup form read off the source cycle has its elements in
    # Gamma_1 (by its membership test) and, pushed by hecke.conj_star,
    # the image of the bar-complex transfer of the cycle's subgroup form
    # (oracles.transfer, on reps found by that membership test alone)
    spec, k, ring, p, op = case
    assume(spec.N * (p + 1) ** 2 <= MAX_LEVEL_WORK)
    dc = double_coset(spec, k, ring, p, op)
    source, target = dc.source, dc.target
    oracle = HeckeOracle(source, target, dc.alpha)
    chains = [generator_chain(source, i) for i in range(min(source.ngens, 3))]
    forms = [restricted_form(c, source.quotient.steps, dc.rhos, dc.moves)
             for c in chains]
    assert all(oracle.contains(gamma) for form in forms for gamma, _ in form)
    rank = target.quotient.ambient_rank
    got = conj_star(forms, dc.alpha, dc.runs, rank)
    want = conj_star([oracle.restricted(c) for c in chains], dc.alpha,
                     dc.runs, rank)
    assert ([target.coords(v) for v in got]
            == [target.coords(v) for v in want])


@PUSH
@given(push_cases(), words, st.data())
def test_corestricted_fox_map_is_target_fox_map(case, word, data):
    # the soundness lemma of the walk on the target's own table: the Fox
    # chain of an element on the table of Gamma_2 (built by its
    # membership test), corestricted to Gamma', is its Fox chain on the
    # table of Gamma'
    spec, k, ring, p, op = case
    assume(spec.N * (p + 1) ** 2 <= MAX_LEVEL_WORK)
    dc = double_coset(spec, k, ring, p, op)
    assume(dc.source.table.index * dc.coset_count <= MAX_GAMMA2_INDEX)
    m = ring.modulus
    poly = data.draw(polys(k, ring))
    target = dc.target.table
    _, pred2 = double_coset_predicates(dc.source.table.contains,
                                       target.contains, dc.alpha)
    table2 = subgroup_cosets(pred2)
    entries = corestriction_map(table2, target, k, m)
    for g in [evaluate(word)] + table2.schreier_generators()[:4]:
        word_g = decompose_word(g)
        fox2 = fox_expand(word_g, IndVec.unit(table2, k, poly, modulus=m))
        pushed = apply_blockwise(entries, sparse(fox2), m)
        direct = fox_expand(word_g, IndVec.unit(target, k, poly, modulus=m))
        assert dense(pushed, target, k, m) == direct
