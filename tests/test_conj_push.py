"""The conjugation push of ``hecke.conj_star``, read straight into target
coordinates, against ``oracles.conj_star_letter_walk``, which expands
every term letter by letter on the table of Gamma_2 and corestricts the
whole chain, over every kind of double coset; and the Fox-map
identities the push rests on."""

from math import gcd

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hypcycle.boundary import cusp_data
from hypcycle.cosets import SubgroupSpec, build_cosets
from hypcycle.hecke import (
    DoubleCoset,
    conj_star,
    diamond_matrix,
)
from hypcycle.homology import compute_h1, fox_expand_unit
from hypcycle.intlinalg import RingSpec, ZZ, identity
from hypcycle.psl2 import I, Mat2, S, T, TP, U, decompose_word
from oracles import (
    IndVec,
    beta_matrix,
    conj_star_letter_walk,
    dense,
    fox_expand,
    gamma0p_intersection,
    sparse,
)

PUSH = settings(max_examples=30, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.filter_too_much])
FOX = settings(max_examples=60, deadline=None, derandomize=True)

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
    assume(dc.table2.index * (2 * k + 1) <= MAX_WORK)
    quotient = dc.target.quotient
    for i, unit in enumerate(identity(dc.source.ngens)[:3]):
        rc = dc.res_map.apply(dc.source.generator_chain(i))
        walk = conj_star_letter_walk(dense(rc, dc.table1, k, ring.modulus),
                                     dc.alpha, dc.cor_map)
        expect = quotient.project(sparse(walk))
        # an element used at least 2k+1 times in a batch has its Fox map
        # read into coordinates once; batches of 1, 2k and 2k+1 copies
        # of the cycle sit below and at that count
        for size in (1, 2 * k, 2 * k + 1):
            got = conj_star([rc] * size, dc.table1, dc.alpha, dc.table2,
                            dc.readers, quotient)
            assert got == [expect] * size
        assert dc.apply_coords(unit) == dc.target.module.coords(expect)


@FOX
@given(groups(), st.integers(0, 2), rings(), words, st.data())
def test_fox_unit_map_matches_letter_walk(spec, k, ring, word, data):
    table = build_cosets(spec)
    m = ring.modulus
    g = evaluate(word)
    poly = data.draw(polys(k, ring))
    expect = fox_expand(decompose_word(g), IndVec.unit(table, k, poly, modulus=m))
    assert dense(fox_expand_unit(table, g, poly, k, m), table, k, m) == expect
    # the second expansion reads the map cached under the element
    assert dense(fox_expand_unit(table, g, poly, k, m), table, k, m) == expect


@PUSH
@given(push_cases(), words, st.data())
def test_corestricted_fox_map_is_target_fox_map(case, word, data):
    spec, k, ring, p, op = case
    assume(spec.N * (p + 1) ** 2 <= MAX_LEVEL_WORK)
    dc = double_coset(spec, k, ring, p, op)
    m = ring.modulus
    cor = dc.cor_map
    poly = data.draw(polys(k, ring))
    for g in [evaluate(word)] + dc.table2.schreier_generators()[:4]:
        fox2 = fox_expand_unit(dc.table2, g, poly, k, m)
        pushed = dense(cor.apply(fox2), dc.target.table, k, m)
        direct = fox_expand_unit(dc.target.table, g, poly, k, m)
        assert pushed == dense(direct, dc.target.table, k, m)
