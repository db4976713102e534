"""Keyed coset tables against the predicate enumeration of
``oracles.subgroup_cosets``, which decides coset equality by membership
alone: the same transversal and multiplication tables for Gamma_H(N),
the same Gamma_1 cosets by the double coset's own key on Gamma as by the
membership test of Gamma_1 inside every kind of double coset, and the
same cosets as a walk along the word of an element."""

from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from hypcycle.cosets import SubgroupSpec, build_cosets
from hypcycle.hecke import (
    DoubleCoset,
    diamond_matrix,
    hermite_split,
)
from hypcycle.homology import compute_h1
from hypcycle.intlinalg import ZZ
from hypcycle.psl2 import I, Mat2, S, T, U
from oracles import (
    TP,
    beta_matrix,
    double_coset_predicates,
    gamma0p_intersection,
    subgroup_cosets,
)

KEYS = settings(max_examples=40, deadline=None, derandomize=True)
HECKE = settings(max_examples=20, deadline=None, derandomize=True)


@st.composite
def specs(draw, max_level=16):
    N = draw(st.integers(1, max_level))
    kind = draw(st.sampled_from(["gamma0", "gamma1", "gammaH"]))
    if kind == "gammaH":
        units = [a for a in range(1, N) if gcd(a, N) == 1]
        gens = draw(st.lists(st.sampled_from(units), max_size=2)) if units else []
        return SubgroupSpec.gammaH(N, gens)
    return SubgroupSpec.parse("%s:%d" % (kind, N))


words = st.lists(st.sampled_from([S, U, T, TP, T.inv(), TP.inv()]),
                 min_size=0, max_size=14)


def evaluate(word):
    g = I
    for x in word:
        g = g * x
    return g


def same_table(keyed, oracle):
    assert keyed.transversal == oracle.transversal
    assert keyed.mulS == oracle.mulS
    assert keyed.mulU == oracle.mulU


@KEYS
@given(specs(), st.one_of(st.none(), st.integers(0, 5)))
def test_gamma_h_table_matches_oracle(spec, seed):
    keyed = build_cosets(spec)
    oracle = subgroup_cosets(spec.contains, shuffle_seed=seed)
    if seed is None:
        same_table(keyed, oracle)
    # in any order of the oracle's walk, the key sends its cosets one to
    # one onto the keyed table's, and the steps of the two tables agree
    idx = [keyed.coset_of(t)[0] for t in oracle.transversal]
    assert sorted(idx) == list(range(keyed.index))
    for mul, kmul in ((oracle.mulS, keyed.mulS), (oracle.mulU, keyed.mulU)):
        assert [idx[j] for j, _ in mul] == [kmul[i][0] for i in idx]


@KEYS
@given(specs(), st.lists(words, min_size=1, max_size=6))
def test_coset_of_matches_word_walk(spec, ws):
    keyed = build_cosets(spec)
    oracle = subgroup_cosets(spec.contains)
    for w in ws:
        g = evaluate(w)
        j, tw = keyed.coset_of(g)
        assert (j, tw) == oracle.coset_of(g)
        assert tw * keyed.transversal[j] == g
        assert keyed.contains(tw)
        assert keyed.contains(g) == spec.contains(g)


@KEYS
@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30),
       st.integers(-30, 30))
def test_hermite_split(a, b, c, d):
    m = Mat2(a, b, c, d)
    if m.det() <= 0:
        return
    sigma, (x, y, z) = hermite_split(m)
    assert x > 0 and z > 0 and 0 <= y < z
    prod = sigma.lift() * Mat2(x, y, 0, z)
    entries = (prod.a, prod.b, prod.c, prod.d)
    assert entries == (a, b, c, d) or entries == (-a, -b, -c, -d)


def double_cosets(spec, p):
    """(label, DoubleCoset) for every kind of double coset at p."""
    h1 = compute_h1(spec, 0, ZZ)
    N = spec.N
    out = [("Tp" if N % p else "Up", DoubleCoset(h1, h1, Mat2(1, 0, 0, p)))]
    units = [d for d in range(2, N) if gcd(d, N) == 1]
    if units:
        out.append(("diamond", DoubleCoset(h1, h1, diamond_matrix(N, units[-1]))))
    if N % p:
        h1p = compute_h1(gamma0p_intersection(spec, p), 0, ZZ)
        out.append(("pi", DoubleCoset(h1p, h1, I.lift())))
        out.append(("phi", DoubleCoset(h1, h1p, Mat2(1, 0, 0, p))))
        out.append(("V", DoubleCoset(h1p, h1p,
                                     beta_matrix(N, p) * Mat2(p, 0, 0, 1))))
    return out


@HECKE
@given(specs(max_level=8), st.sampled_from([2, 3, 5]), words)
def test_double_coset_key_matches_membership(spec, p, w):
    # the double coset's own key of Gamma_1 on Gamma: two elements of
    # Gamma share a key exactly when they share a Gamma_1 coset by its
    # membership test, and the reps lie in distinct cosets
    g = evaluate(w)
    for label, dc in double_cosets(spec, p):
        pred1, _ = double_coset_predicates(
            dc.source.table.contains, dc.target.table.contains, dc.alpha)
        assert len({dc.key(s) for s in dc.reps}) == len(dc.reps), label
        if dc.source.table.contains(g):
            for s in dc.reps:
                assert (dc.key(g) == dc.key(s)) == pred1(g * s.inv()), label
