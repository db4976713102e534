"""Keyed coset tables against the predicate enumeration of
``oracles.subgroup_cosets``, which decides coset equality by membership
alone: the same transversal and multiplication tables for Gamma_H(N),
the same intersection tables inside every kind of double coset, and the
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
from hypcycle.psl2 import I, Mat2, S, T, TP, U
from oracles import (
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
    keyed = build_cosets(spec, shuffle_seed=seed)
    oracle = subgroup_cosets(spec.contains, shuffle_seed=seed)
    same_table(keyed, oracle)


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
    assert prod == m or prod == -m


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
def test_double_coset_tables_match_oracle(spec, p, w):
    g = evaluate(w)
    for label, dc in double_cosets(spec, p):
        pred1, pred2 = double_coset_predicates(
            dc.source.table.contains, dc.target.table.contains, dc.alpha)
        for keyed, pred in ((dc.table1, pred1), (dc.table2, pred2)):
            oracle = subgroup_cosets(pred)
            assert keyed.index == oracle.index, (label, spec, p)
            same_table(keyed, oracle)
            assert keyed.coset_of(g) == oracle.coset_of(g), (label, spec, p)
            assert keyed.contains(g) == pred(g)
