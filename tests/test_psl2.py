import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcycle.psl2 import (
    ELLIPTIC,
    HYPERBOLIC,
    I,
    IDENTITY,
    PARABOLIC,
    PMat,
    S,
    T,
    U,
    NotDefinedForElliptic,
    classify,
    poly_str,
    quadratic_form,
    word_runs,
)
from oracles import (
    TP,
    decompose_word,
    evaluate_word,
    letter_word,
    power,
    word_from_letters,
)


def random_pmat(rng, size=10**6):
    """Random element as a bounded product of T and T' powers."""
    g = I
    for _ in range(rng.randint(1, 8)):
        base = T if rng.random() < 0.5 else TP
        for _ in range(rng.randint(1, 9)):
            g = g * base
        if max(abs(x) for x in g.key()) > size:
            break
    return g


class TestGenerators:
    def test_orders(self):
        assert (S * S).is_identity()
        assert (U * U * U).is_identity()
        assert not (U * U).is_identity()

    def test_t_is_su(self):
        assert S * U == T

    def test_canonical_sign(self):
        g = PMat(-1, -1, 0, -1)
        assert g.key() == (1, 1, 0, 1)
        assert PMat(0, -1, 1, 0).key() == (0, 1, -1, 0)


class TestClassify:
    def test_examples(self):
        assert classify(PMat(2, 1, 1, 1)) == HYPERBOLIC
        assert classify(T) == PARABOLIC
        assert classify(S) == ELLIPTIC
        assert classify(I) == IDENTITY


class TestDecomposeWord:
    def test_s(self):
        assert decompose_word(S) == (("S", 1),)

    def test_t(self):
        # S*U = -T, which is T in PSL2(Z)
        assert evaluate_word(decompose_word(T)) == T
        assert decompose_word(T) == (("S", 1), ("U", 1))

    def test_lower_triangular(self):
        w = decompose_word(TP)
        assert w == (("S", 1), ("U", 2))
        assert evaluate_word(w) == TP

    def test_roundtrip_random(self):
        rng = random.Random(11)
        for _ in range(1000):
            g = random_pmat(rng)
            w = decompose_word(g)
            assert evaluate_word(w) == g
            # reduced: no adjacent letters on one generator
            for (g1, _), (g2, _) in zip(w, w[1:]):
                assert g1 != g2

    def test_deterministic(self):
        g = PMat(17, 12, 7, 5)
        assert decompose_word(g) == decompose_word(g)


class TestQuadraticForm:
    def test_hyperbolic_example(self):
        assert quadratic_form(PMat(2, 1, 1, 1)) == (-1, 1, 1)
        assert poly_str(quadratic_form(PMat(2, 1, 1, 1))) == "-X1^2 + X1*X2 + X2^2"

    def test_parabolic_t(self):
        assert quadratic_form(T) == (0, 0, 1)

    def test_parabolic_lower(self):
        for N in (1, 2, 5, 12):
            g = PMat(1, 0, N, 1)
            assert quadratic_form(g) == (-1, 0, 0)

    def test_elliptic_rejected(self):
        with pytest.raises(NotDefinedForElliptic):
            quadratic_form(S)
        with pytest.raises(NotDefinedForElliptic):
            quadratic_form(I)

    def test_content_one(self):
        from math import gcd

        rng = random.Random(12)
        for _ in range(300):
            g = random_pmat(rng)
            if classify(g) not in (HYPERBOLIC, PARABOLIC):
                continue
            q20, q11, q02 = quadratic_form(g)
            assert gcd(gcd(abs(q20), abs(q11)), abs(q02)) == 1

    def test_sign_class_invariance(self):
        # PMat already identifies +-g; check the form is stable under
        # rebuilding from either lift
        g = PMat(2, 1, 1, 1)
        h = PMat(-2, -1, -1, -1)
        assert quadratic_form(g) == quadratic_form(h)

    def test_inverse_negates(self):
        rng = random.Random(13)
        for _ in range(200):
            g = random_pmat(rng)
            if classify(g) != HYPERBOLIC:
                continue
            q = quadratic_form(g)
            qi = quadratic_form(g.inv())
            assert qi == tuple(-x for x in q)


def test_word_from_letters_reduces():
    w = word_from_letters([("S", 1), ("S", 1), ("U", 2), ("U", 2)])
    assert w == (("U", 1),)
    assert word_from_letters([("U", 1), ("U", 2)]) == ()


def test_parse_roundtrip():
    g = PMat.parse("[[2,1],[1,1]]")
    assert g.key() == (2, 1, 1, 1)
    assert repr(g) == "[[2,1],[1,1]]"


def evaluate_powers(parts):
    g = I
    for x, e in parts:
        g = g * power(x, e)
    return g


# products of long powers of T and T' = S T^-1 S^-1 with S and U: their
# words have long runs T^(+-q), and runs that meet at merged letters
long_runs = st.lists(st.tuples(st.sampled_from([T, TP, S, U]),
                               st.integers(-40, 40)),
                     max_size=8).map(evaluate_powers)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(long_runs)
def test_word_runs_spell_the_letter_word(g):
    # the runs, spelled out, are the word built letter by letter from
    # floor quotients, and they evaluate to g
    assert decompose_word(g) == letter_word(g)
    assert evaluate_word(decompose_word(g)) == g
    for gen, e in word_runs(g):
        assert (gen, e) in (("S", 1), ("U", 1), ("U", 2)) or (
            gen == "T" and e != 0)


def test_word_runs_of_a_long_power():
    # T^500 is one run; so is T'^-500 = S T^500 S^-1 between its letters
    assert word_runs(power(T, 500)) == (("T", 500),)
    assert word_runs(power(TP, -500)) == (("U", 1), ("T", 499), ("S", 1))
