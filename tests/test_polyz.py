"""``polyz`` against sympy: characteristic polynomials of integer
matrices, and the factorization of products of monic polynomials over
Z with its printed form."""

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypcycle.polyz import charpoly, factor, factor_str

X = sympy.Symbol("x")
CHARPOLY = settings(max_examples=60, deadline=None, derandomize=True)
FACTOR = settings(max_examples=120, deadline=None, derandomize=True)


def square_matrices(max_n=8, bound=10 ** 6):
    return st.integers(0, max_n).flatmap(lambda n: st.lists(
        st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
        min_size=n, max_size=n))


@CHARPOLY
@given(square_matrices())
def test_charpoly_matches_sympy(A):
    expect = ([int(c) for c in sympy.Matrix(A).charpoly(X).all_coeffs()]
              if A else [1])
    assert charpoly(A) == expect


def poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


# a monic factor: x + c with c up to 1 + 5^19 (the T5 eigenvalue), or a
# monic polynomial of degree 2 to 4, reducible or not, with small or
# large coefficients
coefficients = st.one_of(st.integers(-30, 30), st.integers(-10 ** 12, 10 ** 12))
monic = st.one_of(
    st.integers(-(5 ** 19 + 1), 5 ** 19 + 1).map(lambda c: [1, c]),
    st.integers(2, 4).flatmap(lambda d: st.lists(
        coefficients, min_size=d, max_size=d)).map(lambda t: [1] + t))


# charpoly of T5 on level one, weight 20: (x-(1+5^19))*(x+2377410)^2
T5 = poly_mul(poly_mul([1, -(1 + 5 ** 19)], [1, 2377410]), [1, 2377410])


@st.composite
def products(draw):
    """x^e0 times a product of powers g^e of monic factors g."""
    e0 = draw(st.integers(0, 3))
    parts = draw(st.lists(st.tuples(monic, st.integers(1, 3)), max_size=4))
    f = [1] + [0] * e0
    for g, e in parts:
        for _ in range(e):
            f = poly_mul(f, g)
    return f


def sympy_str(f):
    text = str(sympy.factor(sympy.Poly(f, X).as_expr()))
    return text.replace("**", "^").replace(" ", "")


@FACTOR
@given(products())
@example([1])
@example([1, 0])
@example([1, -9])
@example([1, 0, 1])
@example([1, -2, 1])
@example([1, 0, -1])
@example(T5)
# square-free modulo 2, where they split as x(x+1) and as two cubics;
# Zassenhaus factors them modulo an odd prime
@example([1, -5, 6])
@example([1, 1, 1, 3, 1, 1, 1])
def test_factor_matches_sympy(f):
    pairs = factor(f)
    product = [1]
    for g, e in pairs:
        assert g[0] == 1 and sympy.Poly(g, X).is_irreducible
        for _ in range(e):
            product = poly_mul(product, g)
    assert product == f
    assert len({tuple(g) for g, _ in pairs}) == len(pairs)
    assert factor_str(f) == sympy_str(f)
