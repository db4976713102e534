import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypcycle.intlinalg import (
    ColumnEchelon,
    FgModule,
    ImageNotContained,
    Lattice,
    NotInModule,
    diagonal,
    from_columns,
    identity,
    kernel_basis,
    kernel_mod,
    mat_mul,
    mat_vec,
    subquotient,
    xgcd,
    zeros,
)
from oracles import (
    NotStable,
    close_every_row,
    det,
    every_row_round,
    induced_endomorphism,
    rank,
    saturate_columns,
    smith_normal_form,
    transpose,
)


def snf_diagonal_oracle(A):
    """Brute-force gcd row/column reduction, no transition tracking."""
    M = [row[:] for row in A]
    m = len(M)
    n = len(M[0]) if M else 0
    diag = []
    k = 0
    while k < min(m, n):
        if all(M[i][j] == 0 for i in range(k, m) for j in range(k, n)):
            break
        # move a minimal nonzero entry to (k, k)
        best = None
        for i in range(k, m):
            for j in range(k, n):
                if M[i][j] and (best is None or abs(M[i][j]) < abs(M[best[0]][best[1]])):
                    best = (i, j)
        i0, j0 = best
        M[k], M[i0] = M[i0], M[k]
        for row in M:
            row[k], row[j0] = row[j0], row[k]
        done = False
        while not done:
            done = True
            for i in range(k + 1, m):
                if M[i][k]:
                    q = M[i][k] // M[k][k]
                    for t in range(n):
                        M[i][t] -= q * M[k][t]
                    if M[i][k]:
                        M[k], M[i] = M[i], M[k]
                        done = False
            for j in range(k + 1, n):
                if M[k][j]:
                    q = M[k][j] // M[k][k]
                    for row in M:
                        row[j] -= q * row[k]
                    if M[k][j]:
                        for row in M:
                            row[k], row[j] = row[j], row[k]
                        done = False
            if done and all(M[i][k] == 0 for i in range(k + 1, m)):
                d = M[k][k]
                for i in range(k + 1, m):
                    for j in range(k + 1, n):
                        if M[i][j] % d:
                            for t in range(n):
                                M[k][t] += M[i][t]
                            done = False
                            break
                    if not done:
                        break
        k += 1
    for i in range(k):
        diag.append(abs(M[i][i]))
    while len(diag) < min(m, n):
        diag.append(0)
    return diag


def random_matrix(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


class TestSmithNormalForm:
    def test_example_2x2(self):
        A = [[2, 4], [6, 8]]
        assert snf_diagonal_oracle(A) == [2, 4]
        U, D, V = smith_normal_form(A)
        assert diagonal(D) == [2, 4]
        assert mat_mul(U, mat_mul(D, V)) == A

    def test_identity(self):
        A = identity(3)
        _, D, _ = smith_normal_form(A)
        assert diagonal(D) == [1, 1, 1]

    def test_zero(self):
        A = zeros(2, 3)
        U, D, V = smith_normal_form(A)
        assert diagonal(D) == [0, 0]
        assert mat_mul(U, mat_mul(D, V)) == A

    def test_random_reconstruction_and_chain(self):
        rng = random.Random(1)
        for _ in range(60):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            A = random_matrix(rng, m, n)
            U, D, V = smith_normal_form(A)
            assert mat_mul(U, mat_mul(D, V)) == A
            assert abs(det(U)) == 1
            assert abs(det(V)) == 1
            diag = diagonal(D)
            for a, b in zip(diag, diag[1:]):
                if a:
                    assert b % a == 0
                else:
                    assert b == 0
            assert diag == snf_diagonal_oracle(A)
            # off-diagonal zero
            for i in range(m):
                for j in range(n):
                    if i != j:
                        assert D[i][j] == 0

    def test_rank_plus_kernel(self):
        rng = random.Random(2)
        for _ in range(40):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            A = random_matrix(rng, m, n)
            K = kernel_basis(A)
            ncols = len(K[0]) if K else 0
            assert rank(A) + ncols == n


class TestKernel:
    def test_row_vector(self):
        K = kernel_basis([[1, 1]])
        cols = transpose(K)
        assert len(cols) == 1
        x, y = cols[0]
        assert x + y == 0 and abs(x) == 1

    def test_injective(self):
        K = kernel_basis([[2]])
        assert len(K[0]) == 0

    def test_rank_one(self):
        # hand elimination: kernel of [[1,2],[2,4]] is spanned by (2,-1)
        K = kernel_basis([[1, 2], [2, 4]])
        cols = transpose(K)
        assert len(cols) == 1
        v = cols[0]
        assert v in ([2, -1], [-2, 1])

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(3)
        for _ in range(30):
            A = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
            for col in transpose(kernel_basis(A)):
                assert not any(mat_vec(A, col))

    def test_kernel_saturated(self):
        # saturation: any integer vector with a multiple in the kernel is in it
        A = [[2, 2], [2, 2]]
        K = kernel_basis(A)
        ech = ColumnEchelon(K)
        assert ech.solve([1, -1]) is not None

    def test_kernel_mod(self):
        # x + y = 0 mod 4
        K = kernel_mod([[1, 1]], 4)
        ech = ColumnEchelon(K)
        assert ech.solve([1, 3]) is not None
        assert ech.solve([4, 0]) is not None
        assert ech.solve([1, 0]) is None


class TestSolve:
    def test_solve_roundtrip(self):
        rng = random.Random(4)
        for _ in range(40):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            A = random_matrix(rng, m, n)
            x = [rng.randint(-5, 5) for _ in range(n)]
            b = mat_vec(A, x)
            y = ColumnEchelon(A).solve(b)
            assert y is not None
            assert mat_vec(A, y) == b

    def test_solve_infeasible(self):
        assert ColumnEchelon([[2, 0], [0, 2]]).solve([1, 0]) is None


class TestSubquotient:
    def test_direct_sum(self):
        K = identity(2)
        img = from_columns([[2, 0]], 2)
        m = subquotient(K, img)
        assert m.invariant_factors == (2, 0)

    def test_exactness(self):
        K = identity(2)
        m = subquotient(K, identity(2))
        assert m.invariant_factors == ()
        assert m.ngens == 0

    def test_two_torsion_factors(self):
        K = identity(2)
        img = from_columns([[2, 0], [0, 3]], 2)
        m = subquotient(K, img)
        # Z/2 + Z/3 = Z/6 in invariant factor form
        assert m.invariant_factors == (6,)

    def test_image_not_contained(self):
        K = from_columns([[2, 0]], 2)
        img = from_columns([[1, 1]], 2)
        with pytest.raises(ImageNotContained):
            subquotient(K, img)

    def test_column_order_independence(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(1, 4)
            s = rng.randint(1, 4)
            K = identity(n)
            img_cols = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(s)]
            m1 = subquotient(K, from_columns(img_cols, n))
            rng.shuffle(img_cols)
            m2 = subquotient(K, from_columns(img_cols, n))
            assert m1.invariant_factors == m2.invariant_factors

    def test_coords_of_generators(self):
        rng = random.Random(6)
        for _ in range(25):
            n = rng.randint(1, 4)
            img_cols = [[rng.randint(-6, 6) for _ in range(n)]
                        for _ in range(rng.randint(0, 4))]
            m = subquotient(identity(n), from_columns(img_cols, n))
            for i in range(m.ngens):
                e = [0] * m.ngens
                e[i] = 1
                assert m.coords([row[i] for row in m.gen_lift]) == tuple(e)

    def test_coords_fails_outside(self):
        K = from_columns([[2, 0]], 2)
        m = subquotient(K, zeros(2, 0))
        with pytest.raises(NotInModule):
            m.coords([1, 0])
        assert m.coords([2, 0]) == (1,)

    def test_modulus_ring(self):
        # a ring enters as relations the caller adds: Z/8 x Z/3 with the
        # relations 4*e_i of Z/4 is Z/8 x Z/3 tensor Z/4 = Z/4
        rels = [[8, 0], [0, 3], [4, 0], [0, 4]]
        m = subquotient(identity(2), from_columns(rels, 2))
        assert m.invariant_factors == (4,)

    def test_q_ring_free_part(self):
        # over Q the order 2 is a unit: its relation 1*e_0 leaves only
        # the free part, with the free generators of Z/2 x Z^2
        m = subquotient(identity(3), from_columns([[2, 0, 0], [1, 0, 0]], 3))
        assert m.invariant_factors == (0, 0)
        assert m.rank == 2
        z = subquotient(identity(3), from_columns([[2, 0, 0]], 3))
        assert m.gen_lift == [row[1:] for row in z.gen_lift]


class TestInducedEndomorphism:
    def setup_method(self):
        # Z/2 + Z (ambient Z^2, image (2,0))
        self.m = subquotient(identity(2), from_columns([[2, 0]], 2))

    def test_identity_map(self):
        A = induced_endomorphism(identity(2), self.m)
        assert A == identity(self.m.ngens)

    def test_zero_map(self):
        A = induced_endomorphism(zeros(2, 2), self.m)
        assert A == zeros(self.m.ngens, self.m.ngens)

    def test_multiplication_by_three(self):
        f = [[3, 0], [0, 3]]
        A = induced_endomorphism(f, self.m)
        n = self.m.ngens
        for j in range(n):
            col = [A[i][j] for i in range(n)]
            expect = [0] * n
            expect[j] = 3
            assert self.m.reduce_coords(col) == self.m.reduce_coords(expect)

    def test_not_stable(self):
        m = subquotient(from_columns([[2, 0]], 2), zeros(2, 0))
        shift = [[0, 0], [1, 0]]  # sends (2,0) to (0,2), outside span{(2,0)}
        with pytest.raises(NotStable):
            induced_endomorphism(shift, m)


class TestLattice:
    def test_add_contains(self):
        lat = Lattice(3)
        assert lat.add([2, 0, 0])
        assert lat.add([0, 3, 0])
        assert lat.contains([4, 3, 0])
        assert not lat.contains([1, 0, 0])
        assert not lat.add([2, 3, 0])

    def test_canonical_equality(self):
        rng = random.Random(7)
        for _ in range(25):
            vecs = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(5)]
            a = Lattice(4)
            for v in vecs:
                a.add(v)
            b = Lattice(4)
            for v in reversed(vecs):
                b.add(v)
            assert a.canonical() == b.canonical()


def _lattice(n, vecs):
    lat = Lattice(n)
    for v in vecs:
        lat.add(v)
    return lat


@st.composite
def closures(draw):
    """A lattice of Z^n (n <= 5) from a few vectors, up to three linear
    maps, and a target: none, or the lattice that the every-row rule
    reaches after some rounds."""
    n = draw(st.integers(1, 5))
    vec = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    vecs = draw(st.lists(vec, min_size=1, max_size=3))
    mats = draw(st.lists(st.lists(st.lists(st.integers(-2, 2), min_size=n,
                                           max_size=n),
                                  min_size=n, max_size=n),
                         min_size=1, max_size=3))
    target = None
    reach = draw(st.none() | st.integers(1, 6))
    if reach is not None:
        lat = _lattice(n, vecs)
        for _ in range(reach):
            every_row_round(lat, [lambda v, A=A: mat_vec(A, v) for A in mats])
        target = lat.canonical()
    return n, vecs, mats, target


@settings(max_examples=300, deadline=None, derandomize=True)
@given(closures())
def test_close_under_matches_every_row_rule(case):
    # both rules run to their fixpoint, or stop at the round that
    # reaches the target
    n, vecs, mats, target = case
    maps = [lambda v, A=A: mat_vec(A, v) for A in mats]
    got, want = _lattice(n, vecs), _lattice(n, vecs)
    grew = got.close_under(maps, vecs, target)
    assert grew == close_every_row(want, maps, target)
    assert got.canonical() == want.canonical()


def _shift(n):
    """The shift e_i -> e_(i+1) on Z^n, which grows span{e_0} by one unit
    vector per round: n - 1 rounds that grow and one that adds nothing."""
    shift = [[int(i == j + 1) for j in range(n)] for i in range(n)]
    return [lambda v: mat_vec(shift, v)], [1] + [0] * (n - 1)


def test_close_under_runs_to_fixpoint():
    # 11 growing rounds, more than any fixed cap the Hecke closures once
    # had (at most 8)
    maps, e0 = _shift(12)
    full = _lattice(12, [e0])
    assert full.close_under(maps, [e0])
    assert full.canonical() == tuple(tuple(r) for r in identity(12))
    assert not full.close_under(maps, [list(r) for r in full.rows])


def test_close_under_stops_at_target():
    # the target stops the closure at the round that reaches it
    maps, e0 = _shift(5)
    stopped = _lattice(5, [e0])
    target = tuple(tuple(r) for r in identity(5)[:3])
    assert stopped.close_under(maps, [e0], target)
    assert stopped.canonical() == target


def test_saturate_columns():
    B = from_columns([[2, 2, 0], [0, 0, 4]], 3)
    S = saturate_columns(B)
    ech = ColumnEchelon(S)
    assert ech.solve([1, 1, 0]) is not None
    assert ech.solve([0, 0, 1]) is not None
    assert ech.solve([1, 0, 0]) is None


def test_xgcd():
    for a, b in [(0, 0), (4, 6), (-4, 6), (7, 0), (0, -5), (12, 18)]:
        x, y, g = xgcd(a, b)
        assert a * x + b * y == g
        assert g >= 0


def subgroup_factors_by_closure(orders, vectors):
    """Invariant factors of the subgroup of (+) Z/d_i that ``vectors``
    generate: the subgroup by brute-force closure, then, at each prime
    power q = p^j, the number of factors divisible by q from the counts
    of elements killed by q and by q/p."""
    gens = [tuple(x % d for x, d in zip(v, orders)) for v in vectors]
    group = {(0,) * len(orders)}
    frontier = list(group)
    while frontier:
        new = []
        for x in frontier:
            for v in gens:
                y = tuple((a + b) % d for a, b, d in zip(x, v, orders))
                if y not in group:
                    group.add(y)
                    new.append(y)
        frontier = new

    def killed(n):
        return sum(1 for x in group
                   if all(n * a % d == 0 for a, d in zip(x, orders)))

    factors = [1] * len(orders)  # the largest factor last
    for p in (2, 3, 5, 7, 11):
        q = p
        while killed(q) > killed(q // p):
            ratio, count = killed(q) // killed(q // p), 0
            while ratio > 1:
                ratio //= p
                count += 1
            for i in range(count):
                factors[-1 - i] *= p
            q *= p
    return tuple(f for f in factors if f > 1)


@st.composite
def finite_modules(draw):
    g = draw(st.integers(1, 3))
    orders = draw(st.lists(st.integers(1, 12), min_size=g, max_size=g))
    vectors = draw(st.lists(
        st.lists(st.integers(-30, 30), min_size=g, max_size=g), max_size=4))
    return orders, vectors


@settings(max_examples=200, deadline=None, derandomize=True)
@given(finite_modules())
# (Z/9)^2 and the span of (3, 1), cyclic of order 9: a Hermite basis of
# its lattice mod 9 has the diagonal (3, 3) and its Smith form is (1, 9),
# so factors read off Hermite valuations would give (3, 3)
@example(([9, 9], [[3, 1]]))
def test_span_factors_match_closure(case):
    # FgModule.span/factors on (+) Z/d_i against the subgroup the
    # vectors generate, enumerated element by element
    orders, vectors = case
    module = FgModule(orders, None, None, None)
    lat = module.span(vectors)
    assert all(lat.contains(col) for col in module.relation_columns())
    assert module.factors(lat) == subgroup_factors_by_closure(orders, vectors)
