"""Reference routes used only by the tests.

``subgroup_cosets`` is the reference coset enumeration: breadth-first
in the order of ``build_cosets``, but it decides coset equality by
scanning the whole transversal with a membership predicate, and its
tables find the coset of an element by walking its word in S and U.  It needs nothing but the predicate, so it also
serves subgroups that have no key, such as the theta group.
``double_coset_predicates`` are the membership tests of the two
intersection groups of a double coset, written directly from their
definitions.

``dense_h1`` is the dense presentation of H1 that ``compute_h1`` used
before the quotient-first route: it builds d1 and d2 on the whole
induced module from the per-letter action matrices, takes ker d1 over
Z (or the kernel mod m, found by an integer echelon of [A | m*I]), and
passes both to ``subquotient``.  It shares no code with the local
cokernels and the spanning tree of ``homology.LocalQuotient``.
"""

from hypcycle.cosets import BudgetExceeded, CosetTable
from hypcycle.hecke import conjugate_by
from hypcycle.intlinalg import (
    ColumnEchelon,
    from_columns,
    kernel_basis,
    subquotient,
    zeros,
)
from hypcycle.psl2 import I, S, U, decompose_word
from hypcycle.symspace import act_matrix


class PredicateTable(CosetTable):
    """Coset table of a subgroup known only by its membership predicate."""

    def __init__(self, contains, transversal, mulS, mulU):
        super().__init__(None, transversal, mulS, mulU, {})
        self.contains = contains

    def coset_of(self, g):
        """(index, twist) with g == twist * transversal[index], found by
        walking the word of g through the table."""
        j = 0
        for letter in decompose_word(g):
            j, _ = self.step_letter(j, letter)
        return j, g * self.transversal[j].inv()


def subgroup_cosets(contains, max_index=100000, shuffle_seed=None):
    """Breadth-first coset table of the subgroup cut out by a membership
    predicate (the caller guarantees finite index), exploring in the
    order of build_cosets."""
    rng = None
    if shuffle_seed is not None:
        import random

        rng = random.Random(shuffle_seed)
    transversal = [I]
    edges = {}
    frontier = [0]
    while frontier:
        if rng is None:
            i = frontier.pop(0)
        else:
            i = frontier.pop(rng.randrange(len(frontier)))
        t = transversal[i]
        gens = [("S", S), ("U", U)]
        if rng is not None:
            rng.shuffle(gens)
        for gen, x in gens:
            c = t * x
            j = next((j2 for j2, t2 in enumerate(transversal)
                      if contains(c * t2.inv())), None)
            if j is None:
                transversal.append(c)
                j = len(transversal) - 1
                if j >= max_index:
                    raise BudgetExceeded(
                        "coset orbit exceeded %d; wrong predicate?" % max_index)
                frontier.append(j)
            edges[(i, gen)] = (j, c * transversal[j].inv())
    n = len(transversal)
    return PredicateTable(contains, transversal,
                          [edges[(i, "S")] for i in range(n)],
                          [edges[(i, "U")] for i in range(n)])


def double_coset_predicates(src_contains, tgt_contains, alpha):
    """Membership in Gamma_1 = Gamma n alpha^-1 Gamma' alpha and in
    Gamma_2 = Gamma' n alpha Gamma alpha^-1."""

    def pred1(g):
        if not src_contains(g):
            return False
        cg = conjugate_by(alpha, g)
        return cg is not None and tgt_contains(cg)

    def pred2(g):
        if not tgt_contains(g):
            return False
        cg = conjugate_by(alpha.adjugate(), g)
        return cg is not None and src_contains(cg)

    return pred1, pred2


def action_matrix_on_induced(table, k, letter, modulus):
    """Dense matrix of a letter acting on the induced module."""
    n = table.index
    d = 2 * k + 1
    N = n * d
    A = zeros(N, N)
    for i in range(n):
        jj, tw = i, None
        steps = 1 if letter[0] == "S" else (3 - letter[1])
        for _ in range(steps):
            j2, tw2 = table.step(jj, letter[0])
            tw = tw2 if tw is None else tw * tw2
            jj = j2
        M = act_matrix(tw.inv(), k, modulus)
        for col in range(d):
            for row in range(d):
                val = M[row][col]
                if val:
                    A[jj * d + row][i * d + col] = val
    return A


def kernel_mod_augmented(A, m):
    """Lattice {x : A x == 0 mod m} from the integer kernel of [A | m*I]."""
    nrows = len(A)
    ncols = len(A[0]) if A else 0
    aug = [row[:] + [0] * nrows for row in A]
    for i in range(nrows):
        aug[i][ncols + i] = m
    ker = ColumnEchelon(aug).kernel_columns()
    return from_columns([v[:ncols] for v in ker], ncols)


def dense_h1(table, k, ring):
    """FgModule of ker d1 / im d2 on the dense two-step complex."""
    modulus = ring.modulus
    N = table.index * (2 * k + 1)
    AS = action_matrix_on_induced(table, k, ("S", 1), modulus)
    AU = action_matrix_on_induced(table, k, ("U", 1), modulus)
    AU2 = action_matrix_on_induced(table, k, ("U", 2), modulus)
    # d1 = [AS - I | AU - I], d2 = diag(I + AS, I + AU + AU^2)
    d1 = zeros(N, 2 * N)
    d2 = zeros(2 * N, 2 * N)
    for i in range(N):
        for j in range(N):
            d1[i][j] = AS[i][j]
            d1[i][N + j] = AU[i][j]
            d2[i][j] = AS[i][j]
            d2[N + i][N + j] = AU[i][j] + AU2[i][j]
        d1[i][i] -= 1
        d1[i][N + i] -= 1
        d2[i][i] += 1
        d2[N + i][N + i] += 1
    if modulus is None:
        return subquotient(kernel_basis(d1), d2, ring)
    K = kernel_mod_augmented(d1, modulus)
    image = [d2[i] + [modulus if j == i else 0 for j in range(2 * N)]
             for i in range(2 * N)]
    return subquotient(K, image, ring)
