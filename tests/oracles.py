"""Reference routes used only by the tests.

``dense_h1`` is the dense presentation of H1 that ``compute_h1`` used
before the quotient-first route: it builds d1 and d2 on the whole
induced module from the per-letter action matrices, takes ker d1 over
Z (or the kernel mod m, found by an integer echelon of [A | m*I]), and
passes both to ``subquotient``.  It shares no code with the local
cokernels and the spanning tree of ``homology.LocalQuotient``.
"""

from hypcycle.intlinalg import (
    ColumnEchelon,
    from_columns,
    kernel_basis,
    subquotient,
    zeros,
)
from hypcycle.symspace import act_matrix


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
