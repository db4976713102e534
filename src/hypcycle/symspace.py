"""The coefficient module of degree-2k forms with its action of
positive-determinant integer matrices, and the blockwise maps between
modules induced from finite-index subgroups of PSL2(Z).

A polynomial is a tuple of 2k+1 coefficients, slot i holding the
coefficient of X1^(2k-i) X2^i.  The action substitutes
(X1, X2) -> (d*X1 - b*X2, -c*X1 + a*X2), i.e. acts through the
transposed adjugate, and -1 acts trivially in even degree.

An element of the induced module has one such block per coset of the
subgroup's table.  Chains over it are sparse dicts keyed by
(slot, block) (see homology).  The corestriction map is given by its
blockwise entries, and the restriction by one matrix rho(s_r) per
coset rep of the smaller group, which the Hecke side reads straight
into subgroup form (hecke.restricted_form): no chain is mapped
block by block.  It needs no corestriction, since the Fox chain of an
element on a larger group's table is the corestriction of its chain on
a smaller one.  ``corestriction_map`` stays for the benchmark's layer
trace, which wraps it, and for the test of that lemma, which
corestricts with it.  No matrix is cached here: the LocalQuotient
keeps the rho(g) of its steps, a DoubleCoset the rho(s_r) of its
restriction, and hecke.conj_star builds alpha's matrix once per call.
"""

from .psl2 import PMat


class NonPositiveDeterminant(ValueError):
    """The polynomial action is only defined for det > 0."""


def poly_mod(p, m):
    return tuple(a % m for a in p)


def poly_mul(p, q):
    """Product of homogeneous forms (degrees add)."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return tuple(out)


def poly_pow(p, e):
    out = (1,)
    for _ in range(e):
        out = poly_mul(out, p)
    return out


def act_matrix(g, k, modulus=None):
    """Matrix of the action of g on degree-2k forms; columns indexed by
    monomials X1^(2k-j) X2^j."""
    if isinstance(g, PMat):
        a, b, c, d = g.key()
    else:
        a, b, c, d = g.a, g.b, g.c, g.d
    if a * d - b * c <= 0:
        raise NonPositiveDeterminant("determinant %d" % (a * d - b * c,))
    if modulus is not None:
        a, b, c, d = a % modulus, b % modulus, c % modulus, d % modulus
    n = 2 * k
    # pow1[i] = coefficients of (d*X1 - b*X2)^i, pow2[i] of (-c*X1 + a*X2)^i
    pow1 = [(1,)]
    pow2 = [(1,)]
    for i in range(n):
        pow1.append(poly_mul(pow1[-1], (d, -b)))
        pow2.append(poly_mul(pow2[-1], (-c, a)))
    cols = []
    for j in range(n + 1):
        col = poly_mul(pow1[n - j], pow2[j])
        if modulus is not None:
            col = poly_mod(col, modulus)
        cols.append(col)
    return [[cols[j][i] for j in range(n + 1)] for i in range(n + 1)]


def rho(g, k, modulus=None):
    """act_matrix of an element of PSL2(Z), or None where it is the
    identity: at g = 1, and at k = 0 for every g."""
    return None if k == 0 or g.is_identity() else act_matrix(g, k, modulus)


def act(g, poly, modulus=None):
    """The action of g (det > 0) on a degree-2k form."""
    k = (len(poly) - 1) // 2
    M = act_matrix(g, k, modulus)
    out = [0] * len(poly)
    for j, c in enumerate(poly):
        if c:
            for i in range(len(poly)):
                out[i] += M[i][j] * c
    if modulus is not None:
        out = [x % modulus for x in out]
    return tuple(out)


def restriction_map(reps, k, modulus=None):
    """Coefficient map inducing restriction to a smaller subgroup, whose
    cosets in PSL2(Z) are the s_r t_i for s_r its coset representatives
    in the ambient group (``reps``, as from cosets.subgroup_transversal)
    and t_i the ambient transversal: the averaging map sends the block
    of t_i to the block of s_r t_i by rho(s_r), for every i.  Returns
    the rho(s_r), one per rep, None standing for the identity."""
    return [rho(s, k, modulus) for s in reps]


def corestriction_map(src_table, dst_table, k, modulus=None):
    """Coefficient map inducing corestriction to a larger subgroup:
    blocks are regrouped along the coset projection with twists.
    Returns the blockwise entries, one (dst_block, matrix) pair per
    source block (see restriction_map)."""
    entries = []
    for u in src_table.transversal:
        j, gamma = dst_table.coset_of(u)
        entries.append([(j, rho(gamma.inv(), k, modulus))])
    return entries
