"""The coefficient module of degree-2k forms with its action of
positive-determinant integer matrices, and coset-indexed block vectors
realizing the induced module from a finite-index subgroup of PSL2(Z).

A polynomial is a tuple of 2k+1 coefficients, slot i holding the
coefficient of X1^(2k-i) X2^i.  The action substitutes
(X1, X2) -> (d*X1 - b*X2, -c*X1 + a*X2), i.e. acts through the
transposed adjugate, and -1 acts trivially in even degree.
"""

from .cosets import subgroup_transversal
from .psl2 import PMat


class NonPositiveDeterminant(Exception):
    """The polynomial action is only defined for det > 0."""


def zero_poly(k):
    return (0,) * (2 * k + 1)


def monomial(k, i, coef=1):
    v = [0] * (2 * k + 1)
    v[i] = coef
    return tuple(v)


def x2_power(k):
    """X2^(2k)."""
    return monomial(k, 2 * k)


def poly_add(p, q):
    return tuple(a + b for a, b in zip(p, q))


def poly_sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def poly_scale(p, c):
    return tuple(c * a for a in p)


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


_ACT_CACHE = {}


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
    key = (a, b, c, d, k, modulus)
    M = _ACT_CACHE.get(key)
    if M is not None:
        return M
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
    M = [[cols[j][i] for j in range(n + 1)] for i in range(n + 1)]
    _ACT_CACHE[key] = M
    return M


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


def _matvec_mod(M, v, modulus):
    out = [0] * len(M)
    for j, c in enumerate(v):
        if c:
            for i in range(len(M)):
                out[i] += M[i][j] * c
    if modulus is not None:
        out = [x % modulus for x in out]
    return out


class IndVec:
    """Element of the module induced from a subgroup coset table: one
    degree-2k block per transversal element."""

    __slots__ = ("table", "k", "modulus", "blocks")

    def __init__(self, table, k, modulus, blocks):
        self.table = table
        self.k = k
        self.modulus = modulus
        self.blocks = blocks

    @staticmethod
    def zero(table, k, modulus=None):
        z = zero_poly(k)
        return IndVec(table, k, modulus, [z] * table.index)

    @staticmethod
    def unit(table, k, poly, block=0, modulus=None):
        v = IndVec.zero(table, k, modulus)
        blocks = list(v.blocks)
        blocks[block] = poly_mod(poly, modulus) if modulus else tuple(poly)
        v.blocks = blocks
        return v

    def __add__(self, other):
        return IndVec(self.table, self.k, self.modulus,
                      [poly_add(a, b) for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        return IndVec(self.table, self.k, self.modulus,
                      [poly_sub(a, b) for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self):
        return IndVec(self.table, self.k, self.modulus,
                      [poly_scale(b, -1) for b in self.blocks])

    def scale(self, c):
        return IndVec(self.table, self.k, self.modulus,
                      [poly_scale(b, c) for b in self.blocks])

    def reduce(self):
        if self.modulus is None:
            return self
        return IndVec(self.table, self.k, self.modulus,
                      [poly_mod(b, self.modulus) for b in self.blocks])

    def is_zero(self):
        if self.modulus is None:
            return all(not any(b) for b in self.blocks)
        m = self.modulus
        return all(all(x % m == 0 for x in b) for b in self.blocks)

    def __eq__(self, other):
        if self.table is not other.table or self.k != other.k:
            return False
        return (self - other).is_zero()


def ind_act_letter(letter, v):
    """Action of a single word letter on an induced vector."""
    gen, e = letter
    table, k, m = v.table, v.k, v.modulus
    out = [zero_poly(k)] * table.index
    # right-multiplication steps compute t_i * g^-1 = twist * t_j:
    # g = S: g^-1 = S (one S-step); g = U: g^-1 = U^2; g = U^2: g^-1 = U
    steps = 1 if gen == "S" else (3 - e)
    for i, b in enumerate(v.blocks):
        if not any(b):
            continue
        j, tw = i, None
        for _ in range(steps):
            j2, tw2 = v.table.step(j, gen)
            tw = tw2 if tw is None else tw * tw2
            j = j2
        M = act_matrix(tw.inv(), k, m)
        val = _matvec_mod(M, b, m)
        out[j] = poly_add(out[j], tuple(val))
    return IndVec(table, k, m, out)


class InductionMap:
    """Blockwise map between induced modules.

    ``entries[src_block]`` is a list of (dst_block, matrix) pairs; the
    image of a vector adds matrix * block into dst_block for each pair.
    """

    def __init__(self, src_table, dst_table, k, modulus, entries):
        self.src_table = src_table
        self.dst_table = dst_table
        self.k = k
        self.modulus = modulus
        self.entries = entries

    def apply(self, v):
        out = [zero_poly(self.k)] * self.dst_table.index
        for i, b in enumerate(v.blocks):
            if not any(b):
                continue
            for j, M in self.entries[i]:
                val = _matvec_mod(M, b, self.modulus)
                out[j] = poly_add(out[j], tuple(val))
        res = IndVec(self.dst_table, self.k, self.modulus, out)
        return res.reduce() if self.modulus else res


def restriction_map(src_table, dst_table, k, modulus=None, reps=None):
    """Coefficient map inducing restriction to a smaller subgroup.

    Sends the block of t to the sum over subgroup-coset representatives
    s_i of the block of s_i * t carrying s_i-translated coefficients;
    this is the standard averaging map promoted blockwise to the full
    induced module, and it is equivariant for the ambient group.
    """
    if reps is None:
        reps = subgroup_transversal(dst_table, src_table)
    entries = []
    for t in src_table.transversal:
        row = []
        for s in reps:
            g = s * t
            j, delta = dst_table.coset_of(g)
            M = act_matrix(delta.inv() * s, k, modulus)
            row.append((j, M))
        entries.append(row)
    return InductionMap(src_table, dst_table, k, modulus, entries)


def corestriction_map(src_table, dst_table, k, modulus=None):
    """Coefficient map inducing corestriction to a larger subgroup:
    blocks are regrouped along the coset projection with twists."""
    entries = []
    for u in src_table.transversal:
        j, gamma = dst_table.coset_of(u)
        M = act_matrix(gamma.inv(), k, modulus)
        entries.append([(j, M)])
    return InductionMap(src_table, dst_table, k, modulus, entries)
