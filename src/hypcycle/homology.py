"""First group homology of finite-index subgroups of PSL2(Z) with
degree-2k coefficients, through the two-step chain complex of the
presentation <S, U | S^2, U^3> with induced coefficients.

A degree-1 chain is a dict {(slot, block): vector}, slot "S" or "U":
the vector at (x, i) is the block at coset i of the induced vector m_x
in (S-1) tensor mS + (U-1) tensor mU.  Absent blocks are zero, and over
Z/m the vectors are reduced mod m.  The boundary maps are

    d1(mS, mU) = (S-1) mS + (U-1) mU
    d2(n1, n2) = ((1+S) n1, (1+U+U^2) n2)

and H1 = ker d1 / im d2, which computes the homology of the subgroup
by Shapiro's identification.  Functions that read a chain take its
coset table, k and modulus alongside it.  The paper's cycles are
z(gamma) = (gamma - 1) tensor q_gamma^k, q_gamma the quadratic form of
gamma; ``H1Presentation.cycle_coords(gamma)`` gives their coordinates.

Every walk over the cosets reads one fact per coset i and letter x^e:
the coset j and the g in the subgroup with t_i x^e = g^-1 t_j, and
rho(g).  The Fox walk, the local quotient, ``d1`` and
``restricted_form`` (the subgroup form of a cycle's restriction to a
smaller group, the first step of a Hecke image; see hecke) read it
from the table's cache at (k, modulus) (``letter_steps``).

H1 is computed quotient first.  d2 is block diagonal over the S-orbits
(size <= 2) and U-orbits (size <= 3) of cosets, so C1 / im d2 is a sum
of small per-orbit cokernels: the local 2- and 3-term Manin relations.
The induced d1 on their free generators is a graph incidence matrix
with (2k+1)-square blocks; a spanning tree of the coset graph clears
all of it but one block, and the kernel is taken there, over Z or
modulo p^M (LocalQuotient, compute_h1).  No dense matrix of the size
of the induced module is ever built.
"""

from collections import namedtuple
from operator import mul

from .cosets import build_cosets
from .intlinalg import (
    ZZ,
    columns,
    from_columns,
    identity,
    kernel_basis,
    kernel_mod,
    mat_mul,
    smith_normal_form_full,
    subquotient,
)
from .psl2 import decompose_word, quadratic_form
from .symspace import act, add_image, poly_mod, poly_pow, reduce_chain, rho


class NotACycle(ValueError):
    """Chain with nonzero boundary where a cycle is required."""


class LetterSteps(dict):
    """The steps of a coset table's letters ('S', 1), ('U', 1) and
    ('U', 2) at (k, modulus): the key (i, gen, e) maps to (j, g, rho(g))
    with t_i * gen^e == g^-1 * t_j and g in the subgroup, rho(g) taken
    mod the modulus (None at g = 1 and at k = 0).  A step is composed
    from the table's mulS/mulU on first use."""

    def __init__(self, table, k, modulus):
        super().__init__()
        self.table, self.k, self.modulus = table, k, modulus

    def __missing__(self, key):
        i, gen, e = key
        mul = self.table.mulS if gen == "S" else self.table.mulU
        j, tw = mul[i]
        if e == 2:
            j, tw2 = mul[j]
            tw = tw * tw2
        g = tw.inv()
        hit = self[key] = j, g, rho(g, self.k, self.modulus)
        return hit


def letter_steps(table, k, modulus=None):
    """The table's LetterSteps at (k, modulus), one per pair."""
    steps = table.letter_steps.get((k, modulus))
    if steps is None:
        steps = table.letter_steps[k, modulus] = LetterSteps(table, k, modulus)
    return steps


# the exponent e of the step that a chain block of slot x reads:
# x^-1 = x^e, and t_i * x^-1 = g^-1 * t_j sends block i to block j by g
_SLOT_STEP = {"S": 1, "U": 2}


def d1(terms, steps):
    """d1 of a sparse chain [(slot, block, vector)] as {block: vector},
    read through the LetterSteps ``steps``; not reduced."""
    out = {}
    for slot, b, v in terms:
        j, _, M = steps[b, slot, _SLOT_STEP[slot]]
        add_image(out, j, M, v)
        add_image(out, b, None, [-x for x in v])
    return out


def _compose(M, N, modulus=None):
    """M N, None standing for the identity; reduced mod m if given."""
    if M is None or N is None:
        return N if M is None else M
    out = mat_mul(M, N)
    return [[x % modulus for x in row] for row in out] if modulus else out


def merge_blocks(groups, d, modulus=None):
    """Entries (slot, block, matrix) from lists of d x d matrices keyed
    by (slot, block), None standing for the identity.  A lone matrix is
    kept as it is, by reference; repeats are summed into a new matrix,
    reduced mod m if a modulus is given."""
    entries = []
    for (slot, blk), mats in groups.items():
        if len(mats) == 1:
            entries.append((slot, blk, mats[0]))
            continue
        ones = mats.count(None)
        acc = [[ones * (i == j) for j in range(d)] for i in range(d)]
        for M in filter(None, mats):  # the matrices, not the identities
            acc = [[x + y for x, y in zip(r, s)] for r, s in zip(acc, M)]
        if modulus is not None:
            acc = [[x % modulus for x in row] for row in acc]
        entries.append((slot, blk, acc))
    return entries


def _fox_unit_map(table, g, k, modulus):
    """Entries (slot, block, matrix), one per (slot, block), so that the
    chain of (g - 1) tensor (poly at block 0) is the sum of matrix * poly
    placed at the given slot and block; None stands for the identity.
    The word of g is walked letter by letter by the product rule
    (gh - 1) x v = (g - 1) x hv + (h - 1) x v, reading each step from
    the table's letter_steps at (k, modulus).  The map of g itself is
    not cached: callers that use an element more than once keep its
    map."""
    steps = letter_steps(table, k, modulus)
    groups = {}
    block = 0
    mat = None  # None means identity so far
    for gen, e in reversed(decompose_word(g)):
        groups.setdefault((gen, block), []).append(mat)
        if gen == "U" and e == 2:
            # U^2 expands as (U-1) x Uv + (U-1) x v; the Uv part lands
            # where the action of U sends the current block (two U-steps)
            jj, _, A = steps[block, "U", 2]
            groups.setdefault(("U", jj), []).append(_compose(A, mat, modulus))
        # the current vector moves by the letter: one block moves
        n = 1 if gen == "S" else 3 - e
        block, _, A = steps[block, gen, n]
        if A is not None:
            mat = _compose(A, mat, modulus)
    return merge_blocks(groups, 2 * k + 1, modulus)


def fox_expand_unit(table, g, poly, k, modulus=None):
    """The chain of (g - 1) tensor (poly at block 0), via the per-element
    Fox map."""
    out = {}
    for slot, blk, M in _fox_unit_map(table, g, k, modulus):
        add_image(out, (slot, blk), M, poly)
    return reduce_chain(out, modulus)


def cycle_of(gamma, poly, table, k, modulus=None):
    """The chain of (gamma - 1) tensor (poly at the identity block).

    Requires gamma in the subgroup of the table and poly invariant
    under gamma (e.g. a power of its quadratic form); raises NotACycle
    otherwise.
    """
    if table.coset_of(gamma)[0] != 0:
        raise NotACycle("element is not in the subgroup of the table")
    moved = act(gamma.lift(), poly, modulus)
    base = poly_mod(poly, modulus) if modulus else tuple(poly)
    if tuple(moved) != base:
        raise NotACycle("coefficient is not invariant under the element")
    return fox_expand_unit(table, gamma, tuple(poly), k, modulus)


def restricted_form(chain, entries, table, k, m=None):
    """The subgroup form of the restriction of a cycle to the group of
    ``table``: a list of (gamma, vector) with gamma in that group.

    ``entries`` are the restriction's blockwise entries
    (symspace.restriction_map).  Each destination block j has one
    source block, so each nonzero block (slot, i) of the cycle and
    entry (j, M) of i give the term (gamma, M v), gamma the element of
    the step of j in the table's letter_steps at (k, m); terms with
    gamma = 1 are dropped.  ``chain`` must be a cycle: it is not
    checked here (LocalQuotient.lift checks the classes it lifts).
    """
    steps = letter_steps(table, k, m)
    terms = []
    for (slot, i), v in chain.items():
        if any(v):
            e = _SLOT_STEP[slot]
            for j, M in entries[i]:
                gamma = steps[j, slot, e][1]
                if not gamma.is_identity():
                    terms.append((gamma, v if M is None else
                                  [sum(map(mul, row, v)) for row in M]))
    return terms


class H1Presentation:
    """H1 of a subgroup with degree-2k coefficients over a ring,
    as an FgModule with a coordinate map on cycles.

    The ambient coordinates of the module are those of C1 modulo the
    local relations, restricted to the generators off the spanning
    tree (see LocalQuotient); ``coords`` projects a cycle there and
    solves in the kernel basis, and ``chain`` lifts generator
    coordinates back to a cycle.
    """

    def __init__(self, table, k, ring, module, quotient, spec=None):
        self.table = table
        self.k = k
        self.ring = ring
        self.module = module
        self.quotient = quotient
        self.spec = spec

    @property
    def invariant_factors(self):
        return self.module.invariant_factors

    @property
    def rank(self):
        return self.module.rank

    @property
    def ngens(self):
        return self.module.ngens

    def coords(self, chain):
        """Generator coordinates of a cycle (over Z/m: a cycle mod m)."""
        return self.module.coords(self.quotient.project(chain))

    def chain(self, coords):
        """A cycle with the given generator coordinates."""
        return self.quotient.lift(self.module.lift(coords))

    def generator_chain(self, i):
        return self.chain([int(j == i) for j in range(self.ngens)])

    def cycle_coords(self, gamma):
        """Coordinates of z(gamma) = (gamma - 1) tensor q_gamma^k;
        NotDefinedForElliptic if gamma is elliptic or the identity."""
        poly = poly_pow(quadratic_form(gamma), self.k)
        return self.coords(cycle_of(gamma, poly, self.table, self.k,
                                    self.ring.modulus))

    def reduce_coords(self, coords):
        return self.module.reduce_coords(coords)


def _dot(row, x):
    return sum(a * y for a, y in zip(row, x) if y)


# one ambient coordinate of C1 / im d2: row.x_block - prow.x_root (prow
# None for a fixed coset), with generator ``lift`` at block and torsion
# order ``order`` (0 if free)
Coord = namedtuple("Coord", "slot block row root prow lift order")


class LocalQuotient:
    """C1 modulo the local 2- and 3-term relations, with the kernel of
    d1 reduced to a spanning tree of the coset graph.

    d2 is block diagonal over the S-orbits and U-orbits of cosets, so
    C1 / im d2 is a direct sum of per-orbit cokernels (Manin's
    relations).  A full orbit (o0, o1[, o2]) has the free cokernel
    x_{o_t} - P_t x_{o0}, generated by unit vectors at o1[, o2]; a fixed
    coset with letter matrix M has the cokernel of I+M (or I+M+M^2),
    read off its Smith form.  Torsion generators are cycles.

    A free generator at a coset b > 0 whose letter sends b to a smaller
    coset is a tree edge: its d1 is -I at b and a unimodular block at
    the parent, and breadth-first coset tables give every b > 0 one.
    Pushing a d1 column down the tree (leaves first) clears every block
    but the root's, so ker d1 on the quotient is the kernel of a
    (2k+1) x s matrix ``residues`` over the s free generators off the
    tree.  These, then the torsion generators, are the ambient
    coordinates ``coords``.
    """

    def __init__(self, table, k, modulus=None):
        n = table.index
        d = 2 * k + 1
        self.table = table
        self.k = k
        self.modulus = modulus
        # the Z steps over every ring: the fixed-coset Smith forms are
        # taken over Z, and the relations mod m come in compute_h1
        steps = self.steps = letter_steps(table, k)
        full = {}      # (slot, block) -> (orbit root, transport P)
        fixed = []
        for slot, order in (("S", 2), ("U", 3)):
            e = _SLOT_STEP[slot]
            seen = set()
            for i in range(n):
                if i in seen:
                    continue
                orbit = [i]
                while (j := steps[orbit[-1], slot, e][0]) != i:
                    orbit.append(j)
                seen.update(orbit)
                if len(orbit) == order:
                    P = identity(d)
                    for a, b in zip(orbit, orbit[1:]):  # i is the least
                        P = _compose(steps[a, slot, e][2], P)
                        full[(slot, b)] = (i, P)
                    continue
                R = power = identity(d)
                for _ in range(order - 1):
                    power = _compose(steps[i, slot, e][2], power)
                    R = [[x + y for x, y in zip(r1, r2)]
                         for r1, r2 in zip(R, power)]
                U, Uinv, D = smith_normal_form_full(R)
                fixed += [Coord(slot, i, Uinv[r], None, None,
                                [row[r] for row in U], D[r][r])
                          for r in range(d) if D[r][r] != 1]
        self.tree = {}  # block -> (slot, parent, M)
        for b in range(1, n):
            for slot in ("S", "U"):
                parent, _, M = steps[b, slot, _SLOT_STEP[slot]]
                if (slot, b) in full and parent < b:
                    self.tree[b] = (slot, parent, M)
                    break
            else:
                raise RuntimeError("coset table is not breadth-first")
        unit = identity(d)
        self.coords = [Coord(slot, b, unit[i], root, P[i], unit[i], 0)
                       for (slot, b), (root, P) in sorted(full.items())
                       if self.tree[b][0] != slot for i in range(d)]
        self.coords += sorted(fixed, key=lambda c: c.order != 0)
        self.torsion = [(j, c.order) for j, c in enumerate(self.coords)
                        if c.order]
        # the functionals of project, by the chain block they read
        self.readers = {}  # (slot, block) -> [(coordinate index, row)]
        for j, c in enumerate(self.coords):
            self.readers.setdefault((c.slot, c.block), []).append((j, c.row))
            if c.prow:
                self.readers.setdefault((c.slot, c.root), []).append(
                    (j, [-x for x in c.prow]))
        self.nfree = len(self.coords) - len(self.torsion)
        cols = [self._push(d1([(c.slot, c.block, c.lift)], steps))[0]
                for c in self.coords[:self.nfree]]
        self.residues = from_columns(cols, d)

    @property
    def ambient_rank(self):
        return len(self.coords)

    def _reduce(self, v):
        m = self.modulus
        return [x % m for x in v] if m else v

    def _push(self, blocks):
        """Add tree generators until only the root block of a 0-chain
        is left: returns (root block, tree coefficients by block).
        Parents have smaller indices, so one descending sweep does."""
        coef = {}
        for b in range(max(blocks, default=0), 0, -1):
            v = self._reduce(blocks.pop(b, []))
            if any(v):
                coef[b] = v
                _, parent, M = self.tree[b]
                add_image(blocks, parent, M, v)
        return self._reduce(blocks.get(0, [0] * (2 * self.k + 1))), coef

    def project(self, chain):
        """Ambient coordinates of a chain modulo the local relations."""
        out = [0] * len(self.coords)
        for key, v in chain.items():
            for j, row in self.readers.get(key, ()):
                out[j] += _dot(row, v)
        return self._reduce(out)

    def lift(self, vec):
        """A cycle with the given ambient coordinates (vec must lie in
        the kernel of ``residues`` on the free part)."""
        terms = [(c.slot, c.block, [a * x for x in c.lift])
                 for a, c in zip(vec, self.coords) if a]
        root, coef = self._push(d1(terms, self.steps))
        if any(root):
            raise NotACycle("vector outside the kernel of the residues")
        terms += [(self.tree[b][0], b, v) for b, v in coef.items()]
        acc = {}
        for slot, b, v in terms:
            add_image(acc, (slot, b), None, v)
        return reduce_chain(acc, self.modulus)


def compute_h1(spec_or_table, k, ring=ZZ):
    """H1 presentation of the congruence subgroup with degree-2k
    coefficients over the given ring.

    H1 is the torsion of C1 / im d2 plus the kernel of d1 on its free
    part (see LocalQuotient).  Over Z and Q that kernel is primitive;
    over Z/m it is the kernel mod m, taken modulo m on the free part
    and modulo gcd(e, m) on a local torsion factor e.  Over Q only the
    free part is exposed.
    """
    if k < 0:
        raise ValueError("k must be >= 0, got %d" % k)
    if hasattr(spec_or_table, "transversal"):
        table = spec_or_table
        spec = None
    else:
        spec = spec_or_table
        table = build_cosets(spec)
    modulus = ring.modulus
    quo = LocalQuotient(table, k, modulus)
    s = quo.nfree
    n = quo.ambient_rank
    if modulus is None:
        K = kernel_basis(quo.residues)
    else:
        K = kernel_mod(quo.residues, modulus)
    kcols = [col + [0] * (n - s) for col in columns(K)]
    image = []
    for idx, e in quo.torsion:
        kcols.append([int(t == idx) for t in range(n)])
        image.append([e * (t == idx) for t in range(n)])
    if modulus is not None:
        image += [[modulus * (t == i) for t in range(n)] for i in range(n)]
    module = subquotient(from_columns(kcols, n), from_columns(image, n), ring)
    return H1Presentation(table, k, ring, module, quo, spec=spec)
