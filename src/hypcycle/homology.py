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
rho(g).  The local quotient, the run walk of cycles and Hecke images
(walk.RunSums, which ``cycle_of`` reads) and hecke.restricted_form
read the steps that the LocalQuotient builds whole at its k and
modulus (``letter_steps``); a smaller group's steps are these with a
move of its coset reps (see hecke).  ``LocalQuotient.runs`` imports
the walk when a cycle or an image first needs it, so computing H1
alone never loads it.

H1 is computed quotient first.  d2 is block diagonal over the S-orbits
(size <= 2) and U-orbits (size <= 3) of cosets, so C1 / im d2 is a sum
of small per-orbit cokernels: the local 2- and 3-term Manin relations.
The induced d1 on their free generators is a graph incidence matrix
with (2k+1)-square blocks.  A spanning tree of the coset graph whose
edges all have twist 1 (the edges that found each coset of the
breadth-first table) clears all of it but one block, where each
coordinate leaves (rho(g) - 1) times its lift (zero on torsion), and
the kernel is taken there, over Z or modulo p^M (LocalQuotient,
compute_h1).  A class is read off its blocks off the tree alone
(``LocalQuotient.blocks``), so no cycle is built from a class, and no
dense matrix of the size of the induced module is ever built.
"""

from collections import namedtuple
from functools import cached_property
from math import gcd
from operator import add, mul, sub

from .cosets import build_cosets
from .intlinalg import (
    ZZ,
    compose,
    from_columns,
    identity,
    kernel_basis,
    kernel_mod,
    mat_vec,
    smith_normal_form_full,
    subquotient,
)
from .psl2 import quadratic_form
from .symspace import act, poly_mod, poly_pow, rho


class NotACycle(ValueError):
    """Chain with nonzero boundary where a cycle is required."""


def letter_steps(table, k, modulus=None):
    """The steps of the table's letters ('S', 1), ('U', 1) and ('U', 2)
    at (k, modulus), a dict built whole: the key (i, gen, e) maps to
    (j, g, rho(g)) with t_i * gen^e == g^-1 * t_j and g in the subgroup,
    rho(g) taken mod the modulus (None at g = 1 and at k = 0).  Each
    LocalQuotient builds one, at its own modulus (``steps``)."""
    steps = {}
    for i in range(table.index):
        for gen, e in (("S", 1), ("U", 1), ("U", 2)):
            mul = table.mulS if gen == "S" else table.mulU
            j, tw = mul[i]
            if e == 2:
                j, tw2 = mul[j]
                tw = tw * tw2
            g = tw.inv()
            steps[i, gen, e] = j, g, rho(g, k, modulus)
    return steps


# the exponent e of the step that a chain block of slot x reads:
# x^-1 = x^e, and t_i * x^-1 = g^-1 * t_j sends block i to block j by g
SLOT_STEP = {"S": 1, "U": 2}


def cycle_of(gamma, poly, quotient):
    """Ambient coordinates in the LocalQuotient ``quotient`` of the cycle
    (gamma - 1) tensor (poly at the identity block): the run walk of
    gamma (``quotient.runs``) carrying poly as its one column.  Requires
    gamma in the subgroup and poly invariant under gamma (e.g. a power
    of its quadratic form); raises NotACycle otherwise."""
    modulus = quotient.modulus
    if quotient.table.coset_of(gamma)[0] != 0:
        raise NotACycle("element is not in the subgroup of the table")
    moved = act(gamma.lift(), poly, modulus)
    base = poly_mod(poly, modulus) if modulus else tuple(poly)
    if tuple(moved) != base:
        raise NotACycle("coefficient is not invariant under the element")
    out = [0] * quotient.ambient_rank
    for idx, (x,) in quotient.runs.project(gamma, [[c] for c in poly]):
        out[idx] = x
    return [x % modulus for x in out] if modulus else out


class H1Presentation:
    """H1 of a subgroup with degree-2k coefficients over a ring,
    as an FgModule with a coordinate map on cycles.

    The ambient coordinates of the module are those of C1 modulo the
    local relations, restricted to the generators off the spanning
    tree (see LocalQuotient); ``coords`` solves a cycle's ambient
    coordinates in the kernel basis, and a class given by generator
    coordinates is read as ``quotient.blocks(module.lift(coords))``.
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

    def coords(self, vec):
        """Generator coordinates of a cycle, given by its ambient
        coordinates (``quotient.project`` of a chain, ``cycle_of``, or a
        Hecke image); over Z/m the vector is reduced mod m."""
        return self.module.coords(vec)

    def cycle_coords(self, gamma):
        """Coordinates of z(gamma) = (gamma - 1) tensor q_gamma^k;
        NotDefinedForElliptic if gamma is elliptic or the identity."""
        poly = poly_pow(quadratic_form(gamma), self.k)
        return self.coords(cycle_of(gamma, poly, self.quotient))

    def reduce_coords(self, coords):
        return self.module.reduce_coords(coords)


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
    read off its Smith form.  Torsion generators v are cycles: e v in
    im(I + M (+ M^2)) gives e (M - I) v = 0 in the torsion-free C0.

    A free generator at a coset b > 0 whose letter step goes to a
    smaller coset with g = 1 is a tree edge: its d1 is -v at b and v at
    the parent.  The edge that found b in a breadth-first coset table
    (t_b == t_parent x) is one, so every b > 0 has one.  Clearing the
    blocks of a 0-chain down the tree (leaves first) adds them all up at
    the root, so ker d1 on the quotient is the kernel of a (2k+1) x n
    matrix ``residues``, with one column per ambient coordinate of
    ``coords`` (the free generators off the tree, then the torsion
    generators): (rho(g) - 1) times its lift, g from its letter step.
    A class is its blocks off the tree (``blocks``): the tree edges
    that make it a cycle are read by no coordinate and have g = 1.  The
    quotient builds the one step table (``steps``) that it and its
    RunSums read, at its modulus; the fixed cosets' Smith forms, taken
    over Z, take rho(g) over Z themselves.
    """

    def __init__(self, table, k, modulus=None):
        n = table.index
        d = 2 * k + 1
        self.table = table
        self.k = k
        self.modulus = modulus
        steps = self.steps = letter_steps(table, k, modulus)
        full = {}      # (slot, block) -> (orbit root, transport P)
        fixed = []
        for slot, order in (("S", 2), ("U", 3)):
            e = SLOT_STEP[slot]
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
                        P = compose(steps[a, slot, e][2], P, modulus)
                        full[(slot, b)] = (i, P)
                    continue
                # over Z: the relations mod m come in compute_h1
                M = rho(steps[i, slot, e][1], k)
                R = power = identity(d)
                for _ in range(order - 1):
                    power = compose(M, power)
                    R = [[x + y for x, y in zip(r1, r2)]
                         for r1, r2 in zip(R, power)]
                U, Uinv, D = smith_normal_form_full(R)
                fixed += [Coord(slot, i, Uinv[r], None, None,
                                [row[r] for row in U], D[r][r])
                          for r in range(d) if D[r][r] != 1]
        self.tree = {}  # block -> slot of its tree edge
        for b in range(1, n):
            for slot in ("S", "U"):
                parent, g, _ = steps[b, slot, SLOT_STEP[slot]]
                if parent < b and g.is_identity():
                    self.tree[b] = slot
                    break
            else:
                raise RuntimeError("coset table is not breadth-first")
        unit = identity(d)
        self.coords = [Coord(slot, b, unit[i], root, P[i], unit[i], 0)
                       for (slot, b), (root, P) in sorted(full.items())
                       if self.tree[b] != slot for i in range(d)]
        self.coords += sorted(fixed, key=lambda c: c.order != 0)
        # the functionals of project, by the chain block they read
        self.readers = {}  # (slot, block) -> [(coordinate index, row)]
        for j, c in enumerate(self.coords):
            self.readers.setdefault((c.slot, c.block), []).append((j, c.row))
            if c.prow:
                self.readers.setdefault((c.slot, c.root), []).append(
                    (j, [-x for x in c.prow]))
        cols = []
        for c in self.coords:
            M = steps[c.block, c.slot, SLOT_STEP[c.slot]][2]
            cols.append(self._reduce([0] * d if M is None else list(
                map(sub, mat_vec(M, c.lift), c.lift))))
        self.residues = from_columns(cols, d)

    @property
    def ambient_rank(self):
        return len(self.coords)

    @cached_property
    def runs(self):
        """The RunSums of this quotient, built on first use and shared by
        every double coset into its H1."""
        from .walk import RunSums

        return RunSums(self)

    def _reduce(self, v):
        m = self.modulus
        return [x % m for x in v] if m else v

    def project(self, chain):
        """Ambient coordinates of a chain modulo the local relations."""
        out = [0] * len(self.coords)
        for key, v in chain.items():
            for j, row in self.readers.get(key, ()):
                out[j] += sum(map(mul, row, v))
        return self._reduce(out)

    def blocks(self, vec):
        """The blocks off the tree {(slot, block): vector} of the class
        with ambient coordinates vec: a times the lift of each coordinate,
        summed per block, reduced mod m."""
        out = {}
        for a, c in zip(vec, self.coords):
            if a:
                key, w = (c.slot, c.block), [a * x for x in c.lift]
                out[key] = list(map(add, out[key], w)) if key in out else w
        return {key: self._reduce(v) for key, v in out.items()}


def compute_h1(spec_or_table, k, ring=ZZ):
    """H1 presentation of the congruence subgroup with degree-2k
    coefficients over the given ring.

    H1 is the kernel of the residues (see LocalQuotient), primitive
    over Z and Q and mod m over Z/m, modulo the relations.  The ring
    enters here only, as one relation r*e_i on each ambient coordinate
    of local order e (0 if free): r = e over Z, gcd(e, m) over Z/m and
    1 on the torsion over Q, where e is a unit.
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
    n = quo.ambient_rank
    if modulus is None:
        K = kernel_basis(quo.residues)
    else:
        K = kernel_mod(quo.residues, modulus)
    orders = [c.order for c in quo.coords]
    if modulus is not None:
        orders = [gcd(e, modulus) for e in orders]
    elif ring.kind == "Q":
        orders = [int(e != 0) for e in orders]
    image = [[r * (t == i) for t in range(n)]
             for i, r in enumerate(orders) if r]
    module = subquotient(K, from_columns(image, n))
    return H1Presentation(table, k, ring, module, quo, spec=spec)
