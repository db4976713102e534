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
rho(g).  The Fox walk, the local quotient and ``restricted_form``
(the subgroup form of a class's restriction to a smaller group, the
first step of a Hecke image; see hecke) read it from the table's steps
at (k, modulus) (``letter_steps``), a plain dict built whole from
mulS/mulU on first use; the smaller group's steps are these with a
move of its coset reps.  One walk reads every element into ambient
coordinates: ``RunSums``, one per LocalQuotient, walks the runs T^q of
the element's word (psl2.word_runs) along the T-orbits, each built
whole with its prefix sums when a run first enters it, with
closed-form sums over whole laps, and its single letters one at a time
(``fox_step``).  A cycle z(gamma) (``cycle_of``) and each conjugated
term of a Hecke image are read by the same walk; no chain of either is
built.  The walk carries only the columns it is applied to: a cycle
walks q_gamma^k as one column, and a conjugated element the vectors of
the classes that use it, unless they are 2k+1 or more (see
hecke.conj_star); then it carries its (2k+1)-square map.

H1 is computed quotient first.  d2 is block diagonal over the S-orbits
(size <= 2) and U-orbits (size <= 3) of cosets, so C1 / im d2 is a sum
of small per-orbit cokernels: the local 2- and 3-term Manin relations.
The induced d1 on their free generators is a graph incidence matrix
with (2k+1)-square blocks.  A spanning tree of the coset graph whose
edges all have twist 1 (the edges that found each coset of the
breadth-first table) clears all of it but one block, where each
generator off the tree leaves (rho(g) - 1) times its lift, and the
kernel is taken there, over Z or modulo p^M (LocalQuotient,
compute_h1).  A class is read off its blocks off the tree alone
(``LocalQuotient.blocks``), so no cycle is built from a class, and no
dense matrix of the size of the induced module is ever built.
"""

from collections import namedtuple
from functools import cached_property
from math import comb, gcd
from operator import add, mul, sub

from .cosets import build_cosets
from .intlinalg import (
    ZZ,
    columns,
    from_columns,
    identity,
    kernel_basis,
    kernel_mod,
    mat_mul,
    mat_vec,
    smith_normal_form_full,
    subquotient,
)
from .psl2 import T_LETTERS, quadratic_form, word_runs
from .symspace import act, poly_mod, poly_pow, rho


class NotACycle(ValueError):
    """Chain with nonzero boundary where a cycle is required."""


def letter_steps(table, k, modulus=None):
    """The steps of the table's letters ('S', 1), ('U', 1) and ('U', 2)
    at (k, modulus), a dict built whole on first call and kept on the
    table: the key (i, gen, e) maps to (j, g, rho(g)) with
    t_i * gen^e == g^-1 * t_j and g in the subgroup, rho(g) taken mod the
    modulus (None at g = 1 and at k = 0)."""
    steps = table.letter_steps.get((k, modulus))
    if steps is None:
        steps = table.letter_steps[k, modulus] = {}
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
_SLOT_STEP = {"S": 1, "U": 2}


def _compose(M, N, modulus=None):
    """M N, None standing for the identity; reduced mod m if given."""
    if M is None or N is None:
        return N if M is None else M
    out = mat_mul(M, N)
    return [[x % modulus for x in row] for row in out] if modulus else out


def merge_blocks(groups, d, modulus=None):
    """Entries (slot, block, matrix) from lists of d x m matrices keyed
    by (slot, block), None standing for the d x d identity.  A lone
    matrix is kept as it is, by reference; repeats are summed into a new
    matrix, reduced mod m if a modulus is given."""
    entries = []
    for (slot, blk), mats in groups.items():
        if len(mats) == 1:
            entries.append((slot, blk, mats[0]))
            continue
        mats = [identity(d) if M is None else M for M in mats]
        acc = [list(map(sum, zip(*rows))) for rows in zip(*mats)]
        if modulus is not None:
            acc = [[x % modulus for x in row] for row in acc]
        entries.append((slot, blk, acc))
    return entries


def fox_step(steps, groups, block, mat, gen, e, modulus=None):
    """One letter (gen, e) of the Fox walk: the walk at ``block`` with
    matrix ``mat`` (None for the identity) deposits mat into the list
    of ``groups`` at (gen, block), and U^2 also deposits where the
    action of U sends the block; returns the block and matrix the
    letter moves the walk to.  Steps are read from the letter steps
    ``steps`` (letter_steps)."""
    groups.setdefault((gen, block), []).append(mat)
    if gen == "U" and e == 2:
        # U^2 expands as (U-1) x Uv + (U-1) x v; the Uv part lands
        # where the action of U sends the current block (two U-steps)
        jj, _, A = steps[block, "U", 2]
        groups.setdefault(("U", jj), []).append(_compose(A, mat, modulus))
    # the current vector moves by the letter: one block moves
    block, _, A = steps[block, gen, 1 if gen == "S" else 3 - e]
    return block, mat if A is None else _compose(A, mat, modulus)


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


def restricted_form(blocks, steps, rhos, moves):
    """The subgroup form of the restriction of a class to a subgroup
    Gamma_1 of the group Gamma of its table: a list of (gamma, vector)
    with gamma in Gamma_1.

    Gamma_1's cosets are the s_r t_i, s_r its reps in Gamma; its step
    at (r, i) is Gamma's step g at i (read from Gamma's letter steps
    ``steps``) with the element gamma = moves(g)[r], where s_r g^-1 ==
    gamma^-1 s_r'.  The restriction puts rho(s_r) v (``rhos``, from
    symspace.restriction_map) at (r, i), so each nonzero block (slot, i)
    of a cycle gives the terms (gamma, rho(s_r) v).  Terms with
    gamma = 1 are dropped, and with them every block whose g is 1, the
    tree edges among them (LocalQuotient): so a class reads the same
    off its ``blocks`` off the tree (LocalQuotient.blocks) as off the
    cycle that the tree edges complete them to.
    """
    terms = []
    for (slot, i), v in blocks.items():
        g = steps[i, slot, _SLOT_STEP[slot]][1]
        if any(v) and not g.is_identity():
            for M, gamma in zip(rhos, moves(g)):
                if not gamma.is_identity():
                    terms.append((gamma, v if M is None else
                                  [sum(map(mul, row, v)) for row in M]))
    return terms


def _add_rows(acc, pairs, M):
    """acc[idx] += row M for the pairs (idx, row), M None standing for
    the identity."""
    cols = None if M is None else list(zip(*M))
    for idx, row in pairs:
        r = row if cols is None else [sum(map(mul, row, c)) for c in cols]
        acc[idx] = list(map(add, acc[idx], r)) if idx in acc else r


def lap_sums(P, n, d, powers, modulus=None):
    """(S_n, P^n), S_n = I + P + ... + P^(n-1), for a d x d matrix P (None
    for the identity) with N = P - I nilpotent, N^d = 0, like rho of a
    parabolic element.  As P^j = sum_i C(j, i) N^i, S_n is the sum of
    C(n, i+1) N^i and P^n that of C(n, i) N^i over i < min(n+1, d).
    ``powers`` holds the N^i built so far (empty at first) and grows to
    N^min(n, d-1); reduced mod m if a modulus is given, P^n None if P is."""
    if not powers:  # N^0 and N
        powers += [identity(d), [[x - (i == j) for j, x in enumerate(row)]
                                 for i, row in enumerate(P or identity(d))]]
    top = min(n, d - 1)
    while len(powers) <= top:
        powers.append(_compose(powers[1], powers[-1], modulus))
    S, Pn = ([[0] * d for _ in range(d)] for _ in range(2))
    for i in range(top + 1):
        for acc, c in ((S, comb(n, i + 1)), (Pn, comb(n, i))):
            if c:
                for r, t in zip(acc, powers[i]):
                    r[:] = [x + c * y for x, y in zip(r, t)]
    if modulus:
        S, Pn = ([[x % modulus for x in row] for row in M] for M in (S, Pn))
    return S, Pn if P else None


class _Orbit:
    """One T^s-orbit b_0 -> ... -> b_(w-1) of a table's blocks, built
    whole: for every t <= w the twists Pi_t, their inverses and the
    prefix sums PS_t; the powers of lap_sums; and R_n and P^n for each
    lap count n that a run has read (see RunSums)."""

    __slots__ = ("blocks", "pi", "pinv", "ps", "powers", "laps")

    def __init__(self, blocks, pi, pinv, ps):
        self.blocks, self.pi, self.pinv, self.ps = blocks, pi, pinv, ps
        self.powers = []
        self.laps = {}


class RunSums:
    """The Fox walk of elements of the group of a LocalQuotient's table
    read straight into its coordinates through its readers, one step
    per run T^q of their words (psl2.word_runs): the cycles z(gamma)
    (``cycle_of``) and the conjugated terms of Hecke images alike.

    One step of T^s (s = +-1) is the two letters of T^s, walked as in
    ``fox_step``.  Along a T^s-orbit b_0 -> b_1 -> ... -> b_(w-1)
    of the table's blocks, a walk that enters b_0 with matrix M is at
    b_u with Pi_u M, and G(b) are the reader rows that one step from b
    deposits per unit matrix.  The prefix sums are PS_t = sum over
    u < t of G(b_u) Pi_u, and the orbit closes with the lap twist
    P = Pi_w.  A run of q steps entering b_t with M, where
    t + q = n w + r and 0 <= r < w, passes b_0 n times: with
    X = Pi_t^-1 M it adds (R_n - PS_t) X + PS_r P^n X to the element's
    projected map, where R_n = PS_w (I + P + ... + P^(n-1)) are the
    lap sums (R_0 = 0), and leaves b_r with Pi_r P^n X.  A run within
    one lap (n = 0) is the difference of two prefix sums.  P is rho of
    a conjugate of T^(+-w), so R_n and P^n have a closed form
    (``lap_sums``) however many laps a run makes.

    The first run to enter an orbit builds it whole, from b_0 = the
    block it enters: its twists and prefix sums, and Pi^-1 carried from
    the steps of T^-s, which walk the orbit backwards; the lap sums are
    kept for the lap counts that runs read.  Single letters take one
    fox_step each, and their deposits are read once per block.  Nothing
    depends on the element walked, so one RunSums
    (``LocalQuotient.runs``) serves every cycle and every double coset
    into the quotient's H1.

    A walk may start from a d x m block V in place of M = I: its
    deposits and twists are then d x m, each product costs d m per row
    in place of d^2, and it reads the projected map times V.
    """

    def __init__(self, quotient):
        table, k, modulus = quotient.table, quotient.k, quotient.modulus
        self.table = table
        self.steps = letter_steps(table, k, modulus)
        self.readers = quotient.readers
        self.d = 2 * k + 1
        self.modulus = modulus
        self.orbits = {}  # (s, block) -> (orbit, position)

    def project(self, g, V=None):
        """The projected Fox map of g times the d x m block V (None for
        the identity, m = d): pairs (coordinate index, row of length m),
        the sum of the reader rows times the Fox entries of g times V.
        The walk starts from V, so each step carries m columns."""
        steps, m, readers = self.steps, self.modulus, self.readers
        proj, groups = {}, {}
        block, mat = 0, V
        for gen, e in reversed(word_runs(g)):
            if gen == "T":
                block, mat = self._run(proj, block, mat, e)
            else:
                block, mat = fox_step(steps, groups, block, mat, gen, e, m)
        for slot, blk, M in merge_blocks(groups, self.d, m):
            _add_rows(proj, readers.get((slot, blk), ()), M)
        return list(proj.items())

    def _run(self, proj, block, mat, q):
        """Add the run T^q entering ``block`` with ``mat`` to proj;
        returns the block and matrix it leaves with."""
        s, q = (1, q) if q > 0 else (-1, -q)
        m = self.modulus
        orbit, t = self._position(s, block)
        n, r = divmod(t + q, len(orbit.blocks))
        hi, Pn = self._laps(orbit, n) if n else (orbit.ps[r], None)
        # lo's indices are among hi's; _position shares every twist and
        # row that a step leaves unchanged, so they compare by identity
        lo = orbit.ps[t]
        rows = [(idx, list(map(sub, row, lo[idx])) if idx in lo else row)
                for idx, row in hi.items() if row is not lo.get(idx)]
        X = _compose(orbit.pinv[t], mat, m)
        _add_rows(proj, [(idx, row) for idx, row in rows if any(row)], X)
        if n:
            X = _compose(Pn, X, m)
            _add_rows(proj, orbit.ps[r].items(), X)
        elif orbit.pi[r] is orbit.pi[t]:  # no step between t and r twists
            return orbit.blocks[r], mat
        return orbit.blocks[r], _compose(orbit.pi[r], X, m)

    def _position(self, s, block):
        """(orbit, position) of a block on its T^s-orbit, the orbit built
        whole when a run first enters it: one step is the two letters of
        T^s, each a fox_step, and its inverse the letters of T^-s."""
        hit = self.orbits.get((s, block))
        if hit is not None:
            return hit
        steps, m, readers = self.steps, self.modulus, self.readers
        back = [(gen, 1 if gen == "S" else 3 - e)
                for gen, e in T_LETTERS[-s][::-1]]
        blocks, pi, pinv, ps = [block], [None], [None], [{}]
        while True:
            groups, rows = {}, {}
            blk, M = blocks[-1], pi[-1]
            for gen, e in reversed(T_LETTERS[s]):
                blk, M = fox_step(steps, groups, blk, M, gen, e, m)
            for key, mats in groups.items():
                for D in mats:
                    _add_rows(rows, readers.get(key, ()), D)
            acc = dict(ps[-1]) if rows else ps[-1]  # sums are never changed
            _add_rows(acc, rows.items(), None)
            ps.append(acc)
            pi.append(M)
            # Pi_u is None (the identity) only while every twist so far
            # is, and then so is its inverse
            B = None  # the twist of one step of T^-s, back from blk
            if M is not None:
                b = blk
                for gen, e in back:
                    b, _, A = steps[b, gen, e]
                    B = _compose(A, B, m)
            pinv.append(_compose(pinv[-1], B, m))
            if blk == block:
                break
            blocks.append(blk)
        orbit = _Orbit(blocks, pi, pinv, ps)
        for u, b in enumerate(blocks):
            self.orbits[s, b] = orbit, u
        return orbit, 0

    def _laps(self, orbit, n):
        """(R_n, P^n) by lap_sums, memoised per n."""
        hit = orbit.laps.get(n)
        if hit is None:
            w, m = len(orbit.blocks), self.modulus
            S, Pn = lap_sums(orbit.pi[w], n, self.d, orbit.powers, m)
            hit = orbit.laps[n] = {}, Pn
            _add_rows(hit[0], orbit.ps[w].items(), S)
        return hit


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
    read off its Smith form.  Torsion generators are cycles.

    A free generator at a coset b > 0 whose letter step goes to a
    smaller coset with g = 1 is a tree edge: its d1 is -v at b and v at
    the parent.  The edge that found b in a breadth-first coset table
    (t_b == t_parent x) is one, so every b > 0 has one.  Clearing the
    blocks of a 0-chain down the tree (leaves first) adds them all up at
    the root, so ker d1 on the quotient is the kernel of a (2k+1) x s
    matrix ``residues`` over the s free generators off the tree, the
    column of each (rho(g) - 1) times its lift, g from its letter step.
    These, then the torsion generators, are the ambient coordinates
    ``coords``.  A class is its blocks off the tree (``blocks``): the
    tree edges that make it a cycle are read by no coordinate and have
    g = 1.
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
        self.tree = {}  # block -> slot of its tree edge
        for b in range(1, n):
            for slot in ("S", "U"):
                parent, g, _ = steps[b, slot, _SLOT_STEP[slot]]
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
        self.nfree = sum(1 for c in self.coords if not c.order)
        cols = []
        for c in self.coords[:self.nfree]:
            M = steps[c.block, c.slot, _SLOT_STEP[c.slot]][2]
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

    H1 is the torsion of C1 / im d2 plus the kernel of d1 on its free
    part (see LocalQuotient), primitive over Z and Q and mod m over
    Z/m.  The ring enters here only, as one relation r*e_i on each
    ambient coordinate of local order e (0 if free): r = e over Z,
    gcd(e, m) over Z/m and 1 on the torsion over Q, where e is a unit.
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
    kcols += [[int(t == i) for t in range(n)] for i in range(s, n)]
    orders = [c.order for c in quo.coords]
    if modulus is not None:
        orders = [gcd(e, modulus) for e in orders]
    elif ring.kind == "Q":
        orders = [int(e != 0) for e in orders]
    image = [[r * (t == i) for t in range(n)]
             for i, r in enumerate(orders) if r]
    module = subquotient(from_columns(kcols, n), from_columns(image, n))
    return H1Presentation(table, k, ring, module, quo, spec=spec)
