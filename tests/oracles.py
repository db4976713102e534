"""Reference routes used only by the tests.

``subgroup_cosets`` is the reference coset enumeration: breadth-first
in the order of ``build_cosets``, but it decides coset equality by
scanning the whole transversal with a membership predicate, and its
tables find the coset of an element by walking its word in S and U.  It needs nothing but the predicate, so it also
serves subgroups that have no key, such as the theta group.  It raises
``BudgetExceeded`` when the orbit outgrows its bound.  With a
``shuffle_seed`` it explores the cosets in a seeded random order, which
gives the transversals that the invariance tests compare.
``schreier_transversal`` is a breadth-first transversal over the
ambient group's Schreier generators and their inverses, with no
T-orbits taken first, and ``filter_transversal`` the filter of the
smaller table's transversal that ``cosets.subgroup_transversal``
replaced.  ``intersection_key`` and ``intersection_table`` build the
breadth-first table of an intersection group Gamma n alpha^-1 Gamma'
alpha, the table of Gamma_1 that a double coset no longer builds
(``gamma1_table``); ``gamma1_restriction`` adds the blockwise
restriction onto it (``restriction_entries``, the map that
``symspace.restriction_map`` replaced), and ``product_table`` is
Gamma_1's table on the transversal s_r t_i that the double coset reads.
``double_coset_predicates`` are the membership tests of the two
intersection groups of a double coset, written directly from their
definitions.

``dense_h1`` is the dense presentation of H1 that ``compute_h1`` used
before the quotient-first route: it builds d1 and d2 on the whole
induced module from the per-letter action matrices, takes ker d1 over
Z (or the kernel mod m, found by an integer echelon of [A | m*I]), and
passes both to ``subquotient``.  It shares no code with the local
cokernels and the spanning tree of ``homology.LocalQuotient``.

``fox_expand`` is the letter-by-letter Fox expansion on whole induced
vectors, and ``conj_star_letter_walk`` is the conjugation push built on
it: each conjugated term is expanded by walking its word on the table
of Gamma_2 (``gamma2_table``), and the whole chain is corestricted
afterwards.  They share no code with the run walk of
``homology.RunSums`` that ``hecke.conj_star`` and
``homology.cycle_of`` read through.  ``fox_expand_unit`` is the letter
walk that run walk replaced: the word of an element spelled letter by
letter (``decompose_word``) and walked by ``homology.fox_step``, each
block's matrices merged, giving the chain of (g - 1) tensor v; it is
the reference for the cycles z(gamma) (``cycle_coords_of``).
``CorestrictedReaders`` and ``corestricted_quotient`` are the
route that walk replaced: the run walk on Gamma_2's table, read through
the target's readers composed with the corestriction.  ``ind_act``, ``boundary2``,
``group_chain_to_chain1``, ``restrict_coeff``, ``corestrict_coeff`` and
``transfer_res`` are the chain-level operations the tests check against.
``apply_blockwise`` maps a chain through the blockwise entries of the
restriction or corestriction, and ``to_group_chain`` rewrites a cycle
in subgroup form, reading its steps from the table's mulS/mulU and
checking the cycle by the dense boundary: chained, they are the route
that ``homology.restricted_form`` replaced, which built the restricted
chain on the smaller group and walked it again.

``Chain1`` (a pair (mS, mU) of ``IndVec``, one degree-2k block per
coset in each slot), ``ind_act_letter`` and ``boundary1`` are the dense
reference form of the library's chains, which are sparse dicts
{(slot, block): vector}.  ``sparse`` and ``dense`` convert between the
two forms; the oracles above work on dense chains, and the tests
convert where they hand a chain to the library or take one back.

``zero_poly``, ``poly_add``, ``poly_sub``, ``poly_scale``,
``monomial``, ``x2_power``, ``cycle_coords_of`` (the coordinates of
(gamma - 1) tensor w for any w that gamma fixes, by the letter walk,
where ``H1Presentation.cycle_coords`` takes w = q_gamma^k by the run
walk),
``letter_step`` (right multiplication of a coset by a word letter,
composed from the table's mulS/mulU), ``TP``, ``word_from_letters`` (the
stack reduction of a letter sequence) and ``letter_word`` (the reduced
word built letter by letter on it, which ``psl2.word_runs`` replaced),
``power``, ``evaluate_word``, ``transpose``,
``rank``, ``det``, ``smith_normal_form`` (the Smith form with both
transition matrices, built from two left-only Smith forms of the
library), ``saturate_columns``, ``schreier`` and ``p1_size`` are matrix,
word and coset helpers that only the tests need, and ``h_closure`` is
the subgroup H of (Z/N)^x of a spec, grown from its generators.  ``compose``,
``equals``, ``is_zero``, ``scaled`` and ``plus`` are the algebra of
``hecke.OperatorMatrix`` that the operator identities are checked in.

``induced_endomorphism`` is the matrix of an ambient map on the
generators of a subquotient; ``cycle_quotient_report`` once ran its
per-prime test on it, and the tests keep that route as the oracle of
the test on H1 (x) F_q.  ``close_every_row`` is the Hecke-closure
rule that ``Lattice.close_under`` replaced: every map on every row in
each round, where close_under maps only the rows that grew.
``beta_matrix``, ``gamma0p_intersection`` and
``pi_phi_V`` build the level-raising square (pi, phi, V) at a prime
coprime to the level.
"""

from dataclasses import dataclass
from types import SimpleNamespace


from hypcycle.cosets import CosetTable, SubgroupSpec, build_cosets
from hypcycle.hecke import (
    ConjugateLeavesGroup,
    DoubleCoset,
    OperatorMatrix,
    WrongDivisibility,
    conjugate_by,
    hecke_coset,
    hermite_split,
)
from hypcycle.homology import (
    H1Presentation,
    NotACycle,
    compute_h1,
    fox_step,
    letter_steps,
    merge_blocks,
)
from hypcycle.intlinalg import (
    ColumnEchelon,
    NotInModule,
    columns,
    diagonal,
    from_columns,
    identity,
    kernel_basis,
    mat_mul,
    mat_vec,
    smith_normal_form_full,
    subquotient,
    xgcd,
    zeros,
)
from hypcycle.psl2 import T_LETTERS, I, Mat2, PMat, S, U, word_runs
from hypcycle.symspace import (
    act,
    act_matrix,
    add_image,
    corestriction_map,
    poly_mod,
    reduce_chain,
    rho,
)


def zero_poly(k):
    return (0,) * (2 * k + 1)


def poly_add(p, q):
    return tuple(a + b for a, b in zip(p, q))


def poly_sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def poly_scale(p, c):
    return tuple(c * a for a in p)


def monomial(k, i, coef=1):
    v = [0] * (2 * k + 1)
    v[i] = coef
    return tuple(v)


def x2_power(k):
    """X2^(2k), the coefficient q_T^k of the translation cycle z(T)."""
    return monomial(k, 2 * k)


def decompose_word(g):
    """The reduced word in S, U (a tuple of letters) evaluating to g in
    PSL2(Z): the runs of ``psl2.word_runs`` spelled out letter by
    letter."""
    letters = []
    for gen, e in word_runs(g):
        if gen == "T":
            letters.extend(T_LETTERS[1 if e > 0 else -1] * abs(e))
        else:
            letters.append((gen, e))
    return tuple(letters)


def fox_expand_unit(table, g, poly, k, modulus=None):
    """The chain of (g - 1) tensor (poly at block 0), by the letter walk:
    the word of g (``decompose_word``) walked one letter at a time by
    ``homology.fox_step``, by the product rule (gh - 1) x v =
    (g - 1) x hv + (h - 1) x v, each (slot, block)'s matrices merged
    before they act on poly.  This is the walk that the run walk of
    ``homology.RunSums`` replaced."""
    steps = letter_steps(table, k, modulus)
    groups = {}
    block, mat = 0, None
    for gen, e in reversed(decompose_word(g)):
        block, mat = fox_step(steps, groups, block, mat, gen, e, modulus)
    out = {}
    for slot, blk, M in merge_blocks(groups, 2 * k + 1, modulus):
        add_image(out, (slot, blk), M, tuple(poly))
    return reduce_chain(out, modulus)


def cycle_coords_of(h1, gamma, poly):
    """Coordinates of the cycle (gamma - 1) tensor poly, for any
    coefficient that gamma fixes, read off its letter-walk chain
    (``fox_expand_unit``): the reference for ``homology.cycle_of``,
    which reads it by the run walk."""
    chain = fox_expand_unit(h1.table, gamma, poly, h1.k, h1.ring.modulus)
    return h1.coords(h1.quotient.project(chain))


def _matvec_mod(M, v, modulus):
    out = [0] * len(M)
    for j, c in enumerate(v):
        if c:
            for i in range(len(M)):
                out[i] += M[i][j] * c
    if modulus is not None:
        out = [x % modulus for x in out]
    return out


def letter_step(table, i, letter):
    """(j, twist) with t_i * gen^e == twist * t_j for a letter (gen, e),
    composed from the table's mulS/mulU."""
    gen, e = letter
    mul = table.mulS if gen == "S" else table.mulU
    j, tw = mul[i]
    for _ in range(e - 1):
        j, tw2 = mul[j]
        tw = tw * tw2
    return j, tw


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
        j, tw = letter_step(table, i, (gen, steps))
        M = act_matrix(tw.inv(), k, m)
        val = _matvec_mod(M, b, m)
        out[j] = poly_add(out[j], tuple(val))
    return IndVec(table, k, m, out)


class Chain1:
    """Degree-1 chain over the presentation: slots for S and U."""

    __slots__ = ("mS", "mU")

    def __init__(self, mS, mU):
        self.mS = mS
        self.mU = mU

    @staticmethod
    def zero(table, k, modulus=None):
        return Chain1(IndVec.zero(table, k, modulus), IndVec.zero(table, k, modulus))

    @property
    def table(self):
        return self.mS.table

    @property
    def k(self):
        return self.mS.k

    @property
    def modulus(self):
        return self.mS.modulus

    def __add__(self, other):
        return Chain1(self.mS + other.mS, self.mU + other.mU)

    def __sub__(self, other):
        return Chain1(self.mS - other.mS, self.mU - other.mU)

    def __neg__(self):
        return Chain1(-self.mS, -self.mU)

    def scale(self, c):
        return Chain1(self.mS.scale(c), self.mU.scale(c))

    def reduce(self):
        return Chain1(self.mS.reduce(), self.mU.reduce())

    def is_zero(self):
        return self.mS.is_zero() and self.mU.is_zero()

    def __eq__(self, other):
        return self.mS == other.mS and self.mU == other.mU


def boundary1(c):
    """(S-1) mS + (U-1) mU."""
    out = ind_act_letter(("S", 1), c.mS) - c.mS
    out = out + ind_act_letter(("U", 1), c.mU) - c.mU
    return out.reduce() if c.modulus else out


def sparse(c):
    """The library form {(slot, block): vector} of a dense chain: its
    nonzero blocks, reduced mod m over Z/m."""
    c = c.reduce()
    return {(slot, i): b for slot, v in (("S", c.mS), ("U", c.mU))
            for i, b in enumerate(v.blocks) if any(b)}


def dense(chain, table, k, modulus=None):
    """The dense chain of a library chain on the given table."""
    blocks = {"S": [zero_poly(k)] * table.index,
              "U": [zero_poly(k)] * table.index}
    for (slot, i), v in chain.items():
        blocks[slot][i] = tuple(v)
    return Chain1(IndVec(table, k, modulus, blocks["S"]),
                  IndVec(table, k, modulus, blocks["U"])).reduce()


class BudgetExceeded(ValueError):
    """Coset orbit larger than the configured bound; a ValueError, so the
    command-line interface reports it as bad input."""


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
            j, _ = letter_step(self, j, letter)
        return j, g * self.transversal[j].inv()


def subgroup_cosets(contains, max_index=100000, shuffle_seed=None):
    """Breadth-first coset table of the subgroup cut out by a membership
    predicate (the caller guarantees finite index), exploring in the
    order of build_cosets, or, given ``shuffle_seed``, taking the next
    coset and the order of S and U at random."""
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


def schreier_transversal(key, ambient_table):
    """(reps, cosets) as from cosets.subgroup_transversal, for the
    subgroup with right-coset key ``key`` on the ambient group, found by
    a breadth-first walk over every Schreier generator of the ambient
    group and its inverse, with no T-orbits taken first."""
    gens = ambient_table.schreier_generators()
    gens = gens + [g.inv() for g in gens]
    reps, cosets = [I], {key(I): 0}
    for s in reps:
        for g in gens:
            c = s * g
            if (kc := key(c)) not in cosets:
                cosets[kc] = len(reps)
                reps.append(c)
    return reps, cosets


def filter_transversal(sub_table, ambient_table):
    """Representatives, inside the ambient subgroup, of the cosets of
    the smaller subgroup: the transversal elements of the smaller
    group's table that lie in the ambient group.  The smaller group
    lies in the ambient one, so a coset sub*t lies in the ambient group
    exactly when t does."""
    reps = [t for t in sub_table.transversal if ambient_table.contains(t)]
    r = sub_table.index // ambient_table.index
    if len(reps) != r:
        raise RuntimeError(
            "expected %d cosets, found %d; subgroup not inside ambient?"
            % (r, len(reps)))
    return reps


def intersection_key(key, key_prime, alpha):
    """Right-coset key of Gamma n alpha^-1 Gamma' alpha from the keys of
    Gamma and Gamma'.  Write alpha*g = sigma*beta (hermite_split).  If
    g' g^-1 lies in the intersection, then beta' beta^-1 is in SL2(Z),
    so beta' == beta and sigma' sigma^-1 lies in Gamma'; conversely
    those two equalities and a common Gamma coset give membership."""

    def key1(g):
        sigma, beta = hermite_split(alpha * g.lift())
        return key(g), key_prime(sigma), beta

    return key1


def intersection_table(table, alpha, table_prime):
    """Coset table of Gamma n alpha^-1 Gamma' alpha, for Gamma and Gamma'
    the groups of the tables: the table of Gamma when alpha s alpha^-1
    lies in Gamma' for every Schreier generator s of Gamma, else the
    breadth-first table on intersection_key."""
    conj = (conjugate_by(alpha, s) for s in table.schreier_generators())
    if all(cg is not None and table_prime.contains(cg) for cg in conj):
        return table
    return build_cosets(intersection_key(table.key, table_prime.key, alpha))


def gamma1_table(dc):
    """The breadth-first coset table of Gamma_1 = Gamma n alpha^-1 Gamma'
    alpha of the double coset ``dc``, which the double coset itself no
    longer builds."""
    return intersection_table(dc.source.table, dc.alpha, dc.target.table)


def gamma1_restriction(dc):
    """(table, entries): Gamma_1's breadth-first table and the blockwise
    entries of the restriction onto it from Gamma, on the reps that
    filter its transversal; the route the double coset took before it
    read Gamma_1 through Gamma's own table."""
    table1, k, m = gamma1_table(dc), dc.source.k, dc.source.ring.modulus
    reps = filter_transversal(table1, dc.source.table)
    return table1, restriction_entries(dc.source.table, table1, k, m, reps)


def product_table(dc):
    """Gamma_1's coset table on the transversal s_r t_i that the double
    coset reads (reps s_r, Gamma's transversal t_i; index r*n + i), its
    steps found by coset lookups on intersection_key."""
    table = dc.source.table
    key = intersection_key(table.key, dc.target.table.key, dc.alpha)
    transversal = [s * t for s in dc.reps for t in table.transversal]
    cosets = {key(t): j for j, t in enumerate(transversal)}
    if len(cosets) != len(transversal):
        raise RuntimeError("two products s_r t_i share a coset")
    mul = {}
    for gen, x in (("S", S), ("U", U)):
        mul[gen] = []
        for t in transversal:
            j = cosets[key(t * x)]
            mul[gen].append((j, t * x * transversal[j].inv()))
    return CosetTable(key, transversal, mul["S"], mul["U"], cosets)


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
        steps = 1 if letter[0] == "S" else (3 - letter[1])
        jj, tw = letter_step(table, i, (letter[0], steps))
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


def ind_act(g, v):
    """Left action of g in PSL2(Z) on the induced module, letter by
    letter along the word of g."""
    out = v
    for letter in reversed(decompose_word(g)):
        out = ind_act_letter(letter, out)
    return out


def boundary2(pair):
    """Relation boundaries ((1+S) n1, (1+U+U^2) n2)."""
    n1, n2 = pair
    mS = n1 + ind_act_letter(("S", 1), n1)
    mU = n2 + ind_act_letter(("U", 1), n2) + ind_act_letter(("U", 2), n2)
    c = Chain1(mS, mU)
    return c.reduce() if n1.modulus else c


def fox_expand(word, v):
    """Chain representing (eval(word) - 1) tensor v.

    Built by the product rule (gh - 1) x v = (g - 1) x hv + (h - 1) x v,
    with U^2 expanding into the U slot as (U-1) x Uv + (U-1) x v.
    """
    table, k, m = v.table, v.k, v.modulus
    out = Chain1.zero(table, k, m)
    cur = v
    for letter in reversed(tuple(word)):
        gen, e = letter
        if gen == "S":
            out = Chain1(out.mS + cur, out.mU)
        elif e == 1:
            out = Chain1(out.mS, out.mU + cur)
        else:
            out = Chain1(out.mS, out.mU + cur + ind_act_letter(("U", 1), cur))
        cur = ind_act_letter(letter, cur)
    return out.reduce() if m else out


def apply_blockwise(entries, chain, m=None):
    """A library chain mapped slot by slot through the blockwise entries
    of a map between induced modules (restriction_entries,
    symspace.corestriction_map): each nonzero block i adds matrix *
    block into block j for every pair (j, matrix) of ``entries[i]``;
    reduced mod m over Z/m."""
    out = {}
    for (slot, i), v in chain.items():
        if any(v):
            for j, M in entries[i]:
                add_image(out, (slot, j), M, v)
    return reduce_chain(out, m)


def to_group_chain(c, table, k, m=None):
    """Rewrite a cycle as a list of (gamma, poly) with gamma in the
    subgroup of the table: the subgroup form of the homology class.

    Each nonzero block of each slot contributes the twist inverse of its
    letter step, composed from the table's mulS/mulU (one S-step for the
    S slot, two U-steps for the U slot), S blocks first, each slot by
    block index; terms with gamma = 1 are dropped.  The chain must be a
    cycle (mod m over Z/m) by the dense boundary; raises NotACycle
    otherwise."""
    if not boundary1(dense(c, table, k, m)).is_zero():
        raise NotACycle("nonzero residue: chain is not a cycle")
    terms = []
    for slot, i in sorted(c):
        b = poly_mod(c[slot, i], m) if m else tuple(c[slot, i])
        if any(b):
            _, tw = letter_step(table, i, (slot, 1 if slot == "S" else 2))
            if not tw.is_identity():
                terms.append((tw.inv(), b))
    return terms


def group_chain_to_chain1(terms, table, k, modulus=None):
    """Sum of the chains of (gamma - 1) tensor v over a subgroup-form
    list of terms; the inverse direction of to_group_chain."""
    out = Chain1.zero(table, k, modulus)
    for gamma, poly in terms:
        fox = fox_expand_unit(table, gamma, tuple(poly), k, modulus)
        out = out + dense(fox, table, k, modulus)
    return out.reduce() if modulus else out


def _apply_vec(entries, v, dst_table):
    """A blockwise map on one induced vector, carried in the S slot."""
    image = apply_blockwise(
        entries, sparse(Chain1(v, IndVec.zero(v.table, v.k, v.modulus))),
        v.modulus)
    return dense(image, dst_table, v.k, v.modulus).mS


def restriction_entries(src_table, dst_table, k, modulus, reps):
    """Blockwise entries of the restriction to a smaller subgroup: the
    block of t goes to the block of s_i * t, for every rep s_i, with
    coefficients rho(delta^-1 s_i), where s_i * t == delta * t'_j on
    the smaller table.  ``entries[src_block]`` lists the (dst_block,
    matrix) pairs, None standing for the identity.  This is the map
    that symspace.restriction_map replaced by one rho(s_i) per rep."""
    entries = []
    for t in src_table.transversal:
        row = []
        for s in reps:
            j, delta = dst_table.coset_of(s * t)
            row.append((j, rho(delta.inv() * s, k, modulus)))
        entries.append(row)
    return entries


def restrict_coeff(v, sub_table, reps):
    return _apply_vec(restriction_entries(v.table, sub_table, v.k,
                                          v.modulus, reps), v, sub_table)


def corestrict_coeff(v, sup_table):
    return _apply_vec(corestriction_map(v.table, sup_table, v.k, v.modulus),
                      v, sup_table)


class NotACycleOnTransfer(Exception):
    """Transfer was asked for a chain with nonzero boundary."""


def transfer_res(c, sub_table, reps=None):
    """Restriction (transfer) of a cycle to a finite-index subgroup,
    implemented by the equivariant averaging map on coefficients."""
    if not boundary1(c).is_zero():
        raise NotACycleOnTransfer("transfer requires a cycle")
    if reps is None:
        reps = filter_transversal(sub_table, c.table)
    entries = restriction_entries(c.table, sub_table, c.k, c.modulus, reps)
    return dense(apply_blockwise(entries, sparse(c), c.modulus), sub_table,
                 c.k, c.modulus)


def gamma2_table(dc):
    """The coset table of Gamma_2 = Gamma' n alpha Gamma alpha^-1 of the
    double coset ``dc`` (adj(alpha) is a multiple of alpha^-1), which
    the double coset itself no longer builds."""
    return intersection_table(dc.target.table, dc.alpha.adjugate(),
                              dc.source.table)


class CorestrictedReaders(dict):
    """The coordinate readers of a LocalQuotient on Gamma' composed with
    the corestriction from Gamma_2: at (slot, block) of Gamma_2, the
    pairs (coordinate index, row C) for the readers (index, row) of the
    target block that C sends it to.  ``entries`` are the
    corestriction's (symspace.corestriction_map).  Filled on first use,
    by ``get`` too, the read of ``homology.RunSums``."""

    def __init__(self, entries, readers):
        super().__init__()
        self.entries = entries
        self.target = readers

    def __missing__(self, key):
        slot, blk = key
        (j, C), = self.entries[blk]
        pairs = self[key] = [
            (idx, row if C is None else
             [sum(a * C[i][c] for i, a in enumerate(row))
              for c in range(len(row))])
            for idx, row in self.target.get((slot, j), ())]
        return pairs

    def get(self, key, default=None):
        return self[key]


def corestricted_quotient(dc):
    """A stand-in for the target's LocalQuotient on Gamma_2, the route a
    double coset took before it walked Gamma''s own table: Gamma_2's
    table, with the target's readers read through the corestriction.
    ``homology.RunSums`` reads its table, k, modulus and readers."""
    table2, quotient = gamma2_table(dc), dc.target.quotient
    k, m = quotient.k, quotient.modulus
    entries = corestriction_map(table2, dc.target.table, k, m)
    return SimpleNamespace(table=table2, k=k, modulus=m,
                           readers=CorestrictedReaders(entries,
                                                       quotient.readers))


def conj_star_letter_walk(c, dc):
    """The conjugation push of a cycle over Gamma_1 by the alpha of the
    double coset ``dc``, expanded letter by letter on the table of
    Gamma_2 and corestricted as a whole chain."""
    alpha, table2, k, m = dc.alpha, gamma2_table(dc), c.k, c.modulus
    out = Chain1.zero(table2, k, m)
    for gamma, v in to_group_chain(sparse(c), c.table, k, m):
        cg = conjugate_by(alpha, gamma)
        if cg is None or not table2.contains(cg):
            raise ConjugateLeavesGroup("conjugate leaves the target group")
        unit = IndVec.unit(table2, k, act(alpha, v, m), modulus=m)
        out = out + fox_expand(decompose_word(cg), unit)
    entries = corestriction_map(table2, dc.target.table, k, m)
    image = apply_blockwise(entries, sparse(out), m)
    return dense(image, dc.target.table, k, m)


TP = PMat(1, 0, 1, 1)  # lower triangular T' = S * T^-1 * S^-1 ~ transpose


def word_from_letters(letters):
    """The reduced word (a tuple of letters) of a letter sequence; the
    stack stays reduced, so a letter merges with at most its top."""
    stack = []
    for gen, e in letters:
        if stack and stack[-1][0] == gen:
            e += stack.pop()[1]
        e %= 2 if gen == "S" else 3
        if e:
            stack.append((gen, e))
    return tuple(stack)


def letter_word(g):
    """The reduced word of g built letter by letter: floor quotients of
    the Euclidean reduction, each T^q spelled as |q| letter pairs, the
    whole sequence reduced by ``word_from_letters``.  This is the
    construction that ``psl2.word_runs`` replaced."""
    def t_power(q):
        return [("S", 1), ("U", 1)] * q if q > 0 else [("U", 2), ("S", 1)] * -q

    letters = []
    a, b, c, d = g.key()
    while c:
        q = a // c
        letters += t_power(q) + [("S", 1)]
        a, b = a - q * c, b - q * d
        a, b, c, d = c, d, -a, -b
    return word_from_letters(letters + t_power(b * a))


def power(x, e):
    """x^e in PSL2(Z), by |e| products."""
    g, base = I, x if e > 0 else x.inv()
    for _ in range(abs(e)):
        g = g * base
    return g


def evaluate_word(word):
    """The element of PSL2(Z) spelled by a word over S, U and U^2."""
    g = I
    for gen, e in word:
        for _ in range(e):
            g = g * (S if gen == "S" else U)
    return g


def transpose(A):
    if not A:
        return []
    return [list(col) for col in zip(*A)]


def rank(A):
    return len(ColumnEchelon(A).pivots)


def det(A):
    """Exact determinant by fraction-free Bareiss elimination."""
    n = len(A)
    if n == 0:
        return 1
    M = [row[:] for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def smith_normal_form(A):
    """Return (U, D, V) with A == U*D*V, U and V unimodular and D diagonal
    with nonnegative entries satisfying d1 | d2 | ...

    The left-only Smith form of A^T gives a unimodular W with A*W zero
    past its first r = rank(A) columns.  In the left-only Smith form
    A*W == U*D*V3, V3 is then needed only on its first r rows, which are
    the rows of U^-1*A*W divided by the invariant factors; the other
    rows are taken from the identity.  V = V3 * W^-1.
    """
    n = len(A[0]) if A else 0
    U2, U2inv, _ = smith_normal_form_full(transpose(A))
    AW = mat_mul(A, transpose(U2inv))
    U, Uinv, D = smith_normal_form_full(AW)
    B = mat_mul(Uinv, AW)
    V3 = identity(n)
    for i, d in enumerate(diagonal(D)):
        if d:
            V3[i] = [b // d for b in B[i]]
    return U, D, mat_mul(V3, transpose(U2))


def close_every_row(lattice, maps, rounds, target=None):
    """The closure rule of ``Lattice.close_under`` with no frontier:
    each round applies every map to every row of the lattice as it
    stood when the round began.  Same round cap and target stop; True
    if the lattice grew."""
    grew = False
    for _ in range(rounds):
        rows = [r[:] for r in lattice.rows]
        added = False
        for f in maps:
            for r in rows:
                if lattice.add(list(f(r))):
                    added = True
        grew = grew or added
        if not added or lattice.canonical() == target:
            break
    return grew


def saturate_columns(B):
    """Basis of the saturation of the column span of B in Z^n."""
    n = len(B)
    cols = [c for c in columns(B) if any(c)]
    if not cols:
        return zeros(n, 0)
    left_kernel = kernel_basis(transpose(from_columns(cols, n)))
    s = len(left_kernel[0]) if left_kernel else 0
    if s == 0:
        return identity(n)
    # saturation = integer kernel of the left-kernel pairing
    return kernel_basis(transpose(left_kernel))


def schreier(table, g):
    """Decompose g = gamma * t with gamma in the subgroup and t in the
    transversal."""
    j, tw = table.coset_of(g)
    return tw, table.transversal[j]


def p1_size(N):
    """#P^1(Z/N) by the multiplicative formula N * prod(1 + 1/p)."""
    n = N
    num = N
    p = 2
    while p * p <= n:
        if n % p == 0:
            num = num // p * (p + 1)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        num = num // n * (n + 1)
    return num


class NotStable(Exception):
    """An endomorphism maps some generator outside the module."""


def induced_endomorphism(f, module):
    """Matrix of an ambient linear map on the generators of ``module``.

    ``f`` is a callable on ambient vectors or an ambient square matrix.
    Raises NotStable if some generator image leaves the module.
    """
    if callable(f):
        apply = f
    else:
        apply = lambda v: mat_vec(f, v)
    cols = []
    for i in range(module.ngens):
        w = apply([row[i] for row in module.gen_lift])
        try:
            cols.append(list(module.coords(w)))
        except NotInModule as e:
            raise NotStable("generator %d image leaves the module" % i) from e
    return from_columns(cols, module.ngens)


def _column(op, j):
    return [row[j] for row in op.matrix]


def compose(f, g):
    """The OperatorMatrix f o g (apply ``g`` first)."""
    cols = [list(f.apply_coords(_column(g, j)))
            for j in range(g.source.ngens)]
    return OperatorMatrix(from_columns(cols, f.target.ngens),
                          g.source, f.target)


def equals(f, g):
    """Equality of two OperatorMatrix between the same presentations,
    column by column in reduced target coordinates."""
    if f.source is not g.source or f.target is not g.target:
        return False
    reduce = f.target.reduce_coords
    return all(reduce(_column(f, j)) == reduce(_column(g, j))
               for j in range(f.source.ngens))


def is_zero(f):
    return not any(any(f.target.reduce_coords(_column(f, j)))
                   for j in range(f.source.ngens))


def scaled(f, c):
    return OperatorMatrix([[c * x for x in row] for row in f.matrix],
                          f.source, f.target)


def plus(f, g):
    return OperatorMatrix([[x + y for x, y in zip(r1, r2)]
                           for r1, r2 in zip(f.matrix, g.matrix)],
                          f.source, f.target)


def beta_matrix(N, p):
    """beta = [[m, n], [N, p]] in Gamma_0(N) with minimal nonnegative m
    solving m*p - n*N = 1."""
    if N == 1:
        return Mat2(0, -1, 1, p)
    x, _, g = xgcd(p, N)
    if g != 1:
        raise WrongDivisibility("p must be coprime to N")
    m = x % N
    n = (m * p - 1) // N
    return Mat2(m, n, N, p)


@dataclass
class PPhiV:
    """The canonical map pi, the transfer phi, and the shift V between
    the level-N and level-Np presentations, with U_p downstairs."""

    h1: H1Presentation
    h1p: H1Presentation
    pi: OperatorMatrix
    phi: OperatorMatrix
    V: OperatorMatrix
    Up: OperatorMatrix


def h_closure(spec):
    """The subgroup H of (Z/N)^x generated by the spec's h_gens: the
    residues of all products of the generators, grown one factor at a
    time until no new residue appears."""
    N = spec.N
    closure = {1 % N}
    while True:
        grown = closure | {(h * g) % N for h in closure for g in spec.h_gens}
        if grown == closure:
            return frozenset(closure)
        closure = grown


def gamma0p_intersection(spec, p):
    """SubgroupSpec of Gamma n Gamma_0(p) for p coprime to the level."""
    if spec.N % p == 0:
        raise WrongDivisibility("p divides the level; intersection is trivial")
    Np = spec.N * p
    H = h_closure(spec)
    gens = tuple(x for x in range(1, Np)
                 if xgcd(x, Np)[2] == 1 and (x % spec.N) in H)
    return SubgroupSpec(Np, gens,
                        label="%s&gamma0:%d" % (spec.name, p))


def pi_phi_V(h1, p):
    """The operators of the level-raising square at p (p coprime to
    the level): pi is corestriction, phi the double coset of diag(1,p)
    into the intersection with Gamma_0(p), V the shifted double coset
    of beta*diag(p,1), and U_p acts downstairs."""
    spec = h1.spec
    if spec is None or spec.N % p == 0:
        raise WrongDivisibility("pi/phi/V need p coprime to the level")
    specp = gamma0p_intersection(spec, p)
    h1p = compute_h1(specp, h1.k, h1.ring)
    pi = DoubleCoset(h1p, h1, I.lift()).operator()
    phi = DoubleCoset(h1, h1p, Mat2(1, 0, 0, p)).operator()
    beta = beta_matrix(spec.N, p)
    V = DoubleCoset(h1p, h1p, beta * Mat2(p, 0, 0, 1)).operator()
    Up = hecke_coset(p, h1p).operator()
    return PPhiV(h1, h1p, pi, phi, V, Up)
