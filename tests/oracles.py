"""Reference routes used only by the tests.

Cosets by membership: ``subgroup_cosets`` builds a coset table by
scanning the transversal with a membership predicate, in the order of
``build_cosets`` or, given a ``shuffle_seed``, a seeded random one, and
raises ``BudgetExceeded`` past its bound; ``coset_reps`` finds the cosets
of a subgroup inside a group given by generators; and
``double_coset_predicates`` test membership in Gamma_1 = Gamma n
alpha^-1 Gamma' alpha and Gamma_2 = Gamma' n alpha Gamma alpha^-1.

Dense chains: ``IndVec`` (one degree-2k block per coset), ``Chain1`` (a
pair (mS, mU) of them), the letter action (``letter_image`` on the
nonzero blocks, ``ind_act_letter``, ``ind_act``) and ``boundary1``,
``boundary2``; ``sparse`` and ``dense`` convert to and from the library's
chains {(slot, block): vector}.  ``dense_h1`` is H1 from the dense
two-step complex of the whole induced module, sharing no code with
``homology.LocalQuotient``.

The letter walk: ``fox_expand`` is the Fox expansion of (g - 1) tensor v
letter by letter along a word (``decompose_word``), the reference for
the run walk of ``homology.RunSums`` and, by ``cycle_coords_of``, for the
cycles z(gamma).  ``to_group_chain`` rewrites a cycle in subgroup form
(gamma, v), and ``group_chain_to_chain1`` expands such terms back.

The Hecke oracle: ``HeckeOracle`` maps H1(Gamma) to H1(Gamma') by
[Gamma' alpha Gamma] as corestriction, conjugation and restriction in
group homology, sharing no code with ``hecke``.  It restricts a cycle's
subgroup form to Gamma_1 by the bar-complex ``transfer`` on reps found
by Gamma_1's membership test alone, sends each term (h, v) to
(alpha h alpha^-1, alpha v), and Fox-expands the terms on Gamma''s table.
``apply_blockwise`` and ``corestrict_coeff`` apply the blockwise entries
of ``symspace.corestriction_map``.

The rest are word, matrix and coset helpers (``letter_word`` is the
construction that ``psl2.word_runs`` replaced), the algebra of
``hecke.OperatorMatrix`` (``identity_operator``, ``compose``,
``equals``, ``is_zero``, ``scaled``, ``plus``),
``induced_endomorphism`` (the oracle of the test on H1 (x) F_q),
``close_every_row`` (the closure rule that ``Lattice.close_under``
replaced, one ``every_row_round`` at a time) and the level-raising
square ``pi_phi_V`` at a prime coprime to the level.
"""

import random
from collections import namedtuple

from hypcycle.cosets import CosetTable, SubgroupSpec
from hypcycle.hecke import (DoubleCoset, OperatorMatrix, WrongDivisibility,
                            hecke_coset)
from hypcycle.homology import NotACycle, compute_h1
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
from hypcycle.symspace import (act, add_image, corestriction_map, poly_mod,
                               reduce_chain)


def zero_poly(k):
    return (0,) * (2 * k + 1)


def poly_add(p, q):
    return tuple(a + b for a, b in zip(p, q))


def poly_sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def monomial(k, i, coef=1):
    return tuple(coef if j == i else 0 for j in range(2 * k + 1))


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
        return IndVec(table, k, modulus, [zero_poly(k)] * table.index)

    @staticmethod
    def unit(table, k, poly, modulus=None):
        """poly at the identity coset's block, zero elsewhere."""
        v = IndVec.zero(table, k, modulus)
        v.blocks[0] = poly_mod(poly, modulus) if modulus else tuple(poly)
        return v

    def __add__(self, other):
        return IndVec(self.table, self.k, self.modulus,
                      [poly_add(a, b) for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        return IndVec(self.table, self.k, self.modulus,
                      [poly_sub(a, b) for a, b in zip(self.blocks, other.blocks)])

    def reduce(self):
        m = self.modulus
        return self if m is None else IndVec(
            self.table, self.k, m, [poly_mod(b, m) for b in self.blocks])

    def is_zero(self):
        m = self.modulus
        return not any(x % m if m else x for b in self.blocks for x in b)

    def __eq__(self, other):
        if self.table is not other.table or self.k != other.k:
            return False
        return (self - other).is_zero()


def letter_image(table, letter, blocks, modulus=None):
    """The nonzero blocks {j: vector} of a word letter acting on an
    induced vector given by its nonzero blocks {i: vector}."""
    gen, e = letter
    # right-multiplication steps compute t_i * g^-1 = twist * t_j:
    # g = S: g^-1 = S (one S-step); g = U: g^-1 = U^2; g = U^2: g^-1 = U
    steps = 1 if gen == "S" else (3 - e)
    out = {}
    for i, b in blocks.items():
        j, tw = letter_step(table, i, (gen, steps))
        w = b if tw.is_identity() else act(tw.inv(), b, modulus)
        out[j] = poly_add(out[j], w) if j in out else w
    return out


def ind_act_letter(letter, v):
    """Action of a single word letter on an induced vector."""
    out = [zero_poly(v.k)] * v.table.index
    nonzero = {i: b for i, b in enumerate(v.blocks) if any(b)}
    for j, w in letter_image(v.table, letter, nonzero, v.modulus).items():
        out[j] = w
    return IndVec(v.table, v.k, v.modulus, out)


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
    def modulus(self):
        return self.mS.modulus

    def __add__(self, other):
        return Chain1(self.mS + other.mS, self.mU + other.mU)

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
    """Coset orbit larger than the configured bound."""


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
    rng = None if shuffle_seed is None else random.Random(shuffle_seed)
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


def coset_reps(contains, gens):
    """Reps, the identity first, of the right cosets of a finite-index
    subgroup (``contains``) of the group that ``gens`` generate: a
    breadth-first walk s -> s g, where s g is new unless s g r^-1 lies in
    the subgroup for a rep r found before."""
    reps = [I]
    for s in reps:
        for g in gens:
            c = s * g
            if not any(contains(c * r.inv()) for r in reps):
                reps.append(c)
    return reps


def conjugate(alpha, g):
    """alpha * g * alpha^-1 in PSL2(Z), or None where it is not integral."""
    det, m = alpha.det(), alpha * g.lift() * alpha.adjugate()
    entries = (m.a, m.b, m.c, m.d)
    if any(x % det for x in entries):
        return None
    return PMat(*(x // det for x in entries))


def double_coset_predicates(src_contains, tgt_contains, alpha):
    """Membership in Gamma_1 = Gamma n alpha^-1 Gamma' alpha and in
    Gamma_2 = Gamma' n alpha Gamma alpha^-1."""

    def pred1(g):
        if not src_contains(g):
            return False
        cg = conjugate(alpha, g)
        return cg is not None and tgt_contains(cg)

    def pred2(g):
        if not tgt_contains(g):
            return False
        cg = conjugate(alpha.adjugate(), g)
        return cg is not None and src_contains(cg)

    return pred1, pred2


def action_matrix_on_induced(table, k, letter, modulus):
    """Dense matrix of a letter acting on the induced module."""
    d = 2 * k + 1
    A = zeros(table.index * d, table.index * d)
    for i in range(table.index):
        for col in range(d):
            image = letter_image(table, letter, {i: monomial(k, col)}, modulus)
            for j, w in image.items():
                for row, x in enumerate(w):
                    A[j * d + row][i * d + col] = x
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
    """FgModule of ker d1 / im d2 on the dense two-step complex, over Z
    or modulo the ring's modulus, whose relations m*I it adds itself."""
    modulus = ring.modulus
    N = table.index * (2 * k + 1)
    AS = action_matrix_on_induced(table, k, ("S", 1), modulus)
    AU = action_matrix_on_induced(table, k, ("U", 1), modulus)
    AU2 = action_matrix_on_induced(table, k, ("U", 2), modulus)
    # d1 = [AS - I | AU - I], d2 = diag(I + AS, I + AU + AU^2)
    d1 = [rs + ru for rs, ru in zip(AS, AU)]
    d2 = [rs + [0] * N for rs in AS] + [
        [0] * N + [a + b for a, b in zip(ru, ru2)] for ru, ru2 in zip(AU, AU2)]
    for i in range(N):
        d1[i][i] -= 1
        d1[i][N + i] -= 1
        d2[i][i] += 1
        d2[N + i][N + i] += 1
    if modulus is None:
        return subquotient(kernel_basis(d1), d2)
    K = kernel_mod_augmented(d1, modulus)
    image = [d2[i] + [modulus if j == i else 0 for j in range(2 * N)]
             for i in range(2 * N)]
    return subquotient(K, image)


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
    """The chain of (eval(word) - 1) tensor v, by the product rule (gh - 1)
    x v = (g - 1) x hv + (h - 1) x v, U^2 expanding into the U slot as
    (U-1) x Uv + (U-1) x v."""
    table, k, m = v.table, v.k, v.modulus
    out = Chain1.zero(table, k, m)
    cur = {i: b for i, b in enumerate(v.blocks) if any(b)}
    for letter in reversed(tuple(word)):
        gen, e = letter
        slot = (out.mS if gen == "S" else out.mU).blocks
        terms = [cur] if gen == "S" or e == 1 else [
            cur, letter_image(table, ("U", 1), cur, m)]
        for term in terms:
            for i, b in term.items():
                slot[i] = poly_add(slot[i], b)
        cur = letter_image(table, letter, cur, m)
    return out.reduce() if m else out


def cycle_coords_of(h1, gamma, poly):
    """Coordinates of the cycle (gamma - 1) tensor poly, for any poly that
    gamma fixes, by the letter walk: the reference for cycle_of."""
    chain = group_chain_to_chain1([(gamma, poly)], h1.table, h1.k,
                                  h1.ring.modulus)
    return h1.coords(h1.quotient.project(sparse(chain)))


def apply_blockwise(entries, chain, m=None):
    """A library chain mapped through blockwise entries (as of
    symspace.corestriction_map): block i adds matrix * block into block
    j for each pair (j, matrix) of ``entries[i]``; reduced mod m."""
    out = {}
    for (slot, i), v in chain.items():
        if any(v):
            for j, M in entries[i]:
                add_image(out, (slot, j), M, v)
    return reduce_chain(out, m)


def to_group_chain(c, table, k, m=None):
    """The subgroup form of a cycle: (gamma, poly) for each nonzero block,
    gamma the inverse twist of the block's letter step (one S-step for
    the S slot, two U-steps for the U slot), S blocks first, by block;
    terms with gamma = 1 dropped.  Raises NotACycle unless the dense
    boundary vanishes (mod m over Z/m)."""
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
    list of terms, each by ``fox_expand``; the inverse direction of
    to_group_chain."""
    out = Chain1.zero(table, k, modulus)
    for gamma, poly in terms:
        out = out + fox_expand(decompose_word(gamma),
                               IndVec.unit(table, k, poly, modulus=modulus))
    return out.reduce() if modulus else out


def corestrict_coeff(v, sup_table):
    """An induced vector on a subgroup's table mapped to the table of a
    larger group by the entries of ``symspace.corestriction_map``."""
    entries = corestriction_map(v.table, sup_table, v.k, v.modulus)
    chain = sparse(Chain1(v, IndVec.zero(v.table, v.k, v.modulus)))
    return dense(apply_blockwise(entries, chain, v.modulus), sup_table,
                 v.k, v.modulus).mS


def transfer(terms, reps, contains, modulus=None):
    """The bar-complex transfer of a cycle in subgroup form, a list of
    (gamma, v), to a subgroup (``contains``) with right coset reps
    ``reps`` in the group: each term gives, for every rep s, the term
    (h, s' v) with s gamma == h s', h in the subgroup and s' a rep.
    Terms with h = 1 are dropped."""
    out = []
    for gamma, v in terms:
        for s in reps:
            x = s * gamma
            t = next(t for t in reps if contains(x * t.inv()))
            h = x * t.inv()
            if not h.is_identity():
                out.append((h, act(t.lift(), v, modulus)))
    return out


class HeckeOracle:
    """The double coset [Gamma' alpha Gamma] from H1(Gamma) (``source``)
    to H1(Gamma') (``target``) as cor o c_alpha o res.  ``contains`` is
    the membership test of Gamma_1 = Gamma n alpha^-1 Gamma' alpha and
    ``reps`` its right coset reps in Gamma, found by it alone."""

    def __init__(self, source, target, alpha):
        self.source, self.target, self.alpha = source, target, alpha
        self.contains, _ = double_coset_predicates(
            source.table.contains, target.table.contains, alpha)
        self.reps = coset_reps(self.contains,
                               source.table.schreier_generators())

    def restricted(self, chain):
        """The transfer of a cycle on Gamma to Gamma_1, in subgroup form."""
        k, m = self.source.k, self.source.ring.modulus
        return transfer(to_group_chain(chain, self.source.table, k, m),
                        self.reps, self.contains, m)

    def image(self, chain):
        """Target coordinates of the image of a cycle on Gamma: its
        transfer's terms (h, v) become (alpha h alpha^-1, alpha v), summed
        per element, and are Fox-expanded on Gamma''s table."""
        target, alpha = self.target, self.alpha
        k, m = target.k, target.ring.modulus
        sums = {}
        for h, v in self.restricted(chain):
            delta = conjugate(alpha, h)
            sums[delta] = poly_add(sums.get(delta, zero_poly(k)),
                                   act(alpha, v, m))
        pushed = group_chain_to_chain1(sums.items(), target.table, k, m)
        return target.coords(target.quotient.project(sparse(pushed)))

    def matrix(self):
        """The operator matrix: the images of the source generators."""
        source = self.source
        return from_columns([self.image(source.generator_chain(i))
                             for i in range(source.ngens)],
                            self.target.ngens)


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
    """(U, D, V) with A == U*D*V, U and V unimodular, D diagonal with
    d1 | d2 | ... >= 0.  The left-only Smith form of A^T gives a
    unimodular W with A*W zero past its first r = rank(A) columns; in
    that of A*W == U*D*V3, the first r rows of V3 are those of U^-1*A*W
    over the invariant factors, the rest the identity's; V = V3 * W^-1."""
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


def every_row_round(lattice, maps):
    """One round of ``close_every_row``: add the images of every row as
    the round began; True if the lattice grew."""
    rows = [r[:] for r in lattice.rows]
    added = False
    for f in maps:
        for r in rows:
            if lattice.add(list(f(r))):
                added = True
    return added


def close_every_row(lattice, maps, target=None):
    """``Lattice.close_under`` with no frontier: each round maps every row
    as the round began, until a round adds nothing or the lattice is
    ``target``.  True if the lattice grew."""
    grew = False
    while every_row_round(lattice, maps):
        grew = True
        if lattice.canonical() == target:
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
    size = N
    for p in range(2, N + 1):
        if N % p == 0 and all(p % q for q in range(2, p)):
            size = size // p * (p + 1)
    return size


class NotStable(Exception):
    """An endomorphism maps some generator outside the module."""


def induced_endomorphism(f, module):
    """Matrix of an ambient linear map (a callable or a square matrix) on
    the generators of ``module``; NotStable if an image leaves it."""
    apply = f if callable(f) else (lambda v: mat_vec(f, v))
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


def identity_operator(h1):
    """The identity OperatorMatrix on ``h1``."""
    return OperatorMatrix(identity(h1.ngens), h1, h1)


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


# the canonical map pi, the transfer phi and the shift V between the
# level-N and level-Np presentations, with U_p downstairs
PPhiV = namedtuple("PPhiV", "h1 h1p pi phi V Up")


def h_closure(spec):
    """The subgroup H of (Z/N)^x generated by the spec's h_gens, grown one
    factor at a time until no new residue appears."""
    N, closure, grown = spec.N, set(), {1 % spec.N}
    while grown != closure:
        closure = grown
        grown = closure | {h * g % N for h in closure for g in spec.h_gens}
    return frozenset(closure)


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
