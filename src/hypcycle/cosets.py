"""Congruence subgroups Gamma_H(N) and keyed right-coset tables of
finite-index subgroups of PSL2(Z).

Cosets are right cosets, and every table carries a canonical
right-coset key: a function with key(g) == key(g') exactly when
g' * g^-1 lies in the subgroup.  For Gamma_H(N) the key is the bottom
row (c : d) mod N up to scaling by +-H, the P^1(Z/N) indexing of
Cremona and of Stein's book (ch. 8).  Tables are built by
breadth-first orbit of the identity coset under right multiplication
by S and U with one key lookup per edge, and store, for every
transversal element t and generator x, the target coset and the
subgroup-valued twist of t*x.  The coset of any element is one key
lookup away.  A subgroup of a tabled group, such as a Hecke
intersection group (hecke.restriction_key), needs no table of its own:
``subgroup_transversal`` walks its cosets in the group on its key.
"""

from collections import namedtuple
from math import gcd

from .psl2 import I, S, T, U


def _unit_closure(N, gens):
    units = {1 % N}
    units.update(g % N for g in gens)
    frontier = set(units)
    while frontier:
        new = set()
        for a in frontier:
            for b in list(units):
                c = (a * b) % N
                if c not in units:
                    new.add(c)
        units |= new
        frontier = new
    return frozenset(units)


class SubgroupSpec(namedtuple("SubgroupSpec", "N h_gens")):
    """The data (N, H <= (Z/N)^x) cutting out Gamma_H with
    Gamma_1(N) <= Gamma_H <= Gamma_0(N).  Specs compare and hash by
    (N, h_gens); the label only names the group."""

    def __new__(cls, N, h_gens=(), label=""):
        if N < 1:
            raise ValueError("level must be >= 1")
        for g in h_gens:
            if gcd(g, N) != 1:
                raise ValueError("%d is not a unit mod %d" % (g, N))
        self = super().__new__(cls, N, h_gens)
        self.label = label
        self._h_set = _unit_closure(N, h_gens)
        self._pm_h = tuple(self._h_set | {(-h) % N for h in self._h_set})
        self._keys = {}
        return self

    @staticmethod
    def gamma0(N):
        gens = tuple(a for a in range(1, N) if gcd(a, N) == 1)
        return SubgroupSpec(N, gens, label="gamma0:%d" % N)

    @staticmethod
    def gamma1(N):
        return SubgroupSpec(N, (), label="gamma1:%d" % N)

    @staticmethod
    def gammaH(N, gens):
        if N < 1:
            raise ValueError("level must be >= 1")
        gens = tuple(sorted(set(g % N for g in gens)))
        return SubgroupSpec(N, gens, label="gammaH:%d:%s"
                            % (N, ",".join(map(str, gens))))

    @staticmethod
    def parse(text):
        """gamma0:N, gamma1:N or gammaH:N[:h1,h2,...]; any other number
        of fields is a ValueError."""
        kind, *fields = text.split(":")
        n = len(fields)
        if kind == "gamma0" and n == 1:
            return SubgroupSpec.gamma0(int(fields[0]))
        if kind == "gamma1" and n == 1:
            return SubgroupSpec.gamma1(int(fields[0]))
        if kind == "gammaH" and n in (1, 2):
            gens = fields[1].split(",") if n == 2 and fields[1] else ()
            return SubgroupSpec.gammaH(int(fields[0]), [int(x) for x in gens])
        raise ValueError("cannot parse group %r" % (text,))

    @property
    def name(self):
        return self.label or "gammaH:%d:%s" % (self.N, ",".join(map(str, self.h_gens)))

    def contains(self, g):
        """Membership of an element of PSL2(Z): some sign lift has
        c = 0 mod N and d mod N in H."""
        N = self.N
        if g.c % N:
            return False
        d = g.d % N
        return d in self._h_set or (-d) % N in self._h_set

    def coset_key(self, g):
        """Key of the right coset Gamma_H * g: left multiplication by an
        element of Gamma_H scales the bottom row (c, d) mod N by its
        d mod N, a unit in +-H, so the key is the least row of that
        orbit.  Keys are memoised by the reduced row."""
        N = self.N
        row = (g.c % N, g.d % N)
        key = self._keys.get(row)
        if key is None:
            c, d = row
            key = self._keys[row] = min(((h * c) % N, (h * d) % N)
                                        for h in self._pm_h)
        return key


class CosetTable:
    """Right-coset table of a finite-index subgroup of PSL2(Z).

    ``key`` is the subgroup's right-coset key: key(g) == key(g') exactly
    when g' * g^-1 lies in the subgroup.  ``transversal[0]`` is the
    identity; ``mulS[i]`` and ``mulU[i]`` give (j, twist) with
    t_i * x == twist * t_j and twist in the subgroup; ``cosets`` maps
    the key of each t_i to i.  ``letter_steps`` holds the steps that
    walks over the cosets read, one dict per (k, modulus), each built
    whole from mulS/mulU on first use (homology.letter_steps).
    """

    def __init__(self, key, transversal, mulS, mulU, cosets):
        self.key = key
        self.transversal = transversal
        self.mulS = mulS
        self.mulU = mulU
        self.index = len(transversal)
        self._cosets = cosets
        self.letter_steps = {}

    def contains(self, g):
        """Membership of g: its coset is the identity coset."""
        return self._cosets.get(self.key(g)) == 0

    def coset_of(self, g):
        """(index, twist) with g == twist * transversal[index]."""
        j = self._cosets[self.key(g)]
        return j, g * self.transversal[j].inv()

    def schreier_generators(self):
        """Nontrivial twists t_i * x * t_j^-1; they generate the subgroup."""
        seen = {}
        for table in (self.mulS, self.mulU):
            for _, tw in table:
                if not tw.is_identity() and tw.key() not in seen:
                    seen[tw.key()] = tw
        return list(seen.values())


def build_cosets(spec):
    """Breadth-first coset table of the subgroup given by a SubgroupSpec;
    one key lookup per edge."""
    key = spec.coset_key
    transversal = [I]
    cosets = {key(I): 0}
    mul = {"S": [], "U": []}
    # the loop visits the cosets in the order they are found, each one
    # after every coset found before it: a breadth-first walk
    for t in transversal:
        for gen, x in (("S", S), ("U", U)):
            c = t * x
            kc = key(c)
            j = cosets.get(kc)
            if j is None:
                j = len(transversal)
                transversal.append(c)
                cosets[kc] = j
            mul[gen].append((j, c * transversal[j].inv()))
    return CosetTable(key, transversal, mul["S"], mul["U"], cosets)


def subgroup_transversal(key, table):
    """(reps, cosets): representatives s_r, in the group of ``table``,
    of the right cosets of a finite-index subgroup given by its key on
    that group, reps[0] the identity, and cosets mapping key(s_r) to r.

    The cosets are the orbit of the identity coset under the table's
    Schreier generators.  Each new coset s has its orbit s T^w, s T^2w,
    ... taken first (w the least with T^w in the group), so the reps
    are short: for diag(1, p) they are the powers of T and one more.
    """
    step = T
    while not table.contains(step):
        step = step * T
    reps, cosets = [], {}

    def add(s):
        while (ks := key(s)) not in cosets:
            cosets[ks] = len(reps)
            reps.append(s)
            s = s * step

    add(I)
    gens = table.schreier_generators()
    for s in reps:
        for g in gens:
            add(s * g)
    return reps, cosets
