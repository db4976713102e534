"""Congruence subgroups Gamma_H(N) and keyed right-coset tables of
finite-index subgroups of PSL2(Z).

Cosets are right cosets, and every table carries a canonical
right-coset key: a function with key(g) == key(g') exactly when
g' * g^-1 lies in the subgroup.  For Gamma_H(N) the key is the bottom
row (c : d) mod N up to scaling by +-H, the P^1(Z/N) indexing of
Cremona and of Stein's book (ch. 8); the Hecke intersection groups
combine such keys (hecke.intersection_key).  Tables are built by
breadth-first orbit of the identity coset under right multiplication
by S and U with one key lookup per edge, and store, for every
transversal element t and generator x, the target coset and the
subgroup-valued twist of t*x.  The coset of any element is one key
lookup away.
"""

from collections import namedtuple
from math import gcd

from .psl2 import I, S, U


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

    @property
    def h_set(self):
        return self._h_set

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
    the key of each t_i to i.
    """

    def __init__(self, key, transversal, mulS, mulU, cosets):
        self.key = key
        self.transversal = transversal
        self.mulS = mulS
        self.mulU = mulU
        self.index = len(transversal)
        self._cosets = cosets
        self.fox_steps = {}

    def contains(self, g):
        """Membership of g: its coset is the identity coset."""
        return self._cosets.get(self.key(g)) == 0

    def step(self, i, gen):
        """(j, twist) for right multiplication of coset i by S or U."""
        return self.mulS[i] if gen == "S" else self.mulU[i]

    def step_letter(self, i, letter):
        """Right multiplication by a word letter ('S',1), ('U',1), ('U',2)."""
        gen, e = letter
        j, tw = self.step(i, gen)
        for _ in range(e - 1):
            j2, tw2 = self.step(j, gen)
            tw = tw * tw2
            j = j2
        return j, tw

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


def build_cosets(spec_or_key, shuffle_seed=None):
    """Breadth-first coset table of the subgroup given by a SubgroupSpec
    or by a right-coset key function; one key lookup per edge.

    ``shuffle_seed`` permutes the BFS exploration order; all invariants
    downstream must be independent of the resulting transversal.
    """
    if isinstance(spec_or_key, SubgroupSpec):
        key = spec_or_key.coset_key
    else:
        key = spec_or_key
    rng = None
    if shuffle_seed is not None:
        import random

        rng = random.Random(shuffle_seed)
    transversal = [I]
    cosets = {key(I): 0}
    mul = {"S": {}, "U": {}}
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
            kc = key(c)
            j = cosets.get(kc)
            if j is None:
                j = len(transversal)
                transversal.append(c)
                cosets[kc] = j
                frontier.append(j)
            mul[gen][i] = (j, c * transversal[j].inv())
    n = len(transversal)
    return CosetTable(key, transversal, [mul["S"][i] for i in range(n)],
                      [mul["U"][i] for i in range(n)], cosets)


def subgroup_transversal(sub_table, ambient_table):
    """Representatives, inside the ambient subgroup, of the cosets of
    the smaller subgroup: one element per coset of sub\\ambient.

    They are the transversal elements of the smaller subgroup's table
    that lie in the ambient group.  The filter is exact: the smaller
    group lies in the ambient one, so a coset sub*t lies in the ambient
    group exactly when t does, and those cosets are the cosets of sub
    in the ambient group.
    """
    reps = [t for t in sub_table.transversal if ambient_table.contains(t)]
    r = sub_table.index // ambient_table.index
    if len(reps) != r:
        raise RuntimeError(
            "expected %d cosets, found %d; subgroup not inside ambient?"
            % (r, len(reps)))
    return reps
