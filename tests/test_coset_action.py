"""The double coset's reading of Gamma_1 = Gamma n alpha^-1 Gamma' alpha
through Gamma's own table, against the breadth-first table of Gamma_1
built on the intersection key (``oracles.gamma1_table``), which the
double coset no longer builds:

- the reps are one element of Gamma per coset of Gamma_1 in Gamma;
- every element gamma of the reps' moves by a step g of Gamma lies in
  Gamma_1, and is the one with s_r g^-1 == gamma^-1 s_r';
- the subgroup forms that ``homology.restricted_form`` reads map under
  ``hecke.conj_star`` to the same target coordinates as the forms of
  the restriction onto Gamma_1's table (``oracles.gamma1_restriction``
  and ``to_group_chain``), for every generator.

The double cosets are those of ``boundary.check_hecke_generation``:
diag(1, p) for its primes (T_p or U_p), the diamond operators that are
not the identity, and the cusp-moving double cosets."""

from math import gcd

import pytest

from hypcycle.boundary import GENERATION_PRIMES, cusp_data
from hypcycle.cosets import SubgroupSpec
from hypcycle.hecke import DoubleCoset, conj_star, diamond_matrix
from hypcycle.homology import compute_h1, restricted_form
from hypcycle.intlinalg import RingSpec
from hypcycle.psl2 import Mat2
from oracles import apply_blockwise, gamma1_restriction, to_group_chain

GROUPS = ["gamma0:11", "gamma0:9", "gamma1:9", "gammaH:13:3"]
RINGS = [(0, "Z"), (1, "Z"), (2, "Q"), (1, "Fp:3"), (2, "Zp:5:2")]


def generation_cosets(h1):
    """(name, DoubleCoset) for each double coset that
    check_hecke_generation applies on h1."""
    spec = h1.spec
    out = [("%s%d" % ("U" if spec.N % p == 0 else "T", p),
            DoubleCoset(h1, h1, Mat2(1, 0, 0, p))) for p in GENERATION_PRIMES]
    for d in range(2, spec.N):
        beta = gcd(d, spec.N) == 1 and diamond_matrix(spec.N, d)
        if beta and not spec.contains(beta):
            out.append(("<%d>" % d, DoubleCoset(h1, h1, beta)))
    out += [(repr(c.representative), DoubleCoset(h1, h1,
                                                 c.representative.lift()))
            for c in cusp_data(h1.table)
            if not c.representative.is_identity()]
    return out


@pytest.mark.parametrize("k,ring", RINGS, ids=["%d-%s" % r for r in RINGS])
@pytest.mark.parametrize("group", GROUPS)
def test_coset_action_matches_intersection_table(group, k, ring):
    h1 = compute_h1(SubgroupSpec.parse(group), k, RingSpec.parse(ring))
    m = h1.ring.modulus
    steps = h1.quotient.steps
    step_elements = {steps[i, slot, e][1]
                     for i in range(h1.table.index)
                     for slot, e in (("S", 1), ("U", 2))}
    for name, dc in generation_cosets(h1):
        table1, entries = gamma1_restriction(dc)
        # the reps: deg distinct cosets of Gamma_1, each in Gamma
        reps = dc.reps
        cosets = [table1.coset_of(s)[0] for s in reps]
        assert len(reps) == table1.index // h1.table.index, name
        assert len(set(cosets)) == len(reps), name
        assert all(h1.table.contains(s) for s in reps), name
        # the moves: gamma in Gamma_1 with s_r g^-1 == gamma^-1 s_r'
        for g in step_elements:
            for s, gamma in zip(reps, dc.moves(g)):
                assert table1.contains(gamma), (name, g, s)
                j = table1.coset_of(s * g.inv())[0]
                assert gamma == reps[cosets.index(j)] * g * s.inv()
        # the images of every generator, from both subgroup forms
        chains = [h1.generator_chain(i) for i in range(h1.ngens)]
        forms = [restricted_form(c, steps, dc.rhos, dc.moves)
                 for c in chains]
        oracle = [to_group_chain(apply_blockwise(entries, c, m), table1, k, m)
                  for c in chains]
        rank = h1.quotient.ambient_rank
        got = conj_star(forms, dc.alpha, dc.runs, rank)
        want = conj_star(oracle, dc.alpha, dc.runs, rank)
        assert ([h1.module.coords(v) for v in got]
                == [h1.module.coords(v) for v in want]), name


def test_cosets_cover_every_kind():
    # T_p, U_p, diamonds and cusp movers all occur among the groups
    kinds = {name[0] for group in GROUPS for name, _ in generation_cosets(
        compute_h1(SubgroupSpec.parse(group), 0, RingSpec.parse("Z")))}
    assert kinds == {"T", "U", "<", "["}
