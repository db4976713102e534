"""The double coset's reading of Gamma_1 = Gamma n alpha^-1 Gamma' alpha
through Gamma's own table, against Gamma_1's membership test
(``oracles.double_coset_predicates``) and the Hecke oracle
(``oracles.HeckeOracle``), which shares no code with it:

- the reps are one element of Gamma per coset of Gamma_1 in Gamma, as
  many as the oracle finds by membership alone;
- every element gamma of the reps' moves by a step g of Gamma lies in
  Gamma_1, and is the one with s_r g^-1 == gamma^-1 s_r';
- the images of the first generators are the oracle's, whose transfer,
  conjugation and letter walk on the target's table share nothing with
  the double coset's.

The double cosets are those of ``boundary.check_hecke_generation``:
diag(1, p) for its primes (T_p or U_p), the diamond double cosets and
the cusp-moving double cosets.  The check applies one diamond per
nontrivial class of (Z/N)^x / +-H; here every beta_d with d outside +-H
is exercised, so a class of several units gives several alphas of one
double coset (d and -d on Gamma_1(N), for one)."""

from math import gcd

import pytest

from hypcycle.boundary import GENERATION_PRIMES, cusp_data
from hypcycle.cosets import SubgroupSpec
from hypcycle.hecke import DoubleCoset, diamond_matrix
from hypcycle.homology import compute_h1
from hypcycle.intlinalg import RingSpec, identity
from hypcycle.psl2 import Mat2
from oracles import HeckeOracle, generator_chain

GROUPS = ["gamma0:11", "gamma0:9", "gamma1:9", "gammaH:13:3"]
RINGS = [(0, "Z"), (1, "Z"), (2, "Q"), (1, "Fp:3"), (2, "Zp:5:2")]
# the oracle's letter walk takes about 0.1 s per image at k = 2 on
# Gamma_1(9); the operator matrices are checked against it in
# test_conj_push
IMAGES = 2


def generation_cosets(h1):
    """(name, DoubleCoset) for each double coset that
    check_hecke_generation applies on h1, with one diamond per unit d
    outside +-H rather than one per class."""
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
    steps = h1.quotient.steps
    step_elements = {steps[i, slot, e][1]
                     for i in range(h1.table.index)
                     for slot, e in (("S", 1), ("U", 2))}
    for name, dc in generation_cosets(h1):
        oracle = HeckeOracle(h1, h1, dc.alpha)
        in_gamma1 = oracle.contains
        # the reps: deg distinct cosets of Gamma_1, each in Gamma
        reps = dc.reps
        assert len(reps) == len(oracle.reps), name
        assert all(h1.table.contains(s) for s in reps), name
        assert not [(r, t) for r, s in enumerate(reps)
                    for t in reps[:r] if in_gamma1(s * t.inv())], name
        # the moves: gamma in Gamma_1 with s_r g^-1 == gamma^-1 s_r'
        for g in step_elements:
            for s, gamma in zip(reps, dc.moves(g)):
                assert in_gamma1(gamma), (name, g, s)
                s2 = gamma * s * g.inv()
                assert s2 in reps, (name, g, s)
        # the images of the first generators
        for i, unit in enumerate(identity(h1.ngens)[:IMAGES]):
            assert (dc.apply_coords(unit)
                    == oracle.image(generator_chain(h1, i))), (name, i)


def test_cosets_cover_every_kind():
    # T_p, U_p, diamonds and cusp movers all occur among the groups
    kinds = {name[0] for group in GROUPS for name, _ in generation_cosets(
        compute_h1(SubgroupSpec.parse(group), 0, RingSpec.parse("Z")))}
    assert kinds == {"T", "U", "<", "["}
