"""Hecke images of single classes: ``DoubleCoset.apply_coords`` against
the operator matrix, and the claim checks that map only the cycles they
need (counted mapped cycles and the former ceiling cases)."""

from math import gcd

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hypcycle.boundary import (
    check_boundary_identity,
    check_hecke_generation,
    cusp_data,
)
from hypcycle.cosets import SubgroupSpec
from hypcycle import hecke
from hypcycle.hecke import (
    DoubleCoset,
    WrongDivisibility,
    diamond_coset,
    diamond_matrix,
)
from hypcycle.homology import compute_h1
from hypcycle.intlinalg import (QQ, RingSpec, ZZ, columns, from_columns,
                                identity)
from hypcycle.psl2 import Mat2
from oracles import HeckeOracle, coset_reps, equals, identity_operator

IMAGES = settings(max_examples=50, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow,
                                         HealthCheck.filter_too_much])
# index times (2k+1) times the number of generators bounds the oracle's
# letter walks for a whole operator matrix
MAX_WORK = 1500


@st.composite
def rings(draw):
    ell = draw(st.sampled_from([2, 3, 5]))
    return draw(st.sampled_from([ZZ, QQ, RingSpec("Fp", p=ell),
                                 RingSpec("ZpM", p=ell, M=2)]))


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(["gamma0", "gamma1"]))
    spec = SubgroupSpec.parse("%s:%d" % (kind, draw(st.integers(1, 13))))
    return (spec, draw(st.integers(0, 2)), draw(rings()),
            draw(st.sampled_from(["T", "U", "diamond", "cusp"])),
            draw(st.sampled_from([2, 3, 5])))


def double_coset(h1, op, p):
    N = h1.spec.N
    if op in ("T", "U"):
        assume((N % p == 0) == (op == "U"))
        return DoubleCoset(h1, h1, Mat2(1, 0, 0, p))
    if op == "diamond":
        units = [d for d in range(2, N) if gcd(d, N) == 1]
        assume(units)
        return DoubleCoset(h1, h1, diamond_matrix(N, units[p % len(units)]))
    reps = [c.representative for c in cusp_data(h1.table)
            if not c.representative.is_identity()]
    assume(reps)
    return DoubleCoset(h1, h1, reps[p % len(reps)].lift())


@IMAGES
@given(cases(), st.data())
def test_apply_coords_matches_operator_matrix(case, data):
    spec, k, ring, op, p = case
    h1 = compute_h1(spec, k, ring)
    assume(0 < h1.ngens
           and h1.table.index * (2 * k + 1) * h1.ngens <= MAX_WORK)
    dc = double_coset(h1, op, p)
    # the matrix against the Hecke oracle's images of cycles lifted
    # from the module's generators directly, not through
    # H1Presentation.chain, and mapped one by one
    m = ring.modulus
    oracle = HeckeOracle(h1, h1, dc.alpha)
    cols = [oracle.image(h1.quotient.lift(generator))
            for generator in columns(h1.module.gen_lift)]
    assert dc.operator().matrix == from_columns(cols, h1.ngens)
    lo, hi = (0, m - 1) if m else (-9, 9)
    for _ in range(3):
        z = data.draw(st.lists(st.integers(lo, hi), min_size=h1.ngens,
                               max_size=h1.ngens))
        assert dc.apply_coords(z) == dc.operator().apply_coords(z)


# on Gamma_1(5): T_2, U_5, <2> and the coset of a cusp representative
BATCH_OPS = {
    "T2": lambda h1: Mat2(1, 0, 0, 2),
    "U5": lambda h1: Mat2(1, 0, 0, 5),
    "diamond": lambda h1: diamond_matrix(5, 2),
    "cusp": lambda h1: [c.representative for c in cusp_data(h1.table)
                        if not c.representative.is_identity()][0].lift(),
}


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("ring", [ZZ, RingSpec("ZpM", p=3, M=2)],
                         ids=["Z", "Z/9"])
@pytest.mark.parametrize("op", sorted(BATCH_OPS))
def test_operator_batch_matches_single_classes(k, ring, op):
    # operator() maps every generator in one batch, where each element is
    # walked once for all the classes that use it: with its d x d map
    # when they are d or more, else with their columns; a single class
    # walks only the elements it uses itself, one column each
    h1 = compute_h1(SubgroupSpec.gamma1(5), k, ring)
    _check_batch(DoubleCoset(h1, h1, BATCH_OPS[op](h1)))


@pytest.mark.parametrize("ring", [ZZ, RingSpec("ZpM", p=3, M=2)],
                         ids=["Z", "Z/9"])
def test_level_one_batch_matches_single_classes(ring):
    # T_5 at k = 9: d = 19 is more than the classes of any batch, so the
    # batch walks as many columns as its classes, and each single class one
    h1 = compute_h1(SubgroupSpec.gamma0(1), 9, ring)
    assert 1 < h1.ngens < 19
    _check_batch(DoubleCoset(h1, h1, Mat2(1, 0, 0, 5)))


def _check_batch(dc):
    matrix = dc.operator().matrix
    for j, unit in enumerate(identity(dc.source.ngens)):
        assert [row[j] for row in matrix] == list(dc.apply_coords(unit))


def _cusp_mover(h1):
    return [c.representative for c in cusp_data(h1.table)
            if not c.representative.is_identity()][0].lift()


# T_3 and U_11 on Gamma_0(11), T_5 on Gamma_1(13), <2> on Gamma_1(9), and
# the coset of a cusp representative on Gamma_H(13; 3)
TRANSVERSAL_CASES = {
    "T3": ("gamma0:11", 1, lambda h1: Mat2(1, 0, 0, 3)),
    "U11": ("gamma0:11", 1, lambda h1: Mat2(1, 0, 0, 11)),
    "T5": ("gamma1:13", 0, lambda h1: Mat2(1, 0, 0, 5)),
    "diamond": ("gamma1:9", 1, lambda h1: diamond_matrix(9, 2)),
    "cusp": ("gammaH:13:3", 1, _cusp_mover),
}


@pytest.mark.parametrize("case", sorted(TRANSVERSAL_CASES))
def test_transversal_matches_schreier_walk(case, monkeypatch):
    # the transversal of Gamma_1 in Gamma that the orbit walk finds: its
    # elements lie in Gamma, one per coset of Gamma_1 in Gamma (by the
    # membership test of Gamma_1), and the operator equals the one built
    # on the Hecke oracle's reps, a breadth-first walk over Gamma's
    # Schreier generators by membership alone, which finds other reps of
    # the same cosets
    group, k, alpha = TRANSVERSAL_CASES[case]
    h1 = compute_h1(SubgroupSpec.parse(group), k, ZZ)
    dc = DoubleCoset(h1, h1, alpha(h1))
    oracle = HeckeOracle(h1, h1, dc.alpha)
    assert all(h1.table.contains(s) for s in dc.reps)
    assert len(dc.reps) == len(oracle.reps)
    assert not [(r, t) for r, s in enumerate(dc.reps) for t in dc.reps[:r]
                if oracle.contains(s * t.inv())]

    def by_membership(key, table):
        reps = coset_reps(oracle.contains, table.schreier_generators())
        return reps, {key(s): r for r, s in enumerate(reps)}

    monkeypatch.setattr(hecke, "subgroup_transversal", by_membership)
    walked = DoubleCoset(h1, h1, alpha(h1))
    assert walked.reps == oracle.reps
    assert walked.operator().matrix == dc.operator().matrix


def test_diamond_keeps_identity_and_divisibility():
    h1 = compute_h1(SubgroupSpec.gamma1(13), 0, ZZ)
    op = diamond_coset(14, h1)
    assert isinstance(op, DoubleCoset)
    assert equals(op.operator(), identity_operator(h1))
    with pytest.raises(WrongDivisibility):
        diamond_coset(13, h1)


@pytest.fixture
def mapped_cycles(monkeypatch):
    """Counts the classes passed to hecke.conj_star, one subgroup form
    each."""
    count = [0]
    conj_star = hecke.conj_star

    def counted(forms, *args):
        count[0] += len(forms)
        return conj_star(forms, *args)

    monkeypatch.setattr(hecke, "conj_star", counted)
    return count


def test_identity_check_maps_one_cycle_per_double_coset(mapped_cycles):
    # T_p and <p> each map z(T) once, also where <p> is trivial: on
    # Gamma_1(4) <3> = <-1>, and diamond_coset builds the double coset of
    # the group itself
    for N, p, mapped in ((3, 2, 2), (2, 3, 4)):
        assert check_boundary_identity(N, p, 1).verdict == "Verified"
        assert mapped_cycles[0] == mapped


def test_generation_check_maps_frontier_only(mapped_cycles):
    report = check_hecke_generation(SubgroupSpec.gamma1(9), 0)
    assert report.verdict == "Verified"
    assert mapped_cycles[0] <= 15


# former ceilings: with full operator matrices these took 12 s each

def test_identity_ceiling_n6(mapped_cycles):
    assert check_boundary_identity(6, 5, 1).verdict == "Verified"
    assert mapped_cycles[0] == 2


def test_generation_ceiling_gamma1_16(mapped_cycles):
    report = check_hecke_generation(SubgroupSpec.gamma1(16), 1)
    assert report.verdict == "Verified"
    assert mapped_cycles[0] <= len(report.operators)
