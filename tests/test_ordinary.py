"""Soundness of the verdicts of the ordinary-part verifiers, the
idempotent against its defining equations, and the mod-p bridge."""

import pytest

from hypcycle import ordinary
from hypcycle.cosets import SubgroupSpec
from hypcycle.hecke import hecke_operator
from hypcycle.homology import compute_h1
from hypcycle.intlinalg import ZZ
from hypcycle.ordinary import (
    Budget,
    PModule,
    cycle_quotient_report,
    mod_p_bridge,
    ordinary_idempotent,
    ordinary_part,
    verify_main_theorem,
)


def test_quotient_small_budget_never_falsifies():
    # sixteen cycles span too little of H1 on Gamma_0(23), k = 1: the
    # quotient keeps an ordinary part at 2, 3, 13 and 19, and a span
    # that may still grow refutes nothing.  The span is stable under
    # none of T2, T3, T13, T19 and U23, so no Hecke operator acts on the
    # quotient and no prime is Verified, 23 included
    report = cycle_quotient_report(SubgroupSpec.gamma0(23), 1,
                                   Budget(max_generators=16))
    assert report.verdict == "Inconclusive"
    assert report.prime_verdicts == {"2": "Inconclusive", "3": "Inconclusive",
                                     "13": "Inconclusive", "19": "Inconclusive",
                                     "23": "Inconclusive"}


def test_quotient_verified_before_the_stream_ends():
    # 24 cycles leave a finite quotient whose ordinary part vanishes at
    # every prime of its order: Verified, though the stream was cut
    report = cycle_quotient_report(SubgroupSpec.gamma0(23), 1,
                                   Budget(max_generators=24))
    assert report.verdict == "Verified"
    assert report.generators_tried == 24
    assert report.free_rank == 0
    assert set(report.prime_verdicts.values()) == {"Verified"}


@pytest.mark.parametrize("budget", [Budget(max_generators=1),
                                    Budget(max_generators=20), Budget()])
def test_verify_main_is_verified_or_inconclusive(budget):
    report = verify_main_theorem(SubgroupSpec.gamma1(13), 0, 3, 1, budget)
    assert report.verdict in ("Verified", "Inconclusive")
    if report.verdict == "Verified":
        assert report.span_invariant_factors == report.invariant_factors


def test_verify_main_small_budget_inconclusive():
    report = verify_main_theorem(SubgroupSpec.gamma1(13), 0, 3, 1,
                                 Budget(max_generators=1))
    assert report.verdict == "Inconclusive"
    assert report.generators_tried <= 1


@pytest.mark.parametrize("spec_name,k,p", [("gamma1:14", 0, 3),
                                           ("gamma0:21", 1, 2)])
def test_verify_main_draws_until_the_span_is_complete(spec_name, k, p):
    # the span grows again after more than 25 draws that add nothing
    report = verify_main_theorem(SubgroupSpec.parse(spec_name), k, p, 2)
    assert report.verdict == "Verified"
    assert report.span_invariant_factors == report.invariant_factors


def test_verify_main_computes_one_idempotent(monkeypatch):
    calls = []

    def counted(A, pm):
        calls.append(pm.M)
        return ordinary_idempotent(A, pm)

    monkeypatch.setattr(ordinary, "ordinary_idempotent", counted)
    verify_main_theorem(SubgroupSpec.gamma1(13), 0, 3, 2)
    assert calls == [2]


@pytest.mark.parametrize("spec_name,k,p", [
    ("gamma0:11", 0, 2), ("gamma1:13", 0, 3), ("gamma0:23", 1, 2),
    ("gamma1:14", 0, 3),
])
def test_ordinary_rank_independent_of_precision(spec_name, k, p):
    # the ordinary rank is dim e(H1 (x) F_p) at every M
    h1z = compute_h1(SubgroupSpec.parse(spec_name), k, ZZ)
    A = hecke_operator(p, h1z).matrix
    ranks = set()
    for M in (1, 2, 3):
        pm = PModule(h1z.module, p, M)
        ranks.add(ordinary_idempotent(pm.reduce_matrix(A), pm).ordinary_rank)
    assert len(ranks) == 1


@pytest.mark.parametrize("spec_name,k,p,M,ordinary_rank", [
    ("gamma0:11", 0, 2, 2, 1),     # a_2 = -2: only the Eisenstein line
    ("gamma0:11", 0, 2, 3, 1),
    ("gamma1:13", 0, 3, 2, 15),
])
def test_idempotent_equations(spec_name, k, p, M, ordinary_rank):
    dec, pm, _, op = ordinary_part(SubgroupSpec.parse(spec_name), k, p, M)
    assert dec.ordinary_rank == ordinary_rank
    g = pm.ngens
    e = dec.idempotent
    A = pm.reduce_matrix(op.matrix)

    def apply(mat, v):
        return [sum(mat[i][j] * v[j] for j in range(g)) % o
                for i, o in enumerate(pm.orders)]

    for j in range(g):
        col = [int(i == j) for i in range(g)]
        ecol = apply(e, col)
        assert apply(e, ecol) == ecol            # e^2 = e
        assert apply(e, apply(A, col)) == apply(A, ecol)   # eA = Ae
        assert dec.image.contains(ecol)
        rest = [(c - x) % o for c, x, o in zip(col, ecol, pm.orders)]
        assert dec.kernel.contains(rest)         # 1 - e lands in the kernel


@pytest.mark.parametrize("N,p,k,dim", [(9, 3, 1, 3), (5, 5, 2, 2)])
def test_mod_p_bridge_verified(N, p, k, dim):
    # j_*: b -> b * X2^(2k) carries the constant chains of the generators
    # into degree 2k, so this runs every chain producer and consumer
    report = mod_p_bridge(N, p, k)
    assert report.verdict == "Verified"
    assert report.ordinary_dim_constant == report.ordinary_dim_weighted == dim
    assert report.equivariant and report.image_matches
    assert report.unit_scalings_checked == 20
