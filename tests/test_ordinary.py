"""Soundness of the verdicts of the ordinary-part verifiers, the
idempotent against its defining equations, and the mod-p bridge."""

import pytest

from hypcycle.cosets import SubgroupSpec
from hypcycle.ordinary import (
    Budget,
    cycle_quotient_report,
    mod_p_bridge,
    ordinary_part,
    verify_main_theorem,
)


def test_quotient_patience_never_falsifies():
    # with patience 1 the span of cycles stops short on Gamma_0(23),
    # k = 1, and its quotient keeps an ordinary part at 2; the patience
    # heuristic is no proof of saturation, so that is not a refutation
    report = cycle_quotient_report(SubgroupSpec.gamma0(23), 1,
                                   Budget(patience=1))
    assert report.verdict == "Inconclusive"
    assert report.prime_verdicts["2"] == "Inconclusive"
    assert "Falsified" not in report.prime_verdicts.values()


@pytest.mark.parametrize("budget", [Budget(max_generators=1), Budget(patience=1),
                                    Budget()])
def test_verify_main_is_verified_or_inconclusive(budget):
    report = verify_main_theorem(SubgroupSpec.gamma1(13), 0, 3, 1, budget,
                                 check_stability=False)
    assert report.verdict in ("Verified", "Inconclusive")
    if report.verdict == "Verified":
        assert report.span_invariant_factors == report.invariant_factors


def test_verify_main_small_budget_inconclusive():
    report = verify_main_theorem(SubgroupSpec.gamma1(13), 0, 3, 1,
                                 Budget(max_generators=1), check_stability=False)
    assert report.verdict == "Inconclusive"
    assert report.generators_tried <= 1


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
