"""Soundness of the verdicts of the ordinary-part verifiers, the
quotient's per-prime test on H1 (x) F_q against the induced
endomorphism on the quotient, the Fitting split of the ordinary part,
the ordinary rank against charpoly(T_p) mod p, the mod-p bridge, and
that a quotient Verified is verify-main Verified at every prime."""

import pytest

from hypcycle import ordinary
from hypcycle.cosets import SubgroupSpec
from hypcycle.hecke import hecke_coset
from hypcycle.homology import compute_h1
from hypcycle.intlinalg import (
    Lattice,
    ZZ,
    columns,
    identity,
    mat_mul,
    mat_vec,
    subquotient,
)
from hypcycle.ordinary import (
    Budget,
    FittingSplit,
    cycle_quotient_report,
    mod_p_bridge,
    ordinary_idempotent,
    ordinary_part,
    verify_main_theorem,
)
from hypcycle.polyz import charpoly
from oracles import induced_endomorphism


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


def _valuation(n, q):
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v


def quotient_prime_verdicts(spec, k, budget, monkeypatch):
    """prime_verdicts of ``cycle_quotient_report`` and of the route it
    took before the test on H1 (x) F_q: T_q induced on H1/S, then the
    ordinary part of H1/S (x) Z/q^M at the largest q-valuation M of its
    order.  The span S is read off the report's call of subquotient."""
    images = []

    def recording(kernel, image, *rest):
        images.append(image)
        return subquotient(kernel, image, *rest)

    monkeypatch.setattr(ordinary, "subquotient", recording)
    report = cycle_quotient_report(spec, k, budget)
    assert len(images) == 1
    h1z = compute_h1(spec, k, ZZ)
    quotient = subquotient(identity(h1z.ngens), images[0])
    span = Lattice(h1z.ngens)
    for col in columns(images[0]):
        span.add(col)
    factors = quotient.invariant_factors
    if 0 in factors:
        return report.prime_verdicts, {}
    primes = set()
    for d in factors:
        q = 2
        while d > 1:
            if d % q == 0:
                primes.add(q)
                d //= q
            else:
                q += 1
    verdicts = {}
    for q in sorted(primes):
        verdicts[str(q)] = "Inconclusive"
        A = hecke_coset(q, h1z).operator().matrix
        if not all(span.contains(mat_vec(A, row)) for row in span.rows):
            continue
        induced = induced_endomorphism(A, quotient)
        split = ordinary_idempotent(induced, quotient, q,
                                    max(_valuation(d, q) for d in factors))
        if split.ordinary_rank == 0:
            verdicts[str(q)] = "Verified"
    return report.prime_verdicts, verdicts


@pytest.mark.parametrize("spec_name,k,budget", [
    ("gamma0:23", 1, Budget(max_generators=24)),
    ("gamma0:23", 1, Budget()),
    ("gamma0:26", 2, Budget()),
    ("gamma0:46", 1, Budget()),
    # small spans, stable at a prime where the quotient stays ordinary
    ("gamma0:1", 2, Budget(max_generators=4)),
    ("gamma0:8", 2, Budget(max_generators=20)),
])
def test_quotient_prime_test_matches_induced_endomorphism(spec_name, k, budget,
                                                          monkeypatch):
    new, old = quotient_prime_verdicts(SubgroupSpec.parse(spec_name), k,
                                       budget, monkeypatch)
    assert new == old and new


def test_quotient_prime_test_fails_without_cycles(monkeypatch):
    # with no cycles H1/S is H1 = Z/6 on SL_2(Z), whose T_2 and T_3 are
    # not nilpotent mod 2 and mod 3: both routes leave 2 and 3 open
    monkeypatch.setattr(ordinary, "enumerate_hyperbolic",
                        lambda table, budget, exclude_p=None: iter(()))
    new, old = quotient_prime_verdicts(SubgroupSpec.gamma0(1), 0, Budget(),
                                       monkeypatch)
    assert new == old == {"2": "Inconclusive", "3": "Inconclusive"}


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

    def counted(A, fg, p, M):
        calls.append(M)
        return ordinary_idempotent(A, fg, p, M)

    monkeypatch.setattr(ordinary, "ordinary_idempotent", counted)
    verify_main_theorem(SubgroupSpec.gamma1(13), 0, 3, 2)
    assert calls == [2]


def test_quotient_prime_test_reads_no_factors(monkeypatch):
    # the per-prime test reads only the Fitting image: the image's
    # invariant factors are computed where they are read (ordinary,
    # verify-main, bridge), not here
    factored = []
    factors = FittingSplit.factors

    def counted(self, lattice):
        factored.append(self.p)
        return factors(self, lattice)

    monkeypatch.setattr(FittingSplit, "factors", counted)
    report = cycle_quotient_report(SubgroupSpec.gamma0(1), 5)
    assert report.prime_verdicts == {"2": "Verified", "3": "Verified",
                                     "5": "Verified"}
    assert factored == []
    split, _, _ = ordinary_part(SubgroupSpec.gamma0(11), 0, 2, 3)
    assert factored == []
    first = split.ordinary_factors  # computed on first read, then kept
    assert split.ordinary_rank == len(first)
    assert split.ordinary_factors is first
    assert factored == [2]


@pytest.mark.parametrize("spec_name,k,p", [
    ("gamma0:11", 0, 2), ("gamma1:13", 0, 3), ("gamma0:23", 1, 2),
    ("gamma1:14", 0, 3),
])
def test_ordinary_rank_independent_of_precision(spec_name, k, p):
    # the ordinary rank is dim e(H1 (x) F_p) at every M
    h1z = compute_h1(SubgroupSpec.parse(spec_name), k, ZZ)
    A = hecke_coset(p, h1z).operator().matrix
    ranks = set()
    for M in (1, 2, 3):
        ranks.add(ordinary_idempotent(A, h1z.module, p, M).ordinary_rank)
    assert len(ranks) == 1


@pytest.mark.parametrize("spec_name,k,p,M,ordinary_rank", [
    ("gamma0:11", 0, 2, 2, 1),     # a_2 = -2: only the Eisenstein line
    ("gamma0:11", 0, 2, 3, 1),
    ("gamma1:13", 0, 3, 2, 15),
    ("gamma0:1", 0, 2, 2, 1),      # H1 = Z/6: p-torsion only
    ("gamma0:1", 0, 3, 2, 1),
])
def test_fitting_split(spec_name, k, p, M, ordinary_rank):
    # im P = im P^2 gives M = im P (+) ker P, and im AP = im P shows
    # that A is invertible on the image
    split, _, op = ordinary_part(SubgroupSpec.parse(spec_name), k, p, M)
    assert split.ordinary_rank == ordinary_rank
    A = [[op.matrix[i][j] % p ** M for j in split.keep] for i in split.keep]
    P = split.power
    image = split.image.canonical()
    assert split.span(columns(P)).canonical() == image
    assert split.span(columns(mat_mul(P, P))).canonical() == image
    assert split.span(columns(mat_mul(A, P))).canonical() == image
    assert split.ordinary_factors == split.factors(split.image)
    assert split.ordinary_rank + split.nilpotent_rank == split.ngens


@pytest.mark.parametrize("spec_name,k,p,ordinary_rank", [
    ("gamma0:11", 0, 2, 1), ("gamma1:13", 0, 3, 15), ("gamma0:23", 1, 2, 8),
])
def test_ordinary_rank_from_charpoly(spec_name, k, p, ordinary_rank):
    # with no p-torsion in H1 the ordinary rank is the number of unit
    # roots of charpoly(T_p) mod p: g minus the order of x there
    h1z = compute_h1(SubgroupSpec.parse(spec_name), k, ZZ)
    assert all(d == 0 or d % p for d in h1z.invariant_factors)
    A = hecke_coset(p, h1z).operator().matrix
    free = [i for i, d in enumerate(h1z.invariant_factors) if d == 0]
    chi = charpoly([[A[i][j] for j in free] for i in free])
    zeros = 0
    while zeros < len(free) and chi[-1 - zeros] % p == 0:
        zeros += 1
    assert len(free) - zeros == ordinary_rank
    for M in (1, 2, 3):
        split = ordinary_idempotent(A, h1z.module, p, M)
        assert split.ordinary_rank == ordinary_rank


@pytest.mark.parametrize("N,p,k,dim", [(9, 3, 1, 3), (5, 5, 2, 2)])
def test_mod_p_bridge_verified(N, p, k, dim):
    # j_*: b -> b * X2^(2k) carries the constant chains of the generators
    # into degree 2k, so this runs every chain producer and consumer
    report = mod_p_bridge(N, p, k)
    assert report.verdict == "Verified"
    assert report.ordinary_dim_constant == report.ordinary_dim_weighted == dim
    assert report.equivariant and report.image_matches
    assert report.unit_scalings_checked == 20


QUOTIENT_GRID = (
    [("gamma0:%d" % N, k) for k in (0, 1) for N in range(1, 17)]
    + [("gamma0:%d" % N, 2) for N in range(1, 12)]
    + [("gamma1:%d" % N, k) for k in (0, 1) for N in range(5, 11)])


@pytest.mark.parametrize("spec_name,k", QUOTIENT_GRID)
def test_quotient_verified_means_verify_main_verified(spec_name, k):
    # a finite H1/S whose ordinary part vanishes at every prime of its
    # order puts e_p(H1 (x) Z_p) inside S (x) Z_p at every p, so the
    # cycles span the ordinary part there: one quotient Verified is
    # verify-main Verified at every prime.  Every row of this slice is
    # quotient-Verified, so the implication is never vacuous
    spec = SubgroupSpec.parse(spec_name)
    assert cycle_quotient_report(spec, k).verdict == "Verified"
    for p in (2, 3, 5, 7, 11, 13):
        assert verify_main_theorem(spec, k, p, 1).verdict == "Verified", p
