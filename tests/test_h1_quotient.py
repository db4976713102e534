"""The quotient-first H1 route against the dense reference route, the
bounded-growth kernels, the rungs it unlocks, and the CLI error paths."""

import json
import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hypcycle import cli
from hypcycle.boundary import check_boundary_identity
from hypcycle.cosets import SubgroupSpec, build_cosets
from hypcycle.hecke import ConjugateLeavesGroup, WrongDivisibility
from hypcycle.homology import NotACycle, compute_h1
from hypcycle.intlinalg import (
    ColumnEchelon,
    ImageNotContained,
    NotInModule,
    RingSpec,
    ZZ,
    columns,
    diagonal,
    kernel_basis,
    kernel_mod,
    mat_vec,
    smith_normal_form_full,
)
from hypcycle.psl2 import NotDefinedForElliptic
from hypcycle.symspace import NonPositiveDeterminant
from oracles import (
    BudgetExceeded,
    boundary1,
    dense,
    dense_h1,
    kernel_mod_augmented,
    rank,
)

GRID = settings(max_examples=30, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.filter_too_much])
SMALL = settings(max_examples=80, deadline=None, derandomize=True)


@st.composite
def h1_cases(draw):
    kind = draw(st.sampled_from(["gamma0", "gamma1"]))
    N = draw(st.integers(1, 13))
    k = draw(st.integers(0, 3))
    p = draw(st.sampled_from([2, 3, 5]))
    ring = draw(st.sampled_from(["Z", "Fp:%d" % p, "Zp:%d:2" % p]))
    return SubgroupSpec.parse("%s:%d" % (kind, N)), k, RingSpec.parse(ring)


@GRID
@given(h1_cases())
def test_invariant_factors_match_dense_route(case):
    spec, k, ring = case
    table = build_cosets(spec)
    # the dense route is quadratic in this dimension; keep it small
    assume(table.index * (2 * k + 1) <= 84)
    got = compute_h1(table, k, ring).invariant_factors
    assert got == dense_h1(table, k, ring).invariant_factors, (spec, k, ring)


matrices = st.integers(1, 5).flatmap(lambda m: st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-40, 40), min_size=n, max_size=n),
                       min_size=m, max_size=m)))


@SMALL
@given(matrices)
def test_kernel_basis_annihilates_and_is_saturated(A):
    K = kernel_basis(A)
    cols = columns(K)
    n = len(A[0])
    assert rank(A) + len(cols) == n
    for col in cols:
        assert not any(mat_vec(A, col))
    if cols:
        # Z^n / span(K) is torsion-free: the Smith diagonal of K is all 1
        D = smith_normal_form_full(K)[2]
        assert set(diagonal(D)) == {1}


@SMALL
@given(matrices, st.sampled_from([2, 3, 4, 8, 9, 25, 27, 6, 12]))
def test_kernel_mod_is_reduced_and_exact(A, m):
    K = kernel_mod(A, m)
    n = len(A[0])
    cols = columns(K)
    assert len(cols) == n
    for j, col in enumerate(cols):
        # Hermite form mod m: pivots divide m, all else in [0, m)
        assert all(x == 0 for x in col[:j])
        assert m % col[j] == 0
        assert all(0 <= x < m for x in col[j + 1:])
        assert all(x % m == 0 for x in mat_vec(A, col))
    ref = ColumnEchelon(kernel_mod_augmented(A, m))
    mine = ColumnEchelon(K)
    for col in cols:
        assert ref.solve(col) is not None
    for col in columns(kernel_mod_augmented(A, m)):
        assert mine.solve(col) is not None


class TestUnlockedRungs:
    def test_gamma0_37_weight_six(self):
        h1 = compute_h1(SubgroupSpec.gamma0(37), 2, ZZ)
        assert list(h1.invariant_factors) == [2, 2] + [0] * 32

    def test_gamma0_23_mod_25(self):
        h1 = compute_h1(SubgroupSpec.gamma0(23), 1, RingSpec("ZpM", p=5, M=2))
        assert list(h1.invariant_factors) == [25] * 12

    def test_check_identity_level_16(self):
        assert check_boundary_identity(4, 3, 1).verdict == "Verified"

    def test_level_one_weight_24_lift_size(self):
        h1 = compute_h1(SubgroupSpec.gamma0(1), 11, ZZ)
        assert h1.rank == 5
        bits = [x.bit_length() for row in h1.module.gen_lift for x in row]
        for i in range(h1.ngens):
            chain = h1.generator_chain(i)
            dc = dense(chain, h1.table, 11)
            bits += [x.bit_length() for v in (dc.mS, dc.mU)
                     for b in v.blocks for x in b]
            e = [0] * h1.ngens
            e[i] = 1
            assert h1.coords(h1.quotient.project(chain)) == tuple(e)
        assert max(bits) < 2048


class TestGeneratorChains:
    @pytest.mark.parametrize("group,k,ring", [
        ("gamma0:1", 5, "Z"), ("gamma1:5", 1, "Z"), ("gamma0:7", 3, "Z"),
        ("gamma1:13", 0, "Zp:3:3"), ("gamma0:1", 9, "Fp:5"),
        ("gamma0:11", 1, "Q")])
    def test_lifts_are_cycles_with_unit_coords(self, group, k, ring):
        h1 = compute_h1(SubgroupSpec.parse(group), k, RingSpec.parse(ring))
        for i in range(h1.ngens):
            chain = h1.generator_chain(i)
            assert boundary1(dense(chain, h1.table, k, h1.ring.modulus)).is_zero()
            e = [0] * h1.ngens
            e[i] = 1
            assert h1.coords(h1.quotient.project(chain)) == tuple(e)


def run_cli(argv, capsys):
    code = cli.main(argv)
    return code, json.loads(capsys.readouterr().out)


class TestCli:
    def test_level_one_t5_report(self, capsys):
        code, report = run_cli(
            "hecke --group gamma0:1 --k 9 --op Tp --p 5".split(), capsys)
        assert code == 0
        assert report["charpoly"] == "(x-19073486328126)*(x+2377410)^2"

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-to-str digit limit")
    def test_huge_integers_encode(self):
        limit = sys.get_int_max_str_digits()
        text = cli._dumps({"x": 10 ** 5000})
        assert text == '{"x":1' + "0" * 5000 + "}"
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("argv", [
        "h1 --group gamma0:11 --k -1",
        "ordinary --group gamma0:11 --k 0 --p 4",
        "verify-main --group gamma0:11 --k 0 --p 3 --M 0",
        "hecke --group gamma0:11 --k 0 --op Tp --p 9",
        "bridge --N 9 --p 1 --k 1",
        "check-identity --N 0 --p 3 --k 1",
        "h1 --group gamma0:11 --k 0 --ring Fp:4",
        "h1 --group gamma0:11 --k 0 --ring Fp",
        "h1 --group gamma0:11 --k 0 --ring Fp:5:7",
        "h1 --group gamma0:11 --k 0 --ring Z:9",
        "h1 --group gamma0:11 --k 0 --ring Zp:5:2:9",
        "h1 --group gamma0:11:3 --k 0",
        "h1 --group gamma0 --k 0",
        "h1 --group gammaH:0:1 --k 0",
        "cycle --group gamma0:1 --k 0 --matrix [[1,2",
        "cycle --group gamma0:1 --k 0 --matrix [[2,1],[1,1]]x",
        "cycle --group gamma0:1 --k 0 --matrix 7",
        "cycle --group gamma0:1 --k 0 --matrix [[1.9,0],[0,1]]",
        "verify-main --group gamma0:11 --k 0 --p 3 --max-word-len -1",  # removed
        "verify-main --group gamma0:11 --k 0 --p 3 --max-generators 0",
        "verify-main --group gamma0:11 --k 0 --p 3 --max-generators -3",
        "verify-main --group gamma0:11 --k 0 --p 3 --patience 25",  # removed
        "quotient --group gamma0:11 --k 0 --max-word-len 0",  # removed
        "hecke --group gamma0:11 --k 0 --op Tp --p 11",
        "hecke --group gamma0:11 --k 0 --op Up --p 3",
        "hecke --group gamma0:11 --k 0 --op Tp",
        "hecke --group gamma0:11 --k 0 --op diamond:11",
        "hecke --group gamma0:11 --k 0 --op bogus",
    ])
    def test_bad_input_exits_3(self, argv, capsys):
        code, report = run_cli(argv.split(), capsys)
        assert code == 3 and "error" in report

    @pytest.mark.parametrize("exc", [NotACycle, BudgetExceeded,
                                     ConjugateLeavesGroup, NotInModule,
                                     ImageNotContained])
    def test_library_errors_exit_3(self, exc, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise exc("boom")

        # cmd_h1 imports compute_h1 when it runs, so patch it at its home
        monkeypatch.setattr("hypcycle.homology.compute_h1", boom)
        code, report = run_cli("h1 --group gamma0:11 --k 0".split(), capsys)
        assert (code, report["error"]) == (3, "boom")

    @pytest.mark.parametrize("exc", [WrongDivisibility, ConjugateLeavesGroup,
                                     NotACycle, NotInModule,
                                     ImageNotContained, NotDefinedForElliptic,
                                     NonPositiveDeterminant])
    def test_library_errors_are_value_errors(self, exc):
        # cli.INPUT_ERRORS is (ValueError,), so main catches these
        # without loading the modules that define them
        assert issubclass(exc, ValueError)
