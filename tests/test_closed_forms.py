"""Hecke charpolys against closed forms that share no code path with
``hypcycle`` (``closed_forms``): on level one with Sym^10 coefficients,
T_p has the Eisenstein eigenvalue 1 + p^11 and, on the two classes of
the discriminant form, Ramanujan's tau(p)."""

import json

import pytest

from closed_forms import ramanujan_tau
from hypcycle import cli

TAU = ramanujan_tau(97)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 97])
def test_level_one_weight_12_charpoly_is_eisenstein_and_tau(p, capsys):
    # runs T^q on the one coset of SL2(Z) make about p laps each of the
    # orbit of width 1, read by the run walk in closed form
    argv = "hecke --group gamma0:1 --k 5 --op Tp --p %d" % p
    assert cli.main(argv.split()) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["charpoly"] == "(x-%d)*(x%+d)^2" % (1 + p ** 11, -TAU[p])
