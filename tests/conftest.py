import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from twolevel import asymptotics as asy
from twolevel import cli
from twolevel import gfsystem as gf
from twolevel.powerseries import PowerSeries

RUN_TOL = cli.RunConfig().tol  # the default --tol, to which the fixtures are solved


class SelfDualSeries(NamedTuple):
    """The self-dual series the tests read: both pointed variants and the bound."""

    s_U_paper: PowerSeries
    s_U_corrected: PowerSeries
    s_bound: PowerSeries


def _solve_selfdual(p: gf.PointedSeries) -> SelfDualSeries:
    return SelfDualSeries(gf.compute_selfdual(p, "paper"), gf.compute_selfdual(p, "corrected"),
                          gf.compute_s_bound(p))


@pytest.fixture(scope="session")
def pointed30():
    return gf.solve_pointed(30)


@pytest.fixture(scope="session")
def unrooted30(pointed30):
    """T(x) at order 30."""
    return gf.assemble_T(pointed30)


@pytest.fixture(scope="session")
def solve_selfdual():
    """Builds the self-dual series of a pointed solution."""
    return _solve_selfdual


@pytest.fixture(scope="session")
def selfdual30(pointed30):
    return _solve_selfdual(pointed30)


@pytest.fixture(scope="session")
def char30(pointed30):
    return asy.solve_char_system(pointed30, RUN_TOL)


@pytest.fixture(scope="session")
def expansion30(char30, pointed30):
    return asy.singular_expansions(char30, pointed30, RUN_TOL)


@pytest.fixture(scope="session")
def reference():
    """bench/reference.py, imported read-only: plain-int recurrences that share
    no code with the package, and solve a_M as an unknown of its own."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        import reference
    finally:
        sys.path.remove(bench)
    return reference
