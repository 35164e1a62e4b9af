import ast
import csv
import gc
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import twolevel
from twolevel import asymptotics as asy
from twolevel import cli
from twolevel import gfsystem as gf
from twolevel import matroid as mat
from twolevel import umrtree as umr
from twolevel.powerseries import PowerSeries

import reference_routes as ref


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConfig:
    def test_defaults(self):
        c = cli.RunConfig()
        assert c.order == 30 and c.fmt == "text"

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="order must be >= 3"):
            cli.RunConfig(order=2).checked()
        for tol in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                cli.RunConfig(tol=tol).checked()
        with pytest.raises(ValueError, match="tree_cap must be positive"):
            cli.RunConfig(tree_cap=0).checked()

    def test_checked_reads_the_replaced_values(self):
        assert cli.RunConfig()._replace(order=40).checked().order == 40
        with pytest.raises(ValueError, match="order must be >= 3"):
            cli.RunConfig()._replace(order=2).checked()

    def test_smallest_accepted_values(self):
        config = cli.RunConfig(order=3, tree_cap=1)
        assert config.checked() is config
        assert cli.main(["--order", "3", "--tree-cap", "1", "verify"]) == 0


class TestCoeffs:
    def test_T_table(self, capsys):
        code, out, _ = run(["--order", "12", "coeffs", "T"], capsys)
        assert code == 0
        assert "12  39358" in out

    def test_AR_low_order(self, capsys):
        code, out, _ = run(["--order", "5", "coeffs", "AR"], capsys)
        assert code == 0
        assert "2  1" in out

    def test_forest(self, capsys):
        code, out, _ = run(["--order", "6", "coeffs", "forest"], capsys)
        assert code == 0
        assert "6  30" in out

    def test_json_round_trips(self, capsys):
        code, out, _ = run(["--order", "8", "--format", "json", "coeffs", "T"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["series"] == "T"
        by_n = {row["n"]: row["coefficient"] for row in doc["data"]}
        assert by_n[8] == 246

    def test_csv(self, capsys):
        code, out, _ = run(["--order", "5", "--format", "csv", "coeffs", "T"], capsys)
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "coefficient"]
        assert rows[1 + 5] == ["5", "10"]

    @pytest.mark.parametrize("name, series", [
        ("AU", lambda p: p.a_U),
        ("SU_paper", lambda p: gf.compute_selfdual(p, "paper")),
        ("SU_corrected", lambda p: gf.compute_selfdual(p, "corrected")),
    ], ids=["AU", "SU_paper", "SU_corrected"])
    def test_named_series(self, capsys, name, series):
        code, out, _ = run(["--order", "10", "--format", "json", "coeffs", name], capsys)
        assert code == 0
        got = [row["coefficient"] for row in json.loads(out)["data"]]
        assert got == series(gf.solve_pointed(10)).integer_coeffs()

    def test_unknown_series_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["coeffs", "nope"])
        assert exc.value.code == 2

    def test_bad_config_exits_1(self, capsys):
        code, _, err = run(["--order", "2", "coeffs", "T"], capsys)
        assert code == 1
        assert "error" in err


class TestVerify:
    def test_default_agreement(self, capsys):
        code, out, _ = run(["--order", "10", "--tree-cap", "5", "verify"], capsys)
        assert code == 0
        assert "MISMATCH" not in out
        assert "corrected matches; paper variant over-counts" in out

    def test_corrupted_series_fails(self, capsys, monkeypatch):
        assemble_T = gf.assemble_T

        def corrupted(p):
            t = assemble_T(p)
            return t + PowerSeries([0, 0, 0, 1] + [0] * (t.order - 3))

        monkeypatch.setattr(gf, "assemble_T", corrupted)
        code, out, _ = run(["--order", "10", "--tree-cap", "5", "verify"], capsys)
        assert code == 1
        assert "MISMATCH" in out

    def test_json_is_one_write(self, monkeypatch):
        # json.dump would write each chunk of its encoder, one write apiece
        # on an unbuffered stdout
        class Counting(io.StringIO):
            writes = 0

            def write(self, s):
                self.writes += 1
                return super().write(s)

        buf = Counting()
        monkeypatch.setattr(sys, "stdout", buf)
        assert cli.main(["--order", "10", "--tree-cap", "5", "--format", "json", "verify"]) == 0
        assert buf.writes == 1 and buf.getvalue().endswith("}\n")
        assert json.loads(buf.getvalue())["meta"] == {"order": 10, "tree_cap": 5}

    def test_matroid_checks_stop_at_their_cost_caps(self, capsys, monkeypatch):
        realised, compared = [], []

        def to_matroid(tree, realise=umr.tree_to_matroid):
            realised.append(ref.num_legs(tree))
            return realise(tree)

        def is_isomorphic(a, b, test=mat.is_isomorphic):
            compared.append(max(len(a.ground), len(b.ground)))
            return test(a, b)

        monkeypatch.setattr(umr, "tree_to_matroid", to_matroid)
        monkeypatch.setattr(mat, "is_isomorphic", is_isomorphic)
        for order, tree_cap in ((10, 7), (12, 9), (8, 7), (5, 9)):
            realised.clear()
            compared.clear()
            code, out, _ = run(["--order", str(order), "--tree-cap", str(tree_cap),
                                "--format", "json", "verify"], capsys)
            assert code == 0
            assert "MISMATCH" not in out
            report = json.loads(out)
            n_max, data = report["meta"]["tree_cap"], report["data"]
            # matroids_distinct has rows at 3..7 and selfdual_matroid at 3..6,
            # whatever --tree-cap asks, and none past the last size enumerated
            for check, last in (("matroids_distinct", 7), ("selfdual_matroid", 6)):
                assert [(r["n"], r["status"]) for r in data if r["check"] == check] == [
                    (n, "ok") for n in range(3, min(last, n_max) + 1)]
            # only the sizes whose rows run are realised as matroids
            assert sorted(set(realised)) == list(range(3, min(7, n_max) + 1))
            # the fixtures, on 6 and 7 elements, always run, and no
            # isomorphism test runs on a ground set past 7 elements
            assert [(r["n"], r["status"]) for r in data if r["check"] in (
                "p6_fixture", "dual_of_two_sum")] == [(6, "ok"), (7, "ok")]
            assert compared and max(compared) <= 7

    def test_iso_cap_is_refused(self, capsys):
        # an unknown flag is named, before the command or after it, spaced
        # or joined; a misspelt one too
        for argv, message in (
                (["--iso-cap", "5", "verify"], "unrecognized arguments: --iso-cap\n"),
                (["verify", "--iso-cap", "5"], "unrecognized arguments: --iso-cap 5"),
                (["--iso-cap=5", "verify"], "unrecognized arguments: --iso-cap=5"),
                (["--tree_cap", "5", "verify"], "unrecognized arguments: --tree_cap\n")):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            assert message in capsys.readouterr().err
        # a negative value is still a value, an abbreviated --help still
        # prints the help, and an ambiguous prefix is reported with the
        # full usage line
        assert run(["--tol", "-1", "asympt"], capsys) == (
            1, "", "error: tol must be positive and finite\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["--he", "verify"])
        assert exc.value.code == 0 and "--tree-cap TREE_CAP" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            cli.main(["--t", "5", "verify"])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and err.startswith("usage: twolevel [-h] [--order ORDER]")
        assert "{coeffs,verify,asympt,bound}" in err and "ambiguous option: --t" in err
        with pytest.raises(TypeError):
            cli.RunConfig(iso_cap=5)

    def test_builds_tree_records_only_for_matroid_rows(self, capsys, monkeypatch):
        built = []

        def enumerate_umr_trees(n, enumerate_=umr.enumerate_umr_trees):
            built.append(n)
            return enumerate_(n)

        monkeypatch.setattr(umr, "enumerate_umr_trees", enumerate_umr_trees)
        code, out, _ = run(["--order", "12", "--tree-cap", "9", "--format", "json", "verify"],
                           capsys)
        assert code == 0
        assert "MISMATCH" not in out
        # sizes 8 and 9 are counted, but only sizes up to 7 are realised
        assert built == [3, 4, 5, 6, 7]

    def test_solves_no_bounding_series(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("verify solved the bounding series")

        monkeypatch.setattr(gf, "compute_s_bound", refuse)
        code, out, _ = run(["--order", "10", "--tree-cap", "5", "verify"], capsys)
        assert code == 0
        assert "MISMATCH" not in out

    def test_no_enumerated_size_is_skipped(self, capsys):
        code, out, _ = run(["--tree-cap", "2", "--format", "json", "verify"], capsys)
        assert code == 0
        (row,) = [r for r in json.loads(out)["data"] if r["check"] == "selfdual_variant"]
        assert (row["n"], row["enumerated"], row["status"]) == ("3..2", "-", "skipped")

    def test_sizes_past_the_enumerator_cap_are_skipped(self, capsys):
        code, out, _ = run(["--order", "12", "--tree-cap", "11", "--format", "json", "verify"],
                           capsys)
        assert code == 0
        report = json.loads(out)
        assert report["meta"]["tree_cap"] == umr.TREE_CAP == 10
        rows = [r for r in report["data"] if r["n"] == "11..11"]
        assert {r["check"]: r["status"] for r in rows} == dict.fromkeys(
            ("trees", "selfdual_trees", "pointed_R", "pointed_U"), "skipped")
        (variant,) = [r for r in report["data"] if r["check"] == "selfdual_variant"]
        assert (variant["n"], variant["status"]) == ("3..10", "ok")

    def test_sizes_past_the_series_order_are_skipped(self, capsys):
        # the order stops the enumeration at 5; --tree-cap asks up to 9
        code, out, _ = run(["--order", "5", "--tree-cap", "9", "--format", "json", "verify"],
                           capsys)
        assert code == 0
        report = json.loads(out)
        assert report["meta"]["tree_cap"] == 5
        skipped = [r for r in report["data"] if r["status"] == "skipped"]
        assert {r["check"]: r["n"] for r in skipped} == dict.fromkeys(
            ("trees", "selfdual_trees", "pointed_R", "pointed_U"), "6..9")
        assert len(skipped) == 4
        assert "MISMATCH" not in out

    def test_skipped_rows_do_not_grow_with_the_tree_cap(self, capsys):
        code, out, _ = run(["--order", "12", "--tree-cap", "2000", "--format", "json",
                            "verify"], capsys)
        assert code == 0
        skipped = [r for r in json.loads(out)["data"] if r["status"] == "skipped"]
        assert len(skipped) == 4
        assert {r["n"] for r in skipped} == {"11..2000"}

    def test_a_repeated_tree_is_a_mismatch(self, capsys, monkeypatch):
        # bucketing by invariant must still pair the two copies
        def enumerate_umr_trees(n, enumerate_=umr.enumerate_umr_trees):
            trees = enumerate_(n)
            return trees + trees[-1:] if n == 6 else trees

        monkeypatch.setattr(umr, "enumerate_umr_trees", enumerate_umr_trees)
        code, out, _ = run(["--order", "10", "--tree-cap", "7", "--format", "json", "verify"],
                           capsys)
        assert code == 1
        status = {(r["n"], r["check"]): r["status"] for r in json.loads(out)["data"]}
        assert status[6, "matroids_distinct"] == "MISMATCH"
        assert status[5, "matroids_distinct"] == status[7, "matroids_distinct"] == "ok"

    def test_builds_no_m_table_at_the_largest_size(self, capsys, monkeypatch):
        # the M-roots of the largest size come from child multisets, and
        # nothing else there reads the M-table
        asked = []

        def pointed(n, cat, pointed_=umr._pointed):
            asked.append((n, cat))
            return pointed_(n, cat)

        monkeypatch.setattr(umr, "_pointed", pointed)
        umr._rooted_trees.cache_clear()
        code, out, _ = run(["--order", "12", "--tree-cap", "9", "--format", "json", "verify"],
                           capsys)
        assert code == 0 and "MISMATCH" not in out
        assert (9, "R") in asked and (9, "U") in asked
        assert (9, "M") not in asked

    def test_selfdual_chain_needs_no_canonical_form(self, capsys):
        # the canonical form is the tests' reference route; the package has none
        assert not hasattr(umr, "canonical_form")
        code, out, _ = run(["--order", "10", "--tree-cap", "6", "--format", "json", "verify"],
                           capsys)
        assert code == 0
        data = json.loads(out)["data"]
        by_trees = {r["n"]: r["enumerated"] for r in data if r["check"] == "selfdual_trees"}
        by_matroids = {r["n"]: r for r in data if r["check"] == "selfdual_matroid"}
        assert sorted(by_matroids) == [3, 4, 5, 6]
        for n, r in by_matroids.items():
            assert (r["enumerated"], r["status"]) == (by_trees[n], "ok")

    def test_selfdual_trees_rows(self, capsys):
        umr._rooted_trees.cache_clear()
        code, out, _ = run(["--order", "10", "--tree-cap", "6", "--format", "json", "verify"],
                           capsys)
        assert code == 0
        rows = [r for r in json.loads(out)["data"] if r["check"] == "selfdual_trees"]
        assert [(r["n"], r["enumerated"], r["status"]) for r in rows] == [
            (3, 0, "ok"), (4, 2, "ok"), (5, 0, "ok"), (6, 5, "ok")]
        # each size is enumerated once; its tree count, its two self-dual
        # counts and its matroids reuse it
        info = umr._rooted_trees.cache_info()
        assert (info.misses, info.hits) == (4, 12)

    def test_reports_p6_and_duality_checks(self, capsys):
        code, out, _ = run(["--order", "8", "--tree-cap", "4", "verify"], capsys)
        assert code == 0
        assert "p6_fixture" in out
        assert "dual_of_two_sum" in out

    def test_a_shifted_base_point_is_a_mismatch(self, capsys, monkeypatch):
        # the dual side glues P6* at 4, not 3: across P6's orbits {1, 2, 3}
        # and {4, 5, 6}, so the two sides are no longer isomorphic
        def two_sum(m1, e1, m2, e2, glue=mat.two_sum):
            dual_side = m1 is not mat.P6 and m1.ground == mat.P6.ground
            return glue(m1, 4 if dual_side else e1, m2, e2)

        monkeypatch.setattr(mat, "two_sum", two_sum)
        code, out, _ = run(["--order", "8", "--tree-cap", "4", "--format", "json", "verify"],
                           capsys)
        assert code == 1
        assert {(r["check"], r["status"]) for r in json.loads(out)["data"]
                if r["status"] != "ok"} == {("dual_of_two_sum", "MISMATCH")}


class TestAsympt:
    def test_constants_table(self, capsys):
        code, out, _ = run(["asympt"], capsys)
        assert code == 0
        assert "0.0758345546" in out  # C
        assert "4.880528544" in out  # 1/rho
        assert "1.035268528" in out  # F0
        assert "0.0379172773" in out  # c = C/2
        assert "branch point at x = 0.39300104" in out

    def test_json(self, capsys):
        code, out, _ = run(["--format", "json", "asympt"], capsys)
        doc = json.loads(out)
        consts = {r["constant"]: r["value"] for r in doc["data"]}
        assert consts["rho"] == "0.2048958409"
        assert float(consts["A1"]) == pytest.approx(-0.23137622, abs=1e-6)

    def test_no_convergence_is_one_error_line(self, capsys):
        # the branch-point Newton reaches a residual of exactly 0 at 1e-30;
        # the singular expansion cannot, and its failure is one line
        code, out, err = run(["--tol", "1e-30", "asympt"], capsys)
        assert code == 1 and out == ""
        assert err == "error: singular-expansion residual above tolerance\n"

    def test_past_the_float_range_is_one_error_line(self, capsys):
        # coefficient 456 of a_R is past the largest float; the error names
        # it and the float range, not the branch-point Newton iteration
        code, out, err = run(["--order", "460", "asympt"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: coefficient 456 of an order-460 series exceeds the "
                              "float range")

    @pytest.mark.parametrize("order", [200, 450])
    def test_selfdual_scan_at_high_order(self, capsys, order):
        # 450 is the largest order whose series stay in the float range; the
        # scan's fixed seed still reaches the branch point there
        code, out, err = run(["--order", str(order), "--format", "json", "asympt"], capsys)
        assert code == 0, err
        scan = {r["constant"]: r for r in json.loads(out)["data"]}["selfdual_scan"]
        assert scan["value"] == ("branch point at x = 0.39300081 (s = 0.46526135), "
                                 "inside (0, 0.45265422]")
        assert float(scan["residual"]) <= 1e-12


class TestBound:
    def test_exact_rows(self, capsys):
        code, out, _ = run(["--format", "csv", "bound"], capsys)
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "trees", "selfdual", "lower_bound", "kind"]
        table = {r[0]: r for r in rows[1:]}
        assert table["3"][1:4] == ["2", "0", "1"]
        assert table["4"][1:4] == ["4", "2", "3"]

    @pytest.mark.parametrize("order", [5, 7])
    def test_order_below_tree_cap(self, capsys, order):
        code, out, _ = run(["--order", str(order), "--format", "csv", "bound"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        exact = [r for r in rows if r[-1] == "exact"]
        assert [r[0] for r in exact] == [str(n) for n in range(3, order + 1)]
        assert exact[2][1:4] == ["10", "0", "5"]

    def test_exact_rows_beyond_enumeration(self, capsys):
        code, out, _ = run(["--tree-cap", "12", "--format", "csv", "bound"], capsys)
        assert code == 0
        exact = [r for r in csv.reader(io.StringIO(out)) if r[-1] == "exact"]
        assert exact[-1][:4] == ["12", "39358", "196", "19777"]

    def test_asymptotic_rows_present(self, capsys):
        code, out, _ = run(["bound"], capsys)
        assert code == 0
        assert "asymptotic" in out
        assert "100" in out


class TestLooseTol:
    """--tol is the only tolerance of asympt and bound: a looser one holds
    for every check, and no check keeps a tighter one of its own that a
    loosely converged branch point would fail."""

    @staticmethod
    def asympt(capsys, *tol):
        code, out, err = run([*tol, "--format", "json", "asympt"], capsys)
        assert code == 0, err
        return json.loads(out)["data"]

    @pytest.mark.parametrize("tol", ["1e-6", "1e-3"])
    def test_asympt(self, capsys, tol):
        rows = self.asympt(capsys, "--tol", tol)
        residuals = [float(r["residual"]) for r in rows if r["residual"] != "-"]
        assert len(residuals) == 21 and max(residuals) <= float(tol)
        default = {r["constant"]: r["value"] for r in self.asympt(capsys)}
        inv_rho = {r["constant"]: r["value"] for r in rows}["inv_rho"]
        assert float(inv_rho) == pytest.approx(float(default["inv_rho"]), rel=1e-5, abs=0)

    @pytest.mark.parametrize("tol", ["1e-6", "1e-3"])
    def test_bound(self, capsys, tol):
        code, out, err = run(["--tol", tol, "--format", "csv", "bound"], capsys)
        assert code == 0, err
        assert [r[0] for r in csv.reader(io.StringIO(out)) if r[-1] == "asymptotic"] == [
            "10", "20", "50", "100"]


class TestPinnedOutputs:
    """Every pinned output, one row each: (argv, kind, expected).  Each runs
    with ``--format json``; ``kind`` is "bytes" (the output itself) or
    "sha256" (its hex digest).  Exact outputs are pinned whole.  An `asympt`
    output is pinned with each residual cell that prints a float checked to
    be at most the run's ``--tol`` and written "<= tol": the residuals are
    rounding noise below the tolerance, which moves with the order of a
    float sum, while every value cell keeps its printed bytes.

    Captures: `bound` at the default order before the float ring evaluated
    by r in flat lists; the default `asympt` before every value of the float
    ring became an X-polynomial; the `oracle` `verify` before the bitmask
    circuits and the sort-free tree tables; every series at order 150 before
    the equations of gfsystem were collected (brute force stops at n = 9, and
    the independent route of bench/reference.py covers neither the
    self-dual series nor the bound); `asympt` and `bound` at other orders
    before the float ring dropped its X^5 coefficient."""

    BOUND = (
        '{"data": ['
        '{"kind": "exact", "lower_bound": 1, "n": 3, "selfdual": 0, "trees": 2}, '
        '{"kind": "exact", "lower_bound": 3, "n": 4, "selfdual": 2, "trees": 4}, '
        '{"kind": "exact", "lower_bound": 5, "n": 5, "selfdual": 0, "trees": 10}, '
        '{"kind": "exact", "lower_bound": 16, "n": 6, "selfdual": 5, "trees": 27}, '
        '{"kind": "exact", "lower_bound": 39, "n": 7, "selfdual": 0, "trees": 78}, '
        '{"kind": "exact", "lower_bound": 131, "n": 8, "selfdual": 16, "trees": 246}, '
        '{"kind": "asymptotic", "lower_bound": "919.4025751",'
        ' "n": 10, "selfdual": "", "trees": ""}, '
        '{"kind": "asymptotic", "lower_bound": "1246233145",'
        ' "n": 20, "selfdual": "", "trees": ""}, '
        '{"kind": "asymptotic", "lower_bound": "5.685320986e+28",'
        ' "n": 50, "selfdual": "", "trees": ""}, '
        '{"kind": "asymptotic", "lower_bound": "2.663930289e+62",'
        ' "n": 100, "selfdual": "", "trees": ""}], '
        '"meta": {"order": 30, "tree_cap": 8}}'
        "\n")
    ASYMPT = (
        '{"data": ['
        '{"constant": "rho", "residual": "<= tol", "value": "0.2048958409"}, '
        '{"constant": "inv_rho", "residual": "<= tol", "value": "4.880528544"}, '
        '{"constant": "A0", "residual": "<= tol", "value": "0.1352917428"}, '
        '{"constant": "U0", "residual": "<= tol", "value": "0.06921672873"}, '
        '{"constant": "A1", "residual": "<= tol", "value": "-0.2313762202"}, '
        '{"constant": "A2", "residual": "<= tol", "value": "0.04653887816"}, '
        '{"constant": "A3", "residual": "<= tol", "value": "0.06281332384"}, '
        '{"constant": "U1", "residual": "<= tol", "value": "-0.1934042019"}, '
        '{"constant": "U2", "residual": "<= tol", "value": "0.1504532272"}, '
        '{"constant": "U3", "residual": "<= tol", "value": "0.01018057653"}, '
        '{"constant": "T0", "residual": "<= tol", "value": "0.0345794622"}, '
        '{"constant": "T2", "residual": "<= tol", "value": "-0.1859638371"}, '
        '{"constant": "T3", "residual": "<= tol", "value": "0.1792176645"}, '
        '{"constant": "F0", "residual": "<= tol", "value": "1.035268528"}, '
        '{"constant": "F2", "residual": "<= tol", "value": "-0.1925225079"}, '
        '{"constant": "F3", "residual": "<= tol", "value": "0.1855384077"}, '
        '{"constant": "C", "residual": "<= tol", "value": "0.0758345546"}, '
        '{"constant": "C_forest", "residual": "<= tol", "value": "0.07850912772"}, '
        '{"constant": "c_polytope", "residual": "<= tol", "value": "0.0379172773"}, '
        '{"constant": "poly_exponent", "residual": "0", "value": "-2.5"}, '
        '{"constant": "selfdual_scan", "residual": "<= tol", '
        '"value": "branch point at x = 0.39300104 (s = 0.46526138), inside (0, 0.45265422]"}'
        '], "meta": {"order": 30, "tol": 1e-12}}'
        "\n")

    VERIFY = (
        '{"data": ['
        '{"check": "trees", "enumerated": 2, "expected": 2, "n": 3, "status": "ok"}, '
        '{"check": "selfdual_trees", "enumerated": 0, "expected": 0, "n": 3, "status": "ok"}, '
        '{"check": "pointed_R", "enumerated": 2, "expected": 2, "n": 3, "status": "ok"}, '
        '{"check": "pointed_U", "enumerated": 1, "expected": 1, "n": 3, "status": "ok"}, '
        '{"check": "matroids_distinct", "enumerated": true, "expected": true, "n": 3, '
        '"status": "ok"}, '
        '{"check": "selfdual_matroid", "enumerated": 0, "expected": 0, "n": 3, "status": "ok"}, '
        '{"check": "trees", "enumerated": 4, "expected": 4, "n": 4, "status": "ok"}, '
        '{"check": "selfdual_trees", "enumerated": 2, "expected": 2, "n": 4, "status": "ok"}, '
        '{"check": "pointed_R", "enumerated": 6, "expected": 6, "n": 4, "status": "ok"}, '
        '{"check": "pointed_U", "enumerated": 4, "expected": 4, "n": 4, "status": "ok"}, '
        '{"check": "matroids_distinct", "enumerated": true, "expected": true, "n": 4, '
        '"status": "ok"}, '
        '{"check": "selfdual_matroid", "enumerated": 2, "expected": 2, "n": 4, "status": "ok"}, '
        '{"check": "trees", "enumerated": 10, "expected": 10, "n": 5, "status": "ok"}, '
        '{"check": "selfdual_trees", "enumerated": 0, "expected": 0, "n": 5, "status": "ok"}, '
        '{"check": "pointed_R", "enumerated": 19, "expected": 19, "n": 5, "status": "ok"}, '
        '{"check": "pointed_U", "enumerated": 15, "expected": 15, "n": 5, "status": "ok"}, '
        '{"check": "matroids_distinct", "enumerated": true, "expected": true, "n": 5, '
        '"status": "ok"}, '
        '{"check": "selfdual_matroid", "enumerated": 0, "expected": 0, "n": 5, "status": "ok"}, '
        '{"check": "trees", "enumerated": 27, "expected": 27, "n": 6, "status": "ok"}, '
        '{"check": "selfdual_trees", "enumerated": 5, "expected": 5, "n": 6, "status": "ok"}, '
        '{"check": "pointed_R", "enumerated": 70, "expected": 70, "n": 6, "status": "ok"}, '
        '{"check": "pointed_U", "enumerated": 56, "expected": 56, "n": 6, "status": "ok"}, '
        '{"check": "matroids_distinct", "enumerated": true, "expected": true, "n": 6, '
        '"status": "ok"}, '
        '{"check": "selfdual_matroid", "enumerated": 5, "expected": 5, "n": 6, "status": "ok"}, '
        '{"check": "trees", "enumerated": 78, "expected": 78, "n": 7, "status": "ok"}, '
        '{"check": "selfdual_trees", "enumerated": 0, "expected": 0, "n": 7, "status": "ok"}, '
        '{"check": "pointed_R", "enumerated": 263, "expected": 263, "n": 7, "status": "ok"}, '
        '{"check": "pointed_U", "enumerated": 212, "expected": 212, "n": 7, "status": "ok"}, '
        '{"check": "matroids_distinct", "enumerated": true, "expected": true, "n": 7, '
        '"status": "ok"}, '
        '{"check": "trees", "enumerated": 246, "expected": 246, "n": 8, "status": "ok"}, '
        '{"check": "selfdual_trees", "enumerated": 16, "expected": 16, "n": 8, "status": "ok"}, '
        '{"check": "pointed_R", "enumerated": 1038, "expected": 1038, "n": 8, "status": "ok"}, '
        '{"check": "pointed_U", "enumerated": 838, "expected": 838, "n": 8, "status": "ok"}, '
        '{"check": "trees", "enumerated": 818, "expected": 818, "n": 9, "status": "ok"}, '
        '{"check": "selfdual_trees", "enumerated": 0, "expected": 0, "n": 9, "status": "ok"}, '
        '{"check": "pointed_R", "enumerated": 4184, "expected": 4184, "n": 9, "status": "ok"}, '
        '{"check": "pointed_U", "enumerated": 3384, "expected": 3384, "n": 9, "status": "ok"}, '
        '{"check": "selfdual_variant", "enumerated": "corrected 7/7, paper 4/7", '
        '"expected": "corrected matches; paper variant over-counts", "n": "3..9", '
        '"status": "ok"}, '
        '{"check": "p6_fixture", "enumerated": true, "expected": true, "n": 6, "status": "ok"}, '
        '{"check": "dual_of_two_sum", "enumerated": true, "expected": true, "n": 7, '
        '"status": "ok"}'
        '], "meta": {"order": 12, "tree_cap": 9}}'
        "\n")

    SERIES_SHA256 = {
        "T": "353aa1319c758d92899d2d4835728c3c74225a8d5b495348bf9ef703a5742cf8",
        "AR": "ced2d1f27b9f812ec6244ecd6b3c620f3e8c6c1403c4bcfbea79f945998f38e5",
        "AU": "596d959af47c1a17e8af00e18182023a7e7911fdd1570146a58c72824a7eb146",
        "SU_paper": "4e509b0558e71d61cf98e1b774470d8d9aa11cfa8c3a88f8b182d9af3fd76d60",
        "SU_corrected": "1a28e5fb62b16aa26e8a82f903cfec58d9b51271b1aca7c46efa2bfd641f2d1a",
        "sbound": "5f16346afac53328ed09005cc5bea107be19537fb30e70b41e5c065b557e21c3",
        "forest": "abaa867fe7c87742eca99c5b2259ce66b918aec8a742e006c17204880c9fbf7a",
    }
    PINS = [
        ("bound", "bytes", BOUND),
        ("asympt", "bytes", ASYMPT),
        ("--order 12 --tree-cap 9 verify", "bytes", VERIFY),
        *((f"--order 150 coeffs {name}", "sha256", digest)
          for name, digest in SERIES_SHA256.items()),
        ("--order 60 bound", "sha256",
         "a179ef4746f8afb2b9800dd20097f7eae69da65e75190efaf4a50f342c8709e6"),
        ("--order 5 asympt", "sha256",
         "7f932d6afc68b3712770f12edd7f547e93be8d99f00056c31cb7026ef314e5f8"),
        ("--order 60 asympt", "sha256",
         "428d31721a1cee2df31c3de25e06d0fa46ed2739b0ac701d626fbf2b3e8b8db7"),
        ("--order 200 --tol 1e-10 asympt", "sha256",
         "b34c3d1f281110255c278b0f51efa2fd10682e9c71542b301cbb8126352a3b01"),
    ]

    @staticmethod
    def pinned(argv, capsys):
        """The ``--format json`` output of argv as its pins read it, each
        float residual of `asympt` checked against ``--tol`` and masked."""
        args = cli._build_parser()[1].parse_args(argv.split())
        code, out, err = run(["--format", "json", *argv.split()], capsys)
        assert (code, err) == (0, "")
        if args.command != "asympt":
            return out

        def bounded(cell):
            if cell[1] in ("0", "-"):
                return cell[0]
            assert 0 <= float(cell[1]) <= args.tol, cell[0]  # false for NaN and inf
            return '"residual": "<= tol"'

        return re.sub(r'"residual": "([^"]*)"', bounded, out)

    def check(self, argv, kind, expected, capsys):
        out = self.pinned(argv, capsys)
        if kind == "sha256":
            out = hashlib.sha256(out.encode()).hexdigest()
        assert out == expected, argv

    def test_every_series_is_pinned(self):
        assert set(self.SERIES_SHA256) == set(cli.SERIES)

    @pytest.mark.parametrize("argv, kind, expected", PINS, ids=[pin[0] for pin in PINS])
    def test_output(self, capsys, argv, kind, expected):
        self.check(argv, kind, expected, capsys)

    def test_a_reassociated_sum_passes_and_a_moved_value_fails(self, capsys, monkeypatch):
        asympt_pins = [pin for pin in self.PINS if pin[0].endswith("asympt")]

        def outputs():
            return [run(["--format", "json", *pin[0].split()], capsys)[1] for pin in asympt_pins]

        def reassociated(leg, a_R, a_U):
            # _pointed_rhs with s summed as a_R + a_R + a_U + leg, not f + a_R
            f = a_R + a_U + leg
            s = a_R + a_R + a_U + leg
            e = s.mset()
            return f.mset() - 1 - f, e * s.substitution_sum() + s - 2 * e + 2

        before = outputs()
        monkeypatch.setattr(gf, "_pointed_rhs", reassociated)
        # residuals move (at order 5 only where sum() is not compensated,
        # before CPython 3.12), and no value does
        assert outputs() != before
        for pin in asympt_pins:
            self.check(*pin, capsys)
        transfer = asy.transfer
        monkeypatch.setattr(asy, "transfer", lambda *args: transfer(*args) * (1 + 1e-9))
        for pin in asympt_pins:
            with pytest.raises(AssertionError):
                self.check(*pin, capsys)


class TestDeterminism:
    def test_identical_runs_identical_output(self, capsys):
        _, out1, _ = run(["--order", "10", "--format", "json", "coeffs", "sbound"], capsys)
        _, out2, _ = run(["--order", "10", "--format", "json", "coeffs", "sbound"], capsys)
        assert out1 == out2

    # every tree of size 8, its child indices expanded to nested nodes, and
    # the self-dual flags
    ENUMERATE = """if True:
        from twolevel import umrtree as umr
        def nested(cat, k, children):
            return cat, k, tuple("leg" if c == umr.LEG else nested(*umr._NODES[c])
                                 for c in children)
        print(([nested(*t) for t in umr.enumerate_umr_trees(8)], umr._rooted_trees(8)[1]))
    """

    def test_enumeration_does_not_depend_on_hashing(self):
        # the kept centre rooting depends on table order, which only the
        # order of the table builds may set
        out = [run_python("-c", self.ENUMERATE, PYTHONHASHSEED=seed).stdout
               for seed in ("0", "1")]
        assert out[0] == out[1]
        trees, self_dual = ast.literal_eval(out[0])
        assert (len(trees), sum(self_dual)) == (246, 16)


def run_python(*argv: str, check: bool = True, stdout=subprocess.PIPE,
               **env: str) -> subprocess.CompletedProcess:
    """Run python ``argv`` in a fresh interpreter that imports this checkout's
    twolevel, with ``env`` added to the environment."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *argv], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, check=check, env=env)


class TestEntry:
    """`run` is the process entry; `main` has no process-level effect."""

    def test_main_leaves_the_heap_unfrozen(self, capsys):
        before = gc.get_freeze_count()
        assert run(["--order", "10", "coeffs", "T"], capsys)[0] == 0
        assert gc.get_freeze_count() == before

    def test_output_is_complete_after_the_freeze(self, capsys):
        argv = ["--format", "json", "--order", "400", "coeffs", "T"]
        proc = run_python("-m", "twolevel", *argv, check=False)
        assert proc.returncode == 0, proc.stderr
        assert len(json.loads(proc.stdout)["data"]) == 401
        assert proc.stdout == run(argv, capsys)[1]

    def test_error_exits_1(self):
        proc = run_python("-m", "twolevel", "--order", "2", "coeffs", "T", check=False)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: order must be >= 3\n"

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_exits_1_quietly(self, unbuffered):
        # the reader is gone before the first write (unbuffered) or before
        # the final flush (buffered); either way no traceback, exit 1
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run_python("-m", "twolevel", "--order", "90", "coeffs", "forest",
                              check=False, stdout=write, PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, "")

    def test_console_script_is_run(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"twolevel": "twolevel.cli:run"}


class TestImports:
    def test_cli_does_not_load_networkx(self):
        probe = "import sys, twolevel.cli; print('networkx' in sys.modules)"
        assert run_python("-c", probe).stdout.strip() == "False"

    def test_cli_does_not_load_numpy(self):
        probe = "import sys, twolevel.cli; print('numpy' in sys.modules)"
        assert run_python("-c", probe).stdout.strip() == "False"

    def test_commands_run_without_numpy(self):
        # numpy = None makes any `import numpy` raise ImportError
        probe = (
            "import sys; sys.modules['numpy'] = None\n"
            "from twolevel import cli\n"
            "print(cli.main(['asympt']), cli.main(['bound']))"
        )
        out = run_python("-c", probe).stdout
        assert out.splitlines()[-1] == "0 0"
        assert "branch point at x = 0.39300104" in out

    @pytest.mark.parametrize("argv, modules", [
        (["--order", "10", "coeffs", "forest"], {"gfsystem"}),
        (["--order", "10", "asympt"], {"gfsystem", "asymptotics"}),
        (["bound"], {"gfsystem", "asymptotics"}),
        (["--order", "6", "--tree-cap", "4", "verify"], {"gfsystem", "umrtree", "matroid"}),
    ], ids=["coeffs", "asympt", "bound", "verify"])
    def test_command_loads_only_its_modules(self, argv, modules):
        probe = (
            "import sys\n"
            "from twolevel import cli\n"
            f"code = cli.main({argv!r})\n"
            "print(code, sorted(m for m in sys.modules if m.startswith('twolevel.')),\n"
            "      'dataclasses' in sys.modules, 'json' in sys.modules)"
        )
        last = run_python("-c", probe).stdout.splitlines()[-1]
        expected = sorted(f"twolevel.{m}" for m in modules | {"cli", "powerseries"})
        assert last == f"0 {expected} False False"


class TestReachability:
    """Every module-level function, public or private, and every public
    method of a class of the package runs in some command; what only the
    tests reach belongs in the tests."""

    # the process entry around main(), which TestEntry runs in a subprocess
    EXEMPT = {"twolevel.cli.run"}
    # Methods whose names start with "_" are skipped, as functions are: the
    # class's own helpers, and the dunder protocol methods (__eq__, __hash__,
    # __repr__, ...) that Python's protocols call on the tests' behalf.
    # PowerSeries.truncate and .eval_float run in no command but stay:
    # bench/tracer.py wraps vars(PowerSeries)[name] for each name of its
    # metrics, so deleting either breaks a traced run.  For the same reason
    # every operator of PowerSeries keeps its name (the arithmetic dunders,
    # scale, substitute_power and mset), though each is a read of the online
    # ring; scale runs as the integer path of __mul__.  The `exp =
    # mset_restricted = extended = None` line stays too, and so does
    # powerseries.Rational, which bench/run.py's PROBE reads; being no
    # functions, neither is seen by these checks.
    EXEMPT_METHODS = {"twolevel.powerseries.PowerSeries.truncate",
                      "twolevel.powerseries.PowerSeries.eval_float"}

    @pytest.fixture(scope="class")
    def modules(self):
        return [importlib.import_module(f"twolevel.{info.name}")
                for info in pkgutil.iter_modules(twolevel.__path__)
                if info.name != "__main__"]  # importing it runs the command line

    # one call of every command in a fresh interpreter, whose caches are as
    # cold as a command's; prints each code object that ran by its key
    PROFILE = """
import contextlib, io, json, sys
from pathlib import Path
from twolevel import cli
codes = set()
def profile(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)
sys.setprofile(profile)
with contextlib.redirect_stdout(io.StringIO()):
    exits = [cli.main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
keys = [(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name) for c in codes]
print(json.dumps([exits, keys]))
"""

    @staticmethod
    def key(code):
        return str(Path(code.co_filename).resolve()), code.co_firstlineno, code.co_name

    @pytest.fixture(scope="class")
    def called(self):
        """The code objects, by key, that run in one call of every command."""
        commands = [["--order", "10", "coeffs", name] for name in cli.SERIES]
        commands += [["--order", "12", "--tree-cap", "7", "verify"], ["asympt"], ["bound"]]
        exits, called = json.loads(run_python("-c", self.PROFILE, json.dumps(commands)).stdout)
        assert exits == [0] * len(commands)
        return set(map(tuple, called))

    @pytest.fixture(scope="class")
    def functions(self, modules):
        """Each module-level function written in the package, by qualified
        name; one behind a functools cache is read through ``__wrapped__``."""
        return {f"{mod.__name__}.{name}": fn for mod in modules
                for name, obj in vars(mod).items()
                if inspect.isfunction(fn := getattr(obj, "__wrapped__", obj))
                and fn.__module__ == mod.__name__}

    def unreached(self, functions, called, private):
        return [name for name, fn in functions.items()
                if name.rpartition(".")[2].startswith("_") == private
                and self.key(fn.__code__) not in called]

    def test_every_public_function_runs_in_a_command(self, functions, called):
        unreached = self.unreached(functions, called, private=False)
        assert [name for name in unreached if name not in self.EXEMPT] == []

    def test_every_private_function_runs_in_a_command(self, functions, called):
        assert self.unreached(functions, called, private=True) == []

    def test_every_public_method_runs_in_a_command(self, modules, called):
        # methods written in the module's source: not the ones NamedTuple
        # generates, and an alias (Jet.mset2 = PowerSeries.mset2) only once
        unreached = []
        for mod in modules:
            for cls_name, cls in vars(mod).items():
                if not (inspect.isclass(cls) and cls.__module__ == mod.__name__):
                    continue
                for name, attr in vars(cls).items():
                    # a classmethod's function, a property's getter
                    fn = getattr(attr, "__func__", getattr(attr, "fget", attr))
                    if (inspect.isfunction(fn) and fn.__code__.co_filename == mod.__file__
                            and not name.startswith("_") and self.key(fn.__code__) not in called):
                        unreached.append(f"{mod.__name__}.{cls_name}.{name}")
        assert [name for name in unreached if name not in self.EXEMPT_METHODS] == []


class TestUnusedImports:
    """Every name a module of the package imports is read in that module;
    names from __future__ and names listed in __all__ are exempt."""

    def test_no_unused_import(self):
        unused = []
        for path in sorted(Path(twolevel.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            imported, exported = {}, set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Import) or (
                        isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                    for alias in node.names:
                        imported[alias.asname or alias.name.split(".")[0]] = node.lineno
                elif isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                    exported |= set(ast.literal_eval(node.value))
            read = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                       if name not in read | exported]
        assert unused == []


class TestReadme:
    def test_global_flags_match_the_parser(self):
        # README's "Global flags:" paragraph, up to the next blank line
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        paragraph = text[text.index("Global flags:"):].split("\n\n")[0]
        documented = set(re.findall(r"--[a-z][a-z-]*", paragraph))
        _, parser = cli._build_parser()
        parsed = {flag for action in parser._actions
                  for flag in action.option_strings} - {"-h", "--help"}
        assert documented == parsed

    def test_flag_defaults_live_only_in_the_run_config(self):
        # README: "The flag defaults live once, in RunConfig's fields"
        defaulted = []
        for path in sorted(Path(twolevel.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                    a = node.args
                    positional = a.posonlyargs + a.args
                    with_default = positional[len(positional) - len(a.defaults):] + [
                        arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                    defaulted += [f"{path.name}:{node.lineno} {arg.arg}" for arg in with_default
                                  if arg.arg in cli.RunConfig._fields]
        assert defaulted == []


class TestSuiteReport:
    """Under pyproject.toml's warning filters, a failing property test is
    named and the tests after it still run."""

    TESTS = """
from hypothesis import given, strategies as st

@given(st.integers())
def test_property(n):
    assert n < 5

def test_plain():
    pass
"""

    def test_failing_property_test_is_named(self, tmp_path):
        (tmp_path / "test_report.py").write_text(self.TESTS)
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-c", str(pyproject),
             "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_report.py"],
            cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "FAILED test_report.py::test_property" in proc.stdout
        assert "1 passed" in proc.stdout


class TestBenchProbe:
    """bench/run.py runs its PROBE before every benchmark and reads names of
    the package through it; a name it reads that goes away must fail here."""

    RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"

    def test_probe_runs(self):
        pytest.importorskip("numpy")
        pytest.importorskip("networkx")
        tree = ast.parse(self.RUN.read_text())
        probe = next(ast.literal_eval(node.value) for node in tree.body
                     if isinstance(node, ast.Assign)
                     and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["PROBE"])
        out = json.loads(run_python("-c", probe).stdout)
        assert out["rational"] == "builtins.int"
        assert out["selfdual_pointed"] == [0, 0, 0, 1, 0, 3, 0, 10, 0, 38]

    # bench/run.py's context and loop over its commands, run in process
    CHECKS = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import checks, reference, run
from twolevel import cli, umrtree
ctx = {"reference": reference.solve(run.REFERENCE_ORDER),
       "selfdual_pointed": [umrtree.count_self_dual_pointed(n) for n in range(10)]}
problems = {}
for commands in run.WORKLOADS.values():
    for name, argv in commands.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["--format", "json", *argv])
        problems[name] = checks.check(name, rc, out.getvalue(), ctx)
print(json.dumps({"checks": sorted(checks.CHECKS), "problems": problems}))
"""

    def test_outputs_pass_the_benchmark_checks(self):
        # the benchmark refuses a run whose output fails bench/checks.py, such
        # as a `verify` row that is not `ok`, even where the tests pin it
        out = json.loads(run_python("-c", self.CHECKS, str(self.RUN.parent)).stdout)
        assert sorted(out["problems"]) == out["checks"]
        assert out["problems"] == dict.fromkeys(out["checks"], [])


class TestBenchTracer:
    """bench/tracer.py wraps the package's functions by name; a name it
    wraps that goes away must fail here, not only under ``--trace 1``."""

    TRACER = str(Path(__file__).resolve().parents[1] / "bench" / "tracer.py")

    def test_asympt_spans(self, tmp_path):
        out = tmp_path / "trace.json"
        proc = run_python(self.TRACER, str(out), "--", "--order", "5", "--format", "json",
                          "asympt", check=False)
        assert proc.returncode == 0, proc.stderr
        calls = json.loads(out.read_text())["calls"]
        # bench/run.py declares per-layer metrics under these names
        for span in ("gfsystem.solve_pointed", "asymptotics.solve_char_system",
                     "asymptotics.singular_expansions", "asymptotics.verify_selfdual_growth"):
            assert calls[span] >= 1, span

    @pytest.mark.parametrize("argv, span", [
        (["--order", "10", "coeffs", "forest"], "gfsystem.compute_forests"),
        (["--order", "8", "--tree-cap", "5", "verify"], "umrtree.count_self_dual"),
    ], ids=["coeffs", "verify"])
    def test_spans_of_modules_imported_by_commands(self, tmp_path, argv, span):
        out = tmp_path / "trace.json"
        proc = run_python(self.TRACER, str(out), "--", "--format", "json", *argv, check=False)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["calls"][span] >= 1
