import csv
import io
import json
import subprocess
import sys

import pytest

from twolevel import cli
from twolevel import gfsystem as gf
from twolevel.powerseries import PowerSeries


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConfig:
    def test_defaults(self):
        c = cli.RunConfig()
        assert c.order == 30 and c.fmt == "text"

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            cli.RunConfig(order=2)
        with pytest.raises(ValueError):
            cli.RunConfig(tol=-1.0)
        with pytest.raises(ValueError):
            cli.RunConfig(tree_cap=0)


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

    def test_corrupted_series_fails(self, capsys):
        config = cli.RunConfig(order=10, tree_cap=5)
        p = gf.solve_pointed(10)
        t = gf.assemble_T(p).t
        corrupted = t + PowerSeries.from_coeffs([0, 0, 0, 1], t.order)
        buf = io.StringIO()
        code = cli.run_verify(config, t=corrupted, pointed=p, out=buf)
        assert code == 1
        assert "MISMATCH" in buf.getvalue()

    def test_iso_cap_skips_matroid_checks(self, capsys):
        code, out, _ = run(["--order", "10", "--tree-cap", "7", "--iso-cap", "5",
                            "--format", "json", "verify"], capsys)
        assert code == 0
        status = {(r["n"], r["check"]): r["status"] for r in json.loads(out)["data"]}
        assert status[5, "matroids_distinct"] == status[5, "selfdual_matroid"] == "ok"
        assert status[6, "matroids_distinct"] == status[6, "selfdual_matroid"] == "skipped"
        assert status[7, "matroids_distinct"] == "skipped"
        assert "MISMATCH" not in status.values()

    def test_reports_p6_and_duality_checks(self, capsys):
        code, out, _ = run(["--order", "8", "--tree-cap", "4", "verify"], capsys)
        assert code == 0
        assert "p6_fixture" in out
        assert "dual_of_two_sum" in out


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

    def test_asymptotic_rows_present(self, capsys):
        code, out, _ = run(["bound"], capsys)
        assert code == 0
        assert "asymptotic" in out
        assert "100" in out


class TestDeterminism:
    def test_identical_runs_identical_output(self, capsys):
        _, out1, _ = run(["--order", "10", "--format", "json", "coeffs", "sbound"], capsys)
        _, out2, _ = run(["--order", "10", "--format", "json", "coeffs", "sbound"], capsys)
        assert out1 == out2


class TestImports:
    def test_cli_does_not_load_networkx(self):
        probe = "import sys, twolevel.cli; print('networkx' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "False"
