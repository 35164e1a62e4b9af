import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

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
        for tol in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                cli.RunConfig(tol=tol)
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

    def test_no_convergence_is_one_error_line(self, capsys):
        code, out, err = run(["--tol", "1e-30", "asympt"], capsys)
        assert code == 1 and out == ""
        assert err == "error: branch-point Newton iteration did not converge\n"


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
        assert len(residuals) == 20 and max(residuals) <= float(tol)
        default = {r["constant"]: r["value"] for r in self.asympt(capsys)}
        inv_rho = {r["constant"]: r["value"] for r in rows}["inv_rho"]
        assert float(inv_rho) == pytest.approx(float(default["inv_rho"]), rel=1e-5, abs=0)

    @pytest.mark.parametrize("tol", ["1e-6", "1e-3"])
    def test_bound(self, capsys, tol):
        code, out, err = run(["--tol", tol, "--format", "csv", "bound"], capsys)
        assert code == 0, err
        assert [r[0] for r in csv.reader(io.StringIO(out)) if r[-1] == "asymptotic"] == [
            "10", "20", "50", "100"]


class TestDeterminism:
    def test_identical_runs_identical_output(self, capsys):
        _, out1, _ = run(["--order", "10", "--format", "json", "coeffs", "sbound"], capsys)
        _, out2, _ = run(["--order", "10", "--format", "json", "coeffs", "sbound"], capsys)
        assert out1 == out2


def run_python(*argv: str, check: bool = True) -> subprocess.CompletedProcess:
    """Run python ``argv`` in a fresh interpreter that imports this checkout's twolevel."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, check=check, env=env)


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


class TestBenchTracer:
    """bench/tracer.py wraps the package's functions by name; a name it
    wraps that goes away must fail here, not only under ``--trace 1``."""

    def test_asympt_spans(self, tmp_path):
        tracer = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
        out = tmp_path / "trace.json"
        proc = run_python(str(tracer), str(out), "--", "--order", "5", "--format", "json",
                          "asympt", check=False)
        assert proc.returncode == 0, proc.stderr
        calls = json.loads(out.read_text())["calls"]
        assert calls["gfsystem.solve_pointed"] >= 1
        assert calls["asymptotics.singular_expansions"] >= 1
