"""End-to-end benchmark of the twolevel commands.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {series,oracle,asympt} --seed N \
        --seconds S --trace {0,1}

Each command runs in a fresh interpreter, as a user runs ``twolevel``, one
process at a time.  A pass runs every command of the workload once; passes
repeat until ``--seconds`` have gone by, and every pass is finished.  Every
output is checked (see checks.py).  With ``--trace 0`` the end-to-end metrics
are printed; with ``--trace 1`` each pass runs untraced and traced (through
tracer.py), and the per-layer metrics are printed.  The last line of standard
output is one JSON object; a record of the run goes to ``.bench_runs/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

WORKLOADS = {
    "series": {
        "coeffs_forest": ["--order", "90", "coeffs", "forest"],
        "coeffs_sbound": ["--order", "40", "coeffs", "sbound"],
    },
    "oracle": {
        "verify": ["--order", "12", "--tree-cap", "9", "verify"],
    },
    "asympt": {
        "asympt": ["asympt"],
        "bound": ["bound"],
    },
}
REFERENCE_ORDER = 90
SETUP_LAUNCHES = 7
IMPORTTIME_LAUNCHES = 5
COMMAND_TIMEOUT_S = 60

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# Per-layer names: "<module>.<fn>_s" is the inclusive time of that traced
# function, "<module>.<fn>_calls" its call count, "<module>.self_s" the time
# whose innermost span is in that module (see tracer.py).
PER_LAYER = (
    "cli.import_numpy_s", "cli.import_networkx_s", "cli.import_twolevel_s", "cli.self_s",
    "powerseries.mul_s", "powerseries.mul_calls", "powerseries.exp_s",
    "powerseries.exp_calls", "powerseries.mset_s", "powerseries.mset_calls",
    "powerseries.linear_s", "powerseries.eval_float_s", "powerseries.eval_float_calls",
    "gfsystem.solve_pointed_s", "gfsystem.assemble_T_s", "gfsystem.solve_selfdual_s",
    "gfsystem.compute_forests_s", "gfsystem.self_s",
    "asymptotics.solve_char_system_s", "asymptotics.singular_expansions_s",
    "asymptotics.expand_s", "asymptotics.verify_selfdual_growth_s",
    "asymptotics.tail_value_calls", "asymptotics.series_at_xpoly_calls",
    "asymptotics.self_s",
    "umrtree.enumerate_umr_trees_s", "umrtree.canonical_form_s",
    "umrtree.canonical_form_calls", "umrtree.pointed_count_s", "umrtree.count_self_dual_s",
    "umrtree.tree_to_matroid_s", "umrtree.self_s",
    "matroid.is_isomorphic_s", "matroid.is_isomorphic_calls", "matroid.dual_s",
    "matroid.two_sum_s", "matroid.self_s",
    "trace.overhead_s",
)
MODULES = ("powerseries", "gfsystem", "asymptotics", "umrtree", "matroid", "cli")

PROBE = """
import json
out = {}
try:
    import gmpy2
    out["gmpy2"] = gmpy2.version()
except ImportError:
    out["gmpy2"] = None
import networkx, numpy
from twolevel import powerseries, umrtree
out["numpy"] = numpy.__version__
out["networkx"] = networkx.__version__
out["rational"] = powerseries.Rational.__module__ + "." + powerseries.Rational.__name__
out["selfdual_pointed"] = [umrtree.count_self_dual_pointed(n) for n in range(10)]
print(json.dumps(out))
"""


class Runner:
    """Launches one process at a time and measures it to its exit."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        base = os.environ.get("PYTHONPATH")
        self.pythonpath = str(SRC) + (os.pathsep + base if base else "")

    def run(self, cmd: list[str], hashseed: int) -> dict:
        env = dict(os.environ, PYTHONPATH=self.pythonpath, PYTHONHASHSEED=str(hashseed))
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        return {
            "rc": proc.returncode,
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": out_path.read_text(),
            "stderr": err_path.read_text(),
        }


def environment(probe: dict) -> dict:
    loc = {p.stem: len(p.read_text().splitlines())
           for p in sorted((SRC / "twolevel").glob("*.py"))}
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "gmpy2": probe["gmpy2"],
        "rational": probe["rational"],
        "numpy": probe["numpy"],
        "networkx": probe["networkx"],
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loc": loc,
        "loc_total": sum(loc.values()),
    }


def import_times(stderr: str) -> dict:
    """numpy, networkx and twolevel's own share of `import twolevel.cli`,
    from -X importtime output (children are printed before their parent)."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|")
        if not cum.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cum) * 1e-6))
    total = next(cum for depth, name, cum in entries if name == "twolevel.cli" and depth == 0)
    found = {}
    outer = []  # depths of open numpy/networkx subtrees, scanned parent first
    for depth, name, cum in reversed(entries):
        while outer and depth <= outer[-1]:
            outer.pop()
        if name in ("numpy", "networkx") and name not in found:
            found[name] = 0.0 if outer else cum
            outer.append(depth)
    numpy_s, networkx_s = found.get("numpy", 0.0), found.get("networkx", 0.0)
    return {
        "cli.import_numpy_s": numpy_s,
        "cli.import_networkx_s": networkx_s,
        "cli.import_twolevel_s": total - numpy_s - networkx_s,
    }


def layer_metrics(spans: dict) -> dict:
    out = {}
    for name in PER_LAYER:
        module, rest = name.split(".", 1)
        if name.startswith("cli.import_") or name == "trace.overhead_s":
            continue
        if rest == "self_s":
            out[name] = spans["self"].get(module, 0.0)
        elif rest.endswith("_calls"):
            out[name] = spans["calls"].get(f"{module}.{rest[:-6]}", 0)
        else:
            out[name] = spans["incl"].get(f"{module}.{rest[:-2]}", 0.0)
    return out


def add_spans(total: dict, spans: dict) -> None:
    for kind, values in spans.items():
        for key, v in values.items():
            total[kind][key] = total[kind].get(key, 0) + v


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "twolevel" / "cli.py").is_file():
        print(f"error: no twolevel sources under {SRC}", file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUNS, prefix="tmp-") as tmp:
        return bench(args, Runner(Path(tmp)))


def bench(args, runner: Runner) -> int:
    rng = random.Random(args.seed)
    py = sys.executable
    probe_run = runner.run([py, "-c", PROBE], rng.randrange(2**32))
    if probe_run["rc"] != 0:
        print(f"error: probe failed:\n{probe_run['stderr']}", file=sys.stderr)
        return 1
    probe = json.loads(probe_run["stdout"])
    env = environment(probe)
    print("env:", json.dumps(env, sort_keys=True))
    ctx = {"reference": reference.solve(REFERENCE_ORDER),
           "selfdual_pointed": probe["selfdual_pointed"]}

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env}
    if args.trace:
        imports = [import_times(runner.run([py, "-X", "importtime", "-c", "import twolevel.cli"],
                                           rng.randrange(2**32))["stderr"])
                   for _ in range(IMPORTTIME_LAUNCHES)]
    else:
        launches = [runner.run([py, "-c", "import twolevel.cli"], rng.randrange(2**32))
                    for _ in range(SETUP_LAUNCHES)]
        if any(r["rc"] for r in launches):
            print("error: `import twolevel.cli` failed", file=sys.stderr)
            return 1
        record["setup_launches_s"] = [r["wall"] for r in launches]

    commands = WORKLOADS[args.workload]
    attempted = failed = 0
    wrong_output = False
    passed_outputs: dict[str, str] = {}
    passes = []

    def run_pass(hashseed: int, order: list[str], traced: bool) -> dict:
        nonlocal attempted, failed, wrong_output
        walls, cpus, rsss = [], [], []
        spans = {"incl": {}, "calls": {}, "self": {}}
        for name in order:
            argv = ["--format", "json", *commands[name]]
            trace_json = runner.tmp / "spans.json"
            cmd = ([py, str(BENCH / "tracer.py"), str(trace_json), "--", *argv] if traced
                   else [py, "-m", "twolevel", *argv])
            r = runner.run(cmd, hashseed)
            attempted += 1
            problems = checks.check(name, r["rc"], r["stdout"], ctx)
            if problems:
                failed += 1
                wrong_output = wrong_output or r["rc"] == 0
                print(f"FAILED {name} (hash seed {hashseed}): {problems[:5]}\n{r['stderr'][-2000:]}")
            else:
                passed_outputs.setdefault(name, r["stdout"])
            if traced and r["rc"] == 0:
                add_spans(spans, json.loads(trace_json.read_text()))
            walls.append(r["wall"])
            cpus.append(r["cpu"])
            rsss.append(r["rss_mb"])
        result = {"hashseed": hashseed, "order": order, "traced": traced,
                  "wall_s": sum(walls), "cpu_s": sum(cpus), "peak_rss_mb": max(rsss),
                  "command_wall_s": dict(zip(order, walls))}
        if traced:
            result["spans"] = spans
            result["layers"] = layer_metrics(spans)
        print(f"pass {len(passes) + 1}{' traced' if traced else ''}: "
              f"wall {result['wall_s']:.3f} s, cpu {result['cpu_s']:.3f} s, "
              f"rss {result['peak_rss_mb']:.1f} MB, order {order}, hash seed {hashseed}")
        return result

    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        hashseed = rng.randrange(2**32)
        order = rng.sample(sorted(commands), len(commands))
        if args.trace:
            # alternate which of the pair runs first
            pair = (False, True) if len(passes) % 2 == 0 else (True, False)
            passes.append({t: run_pass(hashseed, order, t) for t in pair})
        else:
            passes.append(run_pass(hashseed, order, False))

    problems = checks.self_test(passed_outputs, ctx, random.Random(f"self-test {args.seed}"))
    for p in problems:
        print(p)
    median = statistics.median
    if args.trace:
        traced = [p[True] for p in passes]
        measured = {name: median(i[name] for i in imports) for name in imports[0]}
        measured["trace.overhead_s"] = median(p[True]["wall_s"] - p[False]["wall_s"]
                                              for p in passes)
        # counts repeat exactly; median_low keeps them whole numbers
        metrics = {name: measured[name] if name in measured
                   else (statistics.median_low if name.endswith("_calls") else median)(
                       t["layers"][name] for t in traced)
                   for name in PER_LAYER}
        self_s = {m: median(t["spans"]["self"].get(m, 0.0) for t in traced) for m in MODULES}
        imports_s = len(commands) * sum(metrics[n] for n in imports[0])
        wall = median(t["wall_s"] for t in traced)
        print(f"traced pass: wall {wall:.3f} s = module self {sum(self_s.values()):.3f} s "
              f"{ {m: round(v, 3) for m, v in self_s.items()} } + imports {imports_s:.3f} s "
              f"+ interpreter start, exit and tracer set-up "
              f"{wall - sum(self_s.values()) - imports_s:.3f} s")
        units = {name: ("count" if name.endswith("_calls") else "s") for name in PER_LAYER}
        record["passes"] = [{str(k): v for k, v in p.items()} for p in passes]
    else:
        metrics = {
            "setup_s": median(record["setup_launches_s"]),
            "wall_s": median(p["wall_s"] for p in passes),
            "cpu_s": median(p["cpu_s"] for p in passes),
            "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
        }
        units = END_TO_END
        record["passes"] = passes
    result = {
        "correct": not wrong_output and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    record.update(result, self_test_problems=problems)
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
