"""Mutation survey of one module of the package (standard library only).

Usage: python tests/mutation_survey.py src/twolevel/gfsystem.py [--timeout S]

Each mutant changes one place of the module: a binary ``+`` becomes ``-``
and ``-`` becomes ``+``, a ``*`` becomes ``+`` (augmented assignments too),
or an integer constant grows by 1.  Every mutant is written into a copy of
the checkout in a temporary directory, never in place, and runs the commands
below one process at a time, each under a timeout: first
``--order 12 --tree-cap 8 verify``, then the JSON output of ``asympt``,
``bound`` and ``coeffs`` at order 30 for every series.  A mutant is caught
by verify's exit code (not 0, or no exit within the timeout), caught only by
an output (exit code or stdout) that differs from the unmutated copy's, or
it survives.  The counts are printed, then each survivor, with line and
column, and what ``pytest -x -q`` (tier-1, under the same timeout) makes of
it in the copy: the first failing test, or "survives tier-1".

Not collected by pytest; it takes minutes, not seconds.
"""
from __future__ import annotations

import argparse
import ast
import io
import os
import shutil
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# what the copy of the checkout leaves out: history and caches
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                              ".bench_runs")
SWAPS = {ast.Add: "-", ast.Sub: "+", ast.Mult: "+"}
OPERATORS = ("+", "-", "*", "+=", "-=", "*=")


def mutants(source: str):
    """(line, column, description, mutated source) for each mutant."""
    tree = ast.parse(source)
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    ops = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
           if t.type == tokenize.OP]
    in_fstring = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr)
                  for n in ast.walk(f)}  # positions there are not reliable
    for node in ast.walk(tree):
        if id(node) in in_fstring:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            left = node.left if isinstance(node, ast.BinOp) else node.target
            after = (left.end_lineno, left.end_col_offset)
            tok = next(t for t in ops if t.start >= after and t.string in OPERATORS)
            (line, col), new = tok.start, SWAPS[type(node.op)]
            old = tok.string[0]
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            line, col = node.lineno, node.col_offset
            old = source[starts[line - 1] + col:starts[node.end_lineno - 1] + node.end_col_offset]
            new = str(node.value + 1)
        else:
            continue
        at = starts[line - 1] + col
        yield line, col, f"{old} -> {new}", source[:at] + new + source[at + len(old):]


def commands() -> list[list[str]]:
    sys.path.insert(0, str(SRC))
    from twolevel import cli

    return [["--order", "12", "--tree-cap", "8", "verify"],
            ["--format", "json", "asympt"], ["--format", "json", "bound"],
            *(["--format", "json", "--order", "30", "coeffs", name] for name in cli.SERIES)]


def run(src: Path, argv: list[str], timeout: float):
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run([sys.executable, "-m", "twolevel", *argv], env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return proc.returncode, proc.stdout


def tier1(root: Path, timeout: float) -> str:
    """The first test that fails in the checkout at ``root``, or "survives tier-1"."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-rfE",
                               "-p", "no:cacheprovider"],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return "tier-1 times out"
    if proc.returncode == 0:
        return "survives tier-1"
    failed = (line.split(" - ")[0].split(" ", 1)[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR ")))
    return "killed by " + next(failed, f"pytest exit {proc.returncode}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", type=Path, help="a module file under src/")
    parser.add_argument("--timeout", type=float, default=60.0, help="seconds per command")
    args = parser.parse_args()
    relative = args.module.resolve().relative_to(SRC)
    source = (SRC / relative).read_text()
    argvs = commands()
    groups = {"verify": [], "output": [], "survived": []}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "checkout"
        shutil.copytree(ROOT, root, ignore=SKIP)
        src, target = root / "src", root / "src" / relative
        want = [run(src, argv, args.timeout) for argv in argvs]
        if want[0] == "timeout" or want[0][0] != 0:
            raise SystemExit("verify fails on the unmutated copy")
        survivors = []
        for line, col, what, mutated in sorted(mutants(source)):
            target.write_text(mutated)
            got = run(src, argvs[0], args.timeout)
            if got == "timeout" or got[0] != 0:
                group = "verify"
            elif got != want[0] or any(run(src, argv, args.timeout) != w
                                       for argv, w in zip(argvs[1:], want[1:])):
                group = "output"
            else:
                group = "survived"
                survivors.append(mutated)
            groups[group].append(f"src/{relative}:{line}:{col + 1}: {what}")
        print(", ".join(f"{name} {len(found)}" for name, found in groups.items()),
              f"of {sum(map(len, groups.values()))} mutants", flush=True)
        if survivors:
            target.write_text(source)
            if tier1(root, args.timeout) != "survives tier-1":
                raise SystemExit("tier-1 fails on the unmutated copy")
        for where, mutated in zip(groups["survived"], survivors):
            target.write_text(mutated)
            print(f"{where}: {tier1(root, args.timeout)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
