"""Command-line interface: coefficient tables, cross-validation, asymptotics,
and the lower-bound table for 2-level polytopes.

Subcommands
-----------
coeffs   print exact coefficients of a named series
verify   cross-check series coefficients against the brute-force enumeration
asympt   branch point, singular expansions, and growth estimates
bound    lower-bound counts (exact rows, then asymptotic rows)

Each command returns its table, ``(meta, columns, rows)``; :func:`main`
alone prints it and sets the exit code.  Only :mod:`twolevel.gfsystem` is
imported here; each command imports the other modules it runs, so a launch
loads nothing its subcommand does not use.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import NamedTuple

from . import gfsystem as gf

# the series `coeffs` prints, each read from the pointed series; gfsystem's
# names are looked up at each call, so a wrapper installed on them sees it
SERIES = {
    "T": lambda p: gf.assemble_T(p),
    "AR": lambda p: p.a_R,
    "AU": lambda p: p.a_U,
    "SU_paper": lambda p: gf.compute_selfdual(p, "paper"),
    "SU_corrected": lambda p: gf.compute_selfdual(p, "corrected"),
    "sbound": lambda p: gf.compute_s_bound(p),
    "forest": lambda p: gf.compute_forests(gf.assemble_T(p)),
}


class RunConfig(NamedTuple):
    """The global options; :meth:`checked` validates them."""

    order: int = 30
    tree_cap: int = 8
    tol: float = 1e-12
    fmt: str = "text"

    def checked(self) -> RunConfig:
        """This config, or ValueError naming its first bad value."""
        if self.order < 3:
            raise ValueError("order must be >= 3")
        if self.tree_cap <= 0:
            raise ValueError("tree_cap must be positive")
        if not 0 < self.tol < float("inf"):  # also rejects NaN
            raise ValueError("tol must be positive and finite")
        return self


def _fmt_real(v: float) -> str:
    return f"{v:.10g}"


def _emit(config: RunConfig, meta: dict, columns: list[str], rows: list[list]) -> None:
    out = sys.stdout
    if config.fmt == "json":
        import json

        data = [dict(zip(columns, r)) for r in rows]
        out.write(json.dumps({"meta": meta, "data": data}, sort_keys=True) + "\n")
    elif config.fmt == "csv":
        import csv

        w = csv.writer(out)
        w.writerow(columns)
        w.writerows(rows)
    else:
        widths = [
            max(len(str(c)), max((len(str(r[i])) for r in rows), default=0))
            for i, c in enumerate(columns)
        ]
        for key, val in meta.items():
            out.write(f"# {key}: {val}\n")
        out.write("  ".join(str(c).ljust(w) for c, w in zip(columns, widths)).rstrip() + "\n")
        for r in rows:
            out.write("  ".join(str(v).ljust(w) for v, w in zip(r, widths)).rstrip() + "\n")


def cmd_coeffs(args, config: RunConfig):
    series = SERIES[args.series](gf.solve_pointed(config.order))
    rows = [[n, c] for n, c in enumerate(series.integer_coeffs())]
    return {"series": args.series, "order": config.order}, ["n", "coefficient"], rows


def cmd_verify(args, config: RunConfig):
    """Cross-check series coefficients against brute-force tree enumeration.

    Self-duality is checked along one chain: matroid duality, the
    centre-rooting count ``count_self_dual`` and the coefficient of S2.
    """
    from functools import cache

    from . import matroid as mat
    from . import umrtree as umr

    p = gf.solve_pointed(config.order)
    t = gf.assemble_T(p)
    s_U = {v: gf.compute_selfdual(p, v) for v in ("paper", "corrected")}
    s2 = gf.assemble_S2(p)
    n_max = min(config.tree_cap, umr.TREE_CAP, t.order)
    rows = []

    def add(n, what, got, want):
        rows.append([n, what, got, want, "ok" if got == want else "MISMATCH"])

    def skip(n, what):
        rows.append([n, what, "-", "-", "skipped"])

    matroids = cache(lambda n: [umr.tree_to_matroid(x) for x in umr.enumerate_umr_trees(n)])
    # the per-size checks: name, last size, enumerated(n) and expected(n);
    # the sizes past n_max are skipped in one span row.  Matroid checks
    # (n legs, n elements) stop at a size set by their cost
    checks = [
        ("trees", config.tree_cap, umr.count_trees, t.coeff),
        ("selfdual_trees", config.tree_cap, umr.count_self_dual, s2.coeff),
        ("pointed_R", config.tree_cap, lambda n: umr.pointed_count(n, "R"), p.a_R.coeff),
        ("pointed_U", config.tree_cap, lambda n: umr.pointed_count(n, "U"), p.a_U.coeff),
        ("matroids_distinct", min(7, n_max),
         lambda n: bool(matroids(n)) and mat.pairwise_non_isomorphic(matroids(n)), lambda n: True),
        ("selfdual_matroid", min(6, n_max), umr.count_self_dual,
         lambda n: sum(mat.is_isomorphic(m, mat.dual(m)) for m in matroids(n))),
    ]
    sizes = range(3, n_max + 1)
    for n in sizes:
        for what, last, got, want in checks:
            if n <= last:
                add(n, what, got(n), want(n))
    for what, last, *_ in checks:
        if last > n_max:
            skip(f"{n_max + 1}..{last}", what)
    # a_R, a_U, T and S2 at n = 0..2: one pointed tree (R on two legs), and no tree
    enumerated = [umr.pointed_count(n, c) for c in "RU" for n in range(3)] + [0] * 6
    expected = [s.coeff(n) for s in (p.a_R, p.a_U, t, s2) for n in range(3)]
    add("0..2", "low_coefficients", *(" ".join(map(str, cs)) for cs in (enumerated, expected)))
    # self-dual variant arbitration, against README's "Known discrepancies":
    # the corrected variant matches at every size, the paper's over-counts from 5 on
    sdp = [umr.count_self_dual_pointed(n) for n in sizes]
    hits = {v: sum(c == s.coeff(n) for n, c in zip(sizes, sdp)) for v, s in s_U.items()}
    span, total = f"3..{n_max}", len(sizes)
    agree = n_max < 5
    verdict = ("variants agree at these orders" if agree
               else "corrected matches; paper variant over-counts")
    if not total:
        skip(span, "selfdual_variant")
    else:
        ok = hits["corrected"] == total and (hits["paper"] == total) == agree
        rows.append([span, "selfdual_variant",
                     f"corrected {hits['corrected']}/{total}, paper {hits['paper']}/{total}",
                     verdict, "ok" if ok else "MISMATCH"])
    # the fixtures, n being the size of the ground set.  P6: single
    # 3-circuit (so not uniform), rank 3, 2-connected
    add(6, "p6_fixture", (
        mat.rank(mat.P6) == 3
        and sum(len(c) == 3 for c in mat.P6.circuits) == 1
        and mat.is_2connected(mat.P6)
        and len(mat.bases(mat.P6)) == 19), True)
    # duality commutes with 2-sum; P6's orbits {1, 2, 3}, {4, 5, 6} make the base point count
    m1, m2 = mat.P6, mat.uniform(3, 2, labels=range(7, 10))
    add(7, "dual_of_two_sum", mat.is_isomorphic(
        mat.dual(mat.two_sum(m1, 3, m2, 9)),
        mat.two_sum(mat.dual(m1), 3, mat.dual(m2), 9)), True)
    return ({"order": config.order, "tree_cap": n_max},
            ["n", "check", "enumerated", "expected", "status"], rows)


def cmd_asympt(args, config: RunConfig):
    from . import asymptotics as asy

    p = gf.solve_pointed(config.order)
    char = asy.solve_char_system(p, config.tol)
    se = asy.singular_expansions(char, p, config.tol)
    t_poly, f_poly = se.t, asy.expand_forests(se, p)
    c_t, c_f = asy.transfer(t_poly, config.tol), asy.transfer(f_poly, config.tol)
    report = asy.verify_selfdual_growth(p, char.rho, config.tol)
    rows = [[name, _fmt_real(v), _fmt_real(char.residual)] for name, v in (
        ("rho", char.rho), ("inv_rho", 1.0 / char.rho), ("A0", char.a_R), ("U0", char.a_U))]
    t_res, f_res = abs(t_poly[1]), abs(f_poly[3] - f_poly[0] * t_poly[3])
    for name, coeffs, res, ks in (("A", se.a, se.residual, (1, 2, 3)),
                                  ("U", se.u, se.residual, (1, 2, 3)),
                                  ("T", t_poly, t_res, (0, 2, 3)), ("F", f_poly, f_res, (0, 2, 3))):
        rows += [[f"{name}{i}", _fmt_real(coeffs[i]), _fmt_real(res)] for i in ks]
    rows += [
        ["C", _fmt_real(c_t), _fmt_real(t_res)],
        ["C_forest", _fmt_real(c_f), _fmt_real(abs(f_poly[1]))],
        ["c_polytope", _fmt_real(c_t / 2.0), _fmt_real(t_res)],
        ["poly_exponent", _fmt_real(asy.POLY_EXPONENT), "0"],
        ["selfdual_scan", report.describe(),
         "-" if report.residual is None else _fmt_real(report.residual)],
    ]
    return {"order": config.order, "tol": config.tol}, ["constant", "value", "residual"], rows


def cmd_bound(args, config: RunConfig):
    from . import asymptotics as asy

    p = gf.solve_pointed(config.order)
    t = gf.assemble_T(p)
    s2 = gf.assemble_S2(p)
    counts = (t + s2) / 2  # raises ArithmeticError where L2 + S2 is odd
    n_max = min(config.tree_cap, config.order)
    rows = [
        [n, t.coeff(n), s2.coeff(n), counts.coeff(n), "exact"]
        for n in range(3, n_max + 1)
    ]
    char = asy.solve_char_system(p, config.tol)
    se = asy.singular_expansions(char, p, config.tol)
    c = asy.transfer(se.t, config.tol) / 2.0
    for n in (10, 20, 50, 100):
        rows.append([n, "", "", _fmt_real(c * n**asy.POLY_EXPONENT * (1.0 / char.rho)**n),
                     "asymptotic"])
    return ({"order": config.order, "tree_cap": n_max},
            ["n", "trees", "selfdual", "lower_bound", "kind"], rows)


def _build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The global flags alone, and the command line: those flags, then a command."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.set_defaults(**RunConfig._field_defaults)
    flags.add_argument("--order", type=int, help="series truncation order")
    flags.add_argument("--tree-cap", type=int,
                       help="last size of verify's tree enumeration and of bound's exact rows")
    flags.add_argument("--tol", type=float,
                       help="the one tolerance of asympt and bound: every solver stops, "
                            "and every check passes, at residuals below it")
    flags.add_argument("--format", dest="fmt", choices=("text", "json", "csv"),
                       help="output format")
    parser = argparse.ArgumentParser(
        prog="twolevel",
        description="Exact enumeration and asymptotics of 2-level matroids",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        parents=[flags],
    )
    flags.error = parser.error  # a bad flag is reported with the full usage line
    sub = parser.add_subparsers(dest="command", required=True)
    p_coeffs = sub.add_parser("coeffs", help="print exact series coefficients")
    p_coeffs.add_argument("series", choices=SERIES)
    p_coeffs.set_defaults(func=cmd_coeffs)
    sub.add_parser("verify", help="cross-check series vs enumeration").set_defaults(func=cmd_verify)
    sub.add_parser("asympt", help="singularity analysis constants").set_defaults(func=cmd_asympt)
    sub.add_parser("bound", help="lower bounds for 2-level polytopes").set_defaults(func=cmd_bound)
    return flags, parser


def main(argv=None) -> int:
    flags, parser = _build_parser()
    # argparse sets an unknown flag before the command aside and reads the
    # word after it as the command; name the flag instead (help and "--" pass)
    token = (flags.parse_known_args(argv)[1] or [""])[0]
    if token.startswith("-") and not token.startswith(("-h", "--h")) and token != "--":
        parser.error(f"unrecognized arguments: {token}")
    args = parser.parse_args(argv)
    try:
        config = RunConfig(*(getattr(args, name) for name in RunConfig._fields)).checked()
        meta, columns, rows = args.func(args, config)
        _emit(config, meta, columns, rows)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1 if any(row[-1] == "MISMATCH" for row in rows) else 0


def run() -> int:
    """The process entry (``python -m twolevel``, the ``twolevel`` script):
    :func:`main` on ``sys.argv``, then its exit code, 1 if stdout is closed."""
    try:
        code = main()
        sys.stdout.flush()  # a closed stdout raises here, not at exit
    except BrokenPipeError:
        # the reader is gone: the interpreter's last flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    # Frozen objects are left out of the shutdown collections, which would
    # traverse every module and table the command built; atexit, the stdio
    # flush and module teardown still run, and nothing needs a finalizer.
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
