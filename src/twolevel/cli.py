"""Command-line interface: coefficient tables, cross-validation, asymptotics,
and the lower-bound table for 2-level polytopes.

Subcommands
-----------
coeffs   print exact coefficients of a named series
verify   cross-check series coefficients against the brute-force enumeration
asympt   branch point, singular expansions, and growth estimates
bound    lower-bound counts (exact rows, then asymptotic rows)
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from functools import partial

from . import asymptotics as asy
from . import gfsystem as gf
from . import matroid as mat
from . import umrtree as umr

SERIES_NAMES = ("T", "AR", "AU", "SU_paper", "SU_corrected", "sbound", "forest")


@dataclass(frozen=True)
class RunConfig:
    order: int = 30
    tree_cap: int = 8
    iso_cap: int = 12
    tol: float = 1e-12
    fmt: str = "text"

    def __post_init__(self):
        if self.order < 3:
            raise ValueError("order must be >= 3")
        if self.tree_cap <= 0 or self.iso_cap <= 0:
            raise ValueError("caps must be positive")
        if not 0 < self.tol < float("inf"):  # also rejects NaN
            raise ValueError("tol must be positive and finite")


def _fmt_real(v: float) -> str:
    return f"{v:.10g}"


def _emit(config: RunConfig, meta: dict, columns: list[str], rows: list[list],
          out=None) -> None:
    out = out or sys.stdout
    if config.fmt == "json":
        data = [dict(zip(columns, r)) for r in rows]
        json.dump({"meta": meta, "data": data}, out, sort_keys=True, default=str)
        out.write("\n")
    elif config.fmt == "csv":
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


def _named_series(name: str, config: RunConfig):
    p = gf.solve_pointed(config.order)
    if name == "AR":
        return p.a_R
    if name == "AU":
        return p.a_U
    if name == "T":
        return gf.assemble_T(p).t
    if name == "forest":
        return gf.compute_forests(gf.assemble_T(p).t)
    if name == "SU_paper":
        return gf.compute_selfdual(p, "paper")
    if name == "SU_corrected":
        return gf.compute_selfdual(p, "corrected")
    if name == "sbound":
        return gf.compute_s_bound(p, gf.compute_selfdual(p, "paper"))
    raise ValueError(f"unknown series {name!r}")


def cmd_coeffs(args, config: RunConfig) -> int:
    series = _named_series(args.series, config)
    rows = [[n, c] for n, c in enumerate(series.integer_coeffs())]
    _emit(config, {"series": args.series, "order": config.order}, ["n", "coefficient"], rows)
    return 0


def run_verify(config: RunConfig, t=None, pointed=None, selfdual=None, out=None) -> int:
    """Cross-check series coefficients against brute-force tree enumeration.

    The series arguments are injectable so that tests can exercise the
    failure path; by default everything is computed fresh.
    """
    out = out or sys.stdout
    p = pointed or gf.solve_pointed(config.order)
    t = t if t is not None else gf.assemble_T(p).t
    sd = selfdual or gf.solve_selfdual(p)
    n_max = min(config.tree_cap, umr.TREE_CAP, t.order)
    rows = []
    ok = True

    def add(n, what, got, want):
        nonlocal ok
        good = got == want
        ok = ok and good
        rows.append([n, what, got, want, "ok" if good else "MISMATCH"])

    def skip(n, what):
        rows.append([n, what, "-", "-", "skipped"])

    paper_hits = corrected_hits = total_orders = 0
    for n in range(3, n_max + 1):
        trees = umr.enumerate_umr_trees(n)
        add(n, "trees", len(trees), t.coeff(n))
        add(n, "pointed_R", umr.pointed_count(n, "R"), p.a_R.coeff(n))
        add(n, "pointed_U", umr.pointed_count(n, "U"), p.a_U.coeff(n))
        sdp = umr.count_self_dual_pointed(n)
        total_orders += 1
        paper_hits += sdp == sd.s_U_paper.coeff(n)
        corrected_hits += sdp == sd.s_U_corrected.coeff(n)
        if n > 7:
            continue
        # matroid-level checks, skipped where the isomorphism cap excludes them
        ms = [umr.tree_to_matroid(x) for x in trees]
        if all(m.size() <= config.iso_cap for m in ms):
            add(n, "matroids_distinct", _pairwise_distinct(ms, config), True)
            if n <= 6:
                add(n, "selfdual_matroid",
                    sum(umr.is_self_dual_tree(x) for x in trees),
                    _selfdual_by_matroid_duality(ms, config))
        else:
            skip(n, "matroids_distinct")
            if n <= 6:
                skip(n, "selfdual_matroid")
    # self-dual variant arbitration: exactly one variant matches everywhere
    if corrected_hits == total_orders and paper_hits < total_orders:
        verdict = "corrected matches; paper variant over-counts"
    elif paper_hits == total_orders and corrected_hits < total_orders:
        verdict = "paper matches; corrected variant under-counts"
    elif paper_hits == corrected_hits == total_orders:
        verdict = "variants agree at these orders"
    else:
        verdict = "NEITHER VARIANT MATCHES"
    variant_ok = verdict != "NEITHER VARIANT MATCHES"
    ok = ok and variant_ok
    rows.append(["3..%d" % n_max, "selfdual_variant",
                 f"corrected {corrected_hits}/{total_orders}, "
                 f"paper {paper_hits}/{total_orders}", verdict,
                 "ok" if variant_ok else "MISMATCH"])
    # P6 fixture: single 3-circuit, rank 3, 2-connected, not uniform
    p6_ok = (
        mat.rank(mat.P6) == 3
        and sorted(map(len, mat.P6.circuits)).count(3) == 1
        and mat.is_2connected(mat.P6)
        and len(mat.bases(mat.P6)) == 19
        and not mat.is_isomorphic(mat.P6, mat.uniform(6, 3))
    )
    add(6, "p6_fixture", p6_ok, True)
    # duality commutes with 2-sum on a spot-check pair
    m1 = mat.uniform(4, 2)
    m2 = mat.uniform(5, 2, labels=range(5, 10))
    lhs = mat.dual(mat.two_sum(m1, 1, m2, 7))
    rhs = mat.two_sum(mat.dual(m1), 1, mat.dual(m2), 7)
    add(7, "dual_of_two_sum", mat.is_isomorphic(lhs, rhs), True)
    _emit(config, {"order": config.order, "tree_cap": n_max},
          ["n", "check", "enumerated", "expected", "status"], rows, out=out)
    return 0 if ok else 1


def _selfdual_by_matroid_duality(ms, config: RunConfig) -> int:
    return sum(mat.is_isomorphic(m, mat.dual(m), cap=config.iso_cap) for m in ms)


def _pairwise_distinct(ms, config: RunConfig) -> bool:
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            if mat.is_isomorphic(ms[i], ms[j], cap=config.iso_cap):
                return False
    return bool(ms)


def cmd_verify(args, config: RunConfig) -> int:
    return run_verify(config)


def _tree_asymptotics(p: gf.PointedSeries, config: RunConfig):
    """Branch point, singular expansions, T's expansion and transfer, at --tol."""
    char = asy.solve_char_system(p.a_R, p.a_U, tol=config.tol)
    se = asy.singular_expansions(char, p.a_R, p.a_U, tol=config.tol)
    transfer = partial(asy.transfer, rho=char.rho, tol=config.tol)
    return char, se, asy.expand_T(se, p.a_R, p.a_U), transfer


def cmd_asympt(args, config: RunConfig) -> int:
    p = gf.solve_pointed(config.order)
    char, se, t_poly, transfer = _tree_asymptotics(p, config)
    f_poly = asy.expand_forests(t_poly, gf.assemble_T(p).t, char.rho)
    est_t, est_f = transfer(t_poly), transfer(f_poly)
    s_U_paper = gf.compute_selfdual(p, "paper")
    report = asy.verify_selfdual_growth(gf.compute_s_bound(p, s_U_paper),
                                        gf.pair_class(p, s_U_paper), char.rho, config.tol)
    rows = [[name, _fmt_real(v), _fmt_real(char.residual)] for name, v in (
        ("rho", char.rho), ("inv_rho", 1.0 / char.rho), ("A0", char.a_R), ("U0", char.a_U))]
    for name, coeffs in (("A", se.a), ("U", se.u)):
        rows += [[f"{name}{i}", _fmt_real(coeffs[i]), _fmt_real(se.residual)] for i in (1, 2, 3)]
    for i in (0, 2, 3):
        rows.append([f"T{i}", _fmt_real(t_poly[i]), _fmt_real(abs(t_poly[1]))])
    for i in (0, 2, 3):
        rows.append([f"F{i}", _fmt_real(f_poly[i]),
                     _fmt_real(abs(f_poly[3] - f_poly[0] * t_poly[3]))])
    rows += [
        ["C", _fmt_real(est_t.amplitude), _fmt_real(abs(t_poly[1]))],
        ["C_forest", _fmt_real(est_f.amplitude), _fmt_real(abs(f_poly[1]))],
        ["c_polytope", _fmt_real(est_t.amplitude / 2.0), _fmt_real(abs(t_poly[1]))],
        ["poly_exponent", _fmt_real(est_t.poly_exponent), "0"],
        ["selfdual_scan", report.describe(), "-"],
    ]
    _emit(config, {"order": config.order, "tol": config.tol},
          ["constant", "value", "residual"], rows)
    return 0


def cmd_bound(args, config: RunConfig) -> int:
    p = gf.solve_pointed(config.order)
    t = gf.assemble_T(p).t
    n_max = min(config.tree_cap, umr.TREE_CAP, config.order)
    selfdual = [0] * (n_max + 1)
    for n in range(3, n_max + 1):
        selfdual[n] = umr.count_self_dual(n)
    counts = gf.lower_bound_counts(t.truncate(n_max), selfdual)
    rows = [
        [n, t.coeff(n), selfdual[n], counts[n], "exact"]
        for n in range(3, n_max + 1)
    ]
    _, _, t_poly, transfer = _tree_asymptotics(p, config)
    est = transfer(t_poly)
    half = asy.AsymptoticEstimate(est.amplitude / 2.0, est.poly_exponent, est.growth_rate)
    for n in (10, 20, 50, 100):
        rows.append([n, "", "", _fmt_real(half.value(n)), "asymptotic"])
    _emit(config, {"order": config.order, "tree_cap": n_max},
          ["n", "trees", "selfdual", "lower_bound", "kind"], rows)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twolevel",
        description="Exact enumeration and asymptotics of 2-level matroids",
    )
    parser.add_argument("--order", type=int, default=30,
                        help="series truncation order (default 30)")
    parser.add_argument("--tree-cap", type=int, default=8,
                        help="largest size for brute-force tree enumeration")
    parser.add_argument("--iso-cap", type=int, default=12,
                        help="largest ground set for isomorphism checks")
    parser.add_argument("--tol", type=float, default=1e-12,
                        help="Newton convergence tolerance")
    parser.add_argument("--format", dest="fmt", choices=("text", "json", "csv"),
                        default="text", help="output format")
    sub = parser.add_subparsers(dest="command", required=True)
    p_coeffs = sub.add_parser("coeffs", help="print exact series coefficients")
    p_coeffs.add_argument("series", choices=SERIES_NAMES)
    p_coeffs.set_defaults(func=cmd_coeffs)
    p_verify = sub.add_parser("verify", help="cross-check series vs enumeration")
    p_verify.set_defaults(func=cmd_verify)
    p_asympt = sub.add_parser("asympt", help="singularity analysis constants")
    p_asympt.set_defaults(func=cmd_asympt)
    p_bound = sub.add_parser("bound", help="lower bounds for 2-level polytopes")
    p_bound.set_defaults(func=cmd_bound)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = RunConfig(
            order=args.order,
            tree_cap=args.tree_cap,
            iso_cap=args.iso_cap,
            tol=args.tol,
            fmt=args.fmt,
        )
        return args.func(args, config)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
