"""Checks of each command's JSON output, and a self-test of the checks.

Every check compares against the independent reference in
:mod:`reference`, against the constants of the paper's abstract, or against
a property the method must have; none compares against a stored copy of the
program's output.  A check returns a list of problems, empty when the output
passes.
"""
from __future__ import annotations

import json
import math
import re

from reference import PUBLISHED_T

# Constants as printed in the abstract.
INV_RHO = 4.88052854
C_POLYTOPE = 0.03791727
RHO = 1.0 / INV_RHO
CONST_TOL = 1e-7
ASYMPTOTIC_REL_TOL = 1e-6
RESIDUAL_TOL = 1e-9
SBOUND_BRUTE_MAX = 9
CORRECTED_VERDICT = "corrected matches; paper variant over-counts"


def _load(text: str):
    doc = json.loads(text)
    return doc["meta"], doc["data"]


def check_coeffs_forest(text: str, ctx) -> list[str]:
    meta, data = _load(text)
    ref = ctx["reference"].forest
    order = meta["order"]
    if meta["series"] != "forest" or [r["n"] for r in data] != list(range(order + 1)):
        return [f"forest output covers n = {[r['n'] for r in data][:3]}... not 0..{order}"]
    return [
        f"forest [x^{r['n']}] = {r['coefficient']}, reference {ref[r['n']]}"
        for r in data if r["coefficient"] != ref[r["n"]]
    ]


def two_step_growth(c: list[int], n: int) -> float:
    """Exponent-corrected two-step growth sqrt(c_n/c_(n-2) (n/(n-2))^(3/2))."""
    return math.sqrt(c[n] / c[n - 2] * (n / (n - 2)) ** 1.5)


def check_coeffs_sbound(text: str, ctx) -> list[str]:
    meta, data = _load(text)
    c = [r["coefficient"] for r in data]
    order = meta["order"]
    problems = []
    if meta["series"] != "sbound" or [r["n"] for r in data] != list(range(order + 1)):
        return ["sbound output does not cover 0..order"]
    problems += [f"sbound [x^{n}] = {v!r} is not a nonnegative integer"
                 for n, v in enumerate(c) if type(v) is not int or v < 0]
    if problems:
        return problems
    brute = ctx["selfdual_pointed"]
    problems += [f"sbound [x^{n}] = {c[n]} < brute-force self-dual count {brute[n]}"
                 for n in range(3, SBOUND_BRUTE_MAX + 1) if c[n] < brute[n]]
    g = two_step_growth(c, order)
    if not math.sqrt(INV_RHO) < g < INV_RHO:
        problems.append(f"sbound growth {g:.6f} at n={order} outside "
                        f"({math.sqrt(INV_RHO):.4f}, {INV_RHO:.4f})")
    return problems


def check_verify(text: str, ctx) -> list[str]:
    meta, data = _load(text)
    ref = ctx["reference"]
    want = {"trees": ref.t, "pointed_R": ref.a_R, "pointed_U": ref.a_U}
    cap = meta["tree_cap"]
    problems = [f"verify row {r['n']} {r['check']} is {r['status']}"
                for r in data if r["status"] != "ok"]
    for check, series in want.items():
        rows = {r["n"]: r for r in data if r["check"] == check}
        if sorted(rows) != list(range(3, cap + 1)):
            problems.append(f"verify {check} rows cover {sorted(rows)}, not 3..{cap}")
        problems += [
            f"verify {check} n={n}: {r['enumerated']}/{r['expected']}, reference {series[n]}"
            for n, r in rows.items()
            if not r["enumerated"] == r["expected"] == series[n]
        ]
    variant = [r for r in data if r["check"] == "selfdual_variant"]
    if len(variant) != 1 or variant[0]["expected"] != CORRECTED_VERDICT:
        problems.append(f"selfdual_variant row does not name the corrected variant: {variant}")
    return problems


def _is_small(residual: str) -> bool:
    return residual == "-" or abs(float(residual)) <= RESIDUAL_TOL


def check_asympt(text: str, ctx) -> list[str]:
    _, data = _load(text)
    rows = {r["constant"]: r for r in data}
    problems = []
    for name, want in (("inv_rho", INV_RHO), ("c_polytope", C_POLYTOPE)):
        got = float(rows[name]["value"])
        if abs(got - want) > CONST_TOL:
            problems.append(f"{name} = {got!r}, abstract {want}")
    problems += [f"{name} residual {r['residual']} > {RESIDUAL_TOL}"
                 for name, r in rows.items() if not _is_small(r["residual"])]
    scan = re.search(r"branch point at x = ([0-9.]+)", rows["selfdual_scan"]["value"])
    if scan is None:
        problems.append(f"scan found no branch point: {rows['selfdual_scan']['value']}")
    elif not RHO < float(scan.group(1)) <= math.sqrt(RHO):
        problems.append(f"scan branch point {scan.group(1)} outside (rho, sqrt(rho)]")
    return problems


def check_bound(text: str, ctx) -> list[str]:
    meta, data = _load(text)
    t = ctx["reference"].t
    exact = [r for r in data if r["kind"] == "exact"]
    problems = []
    if [r["n"] for r in exact] != list(range(3, meta["tree_cap"] + 1)):
        problems.append(f"bound exact rows cover {[r['n'] for r in exact]}")
    for r in exact:
        n, l2, s2 = r["n"], r["trees"], r["selfdual"]
        if l2 != t[n]:
            problems.append(f"bound n={n}: trees {l2}, reference {t[n]}")
        if (l2 + s2) % 2 or r["lower_bound"] != (l2 + s2) // 2:
            problems.append(f"bound n={n}: ({l2} + {s2}) / 2 != {r['lower_bound']}")
    small = {r["n"]: r["lower_bound"] for r in exact if r["n"] in (3, 4)}
    if small != {3: 1, 4: 3}:
        problems.append(f"bound rows n=3, 4 give {small}, not 1 and 3")
    for r in data:
        if r["kind"] == "asymptotic":
            n = r["n"]
            want = C_POLYTOPE * n**-2.5 * INV_RHO**n
            if abs(float(r["lower_bound"]) / want - 1.0) > ASYMPTOTIC_REL_TOL:
                problems.append(f"bound n={n}: {r['lower_bound']}, abstract gives {want:.10g}")
    return problems


CHECKS = {
    "coeffs_forest": check_coeffs_forest,
    "coeffs_sbound": check_coeffs_sbound,
    "verify": check_verify,
    "asympt": check_asympt,
    "bound": check_bound,
}


def check(command: str, rc: int, text: str, ctx) -> list[str]:
    """Problems with one command's exit code and output."""
    if rc != 0:
        return [f"{command} exited with {rc}"]
    try:
        return CHECKS[command](text, ctx)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return [f"{command} output unreadable: {exc!r}"]


# -- self-test ---------------------------------------------------------------

def _corrupt(command: str, text: str, rng):
    """One corrupted copy of a captured output, or None if the command has
    no corruption of its own."""
    doc = json.loads(text)
    data = doc["data"]
    if command == "coeffs_forest":
        row = rng.choice(data[3:])
        row["coefficient"] += 1
    elif command == "verify":
        row = rng.choice(data)
        row["status"] = "MISMATCH"
    elif command == "asympt":
        name = rng.choice(("inv_rho", "c_polytope"))
        row = next(r for r in data if r["constant"] == name)
        row["value"] = repr(float(row["value"]) + 10 * CONST_TOL)
    else:
        return None
    return json.dumps(doc)


def self_test(outputs: dict[str, str], ctx, rng) -> list[str]:
    """Problems with the checks themselves: each corrupted copy of an output
    that passed must fail, and the reference must give the published T."""
    problems = []
    if tuple(ctx["reference"].t[3:13]) != PUBLISHED_T:
        problems.append("reference does not reproduce the published [x^3..x^12]T")
    for command, text in outputs.items():
        bad = _corrupt(command, text, rng)
        if bad is not None and not check(command, 0, bad, ctx):
            problems.append(f"self-test: corrupted {command} output passes its check")
    return problems
