"""Run one twolevel command with spans around the calls into each module.

Usage: python tracer.py OUT.json -- <twolevel arguments>

The public functions of every twolevel module, and the arithmetic and
multiset methods of PowerSeries, are replaced by wrappers that time each
call.  Totals are kept in memory and written to OUT.json at exit:

- ``incl``: inclusive seconds per metric name; a call nested inside another
  call of the same name is not counted twice;
- ``calls``: number of calls per metric name;
- ``self``: seconds per module of the innermost active span, so the module
  self times add up to the time spent in ``cli.main``.

Module-internal helpers (names starting with ``_``, and the X-polynomial
helpers ``xp*`` of asymptotics, called only inside that module) are not
wrapped: their time is already the calling module's, and wrapping them would
only add overhead.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

from twolevel import asymptotics, cli, gfsystem, matroid, powerseries, umrtree

# PowerSeries methods, grouped into the metrics they feed
SERIES_GROUPS = {
    "mul": ("__mul__",),
    "exp": ("exp",),
    "mset": ("mset", "mset_restricted"),
    "linear": ("__add__", "__sub__", "__neg__", "scale", "__rmul__", "__truediv__",
               "substitute_power", "truncate", "extended"),
    "eval_float": ("eval_float",),
}
# module functions sharing one metric
FUNCTION_GROUPS = {
    ("asymptotics", "expand_T"): "expand",
    ("asymptotics", "expand_forests"): "expand",
    ("asymptotics", "transfer"): "expand",
    ("umrtree", "count_self_dual_pointed"): "pointed_count",
}
UNWRAPPED = {("asymptotics", name) for name in ("xp", "xp_mul", "xp_pow", "xp_exp")}


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []  # child seconds of each open span
        self.active = Counter()
        self.incl = defaultdict(float)
        self.calls = Counter()
        self.self_s = defaultdict(float)

    def wrap(self, module: str, metric: str, fn):
        key = f"{module}.{metric}"
        stack, active, incl, calls, self_s = (
            self.stack, self.active, self.incl, self.calls, self.self_s)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            active[key] += 1
            calls[key] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active[key] -= 1
                if not active[key]:
                    incl[key] += dt
                self_s[module] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt

        return traced

    def install(self) -> None:
        for mod in (asymptotics, gfsystem, matroid, umrtree):
            name = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and (name, attr) not in UNWRAPPED):
                    metric = FUNCTION_GROUPS.get((name, attr), attr)
                    setattr(mod, attr, self.wrap(name, metric, fn))
        cls = powerseries.PowerSeries
        for metric, methods in SERIES_GROUPS.items():
            for attr in methods:
                setattr(cls, attr, self.wrap("powerseries", metric, vars(cls)[attr]))
        cli.main = self.wrap("cli", "main", cli.main)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"incl": self.incl, "calls": self.calls, "self": self.self_s}, f)


def main() -> int:
    out, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.json -- <twolevel arguments>")
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
