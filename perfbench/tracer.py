"""Spans around the package's public functions, for the traced run.

`Tracer.install()` wraps each function in `TRACED` and rebinds every
`weylchar.*` module attribute that refers to it, so calls made inside the
package (which bind these functions by name) become nested spans too.  Spans
stay in memory; `stats()` turns them into per-function calls, self time,
errors and work counts.  A function that no longer exists is listed as absent.

`poisson_mass` and the `QQi` / `Fraction` operators stay unwrapped: they run
millions of times, and their time lands in their callers' self time.
"""

from __future__ import annotations

import importlib
import sys
import time

# Prefix of the stderr line on which a traced CLI child reports its spans.
TRACE_MARK = "perfbench-trace "

TRACED = (
    ("gtkernel", "group_counts"),
    ("symfunc", "weyl_dim"),
    ("symfunc", "schur_to_power_sums"),
    ("symfunc", "skew_expand"),
    ("symfunc", "lr_product"),
    ("moments", "weight_distribution"),
    ("moments", "moment2_closed"),
    ("moments", "moment4_closed"),
    ("moments", "estimate_check"),
    ("moments", "hciz_power_sum"),
    ("moments", "hciz_monte_carlo"),
    ("ucharacters", "char_eval"),
    ("ucharacters", "restrict_to_blocks"),
    ("ucharacters", "tensor_decompose"),
    ("afalgebra", "ergodic_sequence"),
    ("afalgebra", "embed"),
    ("afalgebra", "schur_weyl_defect"),
    ("afalgebra", "trace_weights"),
    ("afalgebra", "validate_diagram"),
    ("afalgebra", "k0_extension_obstruction"),
    ("poisson", "kstep_semigroup_check"),
    ("poisson", "poisson_series_check"),
    ("poisson", "binomial_reexpansion_check"),
    ("poisson", "stirling_identity"),
    ("poisson", "poisson_tail"),
    ("cli", "main"),
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _char_route(args, kwargs) -> str:
    """The route char_eval takes, read from its arguments as char_eval reads them."""
    if _arg(args, kwargs, 2, "exact", False):
        return "route_exact"
    ucharacters = sys.modules.get("weylchar.ucharacters")
    gap_limit = getattr(ucharacters, "CONFLUENCE_GAP", None)
    if gap_limit is None:
        return "route_unknown"
    u = _arg(args, kwargs, 1, "u")
    # The closest pair of points on the circle are neighbours in angle order.
    order = sorted(range(u.d), key=lambda i: float(u.angles[i]))
    values = u.complex_values()
    gap = min((abs(values[order[i]] - values[order[i - 1]]) for i in range(len(order))),
              default=float("inf")) if u.d > 1 else float("inf")
    return "route_gt" if gap < gap_limit else "route_alternant"


def _work(key: str, args, kwargs, out) -> dict[str, int]:
    """Work counts of one call, from its arguments and result."""
    if key == "gtkernel.group_counts":
        return {"patterns": sum(out.values()), "keys": len(out)}
    if key == "symfunc.weyl_dim":
        d = len(args[0].entries) if args else len(kwargs["sig"].entries)
        return {"pairs": d * (d - 1) // 2}
    if key == "symfunc.skew_expand":
        return {"terms": len(out)}
    if key == "ucharacters.restrict_to_blocks":
        return {"components": len(out.components)}
    if key == "ucharacters.tensor_decompose":
        return {"components": len(out)}
    if key == "moments.hciz_monte_carlo":
        return {"samples": int(_arg(args, kwargs, 3, "samples"))}
    if key == "poisson.kstep_semigroup_check":
        params = _arg(args, kwargs, 0, "params")
        k = int(_arg(args, kwargs, 1, "k"))
        truncation = int(_arg(args, kwargs, 2, "truncation", 40))
        return {"grid_pairs": k * (truncation + 1) ** (2 * params.m)}
    return {}


class Tracer:
    """Records spans of the wrapped functions while `active` is true."""

    def __init__(self):
        self.active = False
        # key index, parent span, start, end, tracer time spent inside the span
        self.spans: list[tuple[int, int, float, float, float]] = []
        self.keys: list[str] = []
        self.work: dict[str, dict[str, int]] = {}
        self.errors: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._excluded: list[float] = []  # per open span: tracer time spent inside it

    def install(self) -> None:
        for module_name, func_name in TRACED:
            key = f"{module_name}.{func_name}"
            try:
                module = importlib.import_module(f"weylchar.{module_name}")
                original = getattr(module, func_name)
            except (ImportError, AttributeError):
                self.absent.append(key)
                continue
            wrapper = self._wrap(key, original)
            for name, mod in list(sys.modules.items()):
                if name == "weylchar" or name.startswith("weylchar."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def _wrap(self, key: str, fn):
        index = len(self.keys)
        self.keys.append(key)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            if key == "ucharacters.char_eval":
                route = _char_route(args, kwargs)
                tracer._count(key, {route: 1})
            parent = tracer._stack[-1] if tracer._stack else -1
            slot = len(tracer.spans)
            tracer.spans.append((index, parent, 0.0, 0.0, 0.0))
            tracer._stack.append(slot)
            tracer._excluded.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[key] = tracer.errors.get(key, 0) + 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[slot] = (index, parent, start, end, tracer._excluded.pop())
            tracer._count(key, _work(key, args, kwargs, out))
            if tracer._excluded:
                # The tracer's own time around this call is not the parent's work.
                tracer._excluded[-1] += (start - t0) + (time.perf_counter() - end)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def _count(self, key: str, counts: dict[str, int]) -> None:
        bucket = self.work.setdefault(key, {})
        for name, value in counts.items():
            bucket[name] = bucket.get(name, 0) + value

    def stats(self) -> dict[str, dict[str, float]]:
        """Per function: calls, self_s, errors and work counts over all spans."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (index, _, start, end, overhead) in enumerate(self.spans):
            entry = out.setdefault(self.keys[index], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - child[i] - overhead
        for key, counts in self.work.items():
            out.setdefault(key, {"calls": 0, "self_s": 0.0}).update(counts)
        for key, n in self.errors.items():
            out.setdefault(key, {"calls": 0, "self_s": 0.0})["errors"] = n
        return out
