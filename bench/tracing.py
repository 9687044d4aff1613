"""Per-layer tracing from outside the package.

`Tracer.install()` replaces each traced public function with a wrapper,
in every anticonc module that binds it (the defining module, the
modules that import it by name, and the package namespace), and
`uninstall()` puts the originals back.  No file of the package changes.

Each wrapped call is a span (name, start, end, parent).  Self time is
the span's duration minus the time its child spans cover; counts and
self times are accumulated as spans close, and the first SPAN_CAP
spans are kept for the trace file.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

LAYERS: dict[str, tuple[str, ...]] = {
    "specfun": ("gauss_2f1", "log_gamma", "reg_inc_gamma_lower", "reg_inc_beta",
                "std_normal_cdf"),
    "distributions": ("tail_probability", "moments", "cdf", "sample"),
    "anticoncentration": ("a_student_t", "cutoff_dof", "student_t_cdf", "witness_parameter"),
    "oracle": ("mc_tail", "quad_student_cdf", "grid_infimum"),
}

# (ancestor, descendant) call pairs counted for the per-layer ratios
_NESTED = (("a_student_t", "student_t_cdf"),
           ("witness_parameter", "tail_probability"),
           ("grid_infimum", "tail_probability"))

PACKAGE = "anticonc"
SPAN_CAP = 20000   # spans kept for the trace file; counts and self times cover all


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.nested: Counter = Counter()
        self.draws = 0
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._stack: list[list] = []   # [name, start, child seconds, span id]
        self._active: Counter = Counter()
        self._next_id = 0
        self._patched: list[tuple] = []

    # -- spans --

    def _enter(self, name: str) -> None:
        for outer, inner in _NESTED:
            if inner == name and self._active[outer]:
                self.nested[outer, inner] += 1
        self._active[name] += 1
        self._next_id += 1
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start, child, span_id = self._stack.pop()
        self._active[name] -= 1
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, name, start, end, parent[3] if parent else None))
        else:
            self.spans_dropped += 1

    def _wrap(self, name: str, fn):
        tracer = self
        if name == "sample":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                size = kwargs.get("size", args[2] if len(args) > 2 else None)
                tracer.draws += 1 if size is None else int(size)
                tracer._enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit()
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()
        return wrapper

    # -- patching --

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for layer, names in LAYERS.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results --

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: exact counts over all traced passes, self time per pass."""
        out: dict[str, tuple[float, str]] = {}
        for layer, names in LAYERS.items():
            for name in names:
                out[f"{layer}.{name}.calls"] = (self.calls[name], "count")
                out[f"{layer}.{name}.self_ms"] = (1e3 * self.self_s[name] / passes, "ms")
        out["distributions.sample.draws"] = (self.draws, "count")
        out["anticoncentration.cdf_calls_per_t_point"] = (
            _ratio(self.nested["a_student_t", "student_t_cdf"], self.calls["a_student_t"]),
            "ratio")
        out["anticoncentration.tails_per_witness"] = (
            _ratio(self.nested["witness_parameter", "tail_probability"],
                   self.calls["witness_parameter"]), "ratio")
        out["oracle.grid_points"] = (self.nested["grid_infimum", "tail_probability"], "count")
        return out

    def trace_json(self) -> dict:
        return {"spans": [{"id": i, "name": n, "start": s, "end": e, "parent": p}
                          for i, n, s, e, p in self.spans],
                "spans_dropped": self.spans_dropped}


def _ratio(num: int, den: int) -> float:
    """num / den, or 0 when the denominator function was never called."""
    return num / den if den else 0.0
