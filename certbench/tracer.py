"""Per-layer self time and counts, recorded from outside dilogid.

``Tracer.install`` replaces the module-level functions at each layer
boundary with timing wrappers, in every ``dilogid`` module that binds them,
and ``Tracer.remove`` puts the originals back. A layer's self time is the
time inside its functions minus the time inside any nested traced function,
so the layers add up without double counting. Counts are kept at the same
boundaries. A function that no longer exists under its name is skipped and
listed in ``missing``; its layer then reads 0.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

# summation loops open one interval-precision context per escalation pass;
# the Richmond-Szekeres tail bound opens a fixed 96-bit context that is not
# a summation pass
_PASS_LOOPS = {"_evaluate_series_report", "_sinh_theta_verify", "_richmond_szekeres_verify"}
_TAIL_BITS = 96


class Tracer:
    def __init__(self):
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.missing = []
        self._stack = [[0]]
        self._saved = []

    # -- wrappers ----------------------------------------------------------

    def _timed(self, layer, fn, count=None):
        self_ns, counts, stack = self.self_ns, self.counts, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[layer] += elapsed - frame[0]
                stack[-1][0] += elapsed
                if count:
                    counts[count] += 1

        return wrapper

    def _timed_generator(self, layer, fn, count):
        tracer = self

        def wrapper(*args, **kwargs):
            return _TimedIterator(tracer, layer, count, fn(*args, **kwargs))

        return wrapper

    def _summed(self, count, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[count] += result
            return result

        return wrapper

    def _pass_counter(self, fn):
        counts = self.counts

        def wrapper(bits, *args, **kwargs):
            if bits != _TAIL_BITS and sys._getframe(1).f_code.co_name in _PASS_LOOPS:
                counts["series.sum_passes"] += 1
            return fn(bits, *args, **kwargs)

        return wrapper

    def _rhs_wrapping(self, fn):
        """Pass-through for the shared summation routine that times its rhs_fn argument."""
        signature = inspect.signature(fn)
        if "rhs_fn" not in signature.parameters:
            self.missing.append("rhs_fn argument of the shared summation routine")
            return fn
        timed = self._timed

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.arguments["rhs_fn"] = timed("series.rhs", bound.arguments["rhs_fn"], "series.rhs_calls")
            return fn(*bound.args, **bound.kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "dilogid" or name.startswith("dilogid.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _hook(self, module_name, attr, make):
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module is not None else None
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        self._replace_everywhere(original, make(original))

    def _hook_classmethod(self, module_name, class_name, attr, layer, count):
        cls = getattr(sys.modules.get(module_name), class_name, None)
        original = vars(cls).get(attr) if cls is not None else None
        if not isinstance(original, classmethod):
            self.missing.append(f"{module_name}.{class_name}.{attr}")
            return
        self._saved.append((cls, attr, original))
        setattr(cls, attr, classmethod(self._timed(layer, original.__func__, count)))

    def install(self):
        series, rogers = "dilogid.series", "dilogid.rogers"
        span = lambda layer, count=None: lambda fn: self._timed(layer, fn, count)  # noqa: E731

        for attr in ("_theorem_terms", "_lucas_pos_terms", "_lucas_neg_terms"):
            self._hook(series, attr, lambda fn: self._timed_generator("series.terms", fn, "series.terms"))

        self._hook(series, "_choose_truncation", span("series.truncation"))
        self._hook(series, "_tail_small_enough", span("series.truncation"))
        self._hook(series, "tail_bound", span("series.truncation", "series.tail_bound_calls"))

        self._hook("dilogid.enclosure", "iv_from_fraction", span("enclosure.convert", "enclosure.convert_calls"))
        self._hook(rogers, "_raw_from_fraction", span("enclosure.convert", "enclosure.convert_calls"))
        for attr in ("from_interval", "from_fraction", "from_fraction_pair"):
            self._hook_classmethod(
                "dilogid.enclosure", "ErrorBoundedValue", attr, "enclosure.convert", "enclosure.convert_calls"
            )

        self._hook(rogers, "_rogers_eval", span("rogers.eval", "rogers.eval_calls"))
        self._hook(rogers, "_li2_series_raw", span("rogers.li2"))
        self._hook(rogers, "_series_terms_needed", lambda fn: self._summed("rogers.li2_terms", fn))
        self._hook(rogers, "_log_product_raw", span("rogers.log"))
        self._hook(rogers, "mpi_log", span("rogers.log", "rogers.log_calls"))

        self._hook("dilogid.enclosure", "interval_precision", self._pass_counter)
        self._hook(series, "_evaluate_series_report", self._rhs_wrapping)
        self._hook(series, "_pos_rhs_arg", span("series.rhs"))
        self._hook(series, "_neg_rhs_arg", span("series.rhs"))

        self._hook("dilogid.exactnum", "quad_to_real", span("exactnum.quad_to_real", "exactnum.quad_to_real_calls"))
        self._hook("dilogid.lucas", "lucas_uv", span("lucas.uv", "lucas.uv_calls"))
        self._hook("dilogid.harness", "emit_report", span("harness.report"))

    def remove(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def exclude(self, seconds: float):
        """Leave time spent outside dilogid, inside the current span, out of its self time."""
        self._stack[-1][0] += int(seconds * 1e9)

    def ms(self, layer) -> float:
        return self.self_ns.get(layer, 0) / 1e6


class _TimedIterator:
    """Iterator whose every step is a span of the given layer."""

    def __init__(self, tracer, layer, count, iterator):
        self._tracer, self._layer, self._count, self._it = tracer, layer, count, iterator

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        stack = tracer._stack
        frame = [0]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            item = next(self._it)
        finally:
            elapsed = time.perf_counter_ns() - start
            stack.pop()
            tracer.self_ns[self._layer] += elapsed - frame[0]
            stack[-1][0] += elapsed
        tracer.counts[self._count] += len(item) if isinstance(item, tuple) else 1
        return item
