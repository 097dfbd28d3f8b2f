"""Outside-in per-layer timing of the eaftlab package.

The tracer times calls into the package's public functions by replacing
module attributes (``toylm.forward_batch``, ``probstats.gate_rows``, ...)
with timing wrappers while it is installed. Every call inside the package
looks these functions up on their module at call time, so calls made by the
package itself are timed too, and no source file is edited.

For each wrapped function the tracer keeps a call count, total and self time
in nanoseconds, raised exceptions, and an optional work count (steps, rows,
records). Self time is a span's duration minus the time covered by the
wrapped calls nested inside it. Only the aggregates are kept; nothing is
written while a run is being measured.

A function listed in ``LAYERS`` that a module no longer has is recorded as
absent and reports zeros; it is never a crash.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Work counts: (args, kwargs, result) -> number of units in one call.
def _train_steps(args, kwargs, result):
    return _arg(args, kwargs, 0, "run").steps


def _batch_rows(args, kwargs, result):
    return len(_arg(args, kwargs, 1, "contexts"))


def _records_in(args, kwargs, result):
    return len(_arg(args, kwargs, 0, "records"))


def _records_out(args, kwargs, result):
    return len(result)


def _optimizer_kind(args, kwargs):
    return _arg(args, kwargs, 2, "state").kind


# module -> function -> (timed quantity, work count, key suffix)
# A quantity is "<scale>_per_call", "<scale>_per_<unit>" (per unit of the work
# count), either of those prefixed with "self_", or "self_s" (self seconds per
# call). "calls" and the module's "errors" are reported for every function.
LAYERS = {
    "toylm": {
        "train": ("self_us_per_step", _train_steps, None),
        "forward_batch": ("us_per_call", _batch_rows, None),
        "backprop_logits": ("us_per_call", None, None),
        "apply_update": ("us_per_call", None, _optimizer_kind),
        "evaluate": ("ms_per_call", None, None),
    },
    "probstats": {
        "softmax_rows": ("us_per_call", None, None),
        "log_softmax_rows": ("us_per_call", None, None),
        "entropy_rows": ("us_per_call", None, None),
        "topk_entropy_rows": ("us_per_call", None, None),
        "gate_rows": ("self_us_per_call", None, None),
        "percentile_threshold": ("us_per_call", None, None),
    },
    "objectives": {
        "eval_gate_rows": ("us_per_call", None, None),
    },
    "forgebench": {
        "generate_domains": ("s_per_call", None, None),
        "run_cell": ("self_ms_per_call", None, None),
        "classify_conflicts": ("ms_per_call", None, None),
        "score_gates": ("ms_per_call", None, None),
    },
    "landscape": {
        "export_records": ("us_per_record", _records_in, None),
        "ingest_records": ("us_per_record", _records_out, None),
        "score_corpus": ("us_per_record", _records_out, None),
        "export_rows": ("ms_per_call", None, None),
        "histogram2d": ("ms_per_call", None, None),
        "quadrant_stats": ("ms_per_call", None, None),
        "quadrant_token_ranking": ("ms_per_call", None, None),
        "dynamics_track": ("ms_per_call", None, None),
        "synthetic_fidelity_corpus": ("s_per_call", None, None),
        "fidelity_from_probs": ("s_per_call", None, None),
    },
    "cli": {
        "cmd_train": ("self_s", None, None),
        "cmd_analyze": ("self_s", None, None),
        "cmd_dynamics": ("self_s", None, None),
        "cmd_topk_study": ("self_s", None, None),
    },
}

# Functions whose calls are split by a key suffix report one set of metrics
# per suffix value; these are the values the workloads produce.
KEY_SUFFIXES = {("toylm", "apply_update"): ("adam-lite", "sgd-momentum")}

# Work counts that are reported per iteration as metrics of their own.
COUNT_METRICS = {
    "toylm.forward_batch.rows": (("toylm", "forward_batch"),),
    "landscape.records": (("landscape", "export_records"), ("landscape", "ingest_records")),
}

_SCALES = {"s": 1e9, "ms": 1e6, "us": 1e3}


@dataclass
class CallStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    errors: int = 0
    units: int = 0


class Tracer:
    """Aggregated spans for the functions in ``LAYERS``.

    ``modules`` maps a layer name to the imported module object. Use
    ``installed()`` around the calls to be traced; the original attributes
    are restored when it exits.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.stats: dict[tuple[str, str], CallStats] = {}
        self.absent: list[str] = []
        self._open: list[int] = []  # child time of each open span, innermost last
        for module, functions in LAYERS.items():
            for function in functions:
                if not callable(getattr(modules.get(module), function, None)):
                    self.absent.append(f"{module}.{function}")

    def _wrap(self, module: str, function: str, fn, unit_of, suffix_of):
        open_spans = self._open
        stats = self.stats

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            key = (module, function if suffix_of is None else f"{function}.{suffix_of(args, kwargs)}")
            entry = stats.get(key)
            if entry is None:
                entry = stats[key] = CallStats()
            open_spans.append(0)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                entry.errors += 1
                raise
            finally:
                elapsed = time.perf_counter_ns() - start
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                entry.calls += 1
                entry.total_ns += elapsed
                entry.self_ns += elapsed - child
            if unit_of is not None:
                entry.units += unit_of(args, kwargs, result)
            return result

        return timed

    @contextlib.contextmanager
    def installed(self):
        """Replace every present function in ``LAYERS`` while the block runs."""
        saved = []
        try:
            for module, functions in LAYERS.items():
                mod = self.modules.get(module)
                for function, (_, unit_of, suffix_of) in functions.items():
                    if f"{module}.{function}" in self.absent:
                        continue
                    fn = getattr(mod, function)
                    saved.append((mod, function, fn))
                    setattr(mod, function, self._wrap(module, function, fn, unit_of, suffix_of))
            yield self
        finally:
            for mod, function, fn in reversed(saved):
                setattr(mod, function, fn)

    def metrics(self, iterations: int) -> dict:
        """Per-layer metrics; counts are per traced iteration."""
        out = {}
        per_iter = 1.0 / iterations
        for module, functions in LAYERS.items():
            errors = 0
            for function, (quantity, _, _) in functions.items():
                suffixes = KEY_SUFFIXES.get((module, function), (None,))
                for suffix in suffixes:
                    key = function if suffix is None else f"{function}.{suffix}"
                    s = self.stats.get((module, key), CallStats())
                    errors += s.errors
                    out[f"{module}.{key}.{quantity}"] = _quantity(quantity, s)
                    out[f"{module}.{key}.calls"] = (s.calls * per_iter, "count")
            out[f"{module}.errors"] = (float(errors), "count")
        for name, keys in COUNT_METRICS.items():
            units = sum(self.stats.get(k, CallStats()).units for k in keys)
            out[name] = (units * per_iter, "count")
        return out


def _quantity(quantity: str, s: CallStats):
    """Value and unit of one timed quantity; 0 when the function never ran."""
    if quantity == "self_s":
        return (s.self_ns / 1e9 / s.calls if s.calls else 0.0, "s")
    ns = s.total_ns
    if quantity.startswith("self_"):
        ns, quantity = s.self_ns, quantity[len("self_"):]
    scale, per = quantity.split("_per_")
    denom = s.calls if per == "call" else s.units
    return (ns / _SCALES[scale] / denom if denom else 0.0, scale)
