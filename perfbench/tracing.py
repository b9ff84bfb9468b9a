"""Per-layer spans recorded from outside the package.

A Tracer replaces, inside each package module, the names that module
imported from another layer with timing wrappers, and puts the originals
back on uninstall.  Layers are the package modules, except that `kernels`
is reached only through `search.iterate` as its callers see it, so
removing `kernels.py` cannot break the benchmark.  Three calls inside `analysis`
(spectrum, majorization, closed forms) get spans of their own so their
share of the analysis layer shows.

A span's self time is its duration minus the durations of the spans it
directly caused; `<layer>.self_s` sums the self time of that layer's
spans, so nested spans of one layer all count towards it.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("cli", "noise", "search", "channels", "kernels", "analysis", "reporting")
CALLER_MODULES = ("cli", "noise", "search", "channels", "analysis", "reporting")

# (caller module, name) -> layer, for calls the cross-module rule does not catch
# or must attribute differently.
EXPLICIT = {
    ("analysis", "eigvals_hermitian"): "analysis",
    ("analysis", "majorization_check"): "analysis",
    ("analysis", "closed_form_fidelities"): "analysis",
    ("search", "KrausChannel"): "channels",
    ("noise", "KrausChannel"): "channels",
}

# Names whose spans are also timed inclusively under a metric of their own.
TIMERS = {
    "eigvals_hermitian": "analysis.spectrum_s",
    "majorization_check": "analysis.majorization_s",
    "closed_form_fidelities": "analysis.closed_form_s",
    "build_search_channel": "search.build_s",
    "iterate": "kernels.iterate_s",
    "KrausChannel": "channels.kraus_check_s",
    "report_rows": "reporting.rows_s",
    "rows_to_csv": "reporting.emit_s",
    "rows_to_json": "reporting.emit_s",
}


def _count_iterate(states) -> dict:
    steps, n = states.shape[0] - 1, states.shape[1]
    # two Kraus operators, two complex n x n matmuls each, 8 flops per multiply-add
    return {"kernels.steps": steps, "kernels.flops": 32 * n**3 * steps}


def _count_build(channel) -> dict:
    # the two n x n complex128 Kraus operators the assembled channel holds
    return {"search.build_calls": 1, "search.build_bytes": 32 * channel.kraus.dim**2}


COUNTERS = {
    "iterate": _count_iterate,
    "build_search_channel": _count_build,
    "trajectory_report": lambda report: {"analysis.steps": len(report.points)},
    "eigvals_hermitian": lambda _: {"analysis.spectrum_calls": 1},
    "KrausChannel": lambda _: {"channels.kraus_calls": 1},
    "report_rows": lambda rows: {"reporting.rows": len(rows)},
    # the emitted text is ASCII (json.dumps escapes), so characters are bytes
    "rows_to_csv": lambda text: {"reporting.bytes": len(text)},
    "rows_to_json": lambda text: {"reporting.bytes": len(text)},
}

METRICS = {
    "kernels.iterate_s": "s",
    "kernels.steps": "count",
    "kernels.flops": "flop",
    "analysis.spectrum_s": "s",
    "analysis.spectrum_calls": "count",
    "search.build_s": "s",
    "search.build_calls": "count",
    "search.build_bytes": "B",
    "channels.kraus_check_s": "s",
    "channels.kraus_calls": "count",
    "analysis.self_s": "s",
    "analysis.steps": "count",
    "analysis.majorization_s": "s",
    "analysis.closed_form_s": "s",
    "reporting.rows_s": "s",
    "reporting.emit_s": "s",
    "reporting.rows": "count",
    "reporting.bytes": "B",
    "cli.self_s": "s",
    "noise.self_s": "s",
    "noise.calls": "count",
    **{f"{layer}.errors": "count" for layer in LAYERS},
}


def _layer_of(caller: str, name: str, obj) -> str | None:
    """The layer a name imported into `caller` belongs to, or None to leave it."""
    if (caller, name) in EXPLICIT:
        return EXPLICIT[(caller, name)]
    if name.startswith("_") or not inspect.isfunction(obj):
        return None
    source = obj.__module__.rpartition(".")[2]
    if source == caller or source not in CALLER_MODULES:
        return None
    return "kernels" if (source, name) == ("search", "iterate") else source


class Tracer:
    """Spans and counts for every wrapped call while installed."""

    def __init__(self):
        self.values = defaultdict(float)
        self._stack = []
        self._patched = []

    def install(self) -> None:
        for caller in CALLER_MODULES:
            module = importlib.import_module(f"noisy_grover.{caller}")
            for name, obj in list(vars(module).items()):
                layer = _layer_of(caller, name, obj)
                if layer is not None:
                    self._patched.append((module, name, obj))
                    setattr(module, name, self.wrap(obj, layer, name))

    def uninstall(self) -> None:
        while self._patched:
            module, name, obj = self._patched.pop()
            setattr(module, name, obj)

    def wrap(self, fn, layer: str, name: str):
        values, stack, clock = self.values, self._stack, time.perf_counter
        timer, counter = TIMERS.get(name), COUNTERS.get(name)
        self_key, error_key, calls_key = f"{layer}.self_s", f"{layer}.errors", f"{layer}.calls"

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                values[error_key] += 1
                raise
            finally:
                duration = clock() - start
                stack.pop()
                values[self_key] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if timer:
                    values[timer] += duration
            values[calls_key] += 1
            if counter:
                for key, amount in counter(result).items():
                    values[key] += amount
            return result

        return wrapper

    def take(self) -> dict:
        """The values recorded since the last take, which starts afresh."""
        values = dict(self.values)
        self.values.clear()
        return values


def metrics(values: dict) -> dict:
    """Every per-layer metric, zero where no call recorded it."""
    return {key: {"value": values.get(key, 0.0), "unit": unit} for key, unit in METRICS.items()}
