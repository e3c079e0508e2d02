"""Per-layer tracing by wrapping catlab's public functions from outside.

``Tracer.installed()`` replaces every public function and method of the
layer modules with a timing wrapper, in every catlab module that holds a
reference to it, and puts the originals back on exit; catlab's source is
not touched.  Each wrapper records a span (name, duration, the part of it
covered by child spans); a span's self time is its duration minus that
covered part, so over one op the self times add up to the op's wall time.
Counters are computed at the same boundaries from arguments and results.
"""

from __future__ import annotations

import ast
import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List

from workloads import is_smooth7

LAYERS = ("classical", "hilbert", "coherent", "quantize", "quasimodes", "io", "cli")

# spans whose name differs from "<layer>.<function>" or "<layer>.<Class>.<method>"
RENAMED = {
    "quantize.Symbol.sample": "quantize.symbol_sample",
    "quantize.Symbol.evaluate": "quantize.symbol_sample",
}

# formatting helpers whose time belongs to the caller that writes the file
# (io.save_* or the CLI's report), so they get no span of their own
INLINE = {"io.canonical_json", "io.orbit_doc"}

# public functions that materialize a dense N x N operator
DENSE = {
    "hilbert.translation_entries",
    "hilbert.propagator_dense",
    "hilbert.LinearMap.to_dense",
    "quantize.weyl_dense",
    "quantize.antiwick_quantize_dense",
}


class Tracer:
    """Spans and counters for the ops run while it is installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[List[float]] = []  # [child time] per open span
        self._patches: List[tuple] = []
        self._fft_lengths: Dict[str, int] = {}
        self.applies = 0
        self.nonsmooth_applies = 0

    # -- spans -------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0]
            tracer._stack.append(frame)
            t0 = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(name, t0, frame)
                tracer._after(name, args, None, exc)
                raise
            tracer._close(name, t0, frame)
            tracer._after(name, args, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, name: str, t0: float, frame: List[float]) -> None:
        duration = self.clock() - t0
        self._stack.pop()
        self.self_s[name] += duration - frame[0]
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][0] += duration

    def _apply_name(self, linear_map) -> str:
        label = linear_map.label
        if label.startswith("U("):
            return "hilbert.propagator_apply"
        if label.startswith("T("):
            return "hilbert.translation_apply"
        return "hilbert.linear_apply"

    def _wrap_apply(self, fn: Callable) -> Callable:
        """LinearMap.apply/apply_adjoint, named by the operator they apply."""
        tracer = self

        def traced(linear_map, vec):
            name = tracer._apply_name(linear_map)
            if name == "hilbert.propagator_apply":
                tracer._count_fft(linear_map)
            frame = [0.0]
            tracer._stack.append(frame)
            t0 = tracer.clock()
            try:
                return fn(linear_map, vec)
            finally:
                tracer._close(name, t0, frame)

        traced.__wrapped__ = fn
        return traced

    def _count_fft(self, linear_map) -> None:
        L = self._fft_lengths.get(linear_map.label)
        if L is None:
            entries = ast.literal_eval(linear_map.label[1:])
            L = linear_map.n * abs(entries[1])
            self._fft_lengths[linear_map.label] = L
        self.counts["hilbert.fft_points"] += L
        self.applies += 1
        self.nonsmooth_applies += not is_smooth7(L)

    # -- counters computed from arguments and results ------------------------

    def _after(self, name: str, args: tuple, result, exc) -> None:
        c = self.counts
        if name == "quantize.symbol_sample" and len(args) == 2 and isinstance(args[1], int):
            c["quantize.symbol_sample.cells"] += args[1] ** 2
        elif name == "coherent.husimi" and result is not None:
            c["coherent.husimi.cells"] += result.G ** 2
        elif name == "hilbert.choose_theta" and exc is not None:
            if type(exc).__name__ == "NoInvariantTheta":
                c["hilbert.choose_theta.failures"] += 1
        elif name == "classical.enumerate_prime_orbits" and exc is None:
            l = self._fixed_point_count(args[0], args[1])
            c["classical.lattice_points"] += l * l
        elif name.startswith("io.save_") and exc is None:
            path = Path(args[0])
            written = [path]
            if name == "io.save_husimi_csv":
                written.append(path.with_suffix(path.suffix + ".json"))
            c["io.bytes_written"] += sum(p.stat().st_size for p in written if p.exists())
        if name in DENSE and result is not None:
            c["quantize.dense_bytes"] += result.nbytes

    # -- installation --------------------------------------------------------

    def _targets(self):
        """(layer, owner, attribute, qualified name) for every public callable."""
        for layer in LAYERS:
            module = importlib.import_module(f"catlab.{layer}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if callable(value) and getattr(value, "__module__", None) == module.__name__:
                    if isinstance(value, type):
                        for mattr, mval in list(vars(value).items()):
                            if mattr.startswith("_"):
                                continue
                            if isinstance(mval, staticmethod) or callable(mval):
                                yield layer, value, mattr, f"{layer}.{attr}.{mattr}"
                    elif f"{layer}.{attr}" not in INLINE:
                        yield layer, module, attr, f"{layer}.{attr}"

    def install(self) -> None:
        from catlab.classical import fixed_point_count

        self._fixed_point_count = fixed_point_count
        replaced = {}
        for layer, owner, attr, qual in self._targets():
            original = vars(owner)[attr]
            if qual in ("hilbert.LinearMap.apply", "hilbert.LinearMap.apply_adjoint"):
                new = self._wrap_apply(original)
            elif isinstance(original, staticmethod):
                new = staticmethod(self._wrap(RENAMED.get(qual, qual), original.__func__))
            else:
                new = self._wrap(RENAMED.get(qual, qual), original)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, new)
            if not isinstance(owner, type):
                replaced[id(original)] = new
        # modules that imported a function by name hold their own reference
        for name, module in list(sys.modules.items()):
            if name == "catlab" or name.startswith("catlab."):
                for attr, value in list(vars(module).items()):
                    if id(value) in replaced and vars(module)[attr] is not replaced[id(value)]:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, replaced[id(value)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def installed(self):
        tracer = self

        class _Ctx:
            def __enter__(self):
                tracer.install()
                return tracer

            def __exit__(self, *exc):
                tracer.uninstall()
                return False

        return _Ctx()

    # -- metrics -------------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)

    def total_self(self) -> float:
        return sum(self.self_s.values())


def per_layer_metrics(
    names: List[str], tracer: Tracer, ops: int, traced_s: float, untraced_s: float
) -> Dict[str, float]:
    """The named per-layer metrics from one tracer that saw ``ops`` ops.

    Every value is per traced op unless the name says share, ratio or
    coverage: ``<layer>.self_s`` sums a layer's spans, ``<span>.self_s``
    and ``<span>.calls``/``.calls_per_op`` read one span, and any other
    name is a counter.  ``traced_s`` and ``untraced_s`` are the summed wall
    times of the same ops run with and without the tracer installed.
    """
    out: Dict[str, float] = {}
    for name in names:
        head, _, stat = name.rpartition(".")
        if name == "hilbert.fft_nonsmooth_share":
            value = tracer.nonsmooth_applies / tracer.applies if tracer.applies else 0.0
        elif name == "trace.self_coverage":
            value = tracer.total_self() / traced_s if traced_s else 0.0
        elif name == "trace.overhead_ratio":
            value = traced_s / untraced_s - 1.0 if untraced_s else 0.0
        elif head in LAYERS and stat == "self_s":
            value = tracer.layer_self(head) / ops
        elif stat == "self_s":
            value = tracer.self_s.get(head, 0.0) / ops
        elif stat in ("calls", "calls_per_op"):
            value = tracer.calls.get(head, 0) / ops
        else:
            value = tracer.counts.get(name, 0.0) / ops
        out[name] = value
    return out
