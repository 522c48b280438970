"""Outside-in span recording for the qnls benchmark.

The recorder wraps, at run time, every public function and every public
method of a public class defined in the layer modules of ``qnls`` and
rebinds each wrapper wherever the original is referenced across the
package (``from .grid import radial_helmholtz_solve`` in ``ground_state``,
``from .threshold import classify_data`` in ``cli``, ...), so calls made
between modules are caught.  Nothing under ``src/`` is edited: the
wrappers are installed for the traced pass and removed afterwards.

Each span records its name, start, end, parent span and operation id.
Start and end are process CPU time (``time.process_time``), the clock of
the end-to-end metrics, so per-layer times do not carry the wall-clock
noise of a shared machine; reading that clock costs more than
``perf_counter``, which ``trace.overhead_frac`` includes.  Spans are
kept in memory, one tuple each, and written once, when the run ends.  A
span's self time is its duration minus the time covered by its direct
child spans.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import time
from contextlib import contextmanager

import numpy as np

#: the layers are the modules of src/qnls/
LAYERS = ("grid", "fields", "evolution", "ground_state", "morawetz", "threshold", "cli")

#: operation id of spans recorded while the workload sets up
SETUP_OP = -1

#: spans whose calls are counted as FFTs; their input size gives computed bytes
FFT_SPANS = ("grid.UniformGrid.fft", "grid.UniformGrid.ifft")


def _layer_callables(module):
    """(owner, attribute, function, span name) for each public callable."""
    layer = module.__name__.rsplit(".", 1)[-1]
    out = []
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((module, attr, obj, f"{layer}.{attr}"))
        elif inspect.isclass(obj):
            for mname, meth in sorted(vars(obj).items()):
                if not mname.startswith("_") and inspect.isfunction(meth):
                    out.append((obj, mname, meth, f"{layer}.{attr}.{mname}"))
    return out


class Tracer:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one (index, name id, parent index, op id, start, end) per span,
        # appended when the span closes; the index is the order it opened
        self.spans: list[tuple] = []
        self._counter = itertools.count()
        self.op_id = SETUP_OP
        self.fft_elements = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, span_name: str):
        nid = self._nid(span_name)
        append, counter, stack = self.spans.append, self._counter, self._stack
        clock = time.process_time
        tracer = self
        count_elements = span_name in FFT_SPANS

        def wrapper(*args, **kwargs):
            idx = next(counter)
            parent = stack[-1]
            stack.append(idx)
            if count_elements:
                tracer.fft_elements += np.size(args[1])
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                append((idx, nid, parent, tracer.op_id, start, end))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span_name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        """Wrap every layer's public callables and rebind all references."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("qnls")
        modules = [package] + [importlib.import_module(f"qnls.{m}") for m in LAYERS]
        wrapped: dict[int, object] = {}
        for module in modules[1:]:
            for owner, attr, fn, span_name in _layer_callables(module):
                wrapper = self._wrap(fn, span_name)
                wrapped[id(fn)] = wrapper
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
        # names imported into other modules still point at the originals
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def span(self, span_name: str):
        """A span opened by the benchmark itself (names start with ``bench.``)."""
        nid = self._nid(span_name)
        idx = next(self._counter)
        parent = self._stack[-1]
        self._stack.append(idx)
        start = time.process_time()
        try:
            yield
        finally:
            end = time.process_time()
            self._stack.pop()
            self.spans.append((idx, nid, parent, self.op_id, start, end))

    def __len__(self) -> int:
        return len(self.spans)

    def table(self) -> dict[str, np.ndarray]:
        """Span columns in opening order, plus each span's duration and self time."""
        rows = np.array(sorted(self.spans), dtype=float).reshape(-1, 6)
        parent = rows[:, 2].astype(np.int64)
        start, end = rows[:, 4], rows[:, 5]
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        return {
            "start": start,
            "end": end,
            "parent": parent,
            "name": rows[:, 1].astype(np.int64),
            "op": rows[:, 3].astype(np.int64),
            "dur": dur,
            "self": dur - covered,
        }

    def summary(self, ops: str) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive s, self s) over setup or operation spans."""
        tab = self.table()
        keep = tab["op"] == SETUP_OP if ops == "setup" else tab["op"] != SETUP_OP
        n = len(self.names)
        ids = tab["name"][keep]
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=tab["dur"][keep], minlength=n)
        own = np.bincount(ids, weights=tab["self"][keep], minlength=n)
        return {
            name: (int(calls[i]), float(total[i]), float(own[i]))
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def save(self, path: str) -> None:
        tab = self.table()
        np.savez(
            path,
            names=np.array(self.names),
            **{k: tab[k] for k in ("start", "end", "parent", "name", "op")},
        )
