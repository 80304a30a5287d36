"""Outside-in span tracer for the traced benchmark run.

``ENTRY_POINTS`` lists the program attributes the tracer wraps, each with
the span name it records.  ``Tracer.install`` replaces every listed
attribute with a recording wrapper and ``Tracer.uninstall`` puts the
originals back, so no program file carries tracing code.  An attribute
that a later version of the program no longer has is reported as absent
and simply records no spans.

Spans live in one flat int64 buffer until the run ends: span id, parent
span id (-1 for a root), root call id, stream id, name index, start and
end in perf_counter nanoseconds.  Roots are opened by the benchmark around
each ``encode_stream``/``decode_stream`` call.

A wrapper spends some time outside its own [start, end] window: the call
through the wrapper, the stack push and pop, recording the span.  That
time falls in the parent's interval but in no child, so it would read as
the parent's self time.  ``Tracer.calibrate`` measures it on a wrapped
no-op, and ``Tracer.table`` gives, beside the raw self time, ``self_net``:
self time less that cost for each direct child.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

# A traced phase stops after its first round once this many spans are kept.
MAX_SPANS = 500_000
# Calls of the wrapped no-op per calibration pass.
CALIBRATION_CALLS = 5_000

# (module, attribute path, span name).  The codec looks each of these up
# through its module at call time, so replacing the module attribute is
# enough to see every call.
ENTRY_POINTS = (
    ("frgc.codec", "_round_predictions", "qmap.round"),
    ("frgc.codec", "_map_vector", "qmap.map"),
    ("frgc.codec", "_unmap_vector", "qmap.unmap"),
    ("frgc.qmap", "round_prediction", "qmap.round_scalar"),
    ("frgc._backend", "golomb_encode", "backend.golomb_encode"),
    ("frgc._backend", "golomb_decode", "backend.golomb_decode"),
    ("frgc._backend", "adaptive_encode", "backend.adaptive_encode"),
    ("frgc._backend", "adaptive_decode", "backend.adaptive_decode"),
    ("frgc.codec", "decode_symbol", "bitcoder.decode_symbol"),
    ("frgc.codec", "_lpc_predictions", "predictor.lpc_predictions"),
    ("frgc.predictor", "fit", "predictor.fit"),
    ("frgc.predictor", "predict_at", "predictor.predict"),
)

ROOT_NAMES = ("codec.encode", "codec.decode")

FIELDS = ("id", "parent", "call", "stream", "name", "start", "end")
_NFIELDS = len(FIELDS)


def _payload_counts(result) -> dict:
    """Payload bits and bytes from a backend encode's (payload, nbits, ...)."""
    if (isinstance(result, tuple) and len(result) >= 2
            and isinstance(result[0], (bytes, bytearray))
            and isinstance(result[1], int)):
        return {"payload_bits": result[1], "payload_bytes": len(result[0])}
    return {}


# Counters taken from a wrapped call's return value, by span name.
PROBES = {
    "backend.golomb_encode": _payload_counts,
    "backend.adaptive_encode": _payload_counts,
}


def _resolve(module: str, path: str):
    """(owner object, attribute name) or None when the entry is absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Records nested spans of the listed entry points, in one thread."""

    def __init__(self, entry_points=ENTRY_POINTS):
        self.entry_points = tuple(entry_points)
        self.names = list(ROOT_NAMES) + [name for _, _, name in self.entry_points]
        self._index = {name: i for i, name in enumerate(self.names)}
        # Tracer time per direct child booked into a parent's self time:
        # the median over the calibration passes made so far.
        self.overhead_ns = 0.0
        self._passes: list[float] = []
        self.absent: list[str] = []
        self.counts: dict[tuple[int, str], int] = {}
        self._saved: list[tuple[object, str, object]] = []
        self._buf = array("q")
        self._next = 0
        self._stack = [-1]
        self._call = -1
        self._stream = -1

    @property
    def n_spans(self) -> int:
        return len(self._buf) // _NFIELDS

    @property
    def full(self) -> bool:
        return self.n_spans >= MAX_SPANS

    def calibrate(self) -> float:
        """One pass measuring a wrapper's cost outside its own window.

        Times a loop of calls to a wrapped three-argument no-op and takes
        away the time inside the recorded spans and the bare loop.  The
        host changes speed in phases, so the runner makes passes all
        through a traced phase; ``overhead_ns`` is their median.
        """
        def noop(a, b, c):
            return a

        probe = Tracer(())
        wrapped = probe._wrap(noop, ROOT_NAMES[0])
        t0 = perf_counter_ns()
        for _ in range(CALIBRATION_CALLS):
            wrapped(1, 2, 3)
        t1 = perf_counter_ns()
        for _ in range(CALIBRATION_CALLS):
            pass
        t2 = perf_counter_ns()
        inside = int(probe.table()["dur"].sum())
        self._passes.append((t1 - t0 - inside - (t2 - t1)) / CALIBRATION_CALLS)
        self.overhead_ns = max(0.0, float(np.median(self._passes)))
        return self.overhead_ns

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for module, path, name in self.entry_points:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr = found
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _record(self, sid, parent, name_idx, t0, t1) -> None:
        self._buf.extend((sid, parent, self._call, self._stream, name_idx, t0, t1))

    def _wrap(self, fn, name: str):
        name_idx = self._index[name]
        probe = PROBES.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                self._record(sid, parent, name_idx, t0, t1)
            if probe is not None:
                for key, value in probe(result).items():
                    k = (self._stream, key)
                    self.counts[k] = self.counts.get(k, 0) + value
            return result

        return wrapper

    @contextmanager
    def root(self, name: str, stream: int):
        """Span around one public call; its descendants share its call id."""
        sid = self._next
        self._next = sid + 1
        self._call = sid
        self._stream = stream
        self._stack.append(sid)
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self._record(sid, -1, self._index[name], t0, t1)
            self._call = -1
            self._stream = -1

    def table(self) -> dict[str, np.ndarray]:
        """Spans as columns, ordered by span id, with duration and self time.

        ``self`` is the duration less the direct children's; ``self_net``
        also takes away ``overhead_ns`` per direct child.
        """
        rows = np.frombuffer(self._buf, dtype=np.int64).reshape(-1, _NFIELDS)
        rows = rows[np.argsort(rows[:, 0], kind="stable")]
        cols = {f: rows[:, i].copy() for i, f in enumerate(FIELDS)}
        dur = cols["end"] - cols["start"]
        cols["dur"] = dur
        cols["self"] = dur - child_time(cols["id"], cols["parent"], dur)
        children = child_time(cols["id"], cols["parent"], np.ones_like(dur))
        cols["self_net"] = cols["self"] - children * self.overhead_ns
        return cols

    def save(self, path) -> None:
        """Write the raw span fields and the name table as an .npz file."""
        cols = self.table()
        np.savez(path, names=np.array(self.names), **{f: cols[f] for f in FIELDS})


def child_time(ids: np.ndarray, parents: np.ndarray,
               dur: np.ndarray) -> np.ndarray:
    """For each span, the summed duration of its direct children.

    Calls are sequential in one thread, so children never overlap and
    their sum is the part of the parent's interval they cover.
    """
    out = np.zeros(ids.size, dtype=np.int64)
    if ids.size == 0:
        return out
    pos = np.searchsorted(ids, parents)
    has_parent = parents >= 0
    np.add.at(out, pos[has_parent], dur[has_parent])
    return out
