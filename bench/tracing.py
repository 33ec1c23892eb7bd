"""Span tracing of mimo3d layers from outside the package.

The decoders, ``make_equivalent`` and ``run_sweep`` look their helpers up as
module globals at call time, so replacing those globals with thin wrappers
records every call without touching the package source.  A :class:`Tracer`
installs the wrappers, keeps spans in memory (name, start, end, parent span,
decode id) and restores every replaced global when it is closed.

Self time of a span is its duration minus the time covered by its child
spans.  Calls run one at a time in this process, so children never overlap
and the covered time is the sum of their durations.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

# (module, global) -> span name.  Several globals map to one layer: the
# Gram-Schmidt QR is reached from the decoders package (sd-baseline), from the
# two-stage decoder and from make_equivalent.
SPAN_TARGETS = (
    ("mimo3d.decoders", "simplified_ml", "decoders.simplified.simplified_ml"),
    ("mimo3d.decoders", "sd_baseline", "decoders.sphere.sd_baseline"),
    ("mimo3d.decoders", "gram_schmidt_qr", "linalg.gram_schmidt_qr"),
    ("mimo3d.decoders.simplified", "gram_schmidt_qr", "linalg.gram_schmidt_qr"),
    ("mimo3d.decoders.simplified", "back_substitute", "linalg.back_substitute"),
    ("mimo3d.decoders.simplified", "column_switch", "decoders.simplified.column_switch"),
    ("mimo3d.decoders.simplified", "tree_search", "decoders.simplified.tree_search"),
    ("mimo3d.decoders.simplified", "compute_v", "decoders.simplified.compute_v"),
    ("mimo3d.decoders.simplified", "parallel_decisions", "decoders.simplified.parallel_decisions"),
    ("mimo3d.channel", "gram_schmidt_qr", "linalg.gram_schmidt_qr"),
    ("mimo3d.sweep", "make_equivalent", "channel.make_equivalent"),
    ("mimo3d.sweep", "encode_direct", "code.encode_direct"),
    ("mimo3d.sweep", "run_sweep", "sweep.run_sweep"),
)

# Globals that are only counted: se_order runs once per sphere-decoder node,
# where a timed span would cost more than the call itself.
COUNT_TARGETS = (
    ("mimo3d.decoders.sphere", "se_order", "modem.se_order"),
    ("mimo3d.decoders.simplified", "se_order", "modem.se_order"),
)

DECODE_PREFIX = "decode."


class Patches:
    """Replace module globals and dict entries; ``restore`` puts them back."""

    def __init__(self):
        self._saved = []

    def set_attr(self, obj, attr, value):
        self._saved.append((setattr, obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def set_item(self, mapping, key, value):
        self._saved.append((mapping.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def restore(self):
        while self._saved:
            setter, obj, key, old = self._saved.pop()
            if setter is setattr:
                setattr(obj, key, old)
            else:
                setter(key, old)


def _post_parallel_decisions(tracer, args, kwargs, result):
    # signature (v, r, radius, d_outer, pam, ...); a leaf is useful when its
    # completed distance beats the radius it was given
    radius = args[2] if len(args) > 2 else kwargs["radius"]
    d_outer = args[3] if len(args) > 3 else kwargs["d_outer"]
    tracer.counts["decoders.simplified.parallel_decisions.improving"] += d_outer + result[2] < radius


def _post_column_switch(tracer, args, kwargs, result):
    tracer.counts["decoders.simplified.column_switch.nonidentity"] += not result[1].is_identity


POST_HOOKS = {
    "decoders.simplified.parallel_decisions": _post_parallel_decisions,
    "decoders.simplified.column_switch": _post_column_switch,
}


class Tracer:
    """In-memory span recorder over wrapped mimo3d globals.

    Use as a context manager; leaving it restores every replaced global.
    Spans are stored column-wise in typed arrays so a traced pass of many
    thousands of decodes stays small.
    """

    def __init__(self):
        self.patches = Patches()
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.decode_ids = array("i")
        self.self_s = array("d")
        self._stack = []       # open span indices
        self._child_s = []     # covered child time per open span
        self._decode_id = -1
        self.counts = Counter()
        self.missing = []

    # -- span bookkeeping ---------------------------------------------------
    def _name(self, name):
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name):
        if name.startswith(DECODE_PREFIX):
            self._decode_id += 1
        idx = len(self.start)
        parent = self._stack[-1] if self._stack else -1
        self.name_id.append(self._name(name))
        self.parent.append(parent)
        # spans belong to the innermost enclosing decode span, if any
        self.decode_ids.append(self._decode_id if name.startswith(DECODE_PREFIX)
                           else self.decode_ids[parent] if parent >= 0 else -1)
        self.end.append(0.0)
        self.self_s.append(0.0)
        self._stack.append(idx)
        self._child_s.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        t = time.perf_counter()
        self._stack.pop()
        covered = self._child_s.pop()
        dur = t - self.start[idx]
        self.end[idx] = t
        self.self_s[idx] = dur - covered
        if self._child_s:
            self._child_s[-1] += dur

    def span(self, name, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def decode(self, name, fn, *args):
        """Call decoder ``name`` under its root span."""
        return self.span(DECODE_PREFIX + name, fn, *args)

    # -- wrapping -----------------------------------------------------------
    def wrapper(self, fn, name):
        """``fn`` wrapped in a span called ``name`` (plus its post hook)."""
        post = POST_HOOKS.get(name)
        tracer = self

        def wrapped(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if post is not None:
                post(tracer, args, kwargs, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def decode_wrapper(self, fn, name):
        """Registry wrapper giving each decode made inside run_sweep its
        root span."""
        return self.wrapper(fn, DECODE_PREFIX + name)

    def _count_wrapper(self, fn, name):
        counts = self.counts
        key = name + ".calls"

        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    def install(self):
        for targets, make in ((SPAN_TARGETS, self.wrapper),
                              (COUNT_TARGETS, self._count_wrapper)):
            for mod_name, attr, name in targets:
                module = importlib.import_module(mod_name)
                if not hasattr(module, attr):
                    # the layer moved; its metrics read zero until the
                    # target table is updated
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                self.patches.set_attr(module, attr, make(getattr(module, attr), name))
        return self

    def restore(self):
        self.patches.restore()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- summaries ----------------------------------------------------------
    def self_seconds(self):
        """Total self time per span name."""
        out = defaultdict(float)
        for nid, s in zip(self.name_id, self.self_s):
            out[self.names[nid]] += s
        return dict(out)

    def call_counts(self):
        out = Counter()
        for nid in self.name_id:
            out[self.names[nid]] += 1
        return out

    def self_seconds_by_decoder(self):
        """Self time per (decoder, span name), attributing each span to the
        decode span that encloses it."""
        root_name = {}
        for nid, dec in zip(self.name_id, self.decode_ids):
            name = self.names[nid]
            if name.startswith(DECODE_PREFIX):
                root_name[dec] = name[len(DECODE_PREFIX):]
        out = defaultdict(lambda: defaultdict(float))
        for nid, dec, s in zip(self.name_id, self.decode_ids, self.self_s):
            out[root_name.get(dec, "outside decodes")][self.names[nid]] += s
        return {k: dict(v) for k, v in out.items()}

    def root_seconds(self):
        """Summed duration of the top-level spans."""
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0)

    def write(self, path):
        """Write every span as columns of a NumPy ``.npz`` archive: ``name``
        indexes ``names``; ``start``/``end`` are perf_counter seconds;
        ``parent`` is a span index and ``decode`` numbers the decode a span
        belongs to (-1 for none)."""
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name_id, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 decode=np.frombuffer(self.decode_ids, dtype=np.int32))
        return len(self.start)
