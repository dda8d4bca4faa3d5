"""Per-layer tracing of the linnij package from outside the program.

:meth:`Tracer.install` replaces the public functions and methods of every
linnij module by timing wrappers, at every name they are looked up under:
module globals such as ``linnij.catalog.charpoly_sigmas`` as well as
``linnij.polymatrix.charpoly_sigmas``, and class attributes such as both
``Poly.__mul__`` and ``Poly.__rmul__``.  A layer is a module.

Each wrapped call pushes a frame on a per-thread stack.  On return, the
call's self time (its duration minus the time of the wrapped calls it made)
is added to its layer, and its duration to the frame below.  Only coarse
calls are kept as spans; ``Scalar`` and ``Poly`` operations update
aggregated counters, so memory stays bounded.  :meth:`Tracer.op` brackets
one CLI call: time it spends outside every wrapped call is the ``cli``
layer's self time, and the layer self times must sum to the op's time.

Calls made in another thread (the ``verify-tables`` pool) are charged to
the op that was running.  Their wall time may only count once, so a traced
process should raise ``sys.setswitchinterval``: GIL-bound threads then
run one call to completion instead of interleaving, and no two spans
overlap.  The check in :meth:`Tracer.op` fails when spans did overlap.
"""

import threading
import time
from collections import defaultdict

LAYERS = ("cli", "catalog", "textio", "reconstruct", "nijenhuis",
          "polymatrix", "polyring", "exactfield")

#: Operator methods wrapped besides the public names.
DUNDERS = frozenset((
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
    "__matmul__", "__eq__"))

#: Calls that become spans; every other call only updates counters.
COARSE_LAYERS = frozenset(("catalog", "reconstruct", "nijenhuis", "polymatrix"))

#: Names whose calls share one inclusive-time total.  A call nested inside
#: another call of the same group is not counted twice.
GROUPS = {
    "textio.parse_poly": "textio.parse",
    "textio.parse_scalar": "textio.parse",
    "textio.parse_scalar_matrix": "textio.parse",
    "textio.format_poly": "textio.format",
    "textio.format_scalar": "textio.format",
    "textio.format_fraction": "textio.format",
    "textio.format_scalar_matrix": "textio.format",
    "catalog.generalized_L1": "catalog.family",
    "catalog.generalized_L2": "catalog.family",
    "catalog.generalized_blocks": "catalog.family",
    "polyring.Poly.__mul__": "polyring.mul",
    "polyring.Poly.__rmul__": "polyring.mul",
    "exactfield.Scalar.__mul__": "exactfield.mul",
    "exactfield.Scalar.__rmul__": "exactfield.mul",
    "exactfield.Scalar.__add__": "exactfield.add",
    "exactfield.Scalar.__radd__": "exactfield.add",
}


class TraceError(RuntimeError):
    """The layer self times of an op do not add up to the op's time."""


class _ThreadState:
    __slots__ = ("stack", "active", "self_s", "incl_s", "calls", "counts",
                 "peaks", "orphan_s")

    def __init__(self):
        self.stack = []
        self.active = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.peaks = defaultdict(int)
        # Time of calls that found the stack of their thread empty: calls
        # made by a worker thread on behalf of the running op.
        self.orphan_s = 0.0


class Tracer:
    """Spans are (op index, name, thread, depth, start, end); a span's parent
    is the enclosing span one level up in the same thread, or the op."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._states = []
        self.spans = []
        self.ops = 0
        self.op_s = 0.0
        self.max_closure_error_s = 0.0

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            self._states.append(st)
        return st

    # -- frames ----------------------------------------------------------

    def call(self, fn, args, kwargs, key, group, layer, coarse, probe):
        """Run ``fn`` inside a frame and charge its time to ``layer``."""
        st = self._state()
        stack = st.stack
        depth = st.active[group]
        st.active[group] = depth + 1
        frame = [0.0]
        stack.append(frame)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            st.active[group] = depth
            dur = end - start
            st.self_s[layer] += dur - frame[0]
            if stack:
                stack[-1][0] += dur
            else:
                st.orphan_s += dur
            st.calls[key] += 1
            if not depth:
                st.incl_s[group] += dur
            if coarse:
                self.spans.append((self.ops, key, threading.get_ident(),
                                   len(stack), start, end))
        if probe is not None:
            probe(st, args, result)
        return result

    def op(self, fn):
        """Run one CLI call as a root span and check that its time closes."""
        st = self._state()
        if st.stack:
            raise TraceError("op started inside another traced call")
        before = self._total_self()
        orphans_before = self._orphans()
        frame = [0.0]
        st.stack.append(frame)
        start = self.clock()
        try:
            return fn()
        finally:
            end = self.clock()
            st.stack.pop()
            dur = end - start
            cli_self = dur - frame[0] - (self._orphans() - orphans_before)
            st.self_s["cli"] += cli_self
            self.spans.append((self.ops, "cli.op", threading.get_ident(), 0,
                               start, end))
            self.ops += 1
            self.op_s += dur
            error = abs(self._total_self() - before - dur)
            self.max_closure_error_s = max(self.max_closure_error_s, error)
            tolerance = 1e-9 + 1e-6 * dur
            if error > tolerance or cli_self < -tolerance:
                raise TraceError(
                    "layer self times of an op do not sum to its %.6f s: "
                    "error %.3g s, cli self time %.3g s" % (dur, error, cli_self))

    def _total_self(self):
        return sum(sum(st.self_s.values()) for st in self._states)

    def _orphans(self):
        return sum(st.orphan_s for st in self._states)

    # -- installation ----------------------------------------------------

    def wrap(self, fn, key, layer, probe=None):
        tracer = self
        group = GROUPS.get(key, key)
        coarse = layer in COARSE_LAYERS

        def wrapper(*args, **kwargs):
            return tracer.call(fn, args, kwargs, key, group, layer, coarse, probe)

        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def install(self, package, modules, probes=None):
        """Wrap the public functions and methods defined in ``modules``.

        ``modules`` maps a layer name to its module; every module of
        ``package`` (the package itself included) that holds a reference
        to a wrapped function gets the wrapper instead.
        """
        probes = probes or {}
        replaced = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, BaseException):
                        self._install_class(obj, layer, probes)
                elif callable(obj) and not name.startswith("_"):
                    key = "%s.%s" % (layer, name)
                    replaced[id(obj)] = self.wrap(obj, key, layer, probes.get(key))
        holders = [package] + [m for m in vars(package).values()
                               if getattr(m, "__name__", "").startswith(
                                   package.__name__ + ".")]
        for holder in holders:
            for name, obj in list(vars(holder).items()):
                if id(obj) in replaced:
                    setattr(holder, name, replaced[id(obj)])
        return len(replaced)

    def _install_class(self, cls, layer, probes):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in DUNDERS:
                continue
            key = "%s.%s.%s" % (layer, cls.__name__, name)
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(
                    self.wrap(attr.__func__, key, layer, probes.get(key))))
            elif callable(attr) and not isinstance(attr, type):
                setattr(cls, name, self.wrap(attr, key, layer, probes.get(key)))

    # -- results ---------------------------------------------------------

    def totals(self):
        """Merged per-thread totals: self, inclusive, calls, counts, peaks."""
        self_s, incl_s = defaultdict(float), defaultdict(float)
        calls, counts, peaks = defaultdict(int), defaultdict(int), defaultdict(int)
        for st in self._states:
            for target, source in ((self_s, st.self_s), (incl_s, st.incl_s),
                                   (calls, st.calls), (counts, st.counts)):
                for key, value in source.items():
                    target[key] += value
            for key, value in st.peaks.items():
                peaks[key] = max(peaks[key], value)
        return self_s, incl_s, calls, counts, peaks
