"""Per-layer host-time tracing for the repository benchmark.

The tracer times calls into each layer's public seams from outside the
program: it wraps methods and callbacks while a traced phase runs and
restores them afterwards, so the code under test is never edited and an
untraced run executes none of this.

Accounting is a call stack.  Every wrapped call pushes a frame; on
return, the frame's elapsed time is charged to its parent's child time,
and ``elapsed - child time`` (its *self* time) is added to the
``(rekey, seam)`` cell.  Self times therefore sum exactly to the time
spent inside the outermost frames.  Seams that fire millions of times
are aggregated into those cells; only the benchmark's own coarse
boundaries (phase, protocol block, membership event) are kept as
individual spans with an id and a parent.

A seam name is ``<layer>.<boundary>``; a layer's self time is the sum of
its seams.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Layers, in report order.  ``keytree`` is split out of ``protocols``
#: because TGDH/STR's tree bookkeeping is the hot spot a later change is
#: most likely to target.
LAYERS = (
    "bench", "sim", "gcs", "core", "protocols", "keytree", "crypto",
    "obs", "workload", "faults",
)

#: Module prefix -> layer, most specific first.
_MODULE_LAYERS = (
    ("repro.protocols.keytree", "keytree"),
    ("repro.protocols", "protocols"),
    ("repro.sim", "sim"),
    ("repro.gcs", "gcs"),
    ("repro.core", "core"),
    ("repro.crypto", "crypto"),
    ("repro.obs", "obs"),
    ("repro.workload", "workload"),
    ("repro.faults", "faults"),
)

#: The five protocols of the paper, in the order every workload runs them.
PROTOCOL_NAMES = ("BD", "CKD", "GDH", "STR", "TGDH")

#: Group-element operations timed as ``crypto`` seams.
CRYPTO_OPS = ("exp", "exp_g", "small_exp", "mul", "weighted_product")

#: ``Observability`` record calls timed as ``obs`` seams.
OBS_CALLS = (
    "span", "instant", "caused_span", "caused_instant", "counter", "gauge",
    "histogram", "log_histogram", "series",
)


def layer_of_module(module: Optional[str]) -> str:
    """The layer a module belongs to; anything outside ``repro`` is the
    benchmark's own (``bench``)."""
    if module:
        for prefix, layer in _MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "bench"


class Tracer:
    """Stack-based self-time accounting; see the module docstring.

    ``clock`` is injectable so tests can drive the arithmetic with exact
    times.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._stack: List[list] = []
        #: the membership event (closed loop) or churn arrival (open loop)
        #: the current work belongs to; 0 is "before the first one"
        self.rekey = 0
        #: self seconds per (rekey, seam)
        self.self_s: Dict[Tuple[int, str], float] = {}
        #: calls per seam
        self.calls: Dict[str, int] = {}
        #: coarse spans: dicts with id, parent, rekey, name, start, end
        self.spans: List[dict] = []
        self._span_ids: List[int] = []
        self._seam_of: Dict[object, str] = {}

    # -- accounting ------------------------------------------------------

    def enter(self, seam: str) -> None:
        calls = self.calls
        calls[seam] = calls.get(seam, 0) + 1
        self._stack.append([self._clock(), 0.0, seam])

    def exit(self) -> float:
        """Close the innermost frame; returns its elapsed time."""
        end = self._clock()
        start, child, seam = self._stack.pop()
        elapsed = end - start
        key = (self.rekey, seam)
        cells = self.self_s
        cells[key] = cells.get(key, 0.0) + (elapsed - child)
        if self._stack:
            self._stack[-1][1] += elapsed
        return elapsed

    def wrap(self, seam: str, fn: Callable) -> Callable:
        """``fn`` timed as ``seam``: :meth:`enter` and :meth:`exit`
        inlined, because wrapped seams fire millions of times a run."""
        clock = self._clock
        stack = self._stack
        calls = self.calls
        cells = self.self_s
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[seam] = calls.get(seam, 0) + 1
            frame = [clock(), 0.0, seam]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - frame[0]
                key = (tracer.rekey, seam)
                cells[key] = cells.get(key, 0.0) + (elapsed - frame[1])
                if stack:
                    stack[-1][1] += elapsed

        return traced

    def begin_span(self, name: str) -> None:
        """Open a coarse span (also a ``bench.<name>`` frame)."""
        parent = self._span_ids[-1] if self._span_ids else None
        span_id = len(self.spans) + 1
        seam = "bench." + name
        now = self._clock()
        self.spans.append({
            "id": span_id, "parent": parent, "rekey": self.rekey,
            "name": name, "start": now, "end": None,
        })
        self._span_ids.append(span_id)
        self.calls[seam] = self.calls.get(seam, 0) + 1
        self._stack.append([now, 0.0, seam])

    def end_span(self) -> float:
        """Close the innermost coarse span; returns its elapsed time."""
        elapsed = self.exit()
        span = self.spans[self._span_ids.pop() - 1]
        span["end"] = span["start"] + elapsed
        return elapsed

    # -- event callbacks ---------------------------------------------------

    def seam_of_callback(self, fn: Callable) -> str:
        """``<layer>.event`` for the module that owns an event callback."""
        key = getattr(fn, "__func__", fn)
        seam = self._seam_of.get(key)
        if seam is None:
            module = getattr(key, "__module__", None) or type(fn).__module__
            seam = layer_of_module(module) + ".event"
            self._seam_of[key] = seam
        return seam

    def fire(self, fn: Callable, seam: str, *args) -> None:
        """Run one simulator event callback inside its layer's frame.

        A churn arrival firing starts the next rekey id, so an open loop's
        work is attributed to the arrival that set it in motion.
        """
        if seam == "workload.event":
            self.rekey += 1
        calls = self.calls
        calls[seam] = calls.get(seam, 0) + 1
        stack = self._stack
        frame = [self._clock(), 0.0, seam]
        stack.append(frame)
        try:
            fn(*args)
        finally:
            end = self._clock()
            stack.pop()
            elapsed = end - frame[0]
            key = (self.rekey, seam)
            cells = self.self_s
            cells[key] = cells.get(key, 0.0) + (elapsed - frame[1])
            if stack:
                stack[-1][1] += elapsed

    # -- results -----------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer."""
        totals = {layer: 0.0 for layer in LAYERS}
        for (_, seam), seconds in self.self_s.items():
            layer = seam.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + seconds
        return totals

    def seam_self_s(self, seam: str) -> float:
        return sum(s for (_, name), s in self.self_s.items() if name == seam)

    def document(self) -> dict:
        """Everything recorded, JSON-ready: per-rekey layer self times,
        seam totals, call counts and the coarse spans."""
        per_rekey: Dict[int, Dict[str, float]] = {}
        for (rekey, seam), seconds in sorted(self.self_s.items()):
            cell = per_rekey.setdefault(rekey, {})
            layer = seam.split(".", 1)[0]
            cell[layer] = cell.get(layer, 0.0) + seconds
        seams: Dict[str, float] = {}
        for (_, seam), seconds in self.self_s.items():
            seams[seam] = seams.get(seam, 0.0) + seconds
        return {
            "layers": self.layer_self_s(),
            "seams": dict(sorted(seams.items())),
            "calls": dict(sorted(self.calls.items())),
            "per_rekey": {str(k): v for k, v in sorted(per_rekey.items())},
            "spans": self.spans,
        }


class Seams:
    """Installs the tracer on the program's public seams; restores all of
    them on :meth:`remove` (use as a context manager).

    Class-level seams are patched once.  Per-framework seams (the
    simulator's ``schedule_at``/``run_until_idle``, ``framework.member``)
    and per-member callbacks are added with :meth:`attach_framework` and
    :meth:`attach_member`.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: List[Callable[[], None]] = []

    def __enter__(self) -> "Seams":
        from repro.crypto.modmath import GroupElementContext
        from repro.gcs.network import Network
        from repro.obs import Observability
        from repro.protocols import get_protocol
        from repro.protocols.keytree import KeyTree
        from repro.sim.cpu import Machine

        self._patch_class(Machine, "submit", "sim.submit")
        self._patch_class(Network, "send", "gcs.send")
        self._patch_class(Network, "broadcast_frame", "gcs.broadcast_frame")
        for name in CRYPTO_OPS:
            self._patch_class(GroupElementContext, name, "crypto." + name)
        for name in OBS_CALLS:
            self._patch_class(Observability, name, "obs." + name)
        for name, value in list(vars(KeyTree).items()):
            if name.startswith("_"):
                continue
            if callable(value) or isinstance(value, classmethod):
                self._patch_class(KeyTree, name, "keytree." + name)
        for protocol in PROTOCOL_NAMES:
            cls = get_protocol(protocol)
            for name in ("start", "receive", "restart"):
                self._patch_class(cls, name, "protocols." + name)
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _patch_class(self, cls: type, name: str, seam: str) -> None:
        own = name in vars(cls)
        raw = vars(cls)[name] if own else getattr(cls, name)
        if isinstance(raw, classmethod):
            patched = classmethod(self.tracer.wrap(seam, raw.__func__))
        else:
            patched = self.tracer.wrap(seam, raw)
        setattr(cls, name, patched)
        if own:
            self._undo.append(lambda: setattr(cls, name, raw))
        else:
            self._undo.append(lambda: delattr(cls, name))

    def _patch_instance(self, obj: object, name: str, value) -> None:
        had = name in vars(obj)
        old = vars(obj).get(name)
        setattr(obj, name, value)
        if had:
            self._undo.append(lambda: setattr(obj, name, old))
        else:
            self._undo.append(lambda: delattr(obj, name))

    def attach_framework(self, framework, members) -> None:
        """Trace a framework's simulator loop, every event callback it
        schedules, its member factory, and its existing ``members``."""
        tracer = self.tracer
        sim = framework.world.sim
        schedule_at = sim.schedule_at
        seam_of = tracer.seam_of_callback
        fire = tracer.fire

        def traced_schedule_at(at, fn, *args):
            return schedule_at(at, fire, fn, seam_of(fn), *args)

        self._patch_instance(sim, "schedule_at", traced_schedule_at)
        self._patch_instance(
            sim, "run_until_idle",
            tracer.wrap("sim.loop", sim.run_until_idle),
        )
        create = tracer.wrap("core.member", framework.member)

        def member(*args, **kwargs):
            created = create(*args, **kwargs)
            self.attach_member(created)
            return created

        self._patch_instance(framework, "member", member)
        for existing in members:
            self.attach_member(existing)

    def attach_member(self, member) -> None:
        """Trace one member's group-communication callbacks (the core
        layer's entry points)."""
        client = member.client
        wrap = self.tracer.wrap
        self._patch_instance(
            client, "on_message", wrap("core.on_message", client.on_message)
        )
        self._patch_instance(
            client, "on_view", wrap("core.on_view", client.on_view)
        )
