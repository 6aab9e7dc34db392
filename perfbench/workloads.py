"""Workloads, output checks and metrics of the repository benchmark.

Everything runs in this one process and thread, calling the layers
directly: no sweep pool, no result cache, no crypto sharding, no
sockets.  See ``README.md`` in this directory for why each workload
exists and which layer metric should move which end-to-end metric.

A run is *set-up* (build every framework and grow every group to its
starting size, repeated ``SETUP_REPEATS`` times so ``setup_s`` is a
median) followed by one *measured phase* whose amount of simulated work
is a fixed function of ``--seconds``, calibrated to take about that long
on the reference host.  Fixing the work, not the wall time, keeps every
simulated output (latency percentiles, the digest) a pure function of
the seed and ``--seconds``, so a faster commit does the same work in
less time instead of different work.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.bench import pool as sweep_pool
from repro.bench.harness import grow_group_batched
from repro.core.framework import SecureSpreadFramework
from repro.crypto import engine as engine_module
from repro.crypto import rsa as rsa_module
from repro.crypto.engine import RealEngine, SymbolicEngine
from repro.crypto.ledger import OpCounts
from repro.crypto.rsa import cached_rsa_keypair
from repro.gcs.topology import TESTBEDS
from repro.workload.engine import WorkloadEngine, group_converged
from repro.workload.spec import WorkloadSpec

from tracing import PROTOCOL_NAMES, Seams, Tracer

#: Each set-up is repeated this many times; ``setup_s`` reports the median.
SETUP_REPEATS = 3

#: Livelock guard per ``run_until_idle``: several times what the largest
#: call needs (a 256-member BD rekey fires ~150k events, BD's churn-storm
#: spec ~560k at ``--seconds 15``), small enough that a tripped guard
#: still ends the run in about a minute.
MAX_EVENTS = 2_000_000

#: The p99 of install latency (printed, and ``model.rekey_ms_p99`` in a
#: traced run) needs this many samples above it.
MIN_SAMPLES_ABOVE = 10

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


# -- workloads -------------------------------------------------------------


@dataclass(frozen=True)
class ClosedLoop:
    """One group per protocol; one client alternates a join of a fresh
    member with a leave of a seeded quasi-random member (see
    :class:`LoopChoices`), each waiting for the previous rekey to settle.
    A round is one join and one leave per protocol, so every protocol
    runs the same number of events."""

    name: str
    size: int
    dh_group: str
    engine: str
    #: host seconds one round took on the reference host (2 vCPU,
    #: CPython 3.11, pure-Python bignums); sizes the work to ``--seconds``
    round_host_s: float
    #: floor that keeps >= 1000 member installs in the run
    min_rounds: int

    def rounds(self, seconds: float) -> int:
        return max(self.min_rounds, round(seconds / self.round_host_s))


@dataclass(frozen=True)
class ChurnStorm:
    """One ``WorkloadEngine`` spec per protocol, all on the same seed so
    they face the identical arrival stream: Poisson churn over many small
    groups, open loop in virtual time.

    STR and the partition storm are left out because the program fails
    under them on some seeds (README.md, "Known edges"): STR silently
    mis-keys under this churn even with no faults; a join issued as the
    storm's partition starts never gets a view (seen with CKD); GDH's
    stall storm trips the livelock guard with the storm at 40 Hz.  STR
    is still measured by both closed loops.  The rate is 20 Hz, the one
    swept clean on seeds 1-100 for the four protocols."""

    name: str = "churn-storm"
    protocols: tuple = ("BD", "CKD", "GDH", "TGDH")
    groups: int = 12
    group_size: int = 6
    rate_hz: float = 20.0
    engine: str = "symbolic"
    dh_group: str = "dh-512"
    #: virtual ms of churn the reference host simulates per host second
    #: (all four protocols together)
    virtual_ms_per_host_s: float = 1500.0
    #: floor that keeps >= 1000 member installs in the run
    min_duration_ms: float = 3000.0

    def duration_ms(self, seconds: float) -> float:
        return float(max(self.min_duration_ms,
                         round(seconds * self.virtual_ms_per_host_s)))


WORKLOADS = {
    "sym-n256": ClosedLoop(
        "sym-n256", size=256, dh_group="dh-512", engine="symbolic",
        round_host_s=2.2, min_rounds=1,
    ),
    "real-dh2048": ClosedLoop(
        "real-dh2048", size=32, dh_group="dh-2048", engine="real",
        round_host_s=1.4, min_rounds=4,
    ),
    "churn-storm": ChurnStorm(),
}


# -- statistics ------------------------------------------------------------


def percentile(values: Sequence[float], pct: int) -> float:
    """Nearest-rank ``pct``-th percentile of ``values``."""
    ordered = sorted(values)
    return ordered[samples_rank(len(ordered), pct) - 1]


def tail_supported(count: int, pct: int) -> bool:
    """True when at least ``MIN_SAMPLES_ABOVE`` of ``count`` samples lie
    above the ``pct``-th percentile: without that support a percentile
    says nothing about the tail."""
    return count > 0 and count - samples_rank(count, pct) >= MIN_SAMPLES_ABOVE


def samples_rank(count: int, pct: int) -> int:
    """The 1-based nearest rank of the ``pct``-th percentile of ``count``
    samples (integer arithmetic, so no float rounding picks the rank)."""
    if count < 1:
        raise ValueError("no samples")
    return max(1, -(-pct * count // 100))


# -- shared helpers --------------------------------------------------------


def fresh_engine(kind: str):
    """A new crypto engine with process-wide caches emptied, so every
    set-up repetition pays for RSA keys and fixed-base tables again."""
    for cache in (getattr(rsa_module, "_KEY_CACHE", None),
                  getattr(engine_module, "_TABLE_CACHE", None)):
        if cache is not None:
            cache.clear()
    return SymbolicEngine() if kind == "symbolic" else RealEngine()


def bignum_backend(engine) -> str:
    backend = getattr(engine, "backend", None)
    return getattr(backend, "name", "none")


def rsa_keygen(framework) -> float:
    """Generate the deterministic RSA keys members will sign with (one
    per machine slot); returns the seconds it took."""
    start = time.perf_counter()
    for slot in range(min(64, framework.transport.machine_count())):
        cached_rsa_keypair(framework.rsa_bits, slot)
    return time.perf_counter() - start


def settled_view(roster: List):
    """The view ``roster`` agrees on, or None.

    A rekey succeeds only if every member of its view holds the view's
    key: all members are on one view with exactly the roster's members,
    each protocol is done for it, each member installed it, and the keys
    are equal.
    """
    if not roster:
        return None
    view = roster[0].protocol.view
    if view is None or sorted(view.members) != sorted(m.name for m in roster):
        return None
    key = roster[0].protocol.key
    for member in roster:
        protocol = member.protocol
        if (
            protocol.view is None
            or protocol.view.view_id != view.view_id
            or not protocol.done_for(protocol.view)
            or protocol.key != key
            or not member.is_secure
        ):
            return None
    return view


def ledger_totals(members) -> OpCounts:
    total = OpCounts()
    for member in members:
        total = total + member.protocol.ledger.snapshot()
    return total


@dataclass
class Unit:
    """One framework the workload drives, with its group names."""

    label: str
    framework: SecureSpreadFramework
    group_names: List[str]

    def members(self) -> List:
        found = []
        for name in self.group_names:
            found.extend(self.framework.members_of(name))
        return found


def counters(units: Sequence[Unit]) -> Dict[str, float]:
    """Exact work counts summed over ``units`` (cumulative)."""
    out = dict.fromkeys(
        ("sim.events", "gcs.received", "gcs.views", "core.stalls",
         "core.restarts", "core.timeline_epochs", "crypto.exps",
         "crypto.mults", "crypto.signatures", "crypto.verifications",
         "obs.spans", "obs.spans_dropped"), 0)
    for unit in units:
        framework = unit.framework
        members = unit.members()
        ops = ledger_totals(members)
        out["sim.events"] += framework.world.sim.events_processed
        out["gcs.received"] += sum(len(m.client.received) for m in members)
        out["gcs.views"] += sum(len(m.client.views) for m in members)
        out["core.stalls"] += framework.rekey_stalls
        out["core.restarts"] += framework.rekey_restarts
        out["core.timeline_epochs"] += len(framework.timeline.epochs)
        out["crypto.exps"] += ops.exp_count()
        out["crypto.mults"] += ops.mult_count() + ops.small_mult_count()
        out["crypto.signatures"] += ops.signatures
        out["crypto.verifications"] += ops.verifications
        out["obs.spans"] += len(framework.obs.spans)
        out["obs.spans_dropped"] += framework.obs.spans.dropped
    return out


def cache_counts(engine) -> Dict[str, int]:
    cache = getattr(engine, "power_cache", None)
    if cache is None:
        return {"hits": 0, "misses": 0}
    return {"hits": cache.hits, "misses": cache.misses}


# -- set-up and measured phase -----------------------------------------------


@dataclass
class Setup:
    """The state a measured phase starts from, and what building it cost."""

    units: List[Unit]
    engine: object
    seconds: Dict[str, float]
    #: closed loop: per protocol (roster, seeded choices)
    groups: List[tuple] = field(default_factory=list)
    #: churn storm: one workload engine per protocol
    engines: List[WorkloadEngine] = field(default_factory=list)


@dataclass
class Outcome:
    """What one measured phase produced."""

    attempted: int = 0
    failed: int = 0
    rekeys: int = 0
    measured_s: float = 0.0
    #: rekeys per host second: one per round (closed loops) or one for
    #: the whole phase (churn-storm); ``rekeys_per_s`` is their median
    rates: List[float] = field(default_factory=list)
    protocol_s: Dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(PROTOCOL_NAMES, 0.0))
    samples: List[float] = field(default_factory=list)
    membership_ms: List[float] = field(default_factory=list)
    key_agreement_ms: List[float] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    churn_events: int = 0
    faults_injected: int = 0
    livelock: bool = False
    digest: str = ""


def setup_closed(work: ClosedLoop, seed: int) -> Setup:
    engine = fresh_engine(work.engine)
    seconds = {"build_s": 0.0, "rsa_keygen_s": 0.0, "grow_s": 0.0}
    units, groups = [], []
    for index, protocol in enumerate(PROTOCOL_NAMES):
        start = time.perf_counter()
        framework = SecureSpreadFramework(
            TESTBEDS["lan"](), default_protocol=protocol,
            dh_group=work.dh_group, seed=seed, observe=False, engine=engine,
        )
        seconds["build_s"] += time.perf_counter() - start
        seconds["rsa_keygen_s"] += rsa_keygen(framework)
        start = time.perf_counter()
        roster = grow_group_batched(framework, work.size, max_events=MAX_EVENTS)
        seconds["grow_s"] += time.perf_counter() - start
        units.append(Unit(protocol, framework, ["secure-group"]))
        groups.append((roster, LoopChoices(seed, index)))
    return Setup(units=units, engine=engine, seconds=seconds, groups=groups)


class LoopChoices:
    """The seeded choices of one protocol's closed loop.

    Each fresh member joins on a seeded-random machine.  Victims are
    quasi-random: the k-th leave removes the member at relative roster
    position ``start + k·φ`` (mod 1), φ the golden-ratio conjugate and
    ``start`` drawn from the seed.  Positions spread evenly over the
    roster for any number of leaves, so a run samples early, middle and
    late joiners alike (STR's leave latency depends strongly on the
    victim's place in the chain) and the simulated percentiles do not
    hinge on a few unlucky draws.
    """

    STEP = (5 ** 0.5 - 1) / 2

    def __init__(self, seed: int, protocol_index: int):
        self._rng = random.Random(seed * 1000 + protocol_index)
        self._start = self._rng.random()
        self._leaves = 0
        self.joins = 0

    def machine(self, machines: int) -> int:
        """Where the next fresh member runs."""
        self.joins += 1
        return self._rng.randrange(machines)

    def victim(self, size: int) -> int:
        """Roster index of the next member to leave."""
        position = (self._start + self._leaves * self.STEP) % 1.0
        self._leaves += 1
        return int(position * size)


def churn_specs(work: ChurnStorm, seed: int, seconds: float) -> List[WorkloadSpec]:
    """One spec per protocol, all on ``seed``."""
    duration = work.duration_ms(seconds)
    return [
        WorkloadSpec(
            protocol=protocol, arrival="poisson", groups=work.groups,
            group_size=work.group_size, rate_hz=work.rate_hz,
            duration_ms=duration, seed=seed,
        )
        for protocol in work.protocols
    ]


def setup_churn(work: ChurnStorm, seed: int, seconds: float) -> Setup:
    engine = fresh_engine(work.engine)
    times = {"build_s": 0.0, "rsa_keygen_s": 0.0, "populate_s": 0.0}
    units, engines = [], []
    for spec in churn_specs(work, seed, seconds):
        start = time.perf_counter()
        churn = WorkloadEngine(spec, dh_group=work.dh_group, engine=engine)
        times["build_s"] += time.perf_counter() - start
        times["rsa_keygen_s"] += rsa_keygen(churn.framework)
        start = time.perf_counter()
        churn.populate()
        times["populate_s"] += time.perf_counter() - start
        names = [churn.group_name(g) for g in range(spec.groups)]
        units.append(Unit(spec.protocol, churn.framework, names))
        engines.append(churn)
    return Setup(units=units, engine=engine, seconds=times, engines=engines)


def run_setup(work, seed: int, seconds: float) -> Setup:
    start = time.perf_counter()
    if isinstance(work, ClosedLoop):
        built = setup_closed(work, seed)
    else:
        built = setup_churn(work, seed, seconds)
    built.seconds["total_s"] = time.perf_counter() - start
    return built


def measure_closed(work: ClosedLoop, setup: Setup, seconds: float,
                   tracer: Optional[Tracer] = None) -> Outcome:
    out = Outcome()
    digest = hashlib.sha256()
    before = counters(setup.units)
    phase_start = time.perf_counter()
    if tracer is not None:
        tracer.begin_span("measure")
    for _ in range(work.rounds(seconds)):
        round_start = time.perf_counter()
        round_rekeys = 0
        for unit, group in zip(setup.units, setup.groups):
            for kind in ("join", "leave"):
                event_start = time.perf_counter()
                ok = _closed_event(unit, group, kind, out, digest, tracer)
                out.protocol_s[unit.label] += time.perf_counter() - event_start
                out.attempted += 1
                if ok:
                    round_rekeys += 1
                else:
                    out.failed += 1
        out.rekeys += round_rekeys
        out.rates.append(
            round_rekeys / (time.perf_counter() - round_start))
    if tracer is not None:
        tracer.end_span()
    out.measured_s = time.perf_counter() - phase_start
    after = counters(setup.units)
    out.counts = {k: after[k] - before[k] for k in after}
    out.counts["gcs.retained_messages"] = after["gcs.received"]
    out.counts["core.timeline_epochs"] = after["core.timeline_epochs"]
    for unit in setup.units:
        ops = ledger_totals(unit.members())
        digest.update(repr((unit.label, ops, unit.framework.world.sim
                            .events_processed)).encode())
    out.digest = digest.hexdigest()
    return out


def _closed_event(unit, group, kind, out, digest, tracer) -> bool:
    """One membership event and its check; True when the rekey succeeded."""
    framework = unit.framework
    roster, choices = group
    if tracer is not None:
        tracer.rekey += 1
        tracer.begin_span(f"{unit.label}.{kind}")
    try:
        if kind == "join":
            machine = choices.machine(framework.transport.machine_count())
            member = framework.member(f"x{choices.joins}", machine)
            framework.mark_event()
            member.join()
            framework.run_until_idle(max_events=MAX_EVENTS)
            roster.append(member)
        else:
            victim = roster.pop(choices.victim(len(roster)))
            framework.mark_event()
            victim.leave()
            framework.run_until_idle(max_events=MAX_EVENTS)
    except RuntimeError:
        out.livelock = True
        return False
    finally:
        if tracer is not None:
            tracer.end_span()
    view = settled_view(roster)
    if view is None:
        return False
    record = framework.timeline.epochs.get(view.view_id)
    if record is None or not record.complete() or record.event_started_at is None:
        return False
    started = record.event_started_at
    installs = tuple((name, record.key_ready[name]) for name in view.members)
    out.samples.extend(at - started for _, at in installs)
    out.membership_ms.append(record.membership_elapsed())
    out.key_agreement_ms.append(record.key_agreement_elapsed())
    digest.update(repr((unit.label, kind, view.view_id, installs)).encode())
    return True


def completed_epochs(unit: Unit) -> set:
    """``(group, view_id)`` of every epoch all of whose view members
    installed its key."""
    done = set()
    for name in unit.group_names:
        installed: Dict[tuple, set] = {}
        views = {}
        for member in unit.framework.members_of(name):
            for view in member.secure_views:
                installed.setdefault(view.view_id, set()).add(member.name)
                views[view.view_id] = view
        for view_id, view in views.items():
            if installed[view_id] >= set(view.members):
                done.add((name, view_id))
    return done


def rekey_series(framework) -> List[tuple]:
    """Every ``member.rekey_ms`` point the engine recorded, per label set.

    Raises if a ring overwrote points: the samples must be complete.
    """
    found = []
    for kind, name, labels, series in framework.obs.metrics.iter_instruments():
        if kind == "series" and name == "member.rekey_ms":
            if series.recorded != len(series):
                raise RuntimeError("member.rekey_ms series overflowed")
            found.append((labels, tuple(series.points())))
    return found


def measure_churn(setup: Setup, tracer: Optional[Tracer] = None) -> Outcome:
    out = Outcome()
    digest = hashlib.sha256()
    before = counters(setup.units)
    done_before = [completed_epochs(unit) for unit in setup.units]
    epochs_before = [set(u.framework.timeline.epochs) for u in setup.units]
    phase_start = time.perf_counter()
    if tracer is not None:
        tracer.begin_span("measure")
    for index, (churn, unit) in enumerate(zip(setup.engines, setup.units)):
        spec_start = time.perf_counter()
        if tracer is not None:
            tracer.begin_span(unit.label)
        out.churn_events += churn.inject()
        out.faults_injected += len(churn.spec.fault_schedule())
        try:
            churn.framework.run_until_idle(max_events=MAX_EVENTS)
        except RuntimeError:
            out.livelock = True
        finally:
            if tracer is not None:
                tracer.end_span()
        out.protocol_s[unit.label] += time.perf_counter() - spec_start
        completed = len(completed_epochs(unit) - done_before[index])
        unconverged = sum(
            1 for g in range(churn.spec.groups)
            if not group_converged(churn.rosters[g])
        )
        out.rekeys += completed
        out.attempted += completed + unconverged
        out.failed += unconverged
    if tracer is not None:
        tracer.end_span()
    out.measured_s = time.perf_counter() - phase_start
    out.rates.append(out.rekeys / out.measured_s)
    after = counters(setup.units)
    out.counts = {k: after[k] - before[k] for k in after}
    out.counts["gcs.retained_messages"] = after["gcs.received"]
    out.counts["core.timeline_epochs"] = after["core.timeline_epochs"]
    for churn, unit, epochs in zip(setup.engines, setup.units, epochs_before):
        series = rekey_series(unit.framework)
        for _, points in series:
            out.samples.extend(value for _, value in points)
        for key, record in unit.framework.timeline.epochs.items():
            if key in epochs or record.event_started_at is None:
                continue
            if record.complete() and record.view_delivered:
                out.membership_ms.append(record.membership_elapsed())
                out.key_agreement_ms.append(record.key_agreement_elapsed())
        digest.update(repr((
            unit.label, series,
            ledger_totals(unit.members()),
            unit.framework.world.sim.events_processed,
            churn.joins, churn.leaves, churn.skipped,
        )).encode())
    if out.livelock:
        out.failed = out.attempted = max(out.attempted, 1)
    out.digest = digest.hexdigest()
    return out


def run_measure(work, setup: Setup, seconds: float,
                tracer: Optional[Tracer] = None) -> Outcome:
    if isinstance(work, ClosedLoop):
        return measure_closed(work, setup, seconds, tracer)
    return measure_churn(setup, tracer)


# -- correctness -----------------------------------------------------------


def reference_digest(workload: str, seed: int, seconds: float) -> Optional[str]:
    """The digest recorded for this (workload, seconds, seed), if shipped."""
    with open(REFERENCE_FILE) as handle:
        table = json.load(handle)["digests"]
    return table.get(workload, {}).get(f"{seconds:g}", {}).get(str(seed))


@contextlib.contextmanager
def refuse_sweep_pool():
    """Make the sweep pool (and with it the result cache) unusable while
    the benchmark runs: a cached cell would time a file read, and the
    pool defaults to every CPU."""
    original = sweep_pool.run_cells

    def refused(*args, **kwargs):
        raise RuntimeError(
            "the benchmark measures in-process; the sweep pool and its "
            "result cache are refused"
        )

    sweep_pool.run_cells = refused
    try:
        yield
    finally:
        sweep_pool.run_cells = original


# -- the run -----------------------------------------------------------------


@dataclass
class Report:
    """The benchmark's verdict: the JSON line plus human-readable lines."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, tuple]
    lines: List[str]

    def json_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        })


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool,
        started: float, imported: float, out_dir: str) -> Report:
    """One benchmark run; ``started``/``imported`` are ``perf_counter``
    readings at process start and after the program's imports."""
    work = WORKLOADS[workload]
    with refuse_sweep_pool():
        if trace:
            return _run_traced(work, seed, seconds, out_dir)
        return _run_plain(work, seed, seconds, imported - started)


def _check_digest(work, seed, seconds, digest, lines) -> bool:
    expected = reference_digest(work.name, seed, seconds)
    if expected is None:
        lines.append(f"digest {digest} (no reference shipped for this seed)")
        return True
    verdict = "matches" if expected == digest else f"MISMATCH (expected {expected})"
    lines.append(f"digest {digest} {verdict} the shipped reference")
    return expected == digest


def _run_plain(work, seed: int, seconds: float, import_s: float) -> Report:
    setups = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        state = run_setup(work, seed, seconds)
        setups.append(state.seconds["total_s"])
    out = run_measure(work, state, seconds)
    lines = [
        f"perfbench {work.name} seed={seed} seconds={seconds:g} "
        f"engine={work.engine} bignum={bignum_backend(state.engine)}"
    ]
    digest_ok = _check_digest(work, seed, seconds, out.digest, lines)
    n = len(out.samples)
    supported = tail_supported(n, 99)
    if not supported:
        lines.append(f"too few install samples ({n}) for a p99")
    correct = digest_ok and supported and not out.livelock and out.failed == 0
    failed = out.failed if digest_ok else out.attempted
    p50 = percentile(out.samples, 50) if n else 0.0
    p95 = percentile(out.samples, 95) if n else 0.0
    p99 = percentile(out.samples, 99) if n else 0.0
    rate = statistics.median(out.rates)
    rate_of = "round" if isinstance(work, ClosedLoop) else "phase"
    setup_s = import_s + statistics.median(setups)
    metrics = {
        "rekeys_per_s": (rate, "1/s"),
        "setup_s": (setup_s, "s"),
        "sim_rekey_ms_p50": (p50, "sim_ms"),
        "sim_rekey_ms_p95": (p95, "sim_ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "rekey_success_frac": (1.0 - failed / out.attempted, "fraction"),
    }
    lines += [
        f"  rekeys_per_s       {rate:.4f} 1/s  (median of "
        f"{len(out.rates)} {rate_of} rates; {out.rekeys} rekeys in "
        f"{out.measured_s:.2f} s)",
        f"  setup_s            {setup_s:.4f} s  (imports {import_s:.3f} s + "
        f"median of {len(setups)} set-ups: "
        + ", ".join(f"{s:.3f}" for s in setups) + ")",
        f"  sim_rekey_ms_p50   {p50:.4f} sim_ms  ({n} samples, "
        f"{n - samples_rank(n, 50)} above)",
        f"  sim_rekey_ms_p95   {p95:.4f} sim_ms  ({n} samples, "
        f"{n - samples_rank(n, 95)} above)",
        f"  sim_rekey_ms_p99   {p99:.4f} sim_ms  ({n} samples, "
        f"{n - samples_rank(n, 99)} above; printed, not a bounded metric)",
        f"  peak_rss_mb        {metrics['peak_rss_mb'][0]:.2f} MB  (1 sample)",
        f"  failed_frac        {failed / out.attempted:.4f}  "
        f"({failed} of {out.attempted} rekeys failed)",
    ]
    return Report(correct, out.attempted, failed, metrics, lines)


def _run_traced(work, seed: int, seconds: float, out_dir: str) -> Report:
    """Untraced set-up and measured phase, then the same work again from a
    fresh set-up with the tracer on; per-layer metrics come from the
    second, the overhead ratio from both."""
    state = run_setup(work, seed, seconds)
    plain = run_measure(work, state, seconds)
    setup_seconds = state.seconds
    state = None
    gc.collect()
    state = run_setup(work, seed, seconds)
    tracer = Tracer()
    with Seams(tracer) as seams:
        for unit in state.units:
            seams.attach_framework(unit.framework, unit.members())
        cache_before = cache_counts(state.engine)
        traced = run_measure(work, state, seconds, tracer)
        cache_after = cache_counts(state.engine)
    lines = [
        f"perfbench {work.name} seed={seed} seconds={seconds:g} trace=1 "
        f"engine={work.engine} bignum={bignum_backend(state.engine)}"
    ]
    digest_ok = _check_digest(work, seed, seconds, plain.digest, lines)
    same = plain.digest == traced.digest
    lines.append(
        "traced digest " + ("equals" if same else "DIFFERS FROM")
        + " the untraced digest")
    layers = tracer.layer_self_s()
    self_sum = sum(layers.values())
    sums_ok = abs(self_sum - traced.measured_s) <= 1e-6 * traced.measured_s + 1e-3
    lines.append(
        f"layer self times sum to {self_sum:.4f} s; traced measured phase "
        f"{traced.measured_s:.4f} s")
    correct = (digest_ok and same and sums_ok and not plain.livelock
               and not traced.livelock and plain.failed == 0
               and traced.failed == 0)
    failed = max(plain.failed, traced.failed) if digest_ok and same else plain.attempted
    metrics = per_layer_metrics(tracer, traced, plain, setup_seconds,
                                cache_before, cache_after)
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:34s} {value:.6g} {unit}")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{work.name}-seed{seed}.json")
    with open(path, "w") as handle:
        json.dump({
            "workload": work.name, "seed": seed, "seconds": seconds,
            "digest": traced.digest, "metrics": metrics,
            "counts": traced.counts, "tracer": tracer.document(),
        }, handle, indent=1, sort_keys=True)
    lines.append(f"trace written to {os.path.relpath(path)}")
    return Report(correct, plain.attempted, failed, metrics, lines)


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def per_layer_metrics(tracer: Tracer, traced: Outcome, plain: Outcome,
                      setup_seconds: Dict[str, float], cache_before,
                      cache_after) -> Dict[str, tuple]:
    layers = tracer.layer_self_s()
    calls = tracer.calls
    counts = traced.counts
    lookups = (cache_after["hits"] - cache_before["hits"]
               + cache_after["misses"] - cache_before["misses"])
    hits = cache_after["hits"] - cache_before["hits"]

    def n_calls(*seams: str) -> int:
        return sum(calls.get(seam, 0) for seam in seams)

    metrics: Dict[str, tuple] = {
        "bench.grow_s": (setup_seconds.get("grow_s", 0.0), "s"),
    }
    for protocol in PROTOCOL_NAMES:
        metrics[f"bench.measured_s.{protocol}"] = (plain.protocol_s[protocol], "s")
    metrics.update({
        "bench.self_s": (layers["bench"], "s"),
        "sim.events": (counts["sim.events"], "count"),
        "sim.self_s": (layers["sim"], "s"),
        "sim.loop_self_s": (tracer.seam_self_s("sim.loop"), "s"),
        "sim.cpu_submits": (n_calls("sim.submit"), "count"),
        "gcs.self_s": (layers["gcs"], "s"),
        "gcs.deliveries": (counts["gcs.received"], "count"),
        "gcs.frames": (n_calls("gcs.send", "gcs.broadcast_frame"), "count"),
        "gcs.views": (counts["gcs.views"], "count"),
        "gcs.retained_messages": (counts["gcs.retained_messages"], "count"),
        "core.self_s": (layers["core"], "s"),
        "core.handler_calls": (n_calls("core.on_message", "core.on_view"), "count"),
        "core.stalls": (counts["core.stalls"], "count"),
        "core.restarts": (counts["core.restarts"], "count"),
        "core.timeline_epochs": (counts["core.timeline_epochs"], "count"),
        "protocols.self_s": (layers["protocols"], "s"),
        "protocols.receive_calls": (n_calls("protocols.receive"), "count"),
        "keytree.self_s": (layers["keytree"], "s"),
        "keytree.deserialize_calls": (n_calls("keytree.deserialize"), "count"),
        "keytree.leaves_calls": (n_calls("keytree.leaves"), "count"),
        "crypto.self_s": (layers["crypto"], "s"),
        "crypto.power_cache_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "crypto.exps": (counts["crypto.exps"], "count"),
        "crypto.mults": (counts["crypto.mults"], "count"),
        "crypto.signatures": (counts["crypto.signatures"], "count"),
        "crypto.verifications": (counts["crypto.verifications"], "count"),
        "crypto.rsa_keygen_s": (setup_seconds["rsa_keygen_s"], "s"),
        "obs.self_s": (layers["obs"], "s"),
        "obs.spans": (counts["obs.spans"], "count"),
        "obs.spans_dropped": (counts["obs.spans_dropped"], "count"),
        "workload.self_s": (layers["workload"] + layers["faults"], "s"),
        "workload.populate_s": (setup_seconds.get("populate_s", 0.0), "s"),
        "workload.churn_events": (traced.churn_events, "count"),
        "faults.injected": (traced.faults_injected, "count"),
        "model.membership_ms_mean": (_mean(traced.membership_ms), "sim_ms"),
        "model.key_agreement_ms_mean": (_mean(traced.key_agreement_ms), "sim_ms"),
        "model.rekey_ms_p99": (percentile(traced.samples, 99)
                               if traced.samples else 0.0, "sim_ms"),
        "trace.measured_s": (traced.measured_s, "s"),
        "trace.overhead_ratio": (traced.measured_s / plain.measured_s, "ratio"),
    })
    return metrics

