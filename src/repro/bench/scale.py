"""Large-n scaling benchmark: ``python -m repro.bench scale``.

The paper stops at 50 members (its testbed's practical limit); this
benchmark extends the same measurement — total elapsed time of a join and
a leave on a settled group — to groups of up to 1024 members on the
simulated testbeds, which is exactly the regime the paper's conclusion
speculates about.

Three things make large n tractable:

* groups are grown with :func:`~repro.bench.harness.grow_group_batched`
  (one rekey per cell instead of one per join),
* the default crypto engine is ``"symbolic"``, which skips the bignum
  arithmetic while charging the identical operation ledger — the
  simulated times are the same as the real engine's by construction (see
  DESIGN.md, "Crypto engines"), and
* every (protocol, size) pair is an independent *cell* — a fresh
  framework grown batched straight to the target size — so the sweep
  shards across worker processes and caches per cell
  (:mod:`repro.bench.pool`).

Per-protocol conventions at scale follow the figure sweeps, except CKD's
1/n-weighted controller-leave term is dropped: at n ≥ 32 the weight is
≤ 3% while the controller leave costs a second full rekey epoch, so the
term is noise that would double CKD's simulation cost.

Each cell also records the exact operation-ledger charges of its
measured events (``EventMeasurement.ops``): integer counts that the
``bench compare`` regression gate can diff bit-for-bit.
"""

from __future__ import annotations

import json
from typing import Callable, List, Optional, Sequence

from repro.bench.harness import (
    LARGE_RUN_MAX_EVENTS,
    EventMeasurement,
    ExperimentSpec,
    _rejoin,
    grow_group_batched,
)
from repro.bench.pool import Cell, register_runner, run_cells
from repro.crypto.ledger import OpCounts
from repro.obs.metrics import MetricsRegistry
from repro.protocols import available

#: Group sizes sampled by default — powers of two from 32 to 1024.
SCALE_SIZES = (32, 64, 128, 256, 512, 1024)

#: Every registered protocol (the paper's five, plus any plug-ins
#: registered before this module is imported).
SCALE_PROTOCOLS = available()


def _ledger_totals(principals) -> OpCounts:
    """Summed operation-ledger snapshot across a set of members."""
    totals = OpCounts()
    for member in principals:
        totals = totals + member.protocol.ledger.snapshot()
    return totals


def _ops_dict(counts: OpCounts) -> dict:
    """JSON-ready integer totals for one measured event."""
    return {
        "exponentiations": counts.exp_count(),
        "small_exp_multiplications": counts.small_mult_count(),
        "multiplications": counts.mult_count(),
        "signatures": counts.signatures,
        "verifications": counts.verifications,
    }


@register_runner("scale")
def run_scale_cell(
    spec: dict, metrics: Optional[MetricsRegistry] = None
) -> dict:
    """One (protocol, group size) cell: measured join and leave.

    A fresh framework is grown batched straight to ``group_size``, then
    a join and a leave are measured ``repeats`` times each (size-
    restoring, join samples first).  Returns
    ``{"join": EventMeasurement dict, "leave": EventMeasurement dict}``
    — JSON-ready, so the cell can cross process boundaries and live in
    the result cache.

    With ``spec["observe"]`` set the cell runs fully traced and folds the
    framework's own metrics (notably the ``member.rekey_ms`` latency
    histograms) into the caller's registry; observability is passive, so
    the measured times are identical either way.
    """
    registry = metrics if metrics is not None else MetricsRegistry(enabled=False)
    size = int(spec["group_size"])
    repeats = int(spec.get("repeats", 1))
    observe = bool(spec.get("observe", False))
    max_events = int(spec.get("max_events", LARGE_RUN_MAX_EVENTS))
    espec = ExperimentSpec(
        protocol=spec["protocol"],
        event="join",
        group_size=size,
        dh_group=spec.get("dh_group", "dh-512"),
        topology=spec.get("topology", "lan"),
        repeats=repeats,
        seed=int(spec.get("seed", 0)),
        engine=spec.get("engine", "symbolic"),
    )
    framework = espec.build_framework(observe=observe)
    members = grow_group_batched(framework, size, max_events=max_events)
    principals = list(members)
    machines = len(framework.world.topology.machines)
    join_totals: List[float] = []
    join_memberships: List[float] = []
    leave_totals: List[float] = []
    leave_memberships: List[float] = []
    join_ops = OpCounts()
    leave_ops = OpCounts()
    extra = 0
    for _ in range(repeats):
        # Measured join of one extra member, then restore.
        extra += 1
        joiner = framework.member(f"x{extra}", (size + extra) % machines)
        principals.append(joiner)
        before = _ledger_totals(principals)
        framework.mark_event()
        joiner.join()
        framework.run_until_idle(max_events=max_events)
        join_ops = join_ops + (_ledger_totals(principals) - before)
        record = framework.timeline.latest_complete()
        join_totals.append(record.total_elapsed())
        join_memberships.append(record.membership_elapsed())
        joiner.leave()  # restore the size (unmeasured)
        framework.run_until_idle(max_events=max_events)
        # Measured leave of the middle member, then restore.
        victim_index = size // 2
        victim = members[victim_index]
        before = _ledger_totals(principals)
        framework.mark_event()
        victim.leave()
        framework.run_until_idle(max_events=max_events)
        leave_ops = leave_ops + (_ledger_totals(principals) - before)
        record = framework.timeline.latest_complete()
        leave_totals.append(record.total_elapsed())
        leave_memberships.append(record.membership_elapsed())
        members[victim_index] = _rejoin(framework, victim)
        principals.append(members[victim_index])
    registry.histogram(
        "bench.cell.sim_ms", kind="scale", protocol=espec.protocol
    ).observe(sum(join_totals) + sum(leave_totals))
    if observe:
        registry.merge_snapshot(framework.obs.metrics.snapshot())
    result = {}
    for event, totals, memberships, ops in (
        ("join", join_totals, join_memberships, join_ops),
        ("leave", leave_totals, leave_memberships, leave_ops),
    ):
        result[event] = EventMeasurement(
            protocol=espec.protocol,
            event=event,
            group_size=size,
            dh_group=espec.dh_group,
            topology=framework.world.topology.name,
            total_ms=sum(totals) / len(totals),
            membership_ms=sum(memberships) / len(memberships),
            samples=repeats,
            engine=framework.engine.name,
            ops=_ops_dict(ops),
        ).to_dict()
    return result


def scale_cells(
    protocols: Sequence[str],
    sizes: Sequence[int],
    topology: str = "lan",
    dh_group: str = "dh-512",
    engine="symbolic",
    repeats: int = 1,
    seed: int = 0,
    observe: bool = False,
    max_events: int = LARGE_RUN_MAX_EVENTS,
) -> List[Cell]:
    """The sweep's cell grid, protocol-major with sizes ascending."""
    cells: List[Cell] = []
    for protocol in protocols:
        for size in sorted(set(sizes)):
            spec = {
                "protocol": protocol,
                "group_size": size,
                "dh_group": dh_group,
                "topology": topology,
                "repeats": repeats,
                "seed": seed,
                "engine": engine,
                "observe": observe,
                "max_events": max_events,
            }

            def summarize(result, protocol=protocol, size=size):
                return (
                    f"{protocol} n={size}: join "
                    f"{result['join']['total_ms']:.1f} ms, leave "
                    f"{result['leave']['total_ms']:.1f} ms"
                )

            cells.append(Cell("scale", spec, summarize=summarize))
    return cells


def run_scale(
    protocols: Sequence[str] = SCALE_PROTOCOLS,
    sizes: Sequence[int] = SCALE_SIZES,
    topology: str = "lan",
    dh_group: str = "dh-512",
    engine="symbolic",
    repeats: int = 1,
    seed: int = 0,
    observe: bool = False,
    max_events: int = LARGE_RUN_MAX_EVENTS,
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = 1,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    metrics: Optional[MetricsRegistry] = None,
) -> List[EventMeasurement]:
    """Join and leave total-elapsed times for every protocol and size.

    Cells are sharded over ``jobs`` worker processes and merged in grid
    order (protocol-major; per size: join then leave), so the output is
    identical for any ``jobs``.  With ``cache_dir`` set, previously
    computed cells are served from the content-addressed cache.  An
    engine *instance* (rather than a name) cannot cross process or cache
    boundaries, so it forces the inline uncached path.
    """
    if not (engine is None or isinstance(engine, str)):
        jobs, cache_dir, use_cache = 1, None, False
    cells = scale_cells(
        protocols,
        sizes,
        topology=topology,
        dh_group=dh_group,
        engine=engine,
        repeats=repeats,
        seed=seed,
        observe=observe,
        max_events=max_events,
    )
    results = run_cells(
        cells,
        jobs=jobs,
        cache_dir=cache_dir,
        use_cache=use_cache,
        metrics=metrics,
        progress=progress,
    )
    measurements: List[EventMeasurement] = []
    for result in results:
        measurements.append(EventMeasurement.from_dict(result["join"]))
        measurements.append(EventMeasurement.from_dict(result["leave"]))
    return measurements


def scale_payload(
    measurements: Sequence[EventMeasurement], **meta
) -> dict:
    """The BENCH_scale.json payload: run metadata + serialized cells."""
    payload = {"benchmark": "scale"}
    payload.update(meta)
    payload["measurements"] = [m.to_dict() for m in measurements]
    return payload


def write_scale_json(
    path: str, measurements: Sequence[EventMeasurement], **meta
) -> dict:
    payload = scale_payload(measurements, **meta)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return payload


def render_scale_table(measurements: Sequence[EventMeasurement]) -> str:
    """A compact per-event table: one row per size, one column per protocol."""
    protocols = sorted({m.protocol for m in measurements})
    sizes = sorted({m.group_size for m in measurements})
    cells = {(m.protocol, m.event, m.group_size): m for m in measurements}
    lines = []
    for event in ("join", "leave"):
        if not any(m.event == event for m in measurements):
            continue
        lines.append(f"{event} total elapsed (ms)")
        header = ["    n"] + [f"{p:>12s}" for p in protocols]
        lines.append("".join(header))
        for size in sizes:
            row = [f"{size:5d}"]
            for protocol in protocols:
                m = cells.get((protocol, event, size))
                row.append(f"{m.total_ms:12.1f}" if m else " " * 12)
            lines.append("".join(row))
        lines.append("")
    return "\n".join(lines).rstrip()
