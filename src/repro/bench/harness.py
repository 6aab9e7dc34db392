"""Measurement of single membership events on the full simulated stack.

Reproduces the paper's experimental procedure (§6): members are uniformly
distributed over the testbed machines, the group is grown by sequential
joins, and the reported number is the *total elapsed time* from the
membership event to the moment the last member is notified of the new key
— averaged over several events, with the per-protocol conventions the
paper describes in §6.1.2 (CKD's controller-leave weighting, STR's
middle-member leave, TGDH measured on the tree its own heuristic builds).

An experiment cell is described by an :class:`ExperimentSpec` and run with
:func:`run_experiment`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, List, Optional, Union

from repro.core.framework import SecureSpreadFramework
from repro.crypto.engine import CryptoEngine
from repro.gcs.messages import View, ViewEvent
from repro.gcs.topology import TESTBEDS, Topology
from repro.obs.report import epoch_breakdown

#: event budget for large-n runs (the simulator default is sized for the
#: paper's n ≤ 50 sweeps; a 1000-member rekey legitimately needs millions
#: of deliveries).
LARGE_RUN_MAX_EVENTS = 50_000_000


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything that defines one experiment cell.

    ``topology`` is a testbed name (``"lan"``, ``"wan"``,
    ``"medium-wan"``) or a zero-argument factory returning a
    :class:`~repro.gcs.topology.Topology`.  ``engine`` is a crypto engine
    spec (``None``/``"real"``/``"symbolic"``/``"real:<backend>"`` or an
    instance, see :func:`repro.crypto.engine.get_engine`).
    """

    protocol: str
    event: str
    group_size: int
    dh_group: str = "dh-512"
    topology: Union[str, Callable[[], Topology]] = "lan"
    repeats: int = 2
    seed: int = 0
    breakdown: bool = False
    engine: Union[None, str, CryptoEngine] = None

    def __post_init__(self):
        if self.event not in ("join", "leave"):
            raise ValueError("event must be 'join' or 'leave'")
        if self.group_size < 1:
            raise ValueError("group_size must be at least 1")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        if isinstance(self.topology, str) and self.topology not in TESTBEDS:
            raise ValueError(
                f"unknown topology {self.topology!r}; "
                f"choose from {sorted(TESTBEDS)} or pass a factory"
            )

    def topology_factory(self) -> Callable[[], Topology]:
        if callable(self.topology):
            return self.topology
        return TESTBEDS[self.topology]

    def build_framework(self, observe: Optional[bool] = None) -> SecureSpreadFramework:
        """A fresh framework configured for this cell."""
        return SecureSpreadFramework(
            self.topology_factory()(),
            default_protocol=self.protocol,
            dh_group=self.dh_group,
            seed=self.seed,
            observe=self.breakdown if observe is None else observe,
            engine=self.engine,
        )


@dataclass
class EventMeasurement:
    """Averaged timings for one experiment cell.

    ``communication_ms`` and ``computation_ms`` are the span-based phase
    attribution (averaged like the totals); they are ``None`` unless the
    measurement ran with ``breakdown=True``.  When present,
    ``membership_ms + communication_ms + computation_ms == total_ms``
    (each sample reconciles exactly; averaging preserves the identity).

    ``ops`` optionally carries the summed operation-ledger charges of
    the measured event(s) — exponentiations, multiplications, signatures,
    verifications across all members, totalled over the samples.  The
    counts are exact integers (never averaged) so regression gating can
    compare them bit-for-bit; the scale benchmark fills them in.
    """

    protocol: str
    event: str
    group_size: int
    dh_group: str
    topology: str
    total_ms: float
    membership_ms: float
    samples: int
    communication_ms: Optional[float] = None
    computation_ms: Optional[float] = None
    engine: str = "real"
    ops: Optional[dict] = None

    @property
    def key_agreement_ms(self) -> float:
        return self.total_ms - self.membership_ms

    def to_dict(self) -> dict:
        """A JSON-ready dict — the single serialization for all outputs."""
        return {
            field.name: getattr(self, field.name)
            for field in fields(self)
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EventMeasurement":
        """Inverse of :meth:`to_dict`; unknown keys are ignored."""
        known = {field.name for field in fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})


def _fresh_framework(
    topology_factory: Callable[[], Topology],
    protocol: str,
    dh_group: str,
    seed: int,
    observe: bool = False,
    engine=None,
) -> SecureSpreadFramework:
    return SecureSpreadFramework(
        topology_factory(),
        default_protocol=protocol,
        dh_group=dh_group,
        seed=seed,
        observe=observe,
        engine=engine,
    )


def grow_group(
    framework: SecureSpreadFramework, size: int, start: int = 0, prefix: str = "m"
) -> List:
    """Grow the group to ``size`` members by sequential (settled) joins."""
    members = []
    machines = len(framework.world.topology.machines)
    for index in range(start, size):
        member = framework.member(f"{prefix}{index}", index % machines)
        member.join()
        framework.run_until_idle()
        members.append(member)
    return members


def grow_group_batched(
    framework: SecureSpreadFramework,
    size: int,
    start: int = 0,
    prefix: str = "m",
    existing: Optional[List] = None,
    group_name: str = "secure-group",
    max_events: int = LARGE_RUN_MAX_EVENTS,
    machine_of: Optional[Callable[[int], int]] = None,
) -> List:
    """Grow the group to ``size`` members with a *single* rekey.

    :func:`grow_group` re-runs a full key agreement after every join —
    O(n²) event churn that dominates large-n setup.  Here every member
    defers rekeying while all joins flow through the membership service,
    then one synthetic merge view (newcomers = everything beyond the
    settled base) drives a single agreement over the final membership.
    The resulting membership view is asserted identical to what
    sequential growth settles on.

    ``existing`` is the list of members already in the group (defaults to
    every member created for ``group_name``); returns the new members,
    like :func:`grow_group`.  ``machine_of`` overrides the default
    ``index % machines`` placement — the workload engine uses it to
    stagger many groups across the testbed instead of piling every
    group's member 0 onto machine 0.
    """
    if existing is None:
        existing = framework.members_of(group_name)
    base_names = {member.name for member in existing}
    machines = len(framework.world.topology.machines)
    if machine_of is None:
        def machine_of(index: int) -> int:
            return index % machines
    joiners = [
        framework.member(f"{prefix}{index}", machine_of(index), group_name)
        for index in range(start, size)
    ]
    if not joiners:
        return []
    everyone = list(existing) + joiners
    for member in everyone:
        member.defer_rekey = True
    for member in joiners:
        member.join()
    framework.run_until_idle(max_events=max_events)
    final = max(
        (m._deferred_view for m in everyone if m._deferred_view is not None),
        key=lambda view: view.view_id,
        default=None,
    )
    expected = base_names | {member.name for member in joiners}
    if final is None or set(final.members) != expected:
        raise AssertionError(
            "batched growth did not settle on the expected membership"
        )
    joined = tuple(name for name in final.members if name not in base_names)
    rekey_view = View(
        view_id=final.view_id,
        group=final.group,
        members=final.members,
        event=ViewEvent.MERGE if len(joined) > 1 else ViewEvent.JOIN,
        joined=joined,
        left=(),
    )
    for member in everyone:
        member.defer_rekey = False
        member._deferred_view = None
    for member in everyone:
        member.flush_deferred(rekey_view)
    framework.run_until_idle(max_events=max_events)
    for member in everyone:
        view = member.protocol.view
        if view is None or view.members != final.members:
            raise AssertionError(
                f"{member.name} settled on a different membership view"
            )
        if not member.protocol.done_for(view):
            raise AssertionError(f"{member.name} did not key the grown group")
    return joiners


def run_experiment(spec: ExperimentSpec) -> EventMeasurement:
    """Average elapsed time for one :class:`ExperimentSpec` cell.

    Each repeat performs the event on a settled group of exactly
    ``spec.group_size`` members and restores the size afterwards.

    With ``breakdown=True`` the framework runs with observability enabled
    and the measurement also carries the averaged span-based
    communication/computation attribution (the paper's §6 decomposition).
    Observability is passive, so the timing numbers are identical either
    way.
    """
    framework = spec.build_framework()
    members = grow_group(framework, spec.group_size)
    totals: List[float] = []
    memberships: List[float] = []
    comms: List[float] = []
    computs: List[float] = []
    extra_index = 0
    for repeat in range(spec.repeats):
        if spec.event == "join":
            extra_index += 1
            joiner = framework.member(
                f"x{extra_index}",
                (spec.group_size + extra_index)
                % len(framework.world.topology.machines),
            )
            framework.mark_event()
            joiner.join()
            framework.run_until_idle()
            record = framework.timeline.latest_complete()
            totals.append(record.total_elapsed())
            memberships.append(record.membership_elapsed())
            if spec.breakdown:
                phases = epoch_breakdown(record, framework.obs.spans)
                comms.append(phases.communication_ms)
                computs.append(phases.computation_ms)
            joiner.leave()  # restore the size (unmeasured)
            framework.run_until_idle()
        else:
            total, membership, comm, comput = _measure_leave(
                framework, members, spec.protocol
            )
            totals.append(total)
            memberships.append(membership)
            if spec.breakdown:
                comms.append(comm)
                computs.append(comput)
    return EventMeasurement(
        protocol=spec.protocol,
        event=spec.event,
        group_size=spec.group_size,
        dh_group=spec.dh_group,
        topology=framework.world.topology.name,
        total_ms=sum(totals) / len(totals),
        membership_ms=sum(memberships) / len(memberships),
        samples=spec.repeats,
        communication_ms=sum(comms) / len(comms) if comms else None,
        computation_ms=sum(computs) / len(computs) if computs else None,
        engine=framework.engine.name,
    )


def _leave_and_time(framework, member):
    framework.mark_event()
    member.leave()
    framework.run_until_idle()
    record = framework.timeline.latest_complete()
    return record.total_elapsed(), record.membership_elapsed(), record


def _rejoin(framework, member):
    """Re-admit a member that left, replacing its protocol instance."""
    fresh = framework.member(
        member.name + "'",
        framework.world.topology.machines.index(member.machine),
        member.group_name,
    )
    fresh.join()
    framework.run_until_idle()
    return fresh


def _measure_leave(framework, members: List, protocol: str):
    """One leave sample, honoring the paper's §6.1.2 conventions.

    Returns ``(total, membership, communication, computation)``; the phase
    attribution entries are ``None`` unless the framework runs with
    observability enabled.  CKD's controller-leave weighting is applied to
    the phase attribution exactly as to the totals.
    """
    n = len(members)
    if protocol == "STR":
        victim_index = n // 2  # the middle of the STR stack
    elif protocol == "CKD":
        victim_index = n // 2  # non-controller case; weighted below
    else:
        victim_index = n // 2
    victim = members[victim_index]
    total, membership, record = _leave_and_time(framework, victim)
    comm, comput = _phases_of(framework, record)
    members[victim_index] = _rejoin(framework, victim)
    if protocol == "CKD":
        # Weight in the controller-leave case with probability 1/n: the
        # departing controller forces full channel re-establishment.
        controller = members[0]
        ctrl_total, ctrl_membership, ctrl_record = _leave_and_time(
            framework, controller
        )
        ctrl_comm, ctrl_comput = _phases_of(framework, ctrl_record)
        replacement = _rejoin(framework, controller)
        members.pop(0)
        members.append(replacement)
        total = (1 - 1 / n) * total + (1 / n) * ctrl_total
        membership = (1 - 1 / n) * membership + (1 / n) * ctrl_membership
        if comm is not None:
            comm = (1 - 1 / n) * comm + (1 / n) * ctrl_comm
            comput = (1 - 1 / n) * comput + (1 / n) * ctrl_comput
    return total, membership, comm, comput


def _phases_of(framework, record):
    """Span-based (communication, computation) for one epoch record, or
    ``(None, None)`` when observability is off."""
    if not framework.obs.enabled:
        return None, None
    phases = epoch_breakdown(record, framework.obs.spans)
    return phases.communication_ms, phases.computation_ms
