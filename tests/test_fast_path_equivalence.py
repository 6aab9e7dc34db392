"""The unobserved receive path against the observed reference path.

A member prices each protocol step one of two ways: with observability
off, straight off the ledger with no snapshot (the fast path); with it
on, through ``SecureGroupMember._charged``'s snapshot diff, span and
counters (the reference).  Both must drive the simulation identically:
same events, same install instants, same ledgers, same stall recovery,
same keys.  The faulty script makes CKD and GDH stall and restart, so
the watchdog and early-message paths are covered too.
"""

import pytest

from repro.bench.harness import grow_group_batched
from repro.core import SecureSpreadFramework
from repro.faults.link import LinkFaults
from repro.gcs import GcsWorld, lan_testbed
from repro.gcs.client import deliver

PROTOCOLS = ("BD", "CKD", "GDH", "STR", "TGDH")
SIZE = 40
SEED = 5
#: virtual ms the faulty join runs for: at drop=0.5 GDH never converges
#: (its restarted token chain crosses ~40 lossy unicasts), so the run is
#: bounded in simulated time rather than run until idle
FAULT_WINDOW_MS = 3000.0


def _run(protocol, observe, faulty):
    fw = SecureSpreadFramework(
        lan_testbed(), default_protocol=protocol, dh_group="dh-512",
        seed=SEED, observe=observe, engine="symbolic",
    )
    roster = grow_group_batched(fw, SIZE)
    joiner = fw.member("x", 3)
    if faulty:
        fw.stall_timeout_ms = 400.0
        fw.world.install_link_faults(LinkFaults.uniform(seed=SEED, drop=0.5))
        joiner.join()
        fw.world.sim.run(until=fw.now + FAULT_WINDOW_MS)
    else:
        joiner.join()
        fw.run_until_idle()
        roster[SIZE // 3].leave()
        fw.run_until_idle()
    members = fw.members_of("secure-group")
    return {
        "events": fw.world.sim.events_processed,
        "key_ready": {
            view_id: dict(record.key_ready)
            for view_id, record in fw.timeline.epochs.items()
        },
        "ledgers": {m.name: m.protocol.ledger.snapshot() for m in members},
        "stalls": fw.rekey_stalls,
        "restarts": fw.rekey_restarts,
        "keys": {m.name: (m.protocol.key_epoch, m.protocol.key) for m in members},
    }


@pytest.mark.parametrize("faulty", [False, True], ids=["join-leave", "lossy-join"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_fast_path_matches_reference_path(protocol, faulty):
    fast = _run(protocol, observe=False, faulty=faulty)
    reference = _run(protocol, observe=True, faulty=faulty)
    assert fast == reference
    if faulty and protocol in ("CKD", "GDH"):
        # the faulty script only cross-checks stall recovery if it stalls
        assert fast["stalls"] > 0 and fast["restarts"] > 0


def test_fan_out_delivers_to_installed_callbacks(monkeypatch):
    """One fan-out event: every co-located recipient records the message
    and runs its installed ``on_message``; a client that disconnected
    after the event was scheduled (before the IPC delay expired) gets
    neither."""
    world = GcsWorld(lan_testbed())
    local = [world.channel(name, 0) for name in ("alice", "bob", "carol")]
    sender = world.channel("sender", 1)
    for client in local + [sender]:
        client.join("g")
        world.run_until_idle()
    alice, bob, carol = local
    seen = []
    for client in local:
        client.on_message = lambda c, m: seen.append((c.name, m.payload))
    schedule = world.sim.schedule

    def schedule_then_disconnect(delay, fn, *args):
        event = schedule(delay, fn, *args)
        if fn is deliver and carol in args[0] and carol.connected:
            carol.disconnect()
        return event

    monkeypatch.setattr(world.sim, "schedule", schedule_then_disconnect)
    sender.multicast("g", "hello")
    world.run_until_idle()
    assert seen == [("alice", "hello"), ("bob", "hello")]
    for client in (alice, bob):
        assert [m.payload for m in client.received] == ["hello"]
    assert carol.received == []
