"""Tests of the benchmark's own logic: statistics, self-time accounting,
failure counting, seed plumbing and the refused sweep pool.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import workloads
import run as cli
from tracing import Tracer, layer_of_module

#: A closed loop small enough for a unit test that still yields the
#: 1000+ member installs a p99 needs.
TINY = workloads.ClosedLoop(
    "tiny", size=8, dh_group="dh-512", engine="symbolic",
    round_host_s=1.0, min_rounds=13,
)


def declared(kind):
    """Metric names ``BENCHMARK.json`` declares for ``kind``."""
    with open(os.path.join(os.path.dirname(cli.HERE), "BENCHMARK.json")) as f:
        return [metric["name"] for metric in json.load(f)[kind]]


class FakeClock:
    def __init__(self, *readings):
        self._readings = list(readings)

    def __call__(self):
        return self._readings.pop(0)


# -- statistics ----------------------------------------------------------------


def test_percentile_is_nearest_rank_with_ten_samples_above():
    values = list(range(1000, 0, -1))  # unsorted input
    assert workloads.percentile(values, 99) == 990
    assert workloads.percentile(values, 50) == 500
    assert 1000 - workloads.samples_rank(1000, 99) == 10


def test_a_p99_needs_ten_samples_above_it():
    assert workloads.tail_supported(1000, 99)
    assert not workloads.tail_supported(999, 99)
    assert not workloads.tail_supported(0, 99)


def test_samples_rank_uses_exact_integer_ceiling():
    assert workloads.samples_rank(7745, 99) == 7668  # ceil(7667.55)
    assert workloads.samples_rank(100, 99) == 99
    assert workloads.samples_rank(1, 50) == 1
    with pytest.raises(ValueError):
        workloads.samples_rank(0, 50)


def test_report_lines_state_sample_counts():
    report = workloads._run_plain(TINY, seed=3, seconds=1, import_s=0.0)
    p99_line = next(line for line in report.lines if "sim_rekey_ms_p99" in line)
    samples = int(p99_line.split("(")[1].split(" samples")[0])
    above = int(p99_line.split(", ")[1].split(" above")[0])
    assert samples >= 1000
    assert above == samples - workloads.samples_rank(samples, 99) >= 10
    assert report.correct and report.failed == 0
    assert list(report.metrics) == declared("end_to_end")


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    # a[0..10] contains b[1..4] and c[5..6]; b contains d[2..3]
    tracer = Tracer(clock=FakeClock(0, 1, 2, 3, 4, 5, 6, 10))
    tracer.enter("sim.a")
    tracer.enter("gcs.b")
    tracer.enter("core.d")
    tracer.exit()
    tracer.exit()
    tracer.enter("crypto.c")
    tracer.exit()
    tracer.exit()
    layers = tracer.layer_self_s()
    assert layers["sim"] == 6  # 10 - 3 - 1
    assert layers["gcs"] == 2  # 3 - 1
    assert layers["core"] == 1
    assert layers["crypto"] == 1
    assert sum(layers.values()) == 10


def test_wrapped_calls_and_fired_events_account_like_frames():
    tracer = Tracer(clock=FakeClock(0, 1, 2, 4, 7, 8, 9, 10))
    inner = tracer.wrap("keytree.leaves", lambda: "leaves")
    outer = tracer.wrap("protocols.receive", lambda: inner())
    tracer.begin_span("measure")           # 0
    assert outer() == "leaves"             # 1 [2..4] 7
    tracer.fire(lambda: None, "workload.event")  # 8..9 under rekey 1
    tracer.end_span()                      # 10
    assert tracer.self_s[(0, "keytree.leaves")] == 2
    assert tracer.self_s[(0, "protocols.receive")] == 4
    assert tracer.self_s[(1, "workload.event")] == 1
    assert tracer.self_s[(1, "bench.measure")] == 3  # attributed at exit
    assert tracer.calls["keytree.leaves"] == 1
    assert tracer.spans[0]["end"] - tracer.spans[0]["start"] == 10
    assert sum(tracer.layer_self_s().values()) == 10


def test_callback_layer_follows_owning_module():
    assert layer_of_module("repro.protocols.keytree") == "keytree"
    assert layer_of_module("repro.protocols.tgdh") == "protocols"
    assert layer_of_module("repro.gcs.daemon") == "gcs"
    assert layer_of_module("repro.sim") == "sim"
    assert layer_of_module("repro.simulation") == "bench"
    assert layer_of_module(None) == "bench"


def test_traced_run_matches_untraced_and_restores_every_seam(tmp_path):
    from repro.protocols.keytree import KeyTree
    from repro.sim.cpu import Machine

    originals = (vars(KeyTree)["leaves"], vars(Machine)["submit"])
    report = workloads._run_traced(TINY, seed=5, seconds=1, out_dir=str(tmp_path))
    assert report.correct, report.lines
    assert "traced digest equals the untraced digest" in report.lines
    assert (vars(KeyTree)["leaves"], vars(Machine)["submit"]) == originals
    assert list(report.metrics) == declared("per_layer")
    assert report.metrics["sim.events"][0] > 0
    assert report.metrics["obs.self_s"][0] == 0
    assert (tmp_path / "trace-tiny-seed5.json").exists()


# -- failure counting --------------------------------------------------------------


def _member(name, view, key, done=True, secure=True):
    protocol = SimpleNamespace(view=view, key=key, done_for=lambda v: done)
    return SimpleNamespace(name=name, protocol=protocol, is_secure=secure)


def test_settled_view_requires_one_shared_key_for_exactly_the_roster():
    view = SimpleNamespace(view_id=(1, 2), members=("a", "b"))
    good = [_member("a", view, 7), _member("b", view, 7)]
    assert workloads.settled_view(good) is view
    assert workloads.settled_view([_member("a", view, 7), _member("b", view, 8)]) is None
    assert workloads.settled_view([_member("a", view, 7)]) is None
    assert workloads.settled_view(
        [_member("a", view, 7), _member("b", view, 7, done=False)]) is None
    assert workloads.settled_view(
        [_member("a", view, 7), _member("b", view, 7, secure=False)]) is None
    other = SimpleNamespace(view_id=(1, 3), members=("a", "b"))
    assert workloads.settled_view([_member("a", view, 7), _member("b", other, 7)]) is None


def test_a_failed_rekey_is_counted_and_fails_the_run(monkeypatch):
    real = workloads.settled_view
    calls = []

    def flaky(roster):
        calls.append(1)
        return None if len(calls) == 4 else real(roster)

    monkeypatch.setattr(workloads, "settled_view", flaky)
    report = workloads._run_plain(TINY, seed=3, seconds=1, import_s=0.0)
    assert report.failed == 1
    assert report.attempted == 13 * 10
    assert not report.correct
    assert report.metrics["rekey_success_frac"][0] == 1 - 1 / 130


def test_a_digest_mismatch_fails_every_rekey(monkeypatch):
    monkeypatch.setattr(workloads, "reference_digest", lambda *a: "0" * 64)
    report = workloads._run_plain(TINY, seed=3, seconds=1, import_s=0.0)
    assert not report.correct
    assert report.failed == report.attempted
    assert any("MISMATCH" in line for line in report.lines)


# -- seed plumbing -----------------------------------------------------------------


def test_seed_reaches_frameworks_and_victim_choice():
    setup = workloads.setup_closed(TINY, seed=7)
    assert {unit.framework.seed for unit in setup.units} == {7}

    def picks(seed, index):
        choices = workloads.LoopChoices(seed, index)
        return ([choices.victim(256) for _ in range(8)],
                [choices.machine(13) for _ in range(8)])

    assert picks(7, 2) == picks(7, 2)
    assert picks(8, 2) != picks(7, 2)
    assert picks(7, 3) != picks(7, 2)
    # quasi-random victims: no gap between neighbours above a fifth
    positions = sorted(picks(7, 2)[0])
    gaps = [b - a for a, b in zip(positions, positions[1:] + [positions[0] + 256])]
    assert max(gaps) < 256 / 5


def test_seed_and_seconds_reach_the_workload_specs():
    work = workloads.WORKLOADS["churn-storm"]
    specs = workloads.churn_specs(work, seed=11, seconds=10)
    assert [spec.protocol for spec in specs] == ["BD", "CKD", "GDH", "TGDH"]
    assert {spec.seed for spec in specs} == {11}
    assert {spec.duration_ms for spec in specs} == {work.duration_ms(10)}
    assert not any(spec.faults for spec in specs)
    assert specs[0].events() != workloads.churn_specs(work, 12, 10)[0].events()


def test_work_is_a_function_of_seconds_not_of_host_speed():
    work = workloads.WORKLOADS["sym-n256"]
    assert work.rounds(10) == work.rounds(10.0) >= 1
    assert workloads.WORKLOADS["real-dh2048"].rounds(1) == 4  # install floor
    assert workloads.WORKLOADS["churn-storm"].duration_ms(1) == 3000.0


# -- refused pool --------------------------------------------------------------------


def test_sweep_pool_is_refused_during_a_run_and_restored_after():
    from repro.bench import pool

    original = pool.run_cells
    with workloads.refuse_sweep_pool():
        with pytest.raises(RuntimeError, match="refused"):
            pool.run_cells([])
    assert pool.run_cells is original


def test_cli_workloads_match_the_module_and_benchmark_json():
    with open(os.path.join(os.path.dirname(cli.HERE), "BENCHMARK.json")) as f:
        declared_workloads = [w["name"] for w in json.load(f)["workloads"]]
    assert list(cli.WORKLOAD_NAMES) == list(workloads.WORKLOADS) == declared_workloads


def test_cli_has_no_pool_or_cache_options():
    with pytest.raises(SystemExit):
        cli.parse_args(["--workload", "sym-n256", "--seed", "1",
                        "--seconds", "10", "--jobs", "2"])
    with pytest.raises(SystemExit):
        cli.parse_args(["--workload", "sym-n256", "--seed", "1",
                        "--seconds", "10", "--cache-dir", "x"])


def test_cli_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(cli.HERE, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         "sym-n256", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
