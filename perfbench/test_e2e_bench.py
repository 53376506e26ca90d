"""Tests of the whole-round benchmark itself (``perfbench/run.py``).

The heavy workloads run here at reduced size (fewer clients and selections),
so every workload's code path, tracing and output checks are exercised in
seconds; the sizes the benchmark measures are in ``e2e_workloads.py``.
"""

import dataclasses
import importlib.util
import itertools
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import e2e_probe  # noqa: E402
import e2e_trace  # noqa: E402
import e2e_workloads  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run",
                                               os.path.join(HERE, "run.py"))
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench
_spec.loader.exec_module(bench)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

#: reduced sizes and builds for the workloads that take seconds at full size
SMALL = {
    "cold-population": dict(n_clients=2_000, participants=16, warmup=1, setups=1),
    "secure-dubhe": dict(n_clients=24, participants=6, tries=2, setups=1),
    "socket-loopback": dict(setups=2, federations=2),
}


def small(name):
    return dataclasses.replace(e2e_workloads.WORKLOADS[name], **SMALL.get(name, {}))


def test_benchmark_json_names_what_the_command_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(e2e_workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} \
        == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(e2e_workloads.WORKLOADS))
def test_short_run_emits_every_metric(name, trace, monkeypatch, capsys):
    monkeypatch.setitem(e2e_workloads.WORKLOADS, name, small(name))
    status = bench.main(["--workload", name, "--seed", "3", "--seconds", "0.1",
                         "--trace", str(trace)])
    assert status == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])


def test_tracer_puts_the_original_callables_back():
    from repro.data.cohort import DatasetCache
    from repro.transport import messages

    targets = [(owner, attribute) for owner, attribute, _ in e2e_trace.span_targets()]
    targets += [(DatasetCache, "get"), (messages, "decode_message")]
    originals = [vars(owner)[attribute] for owner, attribute in targets]
    with e2e_trace.Tracer():
        assert all(vars(owner)[attribute] is not original
                   for (owner, attribute), original in zip(targets, originals))
    assert all(vars(owner)[attribute] is original
               for (owner, attribute), original in zip(targets, originals))


@pytest.mark.parametrize("name", ["warm-cohort", "secure-dubhe"])
def test_wrapping_leaves_selections_and_model_bit_identical(name, tmp_path):
    workload = small(name)
    plain = bench.run_federation(workload, 5, 1, 4, str(tmp_path))
    with e2e_trace.Tracer() as tracer:
        traced = bench.run_federation(workload, 5, 1, 4, str(tmp_path))
    assert len(tracer.rounds()) == 5
    assert traced.digest() == plain.digest()
    assert all(np.array_equal(traced.state[key], plain.state[key]) for key in plain.state)


def test_self_time_goes_to_the_innermost_span_and_sums_to_wall_time():
    tracer = e2e_trace.Tracer()
    foreign = e2e_trace.FOREIGN_DEPTH
    tracer.spans = [
        (0.0, 10.0, 0, "round"),
        (1.0, 5.0, 1, "a"),
        (2.0, 3.0, 2, "b"),          # nested in a
        (6.0, 9.0, foreign, "c"),    # another thread, while the driving thread waits
        (7.0, 8.0, 1, "d"),          # the driving thread's own span under c
    ]
    times = tracer.self_times(tracer.rounds())
    assert times == pytest.approx({"round": 3.0, "a": 3.0, "b": 1.0, "c": 3.0})
    assert sum(times.values()) == pytest.approx(10.0)


def test_host_probe_takes_its_share_and_converts_to_reference_seconds(monkeypatch):
    tick = 2.0 ** -10  # exact in binary, so the probe's sums are exact too
    clock = itertools.count(step=tick)
    monkeypatch.setattr(e2e_probe, "perf_counter", lambda: next(clock))
    probe = e2e_probe.HostProbe()
    units = []
    monkeypatch.setattr(probe, "_unit", lambda: units.append(None))
    assert probe.scale_after(0.0) == e2e_probe.PROBE_REFERENCE_S / tick
    assert len(units) == 1
    probe.scale_after(0.05)
    assert len(units) == 1 + math.ceil(e2e_probe.PROBE_SHARE * 0.05 / tick)


def test_tail_is_the_highest_percentile_with_ten_rounds_beyond_it_up_to_p95():
    assert bench.tail([float(v) for v in range(1, 101)]) == (90.0, 90)
    assert bench.tail([float(v) for v in range(1, 21)]) == (10.0, 50)
    assert bench.tail([float(v) for v in range(1, 1001)]) == (950.0, 95)


def test_fails_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "warm-cohort",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
