#!/usr/bin/env python3
"""Whole-round Dubhe benchmark: end-to-end round metrics plus per-layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload warm-cohort --seed 0 --seconds 10 --trace 0

``--trace 0`` builds the workload's federation several times (median set-up
time), runs warm-up rounds and then the timed rounds untraced, checks the
outputs and prints every end-to-end metric.  ``--trace 1`` runs the workload
twice — once untraced, once with every layer entry point wrapped
(:mod:`e2e_trace`) — checks that both runs select the same cohorts and reach
the same accuracy, and prints the per-layer metrics, including the tracing
overhead.  Run as a command, the process stays on one core, and every time
it reports is in reference seconds (:mod:`e2e_probe`).  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

Everything printed before it is a human-readable report plus one
``record:`` line holding the machine, library versions, seed, sample counts
and directions.  Exit status 0 means the run completed; ``correct`` says
whether every output check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: a seed never used while the benchmark was written; check claims on it too
HELD_OUT_SEED = 7759
#: thread-count variables of the BLAS libraries numpy may be built against
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: end-to-end metrics: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "round_p50_s": ("s", "lower"),
    "round_tail_s": ("s", "lower"),
    "client_updates_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "final_accuracy": ("share", "higher"),
    "mean_population_emd": ("emd", "lower"),
    "update_success_share": ("share", "higher"),
}

#: per-layer metrics (per timed round unless the name says setup): name -> unit
PER_LAYER = {
    "data.generate_s": "s",
    "data.generate_calls": "count",
    "data.cache_hit_ratio": "share",
    "federated.train_s": "s",
    "federated.aggregate_s": "s",
    "federated.evaluate_s": "s",
    "core.select_s": "s",
    "core.register_s": "s",
    "crypto.encrypt_s": "s",
    "crypto.encrypt_calls": "count",
    "crypto.decrypt_s": "s",
    "crypto.decrypt_calls": "count",
    "crypto.ciphertext_bytes": "B",
    "ledger.commit_s": "s",
    "ledger.bytes": "B",
    "transport.run_round_s": "s",
    "transport.frames": "count",
    "transport.bytes": "B",
    "round.unattributed_s": "s",
    "round.unattributed_share": "share",
    "trace.overhead_s": "s",
}

#: span layer -> per-layer self-time metric
SELF_TIME_METRICS = {
    "data.generate": "data.generate_s",
    "federated.train": "federated.train_s",
    "federated.aggregate": "federated.aggregate_s",
    "federated.evaluate": "federated.evaluate_s",
    "core.select": "core.select_s",
    "crypto.encrypt": "crypto.encrypt_s",
    "crypto.decrypt": "crypto.decrypt_s",
    "ledger.commit": "ledger.commit_s",
    "transport.run_round": "transport.run_round_s",
    "round": "round.unattributed_s",
}


@dataclass
class RunResult:
    """What one build-and-run of a federation produced."""

    #: (start, end) of the set-up, in perf_counter seconds
    setup_window: "tuple[float, float]"
    #: reference seconds per wall second of the set-up (:mod:`e2e_probe`)
    setup_scale: float
    #: wall time of every round, warm-up included
    round_times: list
    #: reference seconds per wall second of every round
    round_scales: list
    history: object
    #: final global model state
    state: dict
    #: (ledger bytes, ciphertext bytes) before round 0 and after each round;
    #: empty unless the run was asked to record them
    sizes: list

    @property
    def setup_s(self) -> float:
        """Set-up time in reference seconds."""
        return (self.setup_window[1] - self.setup_window[0]) * self.setup_scale

    def timed(self, warmup: int) -> list:
        """Reference seconds of every round after the first *warmup*."""
        return [seconds * scale for seconds, scale
                in zip(self.round_times[warmup:], self.round_scales[warmup:])]

    def digest(self) -> str:
        """SHA-256 of every round's selected cohort, in order."""
        cohorts = [list(record.selected_clients) for record in self.history.records]
        return hashlib.sha256(json.dumps(cohorts).encode()).hexdigest()

    @property
    def final_accuracy(self) -> float:
        return float(self.history.records[-1].test_accuracy)


def run_federation(workload, seed: int, warmup: int, rounds: int,
                   workdir: str, record_sizes: bool = False) -> RunResult:
    """Build the federation (timed as set-up), run it and close it.

    The host probe follows the set-up and every round, outside their timings.
    """
    from e2e_probe import HostProbe
    from e2e_workloads import Federation

    probe = HostProbe()
    setup_start = perf_counter()
    federation = Federation(workload, seed, warmup + rounds, workdir)
    setup_end = perf_counter()
    try:
        setup_scale = probe.scale_after(setup_end - setup_start)
        simulation = federation.simulation
        sizes = []

        def record():
            stats = getattr(simulation.selector, "stats", None)
            sizes.append((federation.ledger_bytes(),
                          0 if stats is None else stats.ciphertext_bytes))

        if record_sizes:
            record()
        times, scales = [], []
        round_start = [perf_counter()]

        def progress(_record) -> None:
            times.append(perf_counter() - round_start[0])
            if record_sizes:
                record()
            scales.append(probe.scale_after(times[-1]))
            round_start[0] = perf_counter()

        history = simulation.run(warmup + rounds, progress=progress)
        state = simulation.server.global_state()
    finally:
        federation.close()
        gc.collect()
    return RunResult((setup_start, setup_end), setup_scale, times, scales,
                     history, state, sizes)


def time_setup(workload, seed: int, rounds: int, workdir: str) -> float:
    """Reference seconds to build (and then close) the federation of *workload*."""
    from e2e_probe import HostProbe
    from e2e_workloads import Federation

    start = perf_counter()
    federation = Federation(workload, seed, rounds, workdir)
    elapsed = perf_counter() - start
    scale = HostProbe().scale_after(elapsed)
    federation.close()
    gc.collect()
    return elapsed * scale


#: highest percentile reported as the tail; further out, a run's ten slowest
#: rounds are whichever bursts the shared host happened to have
TAIL_PERCENTILE_CAP = 95


def tail(values: list) -> "tuple[float, int]":
    """``(value, percentile)``: the highest whole percentile with >= 10 values
    beyond it, capped at :data:`TAIL_PERCENTILE_CAP`."""
    ordered = sorted(values)
    n = len(ordered)
    percentile = max(1, min(TAIL_PERCENTILE_CAP, math.floor(100 * (n - 10) / n)))
    rank = math.ceil(percentile / 100 * n)
    return ordered[rank - 1], percentile


def update_counts(history, rounds: int) -> "tuple[int, int]":
    """``(attempted, failed)`` client updates over the last *rounds* rounds."""
    records = history.records[-rounds:]
    attempted = sum(len(record.selected_clients) for record in records)
    failed = sum(len(record.failures) for record in records)
    return attempted, failed


class Checks:
    """Named output checks; a check that raises counts as failed."""

    def __init__(self) -> None:
        self.results: "dict[str, bool]" = {}

    def run(self, name: str, check) -> None:
        try:
            passed = bool(check())
        except Exception:
            traceback.print_exc()
            passed = False
        self.results[name] = passed
        print(f"check {name}: {'ok' if passed else 'FAILED'}")

    @property
    def failed(self) -> int:
        return sum(1 for passed in self.results.values() if not passed)


def workload_checks(checks: Checks, workload, seed: int, result: RunResult) -> None:
    """The checks every run of *workload* makes on its own output."""
    checks.run("final_accuracy_in_range",
               lambda: 0.0 <= result.final_accuracy <= 1.0)
    if workload.secure:
        checks.run("secure_equals_plaintext_selection",
                   lambda: secure_matches_plaintext(workload, seed, result))
    if workload.socket:
        checks.run("socket_equals_inprocess_model",
                   lambda: socket_matches_inprocess(workload, seed, result))


def secure_matches_plaintext(workload, seed: int, result: RunResult) -> bool:
    """The encrypted protocol selects exactly what plaintext Dubhe selects."""
    from e2e_workloads import components

    plain = components(workload, seed, secure=False)["selector"]
    return all(tuple(plain.select(record.round_index)) == record.selected_clients
               for record in result.history.records)


def socket_matches_inprocess(workload, seed: int, result: RunResult) -> bool:
    """The socket run's final model equals an in-process sequential run's."""
    import numpy as np
    from repro import Session

    from e2e_workloads import components, federated_config

    rounds = len(result.history.records)
    with Session(federated_config(workload, seed, rounds, "sequential")) as session:
        session.with_federation(**components(workload, seed))
        session.run(rounds)
        reference = session.simulation.server.global_state()
    return (reference.keys() == result.state.keys()
            and all(np.array_equal(reference[name], result.state[name])
                    for name in reference))


def end_to_end(workload, seed: int, seconds: float, workdir: str, checks: Checks):
    """Untraced run: median set-up over several builds, then the timed rounds.

    The timed rounds are split evenly over ``workload.federations`` identical
    builds (same seed, same rounds) and pooled; each of those builds also
    counts as one of the ``workload.setups`` set-ups.
    """
    warmup = workload.warmup
    rounds = max(1, workload.timed_rounds(seconds) // workload.federations)
    setups = [time_setup(workload, seed, warmup + rounds, workdir)
              for _ in range(workload.setups - workload.federations)]
    results = [run_federation(workload, seed, warmup, rounds, workdir)
               for _ in range(workload.federations)]
    setups += [result.setup_s for result in results]
    result = results[-1]
    workload_checks(checks, workload, seed, result)
    if len(results) > 1:
        checks.run("repeated_builds_agree", lambda: all(
            other.digest() == result.digest() and other.final_accuracy == result.final_accuracy
            for other in results))

    timed = [value for other in results for value in other.timed(warmup)]
    counts = [update_counts(other.history, rounds) for other in results]
    attempted, failed = (sum(column) for column in zip(*counts))
    tail_value, percentile = tail(timed)
    records = [record for other in results for record in other.history.records[warmup:]]
    metrics = {
        "setup_s": statistics.median(setups),
        "round_p50_s": statistics.median(timed),
        "round_tail_s": tail_value,
        "client_updates_per_s": (attempted - failed) / sum(timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "final_accuracy": result.final_accuracy,
        "mean_population_emd": statistics.fmean(r.population_bias for r in records),
        "update_success_share": (attempted - failed) / attempted,
    }
    samples = {
        "setup_s": len(setups), "round_p50_s": len(timed),
        "round_tail_s": len(timed), "client_updates_per_s": attempted,
        "mean_population_emd": len(records),
        "update_success_share": attempted,
    }
    details = {"round_tail_percentile": percentile, "timed_rounds": len(timed),
               "warmup_rounds": warmup, "federations": len(results),
               "cohort_digest": result.digest(),
               "host_scale": statistics.median(
                   scale for other in results for scale in other.round_scales[warmup:]),
               "wall_round_p50_s": statistics.median(
                   value for other in results for value in other.round_times[warmup:])}
    return metrics, samples, details, (attempted, failed)


def per_layer(workload, seed: int, seconds: float, workdir: str, checks: Checks):
    """Untraced then traced run of the same rounds; per-layer self times."""
    from e2e_trace import Tracer

    rounds = max(10, workload.timed_rounds(seconds) // 2)
    warmup = workload.warmup
    plain = run_federation(workload, seed, warmup, rounds, workdir)
    with Tracer() as tracer:
        traced = run_federation(workload, seed, warmup, rounds, workdir,
                                record_sizes=True)
    workload_checks(checks, workload, seed, traced)
    checks.run("traced_cohorts_equal_untraced",
               lambda: traced.digest() == plain.digest())
    checks.run("traced_accuracy_equals_untraced",
               lambda: traced.final_accuracy == plain.final_accuracy)

    windows = tracer.rounds()[warmup:]
    start, end = windows[0][0], windows[-1][1]
    wall = sum(e - s for s, e in windows)
    shares = tracer.self_times(windows)
    scale = statistics.median(traced.round_scales[warmup:])
    metrics = {name: 0.0 for name in PER_LAYER}
    for layer, seconds_spent in shares.items():
        metrics[SELF_TIME_METRICS[layer]] = seconds_spent * scale / rounds
    for layer in ("data.generate", "crypto.encrypt", "crypto.decrypt"):
        metrics[layer + "_calls"] = tracer.calls(layer, start, end) / rounds
    lookups = tracer.counter("data.cache_lookups", start, end)
    hits = tracer.counter("data.cache_hits", start, end)
    metrics["data.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["core.register_s"] = (tracer.durations("core.register", *traced.setup_window)
                                  * traced.setup_scale)
    (ledger_0, cipher_0), (ledger_1, cipher_1) = traced.sizes[warmup], traced.sizes[-1]
    metrics["ledger.bytes"] = (ledger_1 - ledger_0) / rounds
    metrics["crypto.ciphertext_bytes"] = (cipher_1 - cipher_0) / rounds
    metrics["transport.frames"] = tracer.counter("transport.frames", start, end) / rounds
    metrics["transport.bytes"] = tracer.counter("transport.bytes", start, end) / rounds
    metrics["round.unattributed_share"] = shares.get("round", 0.0) / wall
    untraced_p50 = statistics.median(plain.timed(warmup))
    traced_p50 = statistics.median(traced.timed(warmup))
    metrics["trace.overhead_s"] = traced_p50 - untraced_p50

    ranked = sorted(((seconds_spent / wall, layer) for layer, seconds_spent
                     in shares.items() if layer != "round"), reverse=True)
    details = {
        "timed_rounds": rounds, "warmup_rounds": warmup,
        "untraced_round_p50_s": untraced_p50, "traced_round_p50_s": traced_p50,
        "host_scale": scale,
        "layer_shares": {layer: round(share, 4) for share, layer in ranked},
        "dominant_layer": ranked[0][1] if ranked else None,
        "cohort_digest": traced.digest(),
    }
    samples = {name: rounds for name in PER_LAYER}
    samples["core.register_s"] = 1
    attempted, failed = update_counts(traced.history, rounds)
    return metrics, samples, details, (attempted, failed)


def environment(seed: int) -> dict:
    """The machine, libraries and code version every result is recorded with."""
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # older numpy: no dict mode
        pass
    threads = {var: os.environ.get(var) for var in BLAS_THREAD_VARIABLES}
    source = hashlib.sha256()
    for directory, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as handle:
                    source.update(handle.read())
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"),
                 "threads": blas_threads(), "thread_env": threads},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def blas_threads():
    """OpenBLAS's runtime thread count, asked of the library numpy bundles.

    ``None`` when numpy does not bundle OpenBLAS next to itself (a wheel's
    ``numpy.libs``) or the library exports no thread-count getter.
    """
    import ctypes
    import glob

    import numpy as np

    bundled = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(bundled, "*openblas*"))):
        library = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    return None


def git_sha():
    """The checked-out commit, read from ``.git`` (``None`` outside a clone)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no source tree at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from e2e_workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    checks = Checks()
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, samples, details, (attempted, failed) = measure(
            workload, args.seed, args.seconds, workdir, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it

    units = ({name: unit for name, (unit, _) in END_TO_END.items()}
             if not args.trace else PER_LAYER)
    finite = all(math.isfinite(value) for value in metrics.values())
    checks.results["metrics_finite"] = finite
    for name, value in metrics.items():
        better = END_TO_END[name][1] if name in END_TO_END else "-"
        print(f"{workload.name} {name} = {value:.6g} {units[name]} "
              f"(better: {better}, samples: {samples.get(name, 1)})")
    record = {"workload": workload.name, "trace": args.trace,
              "seconds": args.seconds, "checks": checks.results,
              "samples": samples, "details": details,
              "environment": environment(args.seed)}
    print("record: " + json.dumps(record, sort_keys=True))
    result = {
        "correct": checks.failed == 0 and failed == 0,
        "attempted": attempted + len(checks.results),
        "failed": failed + checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


def use_one_core() -> None:
    """Run the whole benchmark process, every thread of it, on one core.

    Python threads take turns under the interpreter lock anyway, so one core
    costs the program little; what it removes is cross-core wake-ups, whose
    cost swings with whatever else the machine runs, and work the host probe
    (:mod:`e2e_probe`), timed on this core, cannot see.  One BLAS thread
    unless the caller chose otherwise, for the same reason: idle OpenBLAS
    workers spin.  Called before numpy is imported.
    """
    for variable in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(variable, "1")
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


if __name__ == "__main__":
    use_one_core()
    sys.exit(main())
