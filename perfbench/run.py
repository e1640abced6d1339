"""The repository benchmark: leader elections, a lossy sweep and an archive query mix.

Run from the repository root::

    python3 perfbench/run.py --workload elect-expander --seed 1 --seconds 15 --trace 0

Workloads (each a closed loop driven by one client in this process):

* ``elect-expander`` — one op is ``api.run("irrevocable", random_regular:128:8,
  seed=s)``: message-dense, dominated by cautious broadcast, plain delivery,
  quiescence bookkeeping and the per-run ``t_mix``/``Φ`` measurement;
* ``elect-cycle`` — the same op on ``cycle:32``, the slow-mixing case where
  nodes idle through long walk and convergecast phases, so the event core's
  per-round scans and its fast-forward dominate;
* ``sweep-lossy`` — repeated passes of the ``mixed`` suite under the
  ``lossy`` scenario for ``flooding`` and ``irrevocable`` through
  ``api.sweep`` (two workers, fresh JSONL checkpoint, expansion profiles
  on); one op is one run of a pass, and a latency sample is a whole pass;
* ``query-mix`` — ``api.serve`` over an archive populated in set-up; a
  seeded sequence of HTTP ``/query`` requests, 8 in 10 warm (every run
  archived) and 2 in 10 cold (one seed per cell not archived yet, so the
  misses are simulated and written back).  One op is one request.

Inputs come from ``--seed``.  Election ops cycle through a fixed pool of
election seeds and the sweep runs a fixed grid, so every pass does the same
work and the outputs are committed in ``reference.json`` (regenerate with
``make_reference.py``); the workload seed orders the elections of every
pass.  The query mix draws its loss rate and request order from the seed.
A run measures whole passes until ``--seconds`` have elapsed.

Times are *machine seconds*: each wall-clock reading is rescaled by how
long a fixed calibration loop takes next to it, to a machine where that
loop takes ``CALIBRATION_REFERENCE_S``.  On a shared host the cores change
speed by tens of percent for seconds at a time; without the rescaling that
drift, not the program, decides the spread between runs.  The record keeps
the raw wall-clock figures too.

Every output is checked: elections against their reference digest (leaders,
rounds, messages, bits, sent, delivered) and sweep cells against theirs;
every election and sweep run for message conservation (``sent == delivered
+ dropped + pending``); every query response's cells against the cells of a
direct sweep of the same grid.  Cell checks exclude the wall-clock column.
A failed op raised, answered with a status other than 200, or produced
output that differs from its reference.  The error rate (failed over
attempted) is in the record; it is not a metric of its own because it is
zero on a correct program.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` first runs half
the time untraced, then the same inputs with layer spans installed (see
``tracing.py``), and prints the per-layer metrics plus the tracing
overhead.  The last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (environment,
sample counts, error rate) is printed before it and written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from tracing import Tracer, clock, installed, thread_clock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Protocol phases of the irrevocable election, as its driver names them.
PHASES = ("cautious-broadcast", "random-walk", "convergecast")

#: (name, unit) of every per-layer metric of the traced run.  Times and
#: counts are per op of the traced segment unless the unit says otherwise.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    *((f"sim.run_s.{phase}", "s/op") for phase in PHASES),
    *((f"sim.rounds.{phase}", "count/op") for phase in PHASES),
    *((f"sim.messages.{phase}", "count/op") for phase in PHASES),
    ("sim.node_steps", "count/op"),
    ("sim.productive_steps", "count/op"),
    ("sim.step_yield", "ratio"),
    ("sim.active_fraction", "ratio"),
    ("sim.quiescent_calls", "count/op"),
    ("sim.build_nodes_s", "s/op"),
    ("graphs.mixing_time_s", "s/op"),
    ("graphs.mixing_time_calls", "count/op"),
    ("graphs.conductance_s", "s/op"),
    ("graphs.conductance_calls", "count/op"),
    ("graphs.expansion_profile_s", "s/op"),
    ("election.result_s", "s/op"),
    ("parallel.queue_wait_p50_s", "s"),
    ("parallel.queue_wait_max_s", "s"),
    ("parallel.worker_utilization", "ratio"),
    ("parallel.imbalance_ratio", "ratio"),
    ("parallel.batches", "count/pass"),
    ("store.add_s", "s/op"),
    ("store.flush_s", "s/op"),
    ("store.load_s", "s/op"),
    ("fold.emit_s", "s/op"),
    ("fold.emit_count", "count/op"),
    ("fold.cell_s", "s/op"),
    ("fold.curves_s", "s/op"),
    ("archive.fetch_s", "s/op"),
    ("archive.fetch_rows", "count/op"),
    ("archive.add_s", "s/op"),
    ("archive.add_rows", "count/op"),
    ("query.self_s", "s/op"),
    ("query.hit_rate", "ratio"),
    ("query.requested_runs", "count/op"),
    ("http.self_s", "s/op"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count/op"),
)

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5

#: Calibration-loop duration of the reference machine: reported times are
#: seconds on a machine that runs :func:`_calibration_loop` this fast.
CALIBRATION_REFERENCE_S = 0.0025

#: Modules the workloads import; their import time is part of set-up.
MODULES = ("numpy", "repro.api", "repro.archive", "repro.cli", "repro.analysis.experiments")

#: Thread-count variables of the BLAS builds numpy ships with.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


def conserved(metrics) -> bool:
    """``sent == delivered + dropped + pending``, pending bounded by delayed.

    A finished result does not carry its in-flight queue, but only delayed
    messages can still be pending, so the gap must lie in ``[0, delayed]``
    (exactly zero on every workload here, none of which delays messages).
    """
    in_flight = metrics.sent_messages - metrics.delivered_messages - metrics.dropped_messages
    return 0 <= in_flight <= metrics.delayed_messages


def election_digest(result) -> Dict[str, object]:
    """What an election's reference pins: leaders and its full cost."""
    metrics = result.metrics
    return {
        "leaders": list(result.outcome.leader_indices),
        "rounds": metrics.rounds,
        "messages": metrics.messages,
        "bits": metrics.bits,
        "sent": metrics.sent_messages,
        "delivered": metrics.delivered_messages,
    }


def add_phase_counts(stats: Dict[str, float], metrics) -> None:
    for phase, cost in metrics.phases.items():
        stats[f"sim.rounds.{phase}"] = stats.get(f"sim.rounds.{phase}", 0) + cost.rounds
        stats[f"sim.messages.{phase}"] = stats.get(f"sim.messages.{phase}", 0) + cost.messages


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _calibration_loop() -> int:
    """Fixed interpreter-bound work: dict churn like the simulator's inner loops."""
    table: Dict[int, int] = {}
    total = 0
    for index in range(12000):
        table[index & 1023] = index
        total += table.get((index * 7) & 1023, 0) & 3
    return total


def calibration_seconds() -> float:
    """The calibration loop's duration on this thread's core now (best of 3)."""
    best = math.inf
    for _ in range(3):
        started = clock()
        _calibration_loop()
        best = min(best, clock() - started)
    return best


class SpeedSampler:
    """Times the calibration loop every ``interval`` seconds on a thread.

    For work spread over worker processes, whose cores and their speed the
    parent cannot see.  A sample is the loop's thread CPU time: it grows
    when the host gives this machine slower or busier cores, but not while
    the thread merely waits for a core that the workers occupy.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self._interval = interval
        self._samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=10)

    def _sample(self) -> None:
        while True:
            started = thread_clock()
            _calibration_loop()
            self._samples.append(thread_clock() - started)
            if self._stop.wait(self._interval):
                return

    def calibration_seconds(self) -> float:
        """The mean sample; read it after the ``with`` block has ended."""
        return statistics.mean(self._samples)


@dataclass
class PassResult:
    """One pass of a workload: latency samples and op accounting.

    ``latencies`` and ``busy_seconds`` are machine seconds (see the module
    docstring); ``raw_latencies`` are the wall-clock readings.
    """

    latencies: List[float] = field(default_factory=list)
    raw_latencies: List[float] = field(default_factory=list)
    busy_seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def sample(self, seconds: float, calibration: float) -> None:
        scaled = seconds * CALIBRATION_REFERENCE_S / calibration
        self.raw_latencies.append(seconds)
        self.latencies.append(scaled)
        self.busy_seconds += scaled

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 5:
            self.problems.append(message)


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #
class ElectWorkload:
    """Single irrevocable elections on one topology, over a fixed seed pool."""

    #: workload name -> (topology spec, election seeds of one pass)
    POOLS = {
        "elect-expander": ("random_regular:128:8", tuple(range(12))),
        "elect-cycle": ("cycle:32", tuple(range(20))),
    }
    #: Graph seed of random topology families.  ``parse_topology`` without
    #: one draws a different graph in every process.
    TOPOLOGY_SEED = 7
    handler_class = None

    def __init__(self, name: str, toy: bool, workdir: Path) -> None:
        self.name = name
        self.topology_spec, pool = self.POOLS[name]
        self.pool = pool[:2] if toy else pool

    def setup(self, seed: int) -> None:
        from repro.cli import parse_topology

        self.topology = parse_topology(self.topology_spec, seed=self.TOPOLOGY_SEED)
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[self.name]
        if reference["topology"] != self.topology_spec:
            raise RuntimeError(f"reference.json was made on {reference['topology']}")
        self.expected = {int(seed): digest for seed, digest in reference["digests"].items()}
        missing = [seed for seed in self.pool if seed not in self.expected]
        if missing:
            raise RuntimeError(f"reference.json lacks election seeds {missing}")

    def run_pass(self, rng: random.Random, stats: Optional[Dict[str, float]]) -> PassResult:
        from repro import api

        order = list(self.pool)
        rng.shuffle(order)
        outcome = PassResult()
        for election_seed in order:
            outcome.attempted += 1
            calibration = calibration_seconds()
            started = clock()
            try:
                result = api.run("irrevocable", self.topology, seed=election_seed)
            except Exception as error:  # a raising op is a failed op
                outcome.fail(f"seed {election_seed}: {error!r}")
                continue
            elapsed = clock() - started
            outcome.sample(elapsed, (calibration + calibration_seconds()) / 2)
            if election_digest(result) != self.expected[election_seed]:
                outcome.fail(f"seed {election_seed}: outcome differs from reference.json")
            elif not conserved(result.metrics):
                outcome.fail(f"seed {election_seed}: messages not conserved")
            if stats is not None:
                add_phase_counts(stats, result.metrics)
        return outcome

    def close(self) -> None:
        pass


class _RunCheckSink:
    """Counts a sweep's runs and checks each for message conservation."""

    def __init__(self, stats: Optional[Dict[str, float]]) -> None:
        self.runs = 0
        self.unconserved = 0
        self._stats = stats

    def emit(self, spec_name, topology_index, seed_index, result, wall_clock_seconds):
        self.runs += 1
        if not conserved(result.metrics):
            self.unconserved += 1
        if self._stats is not None:
            add_phase_counts(self._stats, result.metrics)

    def close(self) -> None:
        pass

    def abort(self) -> None:
        pass


def sweep_rows(results) -> List[Dict[str, object]]:
    """A sweep's cell rows in (experiment, topology) order, wall clock dropped."""
    from repro.analysis.experiments import summarize_results

    rows = _canonical_rows(summarize_results(results))
    return sorted(rows, key=lambda row: (row["experiment"], row["topology"]))


class SweepWorkload:
    """Robustness-curve sweep passes: mixed suite, lossy ladder, two workers.

    The grid is fixed (``plan_sweep`` seeds ``0..S-1``), so every pass does
    the same work and its cells are checked against ``reference.json``.
    The pass time includes the pool start-up, which every user sweep pays.
    """

    handler_class = None

    def __init__(self, name: str, toy: bool, workdir: Path) -> None:
        self.name = name
        self.reference_key = name + ("-toy" if toy else "")
        self.suite = "tiny" if toy else "mixed"
        self.seeds = 1
        self.workdir = workdir

    def plan(self) -> None:
        from repro import api

        self.specs, _ = api.plan_sweep(
            suite=self.suite,
            algorithms=["flooding", "irrevocable"],
            scenario="lossy",
            seeds=self.seeds,
        )

    def setup(self, seed: int) -> None:
        self.plan()
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[self.reference_key]
        if reference["suite"] != self.suite:
            raise RuntimeError(f"reference.json was made on suite {reference['suite']}")
        self.expected_rows = reference["rows"]
        self.expected_runs = sum(len(spec.topologies) * len(spec.seeds) for spec in self.specs)
        self.workers = min(2, nproc())

    def run_pass(self, rng: random.Random, stats: Optional[Dict[str, float]]) -> PassResult:
        from repro import api
        from repro.obs import TelemetrySink

        passdir = fresh_dir(self.workdir / "sweep")
        telemetry = TelemetrySink(passdir / "telemetry.jsonl") if stats is not None else None
        config = api.SweepConfig(
            workers=self.workers,
            checkpoint=str(passdir / "checkpoint.jsonl"),
            telemetry=telemetry,
        )
        sink = _RunCheckSink(stats)
        outcome = PassResult(attempted=self.expected_runs)
        try:
            with SpeedSampler() as sampler:
                started = clock()
                results = api.sweep(self.specs, config=config, sinks=[sink])
                elapsed = clock() - started
        except Exception as error:  # a raising pass fails every run in it
            outcome.fail(f"sweep pass: {error!r}", self.expected_runs)
            return outcome
        outcome.sample(elapsed, sampler.calibration_seconds())
        rows = sweep_rows(results)
        wrong = [row for row in rows if row not in self.expected_rows]
        folded = sum(row["runs"] for row in rows)
        missing = max(self.expected_runs - sink.runs, self.expected_runs - folded, 0)
        if missing:
            outcome.fail(f"sweep pass: {missing} runs missing", missing)
        if wrong:
            outcome.fail(
                f"sweep pass: cell {wrong[0]['experiment']}/{wrong[0]['topology']} "
                f"differs from reference.json",
                sum(row["runs"] for row in wrong),
            )
        if sink.unconserved:
            outcome.fail("sweep pass: messages not conserved", sink.unconserved)
        if telemetry is not None:
            stats.setdefault("telemetry", []).append(telemetry.summary())
        shutil.rmtree(passdir, ignore_errors=True)
        return outcome

    def close(self) -> None:
        shutil.rmtree(self.workdir / "sweep", ignore_errors=True)


def _canonical_rows(rows: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Cell rows as they travel in JSON, wall-clock column dropped."""
    return [
        {key: value for key, value in row.items() if key != "mean_wall_clock_seconds"}
        for row in json.loads(json.dumps(list(rows), sort_keys=True))
    ]


class QueryWorkload:
    """HTTP ``/query`` requests over a populated archive, warm and cold."""

    #: The warm requests of one cycle, as ``algorithms`` parameters: the
    #: populated grid and both halves of it.  A fixed mix keeps the median
    #: request inside one group from seed to seed.
    WARM = ("flooding,gilbert",) * 6 + ("flooding", "gilbert")
    #: cold requests per cycle (each asks for one more seed than the last)
    COLD = 2

    def __init__(self, name: str, toy: bool, workdir: Path) -> None:
        self.name = name
        self.seeds = 2 if toy else 8
        self.workdir = workdir
        self.server = None
        self.thread = None
        self.handler_class = None

    def _specs(self, seeds: int, algorithms: str = "flooding,gilbert"):
        from repro import api

        specs, _ = api.plan_sweep(
            suite="tiny",
            algorithms=algorithms.split(","),
            adversary="loss",
            adversary_params=[f"p={self.loss}"],
            seeds=seeds,
            collect_profile=False,
        )
        return specs

    def setup(self, seed: int) -> None:
        from repro import api
        from repro.analysis.experiments import summarize_results
        from repro.archive import ArchiveSink

        self.loss = f"{random.Random(seed).uniform(0.01, 0.1):.3f}"
        querydir = fresh_dir(self.workdir / "query")
        self.pristine = querydir / "populated.sqlite"
        self.live = querydir / "live.sqlite"
        specs = self._specs(self.seeds)
        populated = _canonical_rows(
            summarize_results(api.sweep(specs, sinks=[ArchiveSink(self.pristine, specs)]))
        )
        self.expected: Dict[Tuple[str, int], List[Dict[str, object]]] = {}
        for algorithms in dict.fromkeys(self.WARM):
            names = [spec.name for spec in self._specs(self.seeds, algorithms)]
            self.expected[(algorithms, self.seeds)] = [
                row for row in populated if row["experiment"] in names
            ]
        for extra in range(1, self.COLD + 1):
            self.expected[(self.WARM[0], self.seeds + extra)] = _canonical_rows(
                summarize_results(api.sweep(self._specs(self.seeds + extra)))
            )
        self.cold_misses = sum(len(spec.topologies) for spec in specs)

    def start(self) -> None:
        from repro import api

        shutil.copyfile(self.pristine, self.live)
        self.server = api.serve(archive=str(self.live), port=0, block=False)
        self.handler_class = self.server.RequestHandlerClass
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", self.server.server_address[1], timeout=60
        )

    def run_pass(self, rng: random.Random, stats: Optional[Dict[str, float]]) -> PassResult:
        # Every cycle starts from the populated archive, so each cold
        # request simulates exactly one new seed per cell however many
        # cycles a run fits.
        shutil.copyfile(self.pristine, self.live)
        warm = list(self.WARM)
        rng.shuffle(warm)
        cycle = len(warm) + self.COLD
        cold_slots = sorted(rng.sample(range(cycle), self.COLD))
        requests = []
        for slot in range(cycle):
            if slot in cold_slots:
                extra = cold_slots.index(slot) + 1
                requests.append((self.WARM[0], self.seeds + extra))
            else:
                requests.append((warm.pop(), self.seeds))
        outcome = PassResult()
        timings = []
        calibration = calibration_seconds()
        for algorithms, seeds in requests:
            outcome.attempted += 1
            path = (
                f"/query?suite=tiny&algorithms={algorithms}&adversary=loss"
                f"&adversary_param=p={self.loss}&seeds={seeds}"
            )
            started = clock()
            try:
                self.connection.request("GET", path)
                response = self.connection.getresponse()
                body = response.read()
            except (OSError, http.client.HTTPException) as error:
                self.connection.close()
                outcome.fail(f"{path}: {error!r}")
                continue
            timings.append(clock() - started)
            if response.status != 200:
                outcome.fail(f"{path}: status {response.status}")
                continue
            payload = json.loads(body)
            report = payload["report"]
            misses = 0 if seeds == self.seeds else self.cold_misses
            if report["simulated_runs"] != misses:
                outcome.fail(f"{path}: simulated {report['simulated_runs']} runs, expected {misses}")
            elif _canonical_rows(payload["cells"]) != self.expected[(algorithms, seeds)]:
                outcome.fail(f"{path}: cells differ from the direct sweep")
            if stats is not None:
                stats["requested_runs"] = stats.get("requested_runs", 0) + report["requested_runs"]
                stats["archived_runs"] = stats.get("archived_runs", 0) + report["archived_runs"]
        calibration = (calibration + calibration_seconds()) / 2
        for seconds in timings:
            outcome.sample(seconds, calibration)
        return outcome

    def close(self) -> None:
        if self.server is not None:
            self.connection.close()
            self.server.shutdown()
            self.server.server_close()
            self.thread.join(timeout=30)
            self.server = None
        shutil.rmtree(self.workdir / "query", ignore_errors=True)


WORKLOADS = {
    "elect-expander": ElectWorkload,
    "elect-cycle": ElectWorkload,
    "sweep-lossy": SweepWorkload,
    "query-mix": QueryWorkload,
}


# ---------------------------------------------------------------------- #
# measurement
# ---------------------------------------------------------------------- #
@dataclass
class Segment(PassResult):
    """Whole passes measured back to back."""

    passes: int = 0
    wall_seconds: float = 0.0

    def add(self, outcome: PassResult) -> None:
        self.latencies.extend(outcome.latencies)
        self.raw_latencies.extend(outcome.raw_latencies)
        self.busy_seconds += outcome.busy_seconds
        self.passes += 1
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(outcome.problems[: 5 - len(self.problems)])


def measure(workload, seed: int, seconds: float, stats=None) -> Segment:
    """Run whole passes from a fresh ``seed`` stream until ``seconds`` elapsed."""
    rng = random.Random(seed)
    segment = Segment()
    started = clock()
    while clock() - started < seconds:
        segment.add(workload.run_pass(rng, stats))
    segment.wall_seconds = clock() - started
    return segment


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (the median for ``fraction=0.5``)."""
    if fraction == 0.5:
        return statistics.median(values)
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def time_setup(workload, seed: int, repeats: int) -> PassResult:
    """Set-up durations: a fresh interpreter's imports plus the workload inputs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-c", "import " + ", ".join(MODULES)]
    setup = PassResult()
    for _ in range(repeats):
        calibration = calibration_seconds()
        started = clock()
        subprocess.run(command, env=env, check=True, timeout=120)
        workload.setup(seed)
        elapsed = clock() - started
        setup.sample(elapsed, (calibration + calibration_seconds()) / 2)
    return setup


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(segment: Segment, setup: PassResult) -> Dict[str, float]:
    completed = segment.attempted - segment.failed
    return {
        "latency_p50_s": percentile(segment.latencies, 0.5),
        "latency_p90_s": percentile(segment.latencies, 0.9),
        "throughput_per_s": completed / segment.busy_seconds if segment.busy_seconds else 0.0,
        "setup_s": statistics.median(setup.latencies),
        "peak_rss_mb": peak_rss_mb(),
    }


def layer_metrics(tracer: Tracer, stats: Dict[str, object], ops: int, overhead: float) -> Dict[str, float]:
    counts = tracer.counts
    steps = counts.get("sim.node_steps", 0)
    productive = counts.get("sim.productive_steps", 0)
    slots = counts.get("sim.node_slots", 0)

    def per_op(value: float) -> float:
        return value / ops

    metrics: Dict[str, float] = {}
    for phase in PHASES:
        metrics[f"sim.run_s.{phase}"] = per_op(tracer.seconds(f"sim.run.{phase}"))
        metrics[f"sim.rounds.{phase}"] = per_op(stats.get(f"sim.rounds.{phase}", 0))
        metrics[f"sim.messages.{phase}"] = per_op(stats.get(f"sim.messages.{phase}", 0))
    metrics.update(
        {
            "sim.node_steps": per_op(steps),
            "sim.productive_steps": per_op(productive),
            "sim.step_yield": productive / steps if steps else 0.0,
            "sim.active_fraction": steps / slots if slots else 0.0,
            "sim.quiescent_calls": per_op(counts.get("sim.quiescent_calls", 0)),
            "sim.build_nodes_s": per_op(tracer.seconds("sim.build_nodes")),
            "graphs.mixing_time_s": per_op(tracer.seconds("graphs.mixing_time")),
            "graphs.mixing_time_calls": per_op(tracer.calls("graphs.mixing_time")),
            "graphs.conductance_s": per_op(tracer.seconds("graphs.conductance")),
            "graphs.conductance_calls": per_op(tracer.calls("graphs.conductance")),
            "graphs.expansion_profile_s": per_op(tracer.seconds("graphs.expansion_profile")),
            "election.result_s": per_op(tracer.seconds("election.result")),
            "store.add_s": per_op(tracer.seconds("store.add")),
            "store.flush_s": per_op(tracer.seconds("store.flush")),
            "store.load_s": per_op(tracer.seconds("store.load")),
            "fold.emit_s": per_op(tracer.seconds("fold.emit")),
            "fold.emit_count": per_op(tracer.calls("fold.emit")),
            "fold.cell_s": per_op(tracer.seconds("fold.cell")),
            "fold.curves_s": per_op(tracer.seconds("fold.curves")),
            "archive.fetch_s": per_op(tracer.seconds("archive.fetch")),
            "archive.fetch_rows": per_op(counts.get("archive.fetch.rows", 0)),
            "archive.add_s": per_op(tracer.seconds("archive.add")),
            "archive.add_rows": per_op(counts.get("archive.add.rows", 0)),
            "query.self_s": per_op(
                tracer.self_seconds(
                    "query", ["archive.fetch", "archive.add", "query.run_experiments"]
                )
            ),
            "query.hit_rate": (
                stats["archived_runs"] / stats["requested_runs"]
                if stats.get("requested_runs")
                else 0.0
            ),
            "query.requested_runs": per_op(stats.get("requested_runs", 0)),
            "http.self_s": per_op(tracer.self_seconds("http.handler", ["query"])),
            "trace.overhead_ratio": overhead,
            "trace.spans": per_op(tracer.span_count()),
        }
    )
    metrics.update(parallel_metrics(stats.get("telemetry", [])))
    return metrics


def parallel_metrics(summaries: List[Dict[str, object]]) -> Dict[str, float]:
    """Pool figures from the sweep's ``TelemetrySink`` summaries, median per pass."""
    if not summaries:
        return {
            "parallel.queue_wait_p50_s": 0.0,
            "parallel.queue_wait_max_s": 0.0,
            "parallel.worker_utilization": 0.0,
            "parallel.imbalance_ratio": 0.0,
            "parallel.batches": 0.0,
        }
    waits_p50, waits_max, utilization, imbalance, batches = [], [], [], [], []
    for summary in summaries:
        waits = summary["queue_wait_by_worker"]
        waits_p50.append(statistics.median(w["p50_queue_wait_seconds"] for w in waits))
        waits_max.append(max(w["max_queue_wait_seconds"] for w in waits))
        utilization.append(
            statistics.mean(w["utilization"] or 0.0 for w in summary["worker_utilization"])
        )
        imbalance.append((summary["load_imbalance"] or {}).get("imbalance") or 0.0)
        batches.append((summary["scheduler"] or {}).get("batches", 0))
    return {
        "parallel.queue_wait_p50_s": statistics.median(waits_p50),
        "parallel.queue_wait_max_s": statistics.median(waits_max),
        "parallel.worker_utilization": statistics.median(utilization),
        "parallel.imbalance_ratio": statistics.median(imbalance),
        "parallel.batches": float(statistics.median(batches)),
    }


# ---------------------------------------------------------------------- #
# the record
# ---------------------------------------------------------------------- #
def git_commit() -> str:
    """HEAD's commit when run from a git checkout, else ``"unknown"``."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:  # no git on this machine
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def source_digest() -> str:
    """A digest of ``src/``: identifies the code even outside a git checkout."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args) -> Dict[str, object]:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "src_digest": source_digest(),
        "platform": platform.platform(),
    }


def report(args, segments: Sequence[Segment], metrics: Dict[str, float], units, extra) -> int:
    attempted = sum(segment.attempted for segment in segments)
    failed = sum(segment.failed for segment in segments)
    problems = [problem for segment in segments for problem in segment.problems]
    record = {
        **environment(args),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "problems": problems[:5],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
        **extra,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for name, unit in units:
        print(f"{args.workload:15s} {name:34s} {metrics[name]:14.6g} {unit}", file=sys.stderr)
    print(f"{args.workload:15s} {'error_rate':34s} {record['error_rate']:14.6g} ratio", file=sys.stderr)
    for problem in problems[:5]:
        print(f"FAILED OP: {problem}", file=sys.stderr)
    print("record: " + json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0 and attempted > 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy", action="store_true", help="shrink every input (for the smoke test)"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One BLAS thread: on a small machine idle BLAS threads spin against the
    # interpreter (and against the sweep's workers, which inherit them) and
    # add run-to-run noise.  Set before numpy loads; the set-up subprocesses
    # and pool workers inherit it.
    for variable in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(variable, "1")
    # Import once in-process, so passes never pay import cost.
    for module in MODULES:
        importlib.import_module(module)
    loaded_from = Path(sys.modules["repro"].__file__).resolve().parent
    if loaded_from != SRC / "repro":
        print(f"error: imported repro from {loaded_from}, not {SRC}", file=sys.stderr)
        return 2

    workdir = OUT_DIR / f"work-{os.getpid()}"
    # Queries stage checkpoints in the temporary directory: keep that inside
    # the checkout as well.
    os.environ["TMPDIR"] = str(fresh_dir(workdir / "tmp"))
    tempfile.tempdir = None
    workload = WORKLOADS[args.workload](args.workload, args.toy, workdir)
    try:
        return run_workload(args, workload)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(args, workload) -> int:
    setup = time_setup(workload, args.seed, 1 if args.toy else SETUP_REPEATS)
    if isinstance(workload, QueryWorkload):
        workload.start()
    if not args.trace:
        segment = measure(workload, args.seed, args.seconds)
        metrics = end_to_end_metrics(segment, setup)
        completed = segment.attempted - segment.failed
        extra = {
            "latency_samples": len(segment.latencies),
            "passes": segment.passes,
            "wall_seconds": segment.wall_seconds,
            "setup_samples_s": setup.latencies,
            "wall_clock": {
                "latency_p50_s": percentile(segment.raw_latencies, 0.5),
                "latency_p90_s": percentile(segment.raw_latencies, 0.9),
                "throughput_per_s": completed / segment.wall_seconds,
                "setup_s": statistics.median(setup.raw_latencies),
            },
        }
        return report(args, [segment], metrics, END_TO_END, extra)
    # Traced run: the same inputs twice, untraced then traced; the ratio
    # of their median latencies is the tracing overhead.
    plain = measure(workload, args.seed, args.seconds / 2)
    tracer = Tracer()
    stats: Dict[str, object] = {}
    with installed(tracer, handler_class=workload.handler_class):
        traced = measure(workload, args.seed, args.seconds / 2, stats)
    overhead = percentile(traced.latencies, 0.5) / percentile(plain.latencies, 0.5) - 1.0
    metrics = layer_metrics(tracer, stats, traced.attempted, overhead)
    extra = {
        "traced_ops": traced.attempted,
        "untraced_latency_p50_s": percentile(plain.latencies, 0.5),
        "traced_latency_p50_s": percentile(traced.latencies, 0.5),
    }
    return report(args, [plain, traced], metrics, PER_LAYER, extra)


if __name__ == "__main__":
    sys.exit(main())
