"""The benchmark's three workloads over the real CHRIS pipeline.

``replay_hq``
    In-memory ``CHRISRuntime.run_many`` over the corpus at the paper's
    "same MAE as TimePPG-Small" point (AT + TimePPG-Big hybrid, ~45% of
    windows on TimePPG-Big).  The model layer does most of the work.
``durable_lowpower``
    The crash-safe batch job: ``FleetExecutor(max_workers=1,
    checkpoint_dir=<fresh dir per pass>).run_fleet`` at the paper's
    low-energy point (~11% on TimePPG-Big).  The feature layer does most
    of the work, and it is the only workload that writes.
``serve_stream``
    An open loop: 250 wearers stream windows into one ``FleetScheduler``
    (one worker, default drain policy) on a seeded Poisson schedule.  A
    nominal phase at one window per wearer every 2 s (125 windows/s)
    gives the latency, reported but not gated (see NOTES.md); a fixed
    overload at 1000 windows/s, about twice the capacity, gives the
    throughput.  Batches are a few windows, so
    dispatch and per-call overhead dominate.  With 500 wearers (250
    windows/s) the scheduler runs close to its knee on a 2-core box: the
    nominal p99 of one process ranged 33-91 ms across 5 s phases and p50
    6-18 ms between runs, too unsteady to gate on.

Every workload is built, timed and checked the same way: ``setup`` builds
the pipeline and runs a warm-up (timed as set-up), ``reference`` computes
the expected outputs outside any timed region, ``measure`` runs one
measuring segment, traced or not, adds its samples to the workload and
checks every output, and ``summary`` turns the samples of every segment
into metrics.  A run sets up several times and measures a segment after
each set-up, so its samples spread over the whole run.  Replay passes are
bracketed by host speed samples and scaled by them (``hostspeed.py``);
serving throughput is not, because it did not follow the kernel.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from repro.core import FleetExecutor, FleetScheduler, SessionState
from repro.data.dataset import WindowedSubject
from repro.nn.layers import Conv1d, Dense
from repro.nn.ops_count import count_macs, layer_summary

from hostspeed import HostSpeed
from loadgen import OpenLoopGenerator, lateness_ms, poisson_schedule
from pipeline import (
    CHECKED_FIELDS,
    CORPUS_ACTIVITY_S,
    CORPUS_SUBJECTS,
    HIGH_QUALITY,
    LOW_POWER,
    Pipeline,
    build_pipeline,
    count_failed,
    window_mismatches,
)
from spans import TIMEPPG_LAYERS, Tracer, installed, timeppg_chunk

#: Default-worker executor runs timed by the traced ``durable_lowpower`` run.
POOLED_RUNS = 3

N_WEARERS = 250
WINDOW_STRIDE_S = 2.0
OVERLOAD_RATE_HZ = 1000.0
SLO_S = 0.4
WARMUP_S = 2.0
#: Shares of ``--seconds`` spent pushing the nominal and overload phases;
#: the overload backlog drains at about half its push rate, so the drain
#: takes about twice its push time.
NOMINAL_SHARE = 0.5
OVERLOAD_SHARE = 0.25


@dataclass
class Measured:
    """One run's measurements: end-to-end and per-layer metrics, check, details."""

    e2e: dict[str, float]
    layers: dict[str, float]
    attempted: int
    failed: int
    record: dict


# ------------------------------------------------------------ layer metrics
def _timeppg_traffic(predictor) -> tuple[int, int, int]:
    """``(MACs, activation bytes, weight bytes)`` per window and per chunk.

    Bytes are computed from tensor sizes, not measured: per Conv1d/Dense
    layer, its input and output activations per window plus its weights
    once per forward chunk, at the network's dtype (im2col buffers and
    element-wise layers excluded).
    """
    shape = (predictor.config.input_channels, predictor.config.input_length)
    itemsize = np.dtype(predictor.network.dtype).itemsize
    activations = weights = 0
    for layer, row in zip(predictor.network.layers, layer_summary(predictor.network, shape)):
        if isinstance(layer, (Conv1d, Dense)):
            activations += (int(np.prod(row.input_shape)) + int(np.prod(row.output_shape))) * itemsize
            weights += row.parameters * itemsize
    return count_macs(predictor.network, shape), activations, weights


def layer_metrics(
    tracer: Tracer,
    pipeline: Pipeline,
    wall_s: float,
    cpu_s: float,
    routed: list[tuple[np.ndarray, np.ndarray]],
) -> dict[str, float]:
    """Per-layer metrics of a traced run; fleet/sched/loadgen keys are added by callers."""
    totals = tracer.layer_totals()

    def row(layer: str) -> dict[str, float]:
        return totals.get(layer, {"calls": 0, "count": 0, "busy_s": 0.0})

    out: dict[str, float] = {}
    features, rf = row("features"), row("rf")
    out["features.calls"] = features["calls"]
    out["features.windows"] = features["count"]
    out["features.busy_s"] = features["busy_s"]
    out["features.share"] = features["busy_s"] / wall_s
    out["rf.windows"] = rf["count"]
    out["rf.busy_s"] = rf["busy_s"]

    route = row("route")
    out["route.calls"] = route["calls"]
    out["route.busy_s"] = route["busy_s"]
    names = np.concatenate([n for n, _ in routed]) if routed else np.empty(0, dtype=object)
    offloaded = np.concatenate([o for _, o in routed]) if routed else np.empty(0, dtype=bool)
    n = max(names.size, 1)
    for name in pipeline.zoo.names:
        out[f"route.frac.{name}"] = float(np.count_nonzero(names == name)) / n
    out["route.offload_frac"] = float(np.count_nonzero(offloaded)) / n

    at = row("at")
    out["at.calls"] = at["calls"]
    out["at.windows"] = at["count"]
    out["at.busy_s"] = at["busy_s"]

    chunk = timeppg_chunk()
    for name, layer in TIMEPPG_LAYERS.items():
        stats = row(layer)
        macs, activation_bytes, weight_bytes = _timeppg_traffic(pipeline.zoo.predictor(name))
        sizes = [s.count for s in tracer.spans if s.layer == layer]
        chunks = sum(-(-size // chunk) for size in sizes)
        gmacs = stats["count"] * macs / 1e9
        out[f"{layer}.calls"] = stats["calls"]
        out[f"{layer}.windows"] = stats["count"]
        out[f"{layer}.mean_batch"] = stats["count"] / stats["calls"] if stats["calls"] else 0.0
        out[f"{layer}.busy_s"] = stats["busy_s"]
        out[f"{layer}.gmacs"] = gmacs
        out[f"{layer}.gmacs_per_s"] = gmacs / stats["busy_s"] if stats["busy_s"] else 0.0
        out[f"{layer}.bytes_moved"] = float(
            stats["count"] * activation_bytes + chunks * weight_bytes
        )

    cost = row("cost")
    out["cost.calls"] = cost["calls"]
    out["cost.busy_s"] = cost["busy_s"]
    out["runtime.self_s"] = row("runtime")["busy_s"]
    out["fleet.self_s"] = row("fleet")["busy_s"]
    writes = tracer.calls_of("repro.core.checkpoint.atomic_write_bytes")
    out["checkpoint.writes"] = len(writes)
    out["checkpoint.bytes_per_window"] = sum(s.count for s in writes) / n if routed else 0.0
    out["checkpoint.busy_s"] = row("checkpoint")["busy_s"]
    out["proc.cpu_util"] = cpu_s / (wall_s * (os.cpu_count() or 1))
    out["trace.remainder_s"] = wall_s - sum(r["busy_s"] for r in totals.values())
    return out


def empty_layer_keys() -> dict[str, float]:
    """Keys only some workloads measure, zero where a layer is not exercised."""
    return {
        "fleet.shards": 0, "fleet.retries": 0, "fleet.quarantined": 0,
        "fleet.pooled_over_inprocess": 0.0,
        "sched.queue_wait_p50_ms": 0.0, "sched.queue_wait_p99_ms": 0.0,
        "sched.execute_p50_ms": 0.0, "sched.batches": 0,
        "sched.mean_batch_windows": 0.0, "sched.retries": 0,
        "loadgen.late_p99_ms": 0.0, "loadgen.late_max_ms": 0.0,
        "serve.slo_miss_frac": 0.0,
        "serve.p50_ms": 0.0, "serve.p95_ms": 0.0, "serve.p99_ms": 0.0,
    }


def pipeline_parameters(constraint) -> dict:
    return {
        "experiment": "CalibratedExperiment.build(seed=0, n_subjects=4, activity_duration_s=40)",
        "corpus": {"n_subjects": CORPUS_SUBJECTS, "activity_duration_s": CORPUS_ACTIVITY_S},
        "difficulty": "random forest (ActivityClassifier fitted by make_profiling_data)",
        "zoo": "AT, TimePPG-Small, TimePPG-Big (frozen), PAPER_DEPLOYMENTS, float64",
        "constraint": repr(constraint),
    }


def cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system


# ------------------------------------------------------------------ replay
class ReplayWorkload:
    """Repeated full passes over the corpus; each pass is one job."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.host = HostSpeed()
        self.plain: list[float] = []
        self.scaled: list[float] = []
        self.traced: list[float] = []
        self.routed: list[tuple[np.ndarray, np.ndarray]] = []
        self.attempted = self.failed = self.quarantined = 0
        self.cpu_traced = 0.0
        self.pooled: dict | None = None

    def setup(self, seed: int) -> Pipeline:
        pipeline = build_pipeline(seed)
        self.run_pass(pipeline, self.fresh_dir())
        self.clean()
        return pipeline

    def parameters(self) -> dict:
        return pipeline_parameters(self.constraint)

    def close(self, pipeline: Pipeline) -> None:
        """Nothing outlives a replay pass."""

    def fresh_dir(self) -> str | None:
        return None

    def clean(self) -> None:
        """Remove what a pass left in the work directory."""
        for entry in os.listdir(self.workdir):
            shutil.rmtree(os.path.join(self.workdir, entry), ignore_errors=True)

    def run_pass(self, pipeline: Pipeline, directory: str | None):
        raise NotImplementedError

    def reference(self, pipeline: Pipeline) -> dict:
        """The scalar per-window oracle (``batched=False``) on the same corpus."""
        return pipeline.runtime.run_many(
            pipeline.corpus.subjects, self.constraint, batched=False
        ).results

    def measure(self, pipeline: Pipeline, reference: dict, seconds: float, tracer: Tracer | None) -> None:
        """Pass after pass for ``seconds``; traced runs alternate untraced and traced passes for twice that.

        Every pass is followed by a host speed sample, so each untraced
        pass is bracketed by two.
        """
        budget = seconds * (2 if tracer else 1)
        start = time.perf_counter()
        before = self.host.sample()
        i = 0
        while i < (2 if tracer else 1) or time.perf_counter() - start < budget:
            directory = self.fresh_dir()
            if tracer is not None and i % 2 == 1:
                tracer.new_run()
                with installed(tracer):
                    cpu0, t0 = cpu_seconds(), time.perf_counter()
                    result = self.run_pass(pipeline, directory)
                    elapsed = time.perf_counter() - t0
                    self.cpu_traced += cpu_seconds() - cpu0
                self.traced.append(elapsed)
                for subject_id in result.subject_ids:
                    run = result.results[subject_id]
                    self.routed.append((run.model_names, run.offloaded))
                self.quarantined += len(result.failed)
            else:
                t0 = time.perf_counter()
                result = self.run_pass(pipeline, directory)
                elapsed = time.perf_counter() - t0
                self.plain.append(elapsed)
            after = self.host.sample()
            if tracer is None or i % 2 == 0:
                self.scaled.append(self.host.scaled(elapsed, before, after))
            before = after
            attempted, failed = count_failed(result.results, reference)
            self.attempted += attempted
            self.failed += failed
            self.clean()
            i += 1

    def summary(self, pipeline: Pipeline, tracer: Tracer | None) -> Measured:
        n_windows = pipeline.corpus.n_windows
        e2e = {"windows_per_s": statistics.median(n_windows / t for t in self.scaled)}
        record = {
            "pass_s": self.plain,
            "scaled_pass_s": self.scaled,
            "raw_windows_per_s": statistics.median(n_windows / t for t in self.plain),
            "kernel_s": self.host.samples,
            "windows_per_pass": n_windows,
        }
        layers: dict[str, float] = {}
        if tracer is not None:
            record["traced_pass_s"] = self.traced
            layers = empty_layer_keys()
            layers.update(layer_metrics(tracer, pipeline, sum(self.traced), self.cpu_traced, self.routed))
            layers["trace.overhead_frac"] = statistics.median(self.traced) / statistics.median(self.plain) - 1
            self.add_layers(layers, tracer, pipeline)
        return Measured(e2e, layers, self.attempted, self.failed, record)

    def add_layers(self, layers: dict, tracer: Tracer, pipeline: Pipeline) -> None:
        """Workload-specific per-layer keys (none for in-memory replay)."""


class ReplayHQ(ReplayWorkload):
    name = "replay_hq"
    constraint = HIGH_QUALITY

    def run_pass(self, pipeline: Pipeline, directory: str | None):
        return pipeline.runtime.run_many(pipeline.corpus.subjects, self.constraint)


class DurableLowPower(ReplayWorkload):
    name = "durable_lowpower"
    constraint = LOW_POWER

    def parameters(self) -> dict:
        return {
            **super().parameters(),
            "executor": "FleetExecutor(max_workers=1, checkpoint_dir=<fresh per pass>)",
            "pooled_runs": POOLED_RUNS,
        }

    def fresh_dir(self) -> str:
        return tempfile.mkdtemp(prefix="ckpt-", dir=self.workdir)

    def executor(self, pipeline: Pipeline, directory: str, max_workers: int | None = 1) -> FleetExecutor:
        return FleetExecutor(pipeline.runtime, max_workers=max_workers, checkpoint_dir=directory)

    def run_pass(self, pipeline: Pipeline, directory: str | None):
        return self.executor(pipeline, directory).run_fleet(
            pipeline.corpus.subjects, self.constraint
        )

    def add_layers(self, layers: dict, tracer: Tracer, pipeline: Pipeline) -> None:
        passes = len(self.traced)
        shards = len(self.executor(pipeline, self.workdir).shard_bounds(len(pipeline.corpus.subjects)))
        layers["fleet.shards"] = shards * passes
        layers["fleet.retries"] = tracer.events.get("fire.fleet.shard", 0) - shards * passes
        layers["fleet.quarantined"] = self.quarantined
        if self.pooled is not None:
            layers["fleet.pooled_over_inprocess"] = self.pooled["pooled_over_inprocess"]

    def pooled_comparison(self, pipeline: Pipeline, reference: dict) -> None:
        """Time the default-worker executor on the same job (ungated).

        ``FleetExecutor`` defaults to ``os.cpu_count()`` forked workers;
        the benchmark sets no BLAS or worker environment variables, so
        this times the program as a user gets it.  Its outputs are
        checked like every other pass.
        """
        runs = []
        for _ in range(POOLED_RUNS):
            directory = self.fresh_dir()
            executor = self.executor(pipeline, directory, max_workers=None)
            t0 = time.perf_counter()
            result = executor.run_fleet(pipeline.corpus.subjects, self.constraint)
            runs.append(time.perf_counter() - t0)
            attempted, failed = count_failed(result.results, reference)
            self.attempted += attempted
            self.failed += failed
            self.clean()
        self.pooled = {
            "pooled_workers": executor.max_workers,
            "pooled_run_s": runs,
            "inprocess_run_s": list(self.plain),
            "pooled_over_inprocess": statistics.median(self.plain) / statistics.median(runs),
        }


# ------------------------------------------------------------------- serve
def arrival_rng(seed: int) -> np.random.Generator:
    """The generator behind wearer start offsets and every arrival schedule."""
    return np.random.default_rng([seed, 1])


def wearer_sources(pipeline: Pipeline, rng: np.random.Generator) -> list[tuple[int, int]]:
    """``(corpus subject, start window)`` of every wearer.

    Wearers are dealt round-robin over the subjects, and each subject's
    wearers start evenly spaced around its recording (one random phase
    per subject), so every run streams about the corpus-wide mix of
    activities.  Random starts would let the share of windows routed to
    TimePPG-Big, and with it the latency, drift from seed to seed.
    """
    subjects = pipeline.corpus.subjects
    per_subject = -(-N_WEARERS // len(subjects))
    phases = rng.random(len(subjects))
    sources = []
    for wearer in range(N_WEARERS):
        index, rank = wearer % len(subjects), wearer // len(subjects)
        n = subjects[index].n_windows
        sources.append((index, int((phases[index] + rank / per_subject) * n) % n))
    return sources


@dataclass
class ServeState:
    pipeline: Pipeline
    scheduler: FleetScheduler
    streams: list
    sources: list[tuple[int, int]]
    rng: np.random.Generator
    history: list[list[int]]
    pushed: list = field(default_factory=list)

    def send(self, wearer: int):
        """Push the wearer's next window; returns ``(session, position in stream)``."""
        subject_index, offset = self.sources[wearer]
        subject = self.pipeline.corpus.subjects[subject_index]
        history = self.history[wearer]
        w = (offset + len(history)) % subject.n_windows
        history.append(w)
        session = self.streams[wearer].push(
            subject.ppg_windows[w],
            subject.accel_windows[w],
            activity=int(subject.activity[w]),
            hr=float(subject.hr[w]),
        )
        self.pushed.append((wearer, session))
        return session, len(history) - 1

    def close(self) -> None:
        for stream in self.streams:
            stream.close()
        self.scheduler.close(wait=True)


@dataclass
class Phase:
    sent: list
    t0: float
    t_done: float

    @property
    def sessions(self):
        return [s.handle[0] for s in self.sent]

    @property
    def windows_per_s(self) -> float:
        return len(self.sent) / (self.t_done - self.t0)


class Delivered(NamedTuple):
    """A measured nominal window as plain data, so no session outlives its segment."""

    wearer: int
    due_s: float
    sent_s: float
    complete_s: float | None
    done: bool


def done_sessions(phases) -> list:
    """The distinct completed sessions of ``phases``, in first-push order."""
    unique = {session: None for phase in phases for session in phase.sessions}
    return [s for s in unique if s.state is SessionState.DONE]


class ServeStream:
    name = "serve_stream"
    constraint = HIGH_QUALITY

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.nominal: list[Delivered] = []
        self.rates: list[float] = []
        self.traced_rates: list[float] = []
        self.waits_ms: list[float] = []
        self.execute_ms: dict[float, float] = {}
        self.batch_windows = 0
        self.routed: list[tuple[np.ndarray, np.ndarray]] = []
        self.wall_traced = self.cpu_traced = 0.0
        self.attempted = self.failed = 0

    def parameters(self) -> dict:
        return {
            **pipeline_parameters(self.constraint),
            "scheduler": "FleetScheduler(max_workers=1, policy='drain', use_oracle_difficulty=False)",
            "wearers": N_WEARERS,
            "nominal_rate_hz": N_WEARERS / WINDOW_STRIDE_S,
            "overload_rate_hz": OVERLOAD_RATE_HZ,
            "nominal_share_of_seconds": NOMINAL_SHARE,
            "overload_share_of_seconds": OVERLOAD_SHARE,
            "warmup_s": WARMUP_S,
            "slo_s": SLO_S,
        }

    def close(self, state: ServeState) -> None:
        state.close()

    def setup(self, seed: int) -> ServeState:
        pipeline = build_pipeline(seed)
        scheduler = FleetScheduler(
            pipeline.runtime,
            self.constraint,
            max_workers=1,
            max_streams=N_WEARERS,
            use_oracle_difficulty=False,
        )
        try:
            streams = [scheduler.open_stream(f"w{w:03d}") for w in range(N_WEARERS)]
            rng = arrival_rng(seed)
            state = ServeState(
                pipeline, scheduler, streams, wearer_sources(pipeline, rng), rng,
                [[] for _ in range(N_WEARERS)],
            )
            self.phase(state, N_WEARERS / WINDOW_STRIDE_S, WARMUP_S)
        except BaseException:
            scheduler.close(wait=False)
            raise
        return state

    def reference(self, state: ServeState) -> None:
        """Built by :meth:`check` after measuring: it replays every window the streams saw."""
        return None

    def phase(self, state: ServeState, rate_hz: float, duration_s: float) -> Phase:
        """Push a Poisson schedule at ``rate_hz`` for ``duration_s``; wait for every window."""
        schedule = poisson_schedule(state.rng, N_WEARERS, rate_hz / N_WEARERS, duration_s)
        t0 = time.monotonic() + 0.01
        generator = OpenLoopGenerator(schedule, state.send, t0)
        generator.start()
        sent = generator.result(timeout=duration_s + 120)
        pending = [s.handle[0] for s in sent]
        deadline = time.monotonic() + 120
        while pending:
            pending = [session for session in pending if not session.done]
            if pending and time.monotonic() > deadline:
                raise TimeoutError(f"{len(pending)} sessions still pending")
            time.sleep(0.002)
        done = [s.handle[0].complete_s for s in sent if s.handle[0].state is SessionState.DONE]
        return Phase(sent, t0, max(done) if done else time.monotonic())

    def run_phases(self, state: ServeState, seconds: float) -> tuple[Phase, Phase]:
        nominal = self.phase(state, N_WEARERS / WINDOW_STRIDE_S, seconds * NOMINAL_SHARE)
        overload = self.phase(state, OVERLOAD_RATE_HZ, seconds * OVERLOAD_SHARE)
        return nominal, overload

    def measure(self, state: ServeState, reference, seconds: float, tracer: Tracer | None) -> None:
        """Both phases untraced, then (traced runs) both again traced; check every window."""
        nominal, overload = self.run_phases(state, seconds)
        self.nominal.extend(
            Delivered(
                s.wearer, s.due_s, s.sent_s, s.handle[0].complete_s,
                s.handle[0].state is SessionState.DONE,
            )
            for s in nominal.sent
        )
        self.rates.append(overload.windows_per_s)
        phases = [nominal, overload]
        if tracer is not None:
            tracer.new_run()
            cpu0 = cpu_seconds()
            with installed(tracer):
                traced = self.run_phases(state, seconds)
            self.cpu_traced += cpu_seconds() - cpu0
            self.wall_traced += sum(p.t_done - p.t0 for p in traced)
            self.traced_rates.append(traced[1].windows_per_s)
            for session in done_sessions(traced):
                self.routed.append((session.result.model_names, session.result.offloaded))
                self.waits_ms.extend((session.dispatch_s - t) * 1e3 for t in session.arrivals_s)
                self.execute_ms[session.dispatch_s] = (session.complete_s - session.dispatch_s) * 1e3
                self.batch_windows += session.recording.n_windows
            phases.extend(traced)
        attempted, failed = self.check(state, phases)
        self.attempted += attempted
        self.failed += failed

    def summary(self, state: ServeState, tracer: Tracer | None) -> Measured:
        latency = np.array(
            [(w.complete_s - w.due_s) * 1e3 for w in self.nominal if w.done], dtype=float
        )
        n_nominal = len(self.nominal)
        misses = int(np.count_nonzero(latency > SLO_S * 1e3)) + n_nominal - latency.size
        e2e = {"windows_per_s": statistics.median(self.rates)}
        record = {
            "nominal_windows": n_nominal,
            "nominal_latency_ms": {
                f"p{q}": float(np.percentile(latency, q)) for q in (50, 90, 95, 99, 100)
            },
            "overload_windows_per_s": self.rates,
            "slo_s": SLO_S,
            "slo_miss_frac": misses / max(n_nominal, 1),
            "loadgen": lateness_ms(self.nominal),
        }
        layers: dict[str, float] = {}
        if tracer is not None:
            layers = empty_layer_keys()
            layers.update(layer_metrics(tracer, state.pipeline, self.wall_traced, self.cpu_traced, self.routed))
            n_batches = len(self.execute_ms)
            layers.update({
                "sched.queue_wait_p50_ms": float(np.percentile(self.waits_ms, 50)),
                "sched.queue_wait_p99_ms": float(np.percentile(self.waits_ms, 99)),
                "sched.execute_p50_ms": float(np.percentile(list(self.execute_ms.values()), 50)),
                "sched.batches": n_batches,
                "sched.mean_batch_windows": self.batch_windows / max(n_batches, 1),
                "sched.retries": tracer.events.get("fire.scheduler.batch", 0) - n_batches,
                "loadgen.late_p99_ms": record["loadgen"]["late_p99_ms"],
                "loadgen.late_max_ms": record["loadgen"]["late_max_ms"],
                "serve.slo_miss_frac": record["slo_miss_frac"],
                "serve.p50_ms": record["nominal_latency_ms"]["p50"],
                "serve.p95_ms": record["nominal_latency_ms"]["p95"],
                "serve.p99_ms": record["nominal_latency_ms"]["p99"],
                "trace.overhead_frac": (
                    statistics.median(self.rates) / statistics.median(self.traced_rates) - 1
                ),
            })
            record["traced_overload_windows_per_s"] = self.traced_rates
        return Measured(e2e, layers, self.attempted, self.failed, record)

    def check(self, state: ServeState, phases: list[Phase]) -> tuple[int, int]:
        """Each wearer's streamed outputs against sequential replay of its windows.

        Returns ``(attempted, failed)`` over the windows of ``phases``
        (warm-up windows are replayed and checked too, since later
        windows depend on them, but not counted).
        """
        subjects = []
        for wearer, positions in enumerate(state.history):
            source = state.pipeline.corpus.subjects[state.sources[wearer][0]]
            idx = np.asarray(positions, dtype=np.intp)
            subjects.append(
                WindowedSubject(
                    subject_id=f"w{wearer:03d}",
                    ppg_windows=source.ppg_windows[idx],
                    accel_windows=source.accel_windows[idx],
                    activity=source.activity[idx],
                    hr=source.hr[idx],
                    spec=source.spec,
                )
            )
        reference = state.pipeline.runtime.run_many(subjects, self.constraint).results
        sessions_by_wearer: list[dict] = [{} for _ in range(N_WEARERS)]
        for wearer, session in state.pushed:
            sessions_by_wearer[wearer][session] = None
        bad_by_wearer = []
        for wearer, sessions in enumerate(sessions_by_wearer):
            ordered = sorted(sessions, key=lambda s: s.ticket)
            want = reference[f"w{wearer:03d}"]
            if not ordered:
                bad_by_wearer.append(np.zeros(0, dtype=bool))
            elif any(s.state is not SessionState.DONE for s in ordered):
                bad_by_wearer.append(np.ones(want.n_windows, dtype=bool))
            else:
                got = SimpleNamespace(
                    n_windows=sum(s.result.n_windows for s in ordered),
                    **{
                        name: np.concatenate([getattr(s.result, name) for s in ordered])
                        for name in CHECKED_FIELDS
                    },
                )
                bad_by_wearer.append(window_mismatches(got, want))
        attempted = failed = 0
        for phase in phases:
            for sent in phase.sent:
                attempted += 1
                failed += bool(bad_by_wearer[sent.wearer][sent.handle[1]])
        return attempted, failed
