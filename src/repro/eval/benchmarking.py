"""Runtime throughput benchmarking utilities.

Shared by the checked-in throughput benchmark
(``benchmarks/test_runtime_throughput.py``) and the perf-trajectory
summary script (``benchmarks/summarize_runtime.py``): both measure the
same fixed synthetic workload, so the numbers are comparable across PRs.

The workload is a large windowed pseudo-recording built directly from
arrays (no signal synthesis), replayed once through the reference
per-window path and once through the batched path of
:class:`~repro.core.runtime.CHRISRuntime`.  Besides the two throughputs
(windows/second) the measurement records the batched run's accuracy and
offload statistics and verifies that the two paths routed every window
identically.
"""

from __future__ import annotations

import copy
import dataclasses
import tempfile
import time

import numpy as np

from repro.core.decision_engine import Constraint
from repro.core.fleet import FleetExecutor
from repro.core.runtime import (
    CHRISRuntime,
    EQUIVALENCE_ATOL,
    EQUIVALENCE_RTOL,
    EQUIVALENCE_TOLERANCES,
    FleetResult,
)
from repro.core.scheduler import FleetScheduler, SessionState
from repro.core.zoo import ModelsZoo, ZooEntry
from repro.data.dataset import WindowedSubject
from repro.data.synthetic import SyntheticDaliaGenerator, SyntheticDatasetConfig
from repro.models.adaptive_threshold import AdaptiveThresholdPredictor
from repro.models.error_model import SmoothedCalibratedHRModel
from repro.models.spectral_tracker import SpectralHRPredictor
from repro.models.timeppg import (
    TIMEPPG_SMALL_CONFIG,
    TimePPGConfig,
    TimePPGPredictor,
)
from repro.signal.features import accelerometer_features, feature_vector
from repro.signal.windowing import DEFAULT_WINDOW_SPEC


def synthetic_workload(
    n_windows: int = 10_000,
    window_length: int = 256,
    seed: int = 0,
) -> WindowedSubject:
    """A large windowed pseudo-recording for throughput measurements.

    Activities cycle through all nine difficulty levels in contiguous
    blocks (so every model of a hybrid configuration receives work), the
    HR follows a slow sinusoid, and the raw signals are white noise — the
    calibrated zoo never reads them, and the workload builds in
    milliseconds instead of synthesizing hours of PPG.
    """
    if n_windows <= 0:
        raise ValueError(f"n_windows must be positive, got {n_windows}")
    rng = np.random.default_rng(seed)
    activity = np.arange(n_windows, dtype=int) // max(1, n_windows // 90) % 9
    hr = 70.0 + 30.0 * np.sin(np.linspace(0.0, 20.0 * np.pi, n_windows))
    return WindowedSubject(
        subject_id=f"synthetic-{n_windows}w",
        ppg_windows=rng.standard_normal((n_windows, window_length)),
        accel_windows=rng.standard_normal((n_windows, window_length, 3)),
        activity=activity,
        hr=hr,
        spec=DEFAULT_WINDOW_SPEC,
    )


def benchmark_runtime(
    experiment,
    n_windows: int = 10_000,
    constraint: Constraint | None = None,
    seed: int = 0,
    repeats: int = 3,
) -> dict:
    """Measure per-window vs. batched runtime throughput on one workload.

    Parameters
    ----------
    experiment:
        A :class:`~repro.eval.experiment.CalibratedExperiment` (its zoo,
        engine and system are replayed).
    n_windows:
        Workload size (10k windows ≈ 5.5 h of recording at the paper's
        2-second stride).
    constraint:
        Operating constraint; the paper's headline MAE ≤ 5.60 BPM bound
        when omitted.
    seed:
        Workload generator seed.
    repeats:
        Timed repetitions per path; the best (minimum) time is reported,
        which filters out scheduler and allocator noise.

    Returns a JSON-serializable dict with both throughputs, the speedup,
    the batched run's MAE / offload / energy statistics, and a
    ``routing_identical`` flag confirming both paths made the same
    per-window decisions.
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    constraint = constraint or Constraint.max_mae(5.60)
    workload = synthetic_workload(n_windows=n_windows, seed=seed)
    runtime = experiment.runtime()
    configuration = experiment.engine.select_or_closest(constraint, connected=True)

    def timed(batched: bool):
        best = float("inf")
        result = None
        for _ in range(repeats):
            start = time.perf_counter()
            result = runtime.run_with_configuration(
                workload, configuration, use_oracle_difficulty=True, batched=batched
            )
            best = min(best, time.perf_counter() - start)
        return result, best

    scalar, scalar_s = timed(batched=False)
    batched, batched_s = timed(batched=True)

    routing_identical = bool(
        np.array_equal(scalar.model_names.astype(str), batched.model_names.astype(str))
        and np.array_equal(scalar.offloaded, batched.offloaded)
        and np.allclose(scalar.watch_total_j_per_window, batched.watch_total_j_per_window)
    )
    return {
        "n_windows": int(n_windows),
        "configuration": configuration.label(),
        "scalar_seconds": scalar_s,
        "batched_seconds": batched_s,
        "scalar_windows_per_s": n_windows / scalar_s,
        "batched_windows_per_s": n_windows / batched_s,
        "speedup": scalar_s / batched_s,
        "mae_bpm": batched.mae_bpm,
        "offload_fraction": batched.offload_fraction,
        "mean_watch_energy_mj": batched.mean_watch_energy_mj,
        "routing_identical": routing_identical,
    }


def synthetic_fleet(
    n_subjects: int = 50,
    n_windows_per_subject: int = 2_000,
    window_length: int = 16,
    seed: int = 0,
) -> list[WindowedSubject]:
    """A fleet of windowed pseudo-recordings for fleet-throughput runs.

    One :func:`synthetic_workload` per subject with a distinct seed and
    id.  The window length is kept short because the calibrated zoo never
    reads the signal arrays; 50 subjects x 2k windows fit in ~40 MB
    instead of the ~1 GB full-length windows would take.
    """
    if n_subjects <= 0:
        raise ValueError(f"n_subjects must be positive, got {n_subjects}")
    fleet = []
    for i in range(n_subjects):
        subject = synthetic_workload(
            n_windows=n_windows_per_subject, window_length=window_length, seed=seed + i
        )
        subject.subject_id = f"fleet-{i:03d}"
        fleet.append(subject)
    return fleet


def per_subject_replay(
    runtime: CHRISRuntime, subjects, constraint: Constraint, **run_kwargs
) -> FleetResult:
    """Sequential fleet replay: one ``run_many([subject])`` call per subject.

    The per-subject dispatch shape the fleet-wide kernel is measured
    against — every subject pays its own planning, kernel dispatch and
    result assembly.  Decision-identical to one ``run_many`` over the
    whole fleet, because cross-run predictor state advances across the
    calls exactly as it does across subjects.
    """
    fleet = FleetResult()
    for subject in subjects:
        result = runtime.run_many([subject], constraint, **run_kwargs)
        fleet.add(subject.subject_id, result.results[subject.subject_id])
    return fleet


def benchmark_fleet(
    experiment,
    n_subjects: int = 50,
    n_windows_per_subject: int = 2_000,
    constraint: Constraint | None = None,
    seed: int = 0,
    repeats: int = 3,
) -> dict:
    """Measure fleet-replay throughput: per-subject loop vs fleet kernel vs executor.

    Three paths replay the same ``n_subjects`` x ``n_windows_per_subject``
    fleet:

    * **sequential** — :func:`per_subject_replay`, one ``run_many``
      call per subject;
    * **mega** — one ``run_many`` over the whole fleet: one fused call
      per model for the entire population;
    * **executor** — :class:`~repro.core.fleet.FleetExecutor`, which
      replays the fleet in shards (one fused call per model per shard).

    Every timed run starts from a deep copy of the runtime so all paths
    consume identical predictor state; the best of ``repeats`` wall
    times is reported per path, plus a ``decisions_identical`` flag
    confirming the fast paths replayed every window exactly like the
    sequential reference.
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    constraint = constraint or Constraint.max_mae(5.60)
    subjects = synthetic_fleet(
        n_subjects=n_subjects, n_windows_per_subject=n_windows_per_subject, seed=seed
    )
    n_windows_total = sum(s.n_windows for s in subjects)
    configuration = experiment.engine.select_or_closest(constraint, connected=True)

    def timed(run):
        best = float("inf")
        result = None
        for _ in range(repeats):
            runtime = copy.deepcopy(experiment.runtime())
            start = time.perf_counter()
            result = run(runtime)
            best = min(best, time.perf_counter() - start)
        return result, best

    sequential, sequential_s = timed(
        lambda rt: per_subject_replay(
            rt, subjects, constraint, use_oracle_difficulty=True
        )
    )
    mega, mega_s = timed(
        lambda rt: rt.run_many(subjects, constraint, use_oracle_difficulty=True)
    )
    executor, executor_s = timed(
        lambda rt: FleetExecutor(rt).run_fleet(
            subjects, constraint, use_oracle_difficulty=True
        )
    )

    def identical(fleet) -> bool:
        return fleet.subject_ids == sequential.subject_ids and all(
            fleet.results[sid] == sequential.results[sid] for sid in fleet.subject_ids
        )

    return {
        "n_subjects": int(n_subjects),
        "n_windows_per_subject": int(n_windows_per_subject),
        "n_windows_total": int(n_windows_total),
        "configuration": configuration.label(),
        "sequential_seconds": sequential_s,
        "mega_seconds": mega_s,
        "executor_seconds": executor_s,
        "sequential_subjects_per_s": n_subjects / sequential_s,
        "mega_subjects_per_s": n_subjects / mega_s,
        "executor_subjects_per_s": n_subjects / executor_s,
        "sequential_windows_per_s": n_windows_total / sequential_s,
        "mega_windows_per_s": n_windows_total / mega_s,
        "executor_windows_per_s": n_windows_total / executor_s,
        "mega_speedup": sequential_s / mega_s,
        "executor_speedup": sequential_s / executor_s,
        "mae_bpm": mega.mae_bpm,
        "offload_fraction": mega.offload_fraction,
        "decisions_identical": bool(identical(mega) and identical(executor)),
    }


def stateful_zoo(
    zoo: ModelsZoo, smoothing: float = 0.5, spectral: str | None = "AT"
) -> ModelsZoo:
    """A stateful-heavy twin of a calibrated zoo.

    Every predictor becomes a stateful tracker (``FLEET_BATCHABLE =
    False``): the ``spectral`` deployment gets a real
    :class:`~repro.models.spectral_tracker.SpectralHRPredictor` (a
    signal-reading tracker: outside the stacked ``predict_fleet`` its
    tracking recurrence forces one ``predict_window`` per window), the
    others become
    :class:`~repro.models.error_model.SmoothedCalibratedHRModel` twins
    continuing the original's exact random stream.  Deployments are
    untouched, so engine configurations stay valid.  This is the zoo the
    stateful fleet benchmark and equivalence tests replay.
    """
    twin = ModelsZoo()
    for entry in zoo:
        if entry.name == spectral:
            predictor: object = SpectralHRPredictor()
        else:
            predictor = SmoothedCalibratedHRModel.from_calibrated(
                entry.predictor, smoothing=smoothing
            )
        twin.add(ZooEntry(predictor=predictor, deployment=entry.deployment))
    return twin


def benchmark_stateful_fleet(
    experiment,
    n_subjects: int = 50,
    n_windows_per_subject: int = 2_000,
    constraint: Constraint | None = None,
    seed: int = 0,
    repeats: int = 3,
    smoothing: float = 0.5,
) -> dict:
    """Measure stacked-state fused dispatch against the scalar oracle.

    The whole zoo is made stateful (:func:`stateful_zoo`: a spectral
    tracker plus smoothed calibrated trackers, all ``FLEET_BATCHABLE =
    False``), so *every* window rides the stateful dispatch.  Two paths
    replay the same fleet from identical predictor state:

    * **scalar** — the per-window oracle (``batched=False``): one
      ``predict_window`` — for the spectral tracker, one set of FFTs —
      per window;
    * **stacked** — the fleet kernel: one fused ``predict_fleet`` call
      per model — state-free work (spectra, error draws) vectorized over
      the whole stack, the tracking recurrences advancing all subjects
      in lock-step.

    The scalar oracle is timed once (it is a multi-second measurement,
    where run-to-run noise is negligible); the stacked path reports the
    best of ``repeats``.  A ``decisions_identical`` flag confirms the
    two replayed every window bit-identically.  No accuracy is reported:
    the workload's signals are white noise.
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    constraint = constraint or Constraint.max_mae(5.60)
    subjects = synthetic_fleet(
        n_subjects=n_subjects, n_windows_per_subject=n_windows_per_subject, seed=seed
    )
    n_windows_total = sum(s.n_windows for s in subjects)
    configuration = experiment.engine.select_or_closest(constraint, connected=True)
    zoo = stateful_zoo(experiment.zoo, smoothing=smoothing)

    def timed(batched: bool, n_repeats: int):
        best = float("inf")
        result = None
        for _ in range(n_repeats):
            runtime = CHRISRuntime(
                zoo=copy.deepcopy(zoo),
                engine=experiment.engine,
                system=experiment.system,
            )
            start = time.perf_counter()
            result = runtime.run_many(
                subjects, constraint, use_oracle_difficulty=True, batched=batched
            )
            best = min(best, time.perf_counter() - start)
        return result, best

    scalar, scalar_s = timed(batched=False, n_repeats=1)
    stacked, stacked_s = timed(batched=True, n_repeats=repeats)

    decisions_identical = scalar.subject_ids == stacked.subject_ids and all(
        scalar.results[sid] == stacked.results[sid] for sid in scalar.subject_ids
    )
    return {
        "n_subjects": int(n_subjects),
        "n_windows_per_subject": int(n_windows_per_subject),
        "n_windows_total": int(n_windows_total),
        "configuration": configuration.label(),
        "n_stateful_models": sum(
            1 for entry in zoo if not entry.predictor.FLEET_BATCHABLE
        ),
        "smoothing": float(smoothing),
        "scalar_seconds": scalar_s,
        "stacked_seconds": stacked_s,
        "scalar_windows_per_s": n_windows_total / scalar_s,
        "stacked_windows_per_s": n_windows_total / stacked_s,
        "stacked_speedup": scalar_s / stacked_s,
        "offload_fraction": stacked.offload_fraction,
        "decisions_identical": bool(decisions_identical),
    }


def timeppg_zoo(
    zoo: ModelsZoo, window_length: int = 16, seed: int = 0
) -> ModelsZoo:
    """A twin zoo whose TimePPG-Big entry is a real (tiny, frozen) TCN.

    The calibrated stand-ins never read the signal arrays; swapping a
    genuine signal-reading TimePPG network behind the TimePPG-Big
    deployment (the model the selected configurations route windows to)
    makes the fleet workload exercise real BLAS forwards, which is what
    the tolerance-fusion benchmark measures.  The network is sized for
    the fleet workload's short windows and frozen (batch norm folded)
    so the inference lowering is the path under test.
    """
    config = TimePPGConfig(
        name="TimePPG-Big",
        input_length=window_length,
        block_channels=(4, 6, 8),
        kernel_size=3,
        head_pool=2,
        head_hidden=0,
    )
    twin = ModelsZoo()
    for entry in zoo:
        if entry.name == "TimePPG-Big":
            predictor: object = TimePPGPredictor(config, seed=seed).freeze()
        else:
            predictor = copy.deepcopy(entry.predictor)
        twin.add(ZooEntry(predictor=predictor, deployment=entry.deployment))
    return twin


def benchmark_inference(
    experiment,
    n_windows: int = 10_000,
    window_length: int = 256,
    n_subjects: int = 120,
    n_windows_per_subject: int = 80,
    seed: int = 0,
    repeats: int = 3,
) -> dict:
    """Measure the fused inference engine's hot paths.

    * **AT batched** — the vectorized adaptive-threshold detector
      (batched threshold recurrence + region extraction) against the
      scalar per-window reference on ``n_windows`` real
      ``window_length``-sample windows, with a ``bit_identical`` flag
      (the batched detector is pinned bit-exact per row).
    * **TimePPG inference mode** — the frozen network (batch norm folded
      into the convolutions, GEMM im2col lowering, no backward caches)
      against the training-mode forward of the same weights on the same
      prepared batches.  The ``outputs_equal`` flag compares the frozen
      outputs with the reference *evaluation* forward (captured before
      any training-mode pass mutates the batch-norm running statistics):
      training mode normalizes with batch statistics by design, so the
      deployed semantics — what folding must preserve — are the
      evaluation forward's.
    * **Tolerance-fused fleet** — a fleet whose TimePPG-Big is a real
      TCN, replayed by one ``run_many`` under ``equivalence="bitwise"``
      (per-subject forward batches) and ``equivalence="tolerance"`` (one
      fused cross-subject batch per call), with a
      ``within_documented_tolerance`` flag checked against sequential
      replay (:func:`per_subject_replay`).
    * **Detector features** — :func:`~repro.signal.features.feature_vector`
      (chunked batch features) against a loop over the scalar
      :func:`~repro.signal.features.accelerometer_features` on the
      accelerometer windows of a synthetic corpus (8 subjects × 120 s per
      activity, 4,296 windows), with a ``bit_identical`` flag.

    Every timed path reports the best of ``repeats``; the scalar AT and
    feature references are timed once.
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    rng = np.random.default_rng(seed)

    # ------------------------------------------------------------- AT batched
    at_windows = rng.standard_normal((n_windows, window_length))
    at = AdaptiveThresholdPredictor()
    at.reset()
    start = time.perf_counter()
    at_scalar = np.array([at.predict_window(w) for w in at_windows])
    at_scalar_s = time.perf_counter() - start
    at_batched_s = float("inf")
    at_batched = None
    for _ in range(repeats):
        at.reset()
        start = time.perf_counter()
        at_batched = at.predict(at_windows)
        at_batched_s = min(at_batched_s, time.perf_counter() - start)
    at_bit_identical = bool(np.array_equal(at_scalar, at_batched))

    # ------------------------------------------------- TimePPG inference mode
    n_nn_windows = 2_048
    predictor = TimePPGPredictor(TIMEPPG_SMALL_CONFIG, seed=seed)
    batch = predictor.prepare_input(
        rng.standard_normal((n_nn_windows, predictor.config.input_length)),
        rng.standard_normal((n_nn_windows, predictor.config.input_length, 3)),
    )
    chunks = [batch[i : i + 64] for i in range(0, n_nn_windows, 64)]
    # The deployed semantics folding must preserve: the evaluation
    # forward, captured before training-mode passes touch the batch-norm
    # running statistics.
    eval_out = np.concatenate(
        [predictor.network.forward(c, training=False) for c in chunks]
    )
    frozen = predictor.freeze()._frozen

    def run_training() -> np.ndarray:
        return np.concatenate(
            [predictor.network.forward(c, training=True) for c in chunks]
        )

    def run_inference() -> np.ndarray:
        return np.concatenate([frozen.forward(c, training=False) for c in chunks])

    def timed(run):
        best = float("inf")
        result = None
        for _ in range(repeats):
            start = time.perf_counter()
            result = run()
            best = min(best, time.perf_counter() - start)
        return result, best

    _, nn_training_s = timed(run_training)
    infer_out, nn_inference_s = timed(run_inference)
    outputs_equal = bool(
        np.allclose(infer_out, eval_out, atol=EQUIVALENCE_ATOL, rtol=EQUIVALENCE_RTOL)
    )

    # --------------------------------------------------- tolerance-fused fleet
    constraint = Constraint.max_mae(5.60)
    subjects = synthetic_fleet(
        n_subjects=n_subjects, n_windows_per_subject=n_windows_per_subject, seed=seed
    )
    fleet_windows = sum(s.n_windows for s in subjects)
    zoo = timeppg_zoo(experiment.zoo, seed=seed)

    def fleet_runtime(equivalence: str) -> CHRISRuntime:
        return CHRISRuntime(
            zoo=copy.deepcopy(zoo),
            engine=experiment.engine,
            system=experiment.system,
            equivalence=equivalence,
        )

    def timed_fleet(equivalence: str):
        best = float("inf")
        result = None
        for _ in range(repeats):
            runtime = fleet_runtime(equivalence)
            start = time.perf_counter()
            result = runtime.run_many(subjects, constraint, use_oracle_difficulty=True)
            best = min(best, time.perf_counter() - start)
        return result, best

    # The sequential reference is untimed — run it once, like the scalar
    # AT reference above.
    sequential = per_subject_replay(
        fleet_runtime("bitwise"), subjects, constraint, use_oracle_difficulty=True
    )
    bitwise, bitwise_s = timed_fleet("bitwise")
    tolerance, tolerance_s = timed_fleet("tolerance")

    def equivalent(fleet) -> bool:
        """Predictions within the documented bound, all else bit-identical."""
        if fleet.subject_ids != sequential.subject_ids:
            return False
        for sid in fleet.subject_ids:
            ref, got = sequential.results[sid], fleet.results[sid]
            if not np.allclose(
                got.predicted_hr,
                ref.predicted_hr,
                atol=EQUIVALENCE_ATOL,
                rtol=EQUIVALENCE_RTOL,
            ):
                return False
            # Every other field — routing, difficulty, offload, every
            # cost component, configuration segments — must be bit-exact;
            # reuse RunResult equality with the predictions substituted.
            exact = copy.copy(got)
            exact.predicted_hr = ref.predicted_hr
            if exact != ref:
                return False
        return True

    bitwise_identical = bool(
        all(
            sequential.results[sid] == bitwise.results[sid]
            for sid in sequential.subject_ids
        )
    )

    # ------------------------------------------------------- detector features
    corpus = SyntheticDaliaGenerator(
        SyntheticDatasetConfig(n_subjects=8, activity_duration_s=120.0, seed=seed)
    ).generate_windowed()
    accel = corpus.concatenated().accel_windows
    start = time.perf_counter()
    features_scalar = np.stack([accelerometer_features(w) for w in accel])
    features_scalar_s = time.perf_counter() - start
    features_batched, features_batched_s = timed(lambda: feature_vector(accel))

    return {
        "at": {
            "n_windows": int(n_windows),
            "window_length": int(window_length),
            "scalar_seconds": at_scalar_s,
            "batched_seconds": at_batched_s,
            "scalar_windows_per_s": n_windows / at_scalar_s,
            "batched_windows_per_s": n_windows / at_batched_s,
            "speedup": at_scalar_s / at_batched_s,
            "bit_identical": at_bit_identical,
        },
        "timeppg": {
            "variant": predictor.config.name,
            "n_windows": int(n_nn_windows),
            "training_seconds": nn_training_s,
            "inference_seconds": nn_inference_s,
            "training_windows_per_s": n_nn_windows / nn_training_s,
            "inference_windows_per_s": n_nn_windows / nn_inference_s,
            "speedup": nn_training_s / nn_inference_s,
            "outputs_equal": outputs_equal,
        },
        "tolerance_fleet": {
            "n_subjects": int(n_subjects),
            "n_windows_per_subject": int(n_windows_per_subject),
            "n_windows_total": int(fleet_windows),
            "bitwise_seconds": bitwise_s,
            "tolerance_seconds": tolerance_s,
            "bitwise_windows_per_s": fleet_windows / bitwise_s,
            "tolerance_windows_per_s": fleet_windows / tolerance_s,
            "speedup": bitwise_s / tolerance_s,
            "bitwise_decisions_identical": bitwise_identical,
            "within_documented_tolerance": bool(equivalent(tolerance)),
        },
        "detector": {
            "n_windows": int(accel.shape[0]),
            "window_shape": list(accel.shape[1:]),
            "scalar_seconds": features_scalar_s,
            "batched_seconds": features_batched_s,
            "scalar_windows_per_s": accel.shape[0] / features_scalar_s,
            "batched_windows_per_s": accel.shape[0] / features_batched_s,
            "speedup": features_scalar_s / features_batched_s,
            "bit_identical": features_batched.tobytes() == features_scalar.tobytes(),
        },
    }


def benchmark_dtype_inference(
    n_windows: int = 10_000,
    window_length: int = 256,
    n_nn_windows: int = 4_096,
    nn_chunk: int = 256,
    seed: int = 0,
    repeats: int = 3,
) -> dict:
    """Measure the float32 engine against the float64 reference per path.

    * **Batched AT per dtype** — the vectorized adaptive-threshold
      detector on the same ``n_windows`` stack at float64 and at
      float32.  The detector's elementwise kernels (cumsum recurrence,
      region maxima) are memory-bound, so halving the element width is
      the whole win.  ``bpm_identical`` records whether the two dtypes
      detected identical peak trains (integer positions feed a float64
      BPM conversion, so coinciding trains give bit-equal BPM); it is
      not a universal guarantee — threshold-straddling samples can flip
      with precision — but on this workload the margins are macroscopic.
    * **Frozen TimePPG per dtype** — the inference-mode forward of the
      same weights frozen at float64 (``freeze()``) and at float32
      (``freeze(dtype="float32")``) on identical prepared batches, with
      a ``within_tolerance`` flag checked against the documented float32
      equivalence bound (:data:`EQUIVALENCE_TOLERANCES`).  The frozen
      GEMMs dominate, so this isolates the BLAS single-precision win.

    Every timed path reports the best of ``repeats``.  The checked-in
    floors live in ``benchmarks/test_dtype_throughput.py``.
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    rng = np.random.default_rng(seed)
    atol32, rtol32 = EQUIVALENCE_TOLERANCES["float32"]

    def timed(run):
        best = float("inf")
        result = None
        for _ in range(repeats):
            start = time.perf_counter()
            result = run()
            best = min(best, time.perf_counter() - start)
        return result, best

    # ------------------------------------------------------ AT per dtype
    # Noisy sinusoids (not white noise): the detector should find real
    # peak trains so the threshold recurrence runs its full workload.
    t = np.arange(window_length) / 32.0
    hr_hz = 1.0 + 1.5 * rng.random((n_windows, 1))
    windows64 = np.sin(2 * np.pi * hr_hz * t)
    windows64 += 0.3 * rng.standard_normal((n_windows, window_length))
    windows32 = windows64.astype(np.float32)

    def run_at(windows, dtype):
        # Pin the detector to the benchmark dtype the way the runtime
        # does (set_inference_dtype) — otherwise ``predict``'s boundary
        # coercion would silently cast the batch back to float64.
        at = AdaptiveThresholdPredictor().set_inference_dtype(dtype)

        def run():
            at.reset()
            return at.predict(windows)

        return run

    bpm64, at64_s = timed(run_at(windows64, "float64"))
    bpm32, at32_s = timed(run_at(windows32, "float32"))
    both = ~(np.isnan(bpm64) | np.isnan(bpm32))
    bpm_identical = bool(
        np.array_equal(np.isnan(bpm64), np.isnan(bpm32))
        and np.array_equal(bpm64[both], bpm32[both])
    )

    # ------------------------------------------------ TimePPG per dtype
    ppg = rng.standard_normal((n_nn_windows, TIMEPPG_SMALL_CONFIG.input_length))
    accel = rng.standard_normal((n_nn_windows, TIMEPPG_SMALL_CONFIG.input_length, 3))
    p64 = TimePPGPredictor(TIMEPPG_SMALL_CONFIG, seed=seed).freeze()
    p32 = TimePPGPredictor(TIMEPPG_SMALL_CONFIG, seed=seed).freeze(dtype="float32")
    batch64 = p64.prepare_input(ppg, accel)
    batch32 = p32.prepare_input(ppg, accel)
    # Mega-batch-scale chunks: small chunks are im2col-overhead bound,
    # which buries the single-precision GEMM win this path measures.
    chunks64 = [batch64[i : i + nn_chunk] for i in range(0, n_nn_windows, nn_chunk)]
    chunks32 = [batch32[i : i + nn_chunk] for i in range(0, n_nn_windows, nn_chunk)]

    def run_nn(frozen, chunks):
        def run():
            return np.concatenate([frozen.forward(c, training=False) for c in chunks])

        return run

    out64, nn64_s = timed(run_nn(p64._frozen, chunks64))
    out32, nn32_s = timed(run_nn(p32._frozen, chunks32))
    within_tolerance = bool(
        np.allclose(out32.astype(np.float64), out64, atol=atol32, rtol=rtol32)
    )

    return {
        "at": {
            "n_windows": int(n_windows),
            "window_length": int(window_length),
            "float64_seconds": at64_s,
            "float32_seconds": at32_s,
            "float64_windows_per_s": n_windows / at64_s,
            "float32_windows_per_s": n_windows / at32_s,
            "float32_speedup": at64_s / at32_s,
            "bpm_identical": bpm_identical,
        },
        "timeppg": {
            "variant": TIMEPPG_SMALL_CONFIG.name,
            "n_windows": int(n_nn_windows),
            "float64_seconds": nn64_s,
            "float32_seconds": nn32_s,
            "float64_windows_per_s": n_nn_windows / nn64_s,
            "float32_windows_per_s": n_nn_windows / nn32_s,
            "float32_speedup": nn64_s / nn32_s,
            "within_tolerance": within_tolerance,
            "atol": atol32,
            "rtol": rtol32,
        },
    }


def benchmark_scheduler(
    experiment,
    n_subjects: int = 50,
    n_windows_per_subject: int = 2_000,
    constraint: Constraint | None = None,
    seed: int = 0,
    repeats: int = 3,
) -> dict:
    """Measure online-scheduler throughput against sequential fleet replay.

    The same ``n_subjects`` x ``n_windows_per_subject`` fleet is replayed
    twice:

    * **sequential** — :func:`per_subject_replay` (the same baseline
      :func:`benchmark_fleet` pins the fleet-wide path against);
    * **scheduler** — every subject submitted as a dynamic session to a
      :class:`~repro.core.scheduler.FleetScheduler`; the timing covers
      submission, batch dispatch and completion of the whole population
      (arrivals coalesce into mega-batches while the dispatcher is busy
      executing, which is where the speedup comes from).

    Both paths start from deep-copied predictor state, and a
    ``decisions_identical`` flag confirms the scheduler reproduced the
    sequential decisions bit-exactly.
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    constraint = constraint or Constraint.max_mae(5.60)
    subjects = synthetic_fleet(
        n_subjects=n_subjects, n_windows_per_subject=n_windows_per_subject, seed=seed
    )
    n_windows_total = sum(s.n_windows for s in subjects)
    configuration = experiment.engine.select_or_closest(constraint, connected=True)

    def timed(run):
        best = float("inf")
        result = None
        for _ in range(repeats):
            runtime = copy.deepcopy(experiment.runtime())
            start = time.perf_counter()
            result = run(runtime)
            best = min(best, time.perf_counter() - start)
        return result, best

    sequential, sequential_s = timed(
        lambda rt: per_subject_replay(
            rt, subjects, constraint, use_oracle_difficulty=True
        )
    )

    # Construction (the scheduler's private runtime copy) happens outside
    # the timed window, mirroring the sequential path whose deep copy is
    # also untimed; the measurement covers submission through completion.
    scheduler_s = float("inf")
    sessions = None
    for _ in range(repeats):
        # FleetScheduler deep-copies the runtime itself; no outer copy.
        scheduler = FleetScheduler(
            experiment.runtime(), constraint, use_oracle_difficulty=True
        )
        try:
            start = time.perf_counter()
            sessions = [scheduler.submit(s.subject_id, s) for s in subjects]
            scheduler.join()
            scheduler_s = min(scheduler_s, time.perf_counter() - start)
        finally:
            scheduler.close()

    decisions_identical = all(
        session.state is SessionState.DONE
        and session.result == sequential.results[session.subject_id]
        for session in sessions
    )
    return {
        "n_subjects": int(n_subjects),
        "n_windows_per_subject": int(n_windows_per_subject),
        "n_windows_total": int(n_windows_total),
        "configuration": configuration.label(),
        "sequential_seconds": sequential_s,
        "scheduler_seconds": scheduler_s,
        "sequential_sessions_per_s": n_subjects / sequential_s,
        "scheduler_sessions_per_s": n_subjects / scheduler_s,
        "sequential_windows_per_s": n_windows_total / sequential_s,
        "scheduler_windows_per_s": n_windows_total / scheduler_s,
        "scheduler_speedup": sequential_s / scheduler_s,
        "mae_bpm": sequential.mae_bpm,
        "offload_fraction": sequential.offload_fraction,
        "decisions_identical": bool(decisions_identical),
    }


def benchmark_checkpoint(
    experiment,
    n_subjects: int = 50,
    n_windows_per_subject: int = 2_000,
    constraint: Constraint | None = None,
    seed: int = 0,
    repeats: int = 3,
) -> dict:
    """Measure the durability tax of checkpointed fleet execution.

    Three executor runs over the same fleet and shard layout, all
    through the scalar (per-window streaming) replay so both sides take
    the identical execution path and only durability differs:

    * **unstaged** — :class:`~repro.core.fleet.FleetExecutor` without a
      ``checkpoint_dir``;
    * **checkpointed** — the same executor with a fresh ``checkpoint_dir``
      per repeat, paying journal writes and atomic shard staging;
    * **resume** — a second run over a *completed* checkpoint directory:
      every shard loads from verified staged bytes, nothing executes.

    The scalar path is the regime the ≤10% staging-overhead claim is
    about: per-window decision compute dominates the ~125 staged bytes
    per window, as it does on device.  The mega-batched replay vectorizes
    the compute down to ~1µs/window — the same absolute staging cost is a
    far larger *fraction* there, so its ratio is reported separately
    (``batched_relative_throughput``) for visibility rather than pinned.

    Reports the wall times, the checkpointed/unstaged throughput ratio
    (the number the throughput floor in
    ``benchmarks/test_checkpoint_throughput.py`` pins), the resume
    speedup over re-execution, and a ``decisions_identical`` flag
    confirming both the checkpointed run and the resumed replay
    reproduced the unstaged results exactly.
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    constraint = constraint or Constraint.max_mae(5.60)
    subjects = synthetic_fleet(
        n_subjects=n_subjects, n_windows_per_subject=n_windows_per_subject, seed=seed
    )
    n_windows_total = sum(s.n_windows for s in subjects)

    def run(checkpoint_dir, batched):
        runtime = copy.deepcopy(experiment.runtime())
        executor = FleetExecutor(runtime, checkpoint_dir=checkpoint_dir)
        start = time.perf_counter()
        fleet = executor.run_fleet(
            subjects, constraint, use_oracle_difficulty=True, batched=batched
        )
        return fleet, time.perf_counter() - start

    unstaged = checkpointed = resumed = None
    unstaged_s = checkpointed_s = resume_s = float("inf")
    batched_unstaged_s = batched_checkpointed_s = float("inf")
    for _ in range(repeats):
        fleet, elapsed = run(None, batched=False)
        if elapsed < unstaged_s:
            unstaged, unstaged_s = fleet, elapsed
        with tempfile.TemporaryDirectory() as directory:
            fleet, elapsed = run(directory, batched=False)
            if elapsed < checkpointed_s:
                checkpointed, checkpointed_s = fleet, elapsed
            fleet, elapsed = run(directory, batched=False)
            if elapsed < resume_s:
                resumed, resume_s = fleet, elapsed
        _, elapsed = run(None, batched=True)
        batched_unstaged_s = min(batched_unstaged_s, elapsed)
        with tempfile.TemporaryDirectory() as directory:
            _, elapsed = run(directory, batched=True)
            batched_checkpointed_s = min(batched_checkpointed_s, elapsed)

    def identical(fleet) -> bool:
        return fleet.subject_ids == unstaged.subject_ids and all(
            fleet.results[sid] == unstaged.results[sid] for sid in fleet.subject_ids
        )

    return {
        "n_subjects": int(n_subjects),
        "n_windows_per_subject": int(n_windows_per_subject),
        "n_windows_total": int(n_windows_total),
        "unstaged_seconds": unstaged_s,
        "checkpointed_seconds": checkpointed_s,
        "resume_seconds": resume_s,
        "unstaged_windows_per_s": n_windows_total / unstaged_s,
        "checkpointed_windows_per_s": n_windows_total / checkpointed_s,
        "resume_windows_per_s": n_windows_total / resume_s,
        "checkpoint_relative_throughput": unstaged_s / checkpointed_s,
        "batched_unstaged_seconds": batched_unstaged_s,
        "batched_checkpointed_seconds": batched_checkpointed_s,
        "batched_relative_throughput": batched_unstaged_s / batched_checkpointed_s,
        "resume_speedup": checkpointed_s / resume_s,
        "decisions_identical": bool(identical(checkpointed) and identical(resumed)),
    }


def benchmark_latency(
    experiment,
    n_streams: int = 6,
    n_windows_per_stream: int = 120,
    arrival_rate_hz: float = 1_500.0,
    slo_s: float = 0.4,
    deadline_slack_s: float = 0.1,
    saturated_windows_per_stream: int = 1_500,
    constraint: Constraint | None = None,
    seed: int = 0,
    repeats: int = 5,
    clock=None,
    sleep=None,
) -> dict:
    """Measure online serving latency under the deadline batching policy.

    Two phases over the same synthetic arrival process (round-robin
    across ``n_streams`` open streams, exponential inter-arrival gaps at
    ``arrival_rate_hz``, seeded — the schedule is a pure function of
    ``seed``):

    * **paced** — every window is pushed at its scheduled arrival time
      through a ``policy="deadline"`` scheduler
      (:meth:`~repro.core.scheduler.FleetScheduler.open_stream`) and the
      per-window enqueue→dispatch→complete stamps are aggregated into
      p50/p95/p99 latency, achieved windows/sec and the deadline-miss
      fraction.  The serving contract under test: with the dispatcher
      releasing ``deadline_slack_s`` before the oldest deadline, p95
      completion latency stays under ``slo_s`` at the benchmark rate.
    * **saturated** — a larger workload (``saturated_windows_per_stream``
      windows per stream) is chunked into many short sessions and
      prefilled into a *paused* scheduler, identically under both
      policies, then the ``resume()``→``join()`` drain is timed.  The
      chunking makes the drain span dozens of release cycles, so the
      measurement is dominated by the dispatch machinery the policies
      differ in rather than by one vectorised mega-batch.  Deadline-mode
      throughput must hold ≥ 0.9x of drain mode: with the queue full,
      every release is triggered by batch fullness, so batching later
      must not cost throughput when there is no idle time to trade (a
      deadline dispatcher that held full batches back would collapse
      here).

    ``clock``/``sleep`` inject the time source
    (:class:`~repro.core.scheduler.VirtualClock` + its ``sleep``): the
    paced phase then pauses dispatch while the virtual schedule replays,
    so every timestamp — and therefore the whole latency block — is
    bit-deterministic run after run, the same ``Date``-free discipline
    as the fault harness.  Saturated throughput is always wall-clock
    (a virtual clock has no notion of execution speed).
    """
    if n_streams < 1:
        raise ValueError(f"n_streams must be >= 1, got {n_streams}")
    if arrival_rate_hz <= 0:
        raise ValueError(f"arrival_rate_hz must be > 0, got {arrival_rate_hz}")
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    constraint = constraint or Constraint.max_mae(5.60)
    virtual = clock is not None
    clock = clock if clock is not None else time.monotonic
    sleep = sleep if sleep is not None else time.sleep
    subjects = synthetic_fleet(
        n_subjects=n_streams,
        n_windows_per_subject=n_windows_per_stream,
        seed=seed,
    )
    n_windows_total = sum(s.n_windows for s in subjects)

    # The arrival process: stream k's w-th window arrives at offsets[k + w*n]
    # (round-robin keeps per-stream ordering; exponential gaps make the
    # aggregate Poisson-ish like real wearable traffic).
    rng = np.random.default_rng(seed)
    offsets = np.cumsum(rng.exponential(1.0 / arrival_rate_hz, size=n_windows_total))

    def open_serving_scheduler(policy: str, max_batch_size: int | None):
        return FleetScheduler(
            experiment.runtime(),
            constraint,
            max_batch_size=max_batch_size,
            use_oracle_difficulty=True,
            policy=policy,
            slo_s=slo_s,
            deadline_slack_s=deadline_slack_s,
            max_streams=n_streams,
            clock=clock if policy == "deadline" else None,
        )

    def push_all(workload, streams, paced: bool, start: float) -> None:
        event = 0
        for w in range(workload[0].n_windows):
            for subject, stream in zip(workload, streams):
                if paced:
                    delay = (start + offsets[event]) - clock()
                    if delay > 0:
                        sleep(delay)
                stream.push(
                    subject.ppg_windows[w],
                    subject.accel_windows[w],
                    activity=int(subject.activity[w]),
                    hr=float(subject.hr[w]),
                )
                event += 1

    # ------------------------------------------------------- paced phase
    scheduler = open_serving_scheduler("deadline", max_batch_size=None)
    try:
        streams = [scheduler.open_stream(s.subject_id) for s in subjects]
        if virtual:
            # Deterministic replay: hold dispatch while the virtual
            # schedule plays out, then release — every stamp becomes a
            # pure function of the seed instead of thread timing.
            scheduler.pause()
        start = clock()
        push_all(subjects, streams, paced=True, start=start)
        if virtual:
            # Virtual time stands still unless advanced: expire every
            # held deadline so the tail of the schedule dispatches (the
            # replay measures determinism, not wall-clock latency).
            sleep(slo_s)
            scheduler.resume()
        scheduler.join()
        paced_elapsed = max(clock() - start, 1e-9)
        stats = scheduler.latency_stats()
        for stream in streams:
            stream.close()
    finally:
        scheduler.close()

    # --------------------------------------------------- saturated phase
    # Chunked into many short sessions with unique ids, submitted
    # round-robin so every full batch mixes n_streams distinct subjects.
    # Prefilling while paused fixes the batch composition exactly (no
    # submitter/dispatcher race), so the two policies drain an identical
    # queue and the ratio isolates the release logic.
    chunk_windows = 25
    chunks: list[list[WindowedSubject]] = []
    for base in synthetic_fleet(
        n_subjects=n_streams,
        n_windows_per_subject=saturated_windows_per_stream,
        seed=seed,
    ):
        chunks.append(
            [
                dataclasses.replace(
                    base,
                    subject_id=f"{base.subject_id}#{c // chunk_windows}",
                    ppg_windows=base.ppg_windows[c : c + chunk_windows],
                    accel_windows=base.accel_windows[c : c + chunk_windows],
                    activity=base.activity[c : c + chunk_windows],
                    hr=base.hr[c : c + chunk_windows],
                )
                for c in range(0, base.n_windows, chunk_windows)
            ]
        )
    order = [rec for group in zip(*chunks) for rec in group]
    n_saturated_total = sum(rec.n_windows for rec in order)

    def saturated_drain(policy: str) -> float:
        sat = FleetScheduler(
            experiment.runtime(),
            constraint,
            max_batch_size=n_streams,
            use_oracle_difficulty=True,
            policy=policy,
            slo_s=slo_s,
            deadline_slack_s=deadline_slack_s,
        )
        try:
            sat.pause()
            for rec in order:
                sat.submit(rec.subject_id, rec)
            begin = time.perf_counter()
            sat.resume()
            sat.join()
            return time.perf_counter() - begin
        finally:
            sat.close()

    # Interleaved pairs share machine state (caches, thermal phase); the
    # ratio is the best pair, so it only sinks below 1 when the deadline
    # drain is slower in *every* pair — a policy cost, not OS jitter.
    drain_times = []
    deadline_times = []
    for _ in range(repeats):
        drain_times.append(saturated_drain("drain"))
        deadline_times.append(saturated_drain("deadline"))
    drain_windows_per_s = n_saturated_total / min(drain_times)
    deadline_windows_per_s = n_saturated_total / min(deadline_times)
    throughput_ratio = max(d / dl for d, dl in zip(drain_times, deadline_times))

    return {
        "n_streams": int(n_streams),
        "n_windows_per_stream": int(n_windows_per_stream),
        "n_windows_total": int(n_windows_total),
        "arrival_rate_hz": float(arrival_rate_hz),
        "slo_s": float(slo_s),
        "deadline_slack_s": float(deadline_slack_s),
        "saturated_windows_per_stream": int(saturated_windows_per_stream),
        "virtual_clock": bool(virtual),
        "p50_s": stats["complete_p50_s"],
        "p95_s": stats["complete_p95_s"],
        "p99_s": stats["complete_p99_s"],
        "dispatch_p95_s": stats["dispatch_p95_s"],
        "deadline_miss_fraction": stats["deadline_miss_fraction"],
        "achieved_windows_per_s": n_windows_total / paced_elapsed,
        "n_batches": stats["n_batches"],
        "mean_batch_windows": stats["mean_batch_windows"],
        "p95_within_slo": bool(stats["complete_p95_s"] <= slo_s),
        "drain_saturated_windows_per_s": drain_windows_per_s,
        "deadline_saturated_windows_per_s": deadline_windows_per_s,
        "deadline_throughput_ratio": throughput_ratio,
    }
