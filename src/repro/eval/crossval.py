"""Cross-validation protocol for end-to-end (trained-model) evaluation.

The paper evaluates every model with a 5-fold leave-subjects-out protocol
(Sec. IV-2).  This module runs the same protocol on the synthetic corpus
with real predictors — including training the TimePPG networks with the
NumPy framework — and reports per-fold and aggregate MAEs.  The trained
path is much slower than the calibrated path, so callers control the
corpus size, the number of training epochs, and which models participate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.decision_engine import Constraint
from repro.core.fleet import FleetExecutor
from repro.core.runtime import CHRISRuntime
from repro.data.dataset import WindowedDataset
from repro.data.splits import CrossValidationSplit, leave_subjects_out_folds
from repro.ml.metrics import mean_absolute_error
from repro.models.base import HeartRatePredictor
from repro.models.timeppg import TimePPGConfig, TimePPGPredictor, build_timeppg_network
from repro.nn.losses import HuberLoss
from repro.nn.training import Trainer, TrainerConfig


@dataclass
class FoldResult:
    """MAE of every evaluated model on one test subject."""

    split: CrossValidationSplit
    mae_per_model: dict[str, float] = field(default_factory=dict)


@dataclass
class CrossValidationResult:
    """Aggregate of all folds."""

    folds: list[FoldResult] = field(default_factory=list)

    def mean_mae(self, model_name: str) -> float:
        """MAE averaged over all test subjects for one model."""
        values = [f.mae_per_model[model_name] for f in self.folds if model_name in f.mae_per_model]
        if not values:
            raise KeyError(f"no fold evaluated model {model_name!r}")
        return float(np.mean(values))

    @property
    def model_names(self) -> list[str]:
        """All evaluated model names, in first-seen order."""
        names: dict[str, None] = {}
        for fold in self.folds:
            names.update(dict.fromkeys(fold.mae_per_model))
        return list(names)

    def summary(self) -> str:
        """One line per model with the aggregate MAE."""
        return "\n".join(
            f"{name}: {self.mean_mae(name):.2f} BPM over {len(self.folds)} test subjects"
            for name in self.model_names
        )


def _train_timeppg(
    config: TimePPGConfig,
    train_windows,
    val_windows,
    epochs: int,
    seed: int,
) -> TimePPGPredictor:
    """Train one TimePPG variant on windowed subjects.

    Targets are standardized during training (zero-mean, unit-variance HR)
    to speed up convergence; the inverse transform is folded back into the
    final dense layer afterwards, so the returned predictor outputs BPM
    directly.
    """
    predictor = TimePPGPredictor(config=config, seed=seed)
    x_train = predictor.prepare_input(train_windows.ppg_windows, train_windows.accel_windows)
    y_mean = float(train_windows.hr.mean())
    y_std = float(train_windows.hr.std()) + 1e-6
    y_train = (train_windows.hr - y_mean) / y_std
    x_val = predictor.prepare_input(val_windows.ppg_windows, val_windows.accel_windows)
    y_val = (val_windows.hr - y_mean) / y_std
    trainer = Trainer(
        predictor.network,
        loss=HuberLoss(delta=1.0),
        config=TrainerConfig(epochs=epochs, batch_size=32, learning_rate=2e-3, patience=3, seed=seed),
    )
    trainer.fit(x_train, y_train, x_val, y_val)
    # Fold the target de-standardization into the (linear) output layer.
    output_layer = predictor.network.layers[-1]
    output_layer.params["weight"] *= y_std
    output_layer.params["bias"] = output_layer.params["bias"] * y_std + y_mean
    return predictor


def run_cross_validation(
    dataset: WindowedDataset,
    classical_models: dict[str, HeartRatePredictor],
    timeppg_configs: dict[str, TimePPGConfig] | None = None,
    fold_size: int = 3,
    epochs: int = 5,
    max_folds: int | None = None,
    seed: int = 0,
    chris_runtime: "CHRISRuntime | FleetExecutor | None" = None,
    chris_constraint: "Constraint | None" = None,
) -> CrossValidationResult:
    """Run the leave-subjects-out protocol.

    Parameters
    ----------
    dataset:
        Windowed corpus (synthetic or real).
    classical_models:
        Training-free predictors evaluated as-is on each test subject.
    timeppg_configs:
        TimePPG variants to train per fold (may be empty/omitted to keep
        the run cheap).
    fold_size:
        Subjects per fold (3 in the paper).
    epochs:
        Training epochs per fold for the neural models.
    max_folds:
        Optional cap on the number of (fold, test-subject) iterations, so
        examples and tests can run a representative subset.
    seed:
        Seed for network initialization and training shuffling.
    chris_runtime, chris_constraint:
        When both are given, every test subject is additionally replayed
        end to end through the (batched) CHRIS runtime under the
        constraint, and the achieved system-level MAE is recorded as the
        pseudo-model ``"CHRIS"`` — so the adaptive system can be compared
        against its constituent models fold by fold.  A
        :class:`~repro.core.fleet.FleetExecutor` may be passed instead of
        a runtime to replay through the sharded fleet engine; note
        the executor never mutates its runtime, so every fold then
        replays from the same pristine predictor state, whereas a
        :class:`CHRISRuntime`'s calibrated random streams advance from
        fold to fold.
    """
    if (chris_runtime is None) != (chris_constraint is None):
        raise ValueError("chris_runtime and chris_constraint must be given together")
    splits = leave_subjects_out_folds(dataset.subject_ids, fold_size=fold_size)
    if max_folds is not None:
        splits = splits[:max_folds]
    result = CrossValidationResult()

    for split in splits:
        fold = FoldResult(split=split)
        test = dataset.subject(split.test_subject)

        for name, predictor in classical_models.items():
            predictor.reset()
            predictions = predictor.predict(test.ppg_windows, test.accel_windows)
            fold.mae_per_model[name] = mean_absolute_error(test.hr, predictions)

        if chris_runtime is not None and chris_constraint is not None:
            if isinstance(chris_runtime, FleetExecutor):
                fleet = chris_runtime.run_fleet([test], chris_constraint)
            else:
                fleet = chris_runtime.run_many([test], chris_constraint)
            fold.mae_per_model["CHRIS"] = fleet.mae_bpm

        if timeppg_configs:
            # The fold's train/val concatenation is variant-independent;
            # hoisted out of the loop so multi-variant folds don't redo
            # the same array copies.
            train = dataset.select(list(split.train_subjects)).concatenated()
            val = dataset.select(list(split.val_subjects)).concatenated()
            for name, config in timeppg_configs.items():
                predictor = _train_timeppg(config, train, val, epochs=epochs, seed=seed)
                predictions = predictor.predict(test.ppg_windows, test.accel_windows)
                fold.mae_per_model[name] = mean_absolute_error(test.hr, predictions)

        result.folds.append(fold)
    return result
