"""Statistical features for the activity-recognition Random Forest.

The paper selects, via grid search over common statistical features, the
following four predictors computed on the three accelerometer axes:

* mean,
* energy (mean of the squared signal),
* standard deviation,
* number of peaks (sign changes of the discrete derivative).

Each feature is computed per axis and the per-axis values are then
averaged, keeping the feature vector at 4 entries — small enough for the
LSM6DSM ML core.  :func:`accelerometer_features` implements exactly that
for one window and is the scalar reference;
:func:`accelerometer_features_batch` is its vectorized twin over a
``(n_windows, n_samples, n_axes)`` stack, **bit-identical** row by row:
every reduction runs in the order the scalar function uses (see its
docstring).  :func:`feature_vector` — the difficulty detector's entry
point — runs the batch twin over fixed chunks of :data:`FEATURE_CHUNK`
windows, and returns an all-NaN row, without a numpy warning, for every
window holding a non-finite sample.
:func:`extended_accelerometer_features` adds extra candidates (used by the
grid-search reproduction in the benchmarks).
"""

from __future__ import annotations

import numpy as np

from repro.signal.peaks import count_sign_changes, count_sign_changes_batch

FEATURE_NAMES: tuple[str, ...] = ("mean", "energy", "std", "n_peaks")
"""Names of the four features used by the paper, in order."""

EXTENDED_FEATURE_NAMES: tuple[str, ...] = FEATURE_NAMES + (
    "min",
    "max",
    "range",
    "mean_abs_diff",
    "rms",
)
"""Names of the extended feature set used by the feature grid search."""

#: Windows per :func:`accelerometer_features_batch` call in
#: :func:`feature_vector`.  Bounds the batch's scratch copies (about 3 MB
#: each for 256-sample, 3-axis windows) instead of letting them grow with
#: the corpus.
FEATURE_CHUNK = 512


def signal_energy(x: np.ndarray) -> float:
    """Mean squared value of a signal (per-sample energy)."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return 0.0
    return float(np.mean(x ** 2))


def _per_axis(x: np.ndarray) -> np.ndarray:
    """Validate and reshape input to ``(n_samples, n_axes)``."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError(f"expected a (n_samples, n_axes) array, got shape {x.shape}")
    if x.shape[0] == 0:
        raise ValueError("feature extraction received an empty window")
    return x


def accelerometer_features(window: np.ndarray) -> np.ndarray:
    """The paper's 4-feature vector for one accelerometer window.

    Parameters
    ----------
    window:
        Array of shape ``(n_samples, 3)`` (or ``(n_samples,)`` for a
        single axis) holding raw acceleration.

    Returns
    -------
    numpy.ndarray
        Vector ``[mean, energy, std, n_peaks]`` where each entry is the
        average of the per-axis values.
    """
    x = _per_axis(window)
    means = x.mean(axis=0)
    energies = np.mean(x ** 2, axis=0)
    stds = x.std(axis=0)
    n_peaks = np.array([count_sign_changes(x[:, i]) for i in range(x.shape[1])], dtype=float)
    return np.array([means.mean(), energies.mean(), stds.mean(), n_peaks.mean()])


def accelerometer_features_batch(windows: np.ndarray) -> np.ndarray:  # hot-path
    """:func:`accelerometer_features` of every window of a stack at once.

    Parameters
    ----------
    windows:
        Array of shape ``(n_windows, n_samples, n_axes)``.

    Returns
    -------
    numpy.ndarray
        ``(n_windows, 4)`` matrix whose rows equal the scalar feature
        vectors bit for bit.  A window holding a non-finite sample gets an
        all-NaN row and raises no numpy warning.

    Notes
    -----
    The scalar function reduces its ``(n_samples, n_axes)`` window along
    the sample axis, which numpy accumulates row by row when there are
    several axes and sums pairwise along a contiguous 1-D series when
    there is one.  The batch lays the stack out so that each reduction
    keeps that order: ``(n_samples, n_windows * n_axes)`` reduced along
    axis 0 for multi-axis windows, ``(n_windows, n_samples)`` reduced
    along axis 1 for single-axis ones.  The per-axis average then reduces
    each window's ``n_axes`` values along a contiguous row, as the scalar
    ``.mean()`` of a 1-D vector does.
    """
    x = np.asarray(windows, dtype=float)
    if x.ndim != 3:
        raise ValueError(
            f"expected a (n_windows, n_samples, n_axes) array, got shape {x.shape}"
        )
    n, samples, axes = x.shape
    if samples == 0:
        raise ValueError("feature extraction received an empty window")
    if axes == 1:
        series, axis = x.reshape(n, samples), 1
    else:
        series, axis = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(samples, n * axes), 0

    # A non-finite sample always makes its series' sum non-finite; only
    # then is the (rare) exact per-sample check paid.  Those series are
    # zeroed so the feature math below stays warning-free, and their
    # windows' rows are set to NaN at the end.
    with np.errstate(invalid="ignore", over="ignore"):
        sums = series.sum(axis=axis)
    bad = None
    if not np.isfinite(sums).all():
        bad = ~np.isfinite(x).all(axis=(1, 2))
        bad_series = np.repeat(bad, axes)
        series = np.where(np.expand_dims(bad_series, axis), 0.0, series)
        sums = series.sum(axis=axis)

    means = sums / samples
    energies = (series * series).sum(axis=axis) / samples
    deviations = series - np.expand_dims(means, axis)
    deviations *= deviations
    stds = np.sqrt(deviations.sum(axis=axis) / samples)
    n_peaks = count_sign_changes_batch(np.moveaxis(series, axis, -1)).astype(float)
    out = np.stack(
        [v.reshape(n, axes).mean(axis=1) for v in (means, energies, stds, n_peaks)],
        axis=1,
    )
    if bad is not None:
        out[bad] = np.nan
    return out


def extended_accelerometer_features(window: np.ndarray) -> np.ndarray:
    """Extended statistical feature vector (9 entries), axis-averaged.

    Used to reproduce the paper's grid search that selected the 4 features
    of :func:`accelerometer_features` out of a larger candidate pool.
    """
    x = _per_axis(window)
    base = accelerometer_features(x)
    mins = x.min(axis=0).mean()
    maxs = x.max(axis=0).mean()
    rng = (x.max(axis=0) - x.min(axis=0)).mean()
    mad = np.mean(np.abs(np.diff(x, axis=0)), axis=0).mean() if x.shape[0] > 1 else 0.0
    rms = np.sqrt(np.mean(x ** 2, axis=0)).mean()
    return np.concatenate([base, [mins, maxs, rng, mad, rms]])


def feature_vector(windows: np.ndarray, extended: bool = False) -> np.ndarray:
    """Feature matrix for a batch of accelerometer windows.

    The paper's 4 features come from :func:`accelerometer_features_batch`
    over chunks of :data:`FEATURE_CHUNK` windows; the extended set loops
    over :func:`extended_accelerometer_features`.  Either way a window
    holding a non-finite sample yields an all-NaN row without a numpy
    warning, and an empty batch yields an empty matrix.

    Parameters
    ----------
    windows:
        Array of shape ``(n_windows, n_samples, n_axes)``.
    extended:
        When ``True``, compute the 9-feature extended set instead of the
        paper's 4 features.

    Returns
    -------
    numpy.ndarray
        ``(n_windows, n_features)`` feature matrix.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim == 2:  # single-axis batch
        windows = windows[:, :, None]
    if windows.ndim != 3:
        raise ValueError(
            f"feature_vector expects (n_windows, n_samples, n_axes), got shape {windows.shape}"
        )
    n = windows.shape[0]
    if extended:
        out = np.full((n, len(EXTENDED_FEATURE_NAMES)), np.nan)
        for i in np.flatnonzero(np.isfinite(windows).all(axis=(1, 2))):
            out[i] = extended_accelerometer_features(windows[i])
        return out
    out = np.empty((n, len(FEATURE_NAMES)))
    for start in range(0, n, FEATURE_CHUNK):
        stop = start + FEATURE_CHUNK
        out[start:stop] = accelerometer_features_batch(windows[start:stop])
    return out
