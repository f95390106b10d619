"""Peak detection utilities.

Two detectors are provided:

* :func:`find_peaks_simple` — generic local-maxima detection with a
  minimum-distance constraint, used by the dataset generator and by the
  accelerometer feature extractor.
* :func:`adaptive_threshold_peaks` — the region-of-interest scheme of
  Shin et al. (the "AT" predictor of the paper): samples above the
  rolling mean form regions of interest, and the largest sample of each
  region is a peak.

Both return sample indices; :func:`peak_intervals_to_bpm` converts the
inter-peak intervals into an average heart rate.

The AT detector also has a batched twin operating on a whole
``(n_windows, window_len)`` stack at once —
:func:`adaptive_threshold_peaks_batch` and
:func:`peak_intervals_to_bpm_batch` — whose per-row results are
**bit-identical** to running the scalar functions row by row.  Every
step is either elementwise (threshold recurrence, comparisons, interval
arithmetic) or confined to one row's samples (region maxima, interval
means), and the final interval mean uses the same strictly sequential
left-to-right summation as the scalar path, so no floating-point
reassociation can creep in.
"""

from __future__ import annotations

import numpy as np

from repro.dtypes import as_floating
from repro.signal.filters import moving_average, moving_average_batch


def find_peaks_simple(x: np.ndarray, min_distance: int = 1, min_height: float | None = None) -> np.ndarray:
    """Indices of local maxima separated by at least ``min_distance`` samples.

    A sample is a candidate peak when it is strictly greater than its left
    neighbour and greater than or equal to its right neighbour.  Candidates
    are then greedily selected in decreasing amplitude order, discarding any
    candidate closer than ``min_distance`` to an already selected peak.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"find_peaks_simple expects a 1-D signal, got shape {x.shape}")
    if x.size < 3:
        return np.array([], dtype=int)
    if min_distance < 1:
        raise ValueError(f"min_distance must be >= 1, got {min_distance}")

    left = x[1:-1] > x[:-2]
    right = x[1:-1] >= x[2:]
    candidates = np.nonzero(left & right)[0] + 1
    if min_height is not None:
        candidates = candidates[x[candidates] >= min_height]
    if candidates.size == 0 or min_distance == 1:
        return candidates

    order = np.argsort(x[candidates])[::-1]
    selected: list[int] = []
    taken = np.zeros(x.size, dtype=bool)
    for idx in candidates[order]:
        lo = max(0, idx - min_distance + 1)
        hi = min(x.size, idx + min_distance)
        if not taken[lo:hi].any():
            selected.append(int(idx))
            taken[idx] = True
    return np.array(sorted(selected), dtype=int)


def adaptive_threshold_peaks(x: np.ndarray, window: int = 24) -> np.ndarray:
    """Peaks according to the Adaptive-Threshold (AT) method.

    The rolling mean over ``window`` samples acts as an adaptive threshold;
    contiguous runs of samples above the threshold are *regions of
    interest*, and the index of the largest sample inside each region is
    reported as a peak.

    Parameters
    ----------
    x:
        1-D PPG window.
    window:
        Rolling-mean length in samples (24 in the paper, i.e. 0.75 s at
        32 Hz).
    """
    x = as_floating(x)
    if x.ndim != 1:
        raise ValueError(f"adaptive_threshold_peaks expects a 1-D signal, got shape {x.shape}")
    if x.size == 0:
        return np.array([], dtype=int)
    threshold = moving_average(x, window)
    above = x > threshold
    if not above.any():
        return np.array([], dtype=int)

    # Find run boundaries of the boolean mask.
    padded = np.concatenate(([False], above, [False]))
    diff = np.diff(padded.astype(int))
    starts = np.nonzero(diff == 1)[0]
    ends = np.nonzero(diff == -1)[0]

    peaks = []
    for start, end in zip(starts, ends):
        region = x[start:end]
        peaks.append(start + int(np.argmax(region)))
    return np.array(peaks, dtype=int)


def peak_intervals_to_bpm(peaks: np.ndarray, fs: float, min_bpm: float = 30.0, max_bpm: float = 220.0) -> float:
    """Average heart rate (beats per minute) from successive peak indices.

    Inter-peak intervals outside the physiologically plausible
    ``[min_bpm, max_bpm]`` band are discarded before averaging; if no valid
    interval remains, ``nan`` is returned and callers are expected to fall
    back to a default (the runtime uses the previous estimate).
    """
    peaks = np.asarray(peaks)
    if peaks.size < 2:
        return float("nan")
    intervals = np.diff(peaks) / float(fs)  # seconds between beats
    with np.errstate(divide="ignore"):
        bpm = 60.0 / intervals
    valid = bpm[(bpm >= min_bpm) & (bpm <= max_bpm)]
    if valid.size == 0:
        return float("nan")
    # Strictly sequential left-to-right sum (``cumsum``) rather than
    # ``mean``'s pairwise reduction: the batched twin reproduces this
    # accumulation order exactly, which is what keeps
    # ``peak_intervals_to_bpm_batch`` bit-identical per row.
    return float(np.cumsum(valid)[-1]) / valid.size


def adaptive_threshold_peaks_batch(  # hot-path
    x: np.ndarray, window: int = 24
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise AT peak detection over a ``(n_windows, window_len)`` batch.

    Vectorized twin of :func:`adaptive_threshold_peaks`: the rolling-mean
    threshold, the region-of-interest extraction and the per-region
    argmax all run as flat array operations over the whole batch, yet
    every row's peaks are exactly the peaks the scalar detector finds on
    that row alone (regions never span rows, region maxima are exact
    comparisons, and ties resolve to the first maximum like
    ``np.argmax``).

    Returns
    -------
    (rows, positions):
        Parallel int arrays naming each peak's window row and its sample
        index inside that row, sorted by ``(row, position)``.
    """
    x = as_floating(x)
    if x.ndim != 2:
        raise ValueError(
            f"adaptive_threshold_peaks_batch expects a 2-D batch, got shape {x.shape}"
        )
    n_rows, length = x.shape
    empty = (np.array([], dtype=int), np.array([], dtype=int))
    if n_rows == 0 or length == 0:
        return empty
    above = x > moving_average_batch(x, window)

    # Peak candidates: in-region samples that rise from their left
    # neighbour and do not rise into their right one (or end the
    # region).  A region's first maximum is always one of them — the
    # sample before it is in the region and strictly smaller, the one
    # after it is no larger — so the argmax only has to look at the
    # candidates plus each region's start, which delimits the segments.
    # That set is a fraction of the in-region samples, and the passes
    # that build it are float comparisons over the whole batch.  Only
    # two boolean scratch arrays are allocated: every full-batch
    # temporary is fresh memory to fault in on large batches.
    candidate = np.empty_like(above)
    candidate[:, -1] = True
    np.greater_equal(x[:, :-1], x[:, 1:], out=candidate[:, :-1])
    # ``falls | ~next_above`` is ``next_above <= falls`` on booleans.
    np.less_equal(above[:, 1:], candidate[:, :-1], out=candidate[:, :-1])
    start = np.empty_like(above)
    start[:, 0] = False
    np.greater(x[:, 1:], x[:, :-1], out=start[:, 1:])
    candidate &= start
    candidate &= above

    # Region starts of every row at once (reusing the rise scratch): an
    # above-threshold sample whose left neighbour (False at the row edge,
    # so runs can never span adjacent rows) is below threshold.
    start[:, 0] = above[:, 0]
    np.greater(above[:, 1:], above[:, :-1], out=start[:, 1:])
    candidate |= start
    kept = np.flatnonzero(candidate)
    if kept.size == 0:
        return empty
    vals = x.ravel()[kept]
    boundaries = np.flatnonzero(start.ravel()[kept])

    # Region maxima: one reduceat over the kept values (each segment runs
    # from a region start to the next; regions never span rows).  The
    # first kept position equal to its region's max is that region's
    # first maximum, i.e. ``np.argmax`` of the region: an earlier equal
    # sample would itself be an earlier maximum.
    region_max = np.maximum.reduceat(vals, boundaries)
    sizes = np.diff(boundaries, append=kept.size)
    hits = np.flatnonzero(vals == np.repeat(region_max, sizes))
    if hits.size != boundaries.size:
        # Tied maxima: keep the first hit of each region (hits are in
        # flat order, so a region's first hit is where its id changes).
        region = np.searchsorted(boundaries, hits, side="right")
        first = np.empty(hits.size, dtype=bool)
        first[0] = True
        np.not_equal(region[1:], region[:-1], out=first[1:])
        hits = hits[first]
    return np.divmod(kept[hits], length)


def peak_intervals_to_bpm_batch(  # hot-path
    peak_rows: np.ndarray,
    peak_positions: np.ndarray,
    n_rows: int,
    fs: float,
    min_bpm: float = 30.0,
    max_bpm: float = 220.0,
) -> np.ndarray:
    """Per-row :func:`peak_intervals_to_bpm` over a batch's stacked peaks.

    ``peak_rows`` / ``peak_positions`` are the
    :func:`adaptive_threshold_peaks_batch` output (row-major order).
    Returns a ``(n_rows,)`` float array with ``nan`` where a row has no
    valid interval, each entry bit-identical to the scalar conversion of
    that row's peaks: intervals, the plausibility band and the final
    strictly sequential interval mean are the same operations in the
    same order (zero padding in the dense accumulation is exact — valid
    BPM values are strictly positive).
    """
    peak_rows = np.asarray(peak_rows, dtype=np.intp)
    peak_positions = np.asarray(peak_positions, dtype=np.intp)
    # Scratch arrays carry explicit dtypes: the BPM math happens in float64
    # today (intervals come from integer positions / float(fs)), and the
    # index ranks are plain platform ints — neither may silently widen a
    # future float32 pipeline's outputs.
    out = np.full(n_rows, np.nan, dtype=float)
    if peak_rows.size < 2:
        return out
    same_row = peak_rows[1:] == peak_rows[:-1]
    intervals = (np.diff(peak_positions) / float(fs))[same_row]
    interval_rows = peak_rows[1:][same_row]
    with np.errstate(divide="ignore"):
        bpm = 60.0 / intervals
    band = (bpm >= min_bpm) & (bpm <= max_bpm)
    valid_bpm = bpm[band]
    valid_rows = interval_rows[band]
    if valid_bpm.size == 0:
        return out
    counts = np.bincount(valid_rows, minlength=n_rows)
    # Pack each row's valid intervals left-aligned into a dense matrix
    # (``valid_rows`` is sorted, so the within-row rank is the offset
    # from the row's first entry), then accumulate along the columns:
    # cumsum is strictly sequential and the right-padding zeros are
    # exact, so the last column equals the scalar path's running sum.
    row_starts = np.concatenate([[0], np.cumsum(counts)])[:-1]
    rank = np.arange(valid_bpm.size, dtype=np.intp) - row_starts[valid_rows]
    dense = np.zeros((n_rows, int(counts.max())), dtype=valid_bpm.dtype)
    dense[valid_rows, rank] = valid_bpm
    totals = np.cumsum(dense, axis=1)[:, -1]
    has_valid = counts > 0
    out[has_valid] = totals[has_valid] / counts[has_valid]
    return out


def count_sign_changes(x: np.ndarray) -> int:
    """Number of sign changes of the discrete derivative of ``x``.

    This is the "number of peaks" feature used by the activity-recognition
    Random Forest in the paper (a cheap proxy for oscillation rate that the
    LSM6DSM ML core can compute).
    """
    x = np.asarray(x, dtype=float)
    if x.size < 3:
        return 0
    deriv = np.diff(x)
    signs = np.sign(deriv)
    # Ignore zero-derivative plateaus by propagating the previous sign.
    nonzero = signs != 0
    if not nonzero.any():
        return 0
    # Forward-fill zero signs with the last non-zero sign.
    idx = np.where(nonzero, np.arange(signs.size, dtype=np.intp), 0)
    np.maximum.accumulate(idx, out=idx)
    filled = signs[idx]
    return int(np.count_nonzero(np.diff(filled) != 0))


def count_sign_changes_batch(x: np.ndarray) -> np.ndarray:  # hot-path
    """:func:`count_sign_changes` of every row of ``x`` (samples on the last axis).

    A row without a zero derivative needs no forward fill, so its count
    is the number of changes of its raw signs.  Rows with a plateau are
    gathered and forward-filled with the scalar rule, quirk included:
    zero signs before a row's first non-zero sign index that row's first
    sign, so a leading plateau counts as sign 0 and its end as a change.
    The counts are integers, so they equal the scalar ones exactly
    whatever the memory layout of ``x``.

    Returns
    -------
    numpy.ndarray
        Integer counts of shape ``x.shape[:-1]``.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] < 3:
        return np.zeros(x.shape[:-1], dtype=np.intp)
    signs = np.sign(np.diff(x))
    # Signs are -1, 0, 1 or NaN, so ``a != b`` is the scalar's ``a - b != 0``.
    changes = np.asarray(np.count_nonzero(signs[..., 1:] != signs[..., :-1], axis=-1))
    plateau = (signs == 0).any(axis=-1)
    if plateau.any():
        rows = signs[plateau]
        idx = np.where(rows != 0, np.arange(rows.shape[1], dtype=np.intp), 0)
        np.maximum.accumulate(idx, axis=1, out=idx)
        filled = np.take_along_axis(rows, idx, axis=1)
        changes[plateau] = np.count_nonzero(filled[:, 1:] != filled[:, :-1], axis=1)
    return changes
