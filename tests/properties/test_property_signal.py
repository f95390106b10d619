"""Property-based tests for the signal-processing substrate."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.signal.features import FEATURE_CHUNK, accelerometer_features, feature_vector
from repro.signal.filters import moving_average, standardize
from repro.signal.peaks import (
    adaptive_threshold_peaks,
    adaptive_threshold_peaks_batch,
    count_sign_changes,
    count_sign_changes_batch,
    find_peaks_simple,
)
from repro.signal.spectral import spectral_entropy
from repro.signal.windowing import WindowSpec, sliding_windows

finite_signal = arrays(
    dtype=np.float64,
    shape=st.integers(min_value=4, max_value=300),
    elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False),
)


class TestFilterProperties:
    @given(finite_signal, st.integers(min_value=1, max_value=50))
    @settings(max_examples=60, deadline=None)
    def test_moving_average_stays_within_signal_range(self, x, window):
        out = moving_average(x, window)
        assert out.shape == x.shape
        assert np.all(out >= x.min() - 1e-9)
        assert np.all(out <= x.max() + 1e-9)

    @given(finite_signal)
    @settings(max_examples=60, deadline=None)
    def test_moving_average_window_one_is_identity(self, x):
        assert np.allclose(moving_average(x, 1), x)

    @given(finite_signal)
    @settings(max_examples=60, deadline=None)
    def test_standardize_is_shift_and_scale_invariant(self, x):
        # The invariance only holds when the signal variance dominates the
        # stabilizing epsilon inside standardize().
        assume(float(np.std(x)) > 1e-3)
        a = standardize(x)
        b = standardize(3.0 * x + 10.0)
        assert np.allclose(a, b, atol=1e-4)


class TestPeakProperties:
    @given(finite_signal, st.integers(min_value=1, max_value=20))
    @settings(max_examples=60, deadline=None)
    def test_peaks_respect_min_distance_and_bounds(self, x, min_distance):
        peaks = find_peaks_simple(x, min_distance=min_distance)
        assert np.all(peaks >= 0)
        assert np.all(peaks < x.size)
        if peaks.size > 1:
            assert np.all(np.diff(peaks) >= min_distance)

    @given(finite_signal)
    @settings(max_examples=60, deadline=None)
    def test_adaptive_threshold_peaks_are_valid_indices(self, x):
        peaks = adaptive_threshold_peaks(x)
        assert np.all(peaks >= 0)
        assert np.all(peaks < x.size)
        # Each reported peak lies strictly above the signal mean-threshold at
        # that index only when any sample does; at minimum indices are sorted.
        assert np.all(np.diff(peaks) > 0)

    @given(
        arrays(
            dtype=st.sampled_from([np.float64, np.float32]),
            shape=st.tuples(
                st.integers(min_value=1, max_value=6),
                st.integers(min_value=1, max_value=40),
            ),
            elements=st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0]),
        ),
        st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=120, deadline=None)
    def test_batched_adaptive_threshold_peaks_match_scalar(self, x, window):
        """Few distinct levels: ties, plateaus and signed zeros everywhere."""
        rows, positions = adaptive_threshold_peaks_batch(x, window=window)
        for i in range(x.shape[0]):
            np.testing.assert_array_equal(
                positions[rows == i], adaptive_threshold_peaks(x[i], window=window)
            )

    @given(finite_signal)
    @settings(max_examples=60, deadline=None)
    def test_sign_changes_bounded_by_length(self, x):
        changes = count_sign_changes(x)
        assert 0 <= changes <= max(0, x.size - 2)


@st.composite
def accel_batches(draw):
    """Window stacks rich in plateaus: few distinct levels, so leading and
    trailing zero-derivative runs and constant windows are common; fewer
    than 3 samples and a single axis are in range, and the batch size
    straddles the feature chunk boundary."""
    n_samples = draw(st.integers(min_value=1, max_value=40))
    n_axes = draw(st.integers(min_value=1, max_value=3))
    levels = draw(
        st.lists(
            st.floats(min_value=-20, max_value=20, allow_nan=False),
            min_size=1,
            max_size=4,
        )
    )
    n_base = draw(st.integers(min_value=1, max_value=4))
    picks = draw(
        arrays(np.intp, (n_base, n_samples, n_axes), elements=st.integers(0, len(levels) - 1))
    )
    base = np.asarray(levels)[picks]
    n = draw(st.sampled_from([1, 2, 3, FEATURE_CHUNK - 1, FEATURE_CHUNK, FEATURE_CHUNK + 1]))
    return base[np.arange(n) % n_base]


class TestFeatureBatchProperties:
    @given(accel_batches())
    @settings(max_examples=40, deadline=None)
    def test_batch_features_bit_identical_to_scalar(self, windows):
        expected = np.stack([accelerometer_features(w) for w in windows])
        assert feature_vector(windows).tobytes() == expected.tobytes()

    @given(accel_batches())
    @settings(max_examples=40, deadline=None)
    def test_batch_sign_changes_equal_scalar(self, windows):
        series = windows.transpose(0, 2, 1).reshape(-1, windows.shape[1])
        expected = [count_sign_changes(row) for row in series]
        assert count_sign_changes_batch(series).tolist() == expected


class TestSpectralProperties:
    @given(finite_signal)
    @settings(max_examples=40, deadline=None)
    def test_spectral_entropy_in_unit_interval(self, x):
        value = spectral_entropy(x, fs=32.0)
        assert 0.0 <= value <= 1.0


class TestWindowingProperties:
    @given(
        st.integers(min_value=1, max_value=2000),
        st.integers(min_value=1, max_value=128),
        st.integers(min_value=1, max_value=128),
    )
    @settings(max_examples=80, deadline=None)
    def test_window_count_formula(self, n_samples, length, stride):
        spec = WindowSpec(length=length, stride=stride)
        x = np.zeros(n_samples)
        windows = sliding_windows(x, spec)
        expected = 0 if n_samples < length else 1 + (n_samples - length) // stride
        assert windows.shape == (expected, length)

    @given(st.integers(min_value=30, max_value=400), st.integers(min_value=1, max_value=20))
    @settings(max_examples=40, deadline=None)
    def test_windows_reproduce_source_slices(self, n_samples, stride):
        spec = WindowSpec(length=25, stride=stride)
        x = np.arange(n_samples, dtype=float)
        windows = sliding_windows(x, spec)
        for i in range(windows.shape[0]):
            start = i * stride
            assert np.array_equal(windows[i], x[start:start + 25])


class TestFeatureProperties:
    @given(
        arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(min_value=3, max_value=100), st.just(3)),
            elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_features_are_finite_and_energy_nonnegative(self, window):
        features = accelerometer_features(window)
        assert features.shape == (4,)
        assert np.all(np.isfinite(features))
        assert features[1] >= 0.0  # energy
        assert features[2] >= 0.0  # std
        assert features[3] >= 0.0  # peak count
