"""Tests for repro.signal.features."""

import warnings

import numpy as np
import pytest

from repro.signal.features import (
    EXTENDED_FEATURE_NAMES,
    FEATURE_CHUNK,
    FEATURE_NAMES,
    accelerometer_features,
    accelerometer_features_batch,
    extended_accelerometer_features,
    feature_vector,
    signal_energy,
)


class TestSignalEnergy:
    def test_constant_signal(self):
        assert signal_energy(np.full(10, 2.0)) == pytest.approx(4.0)

    def test_empty_signal(self):
        assert signal_energy(np.array([])) == 0.0

    def test_scales_quadratically(self):
        x = np.random.default_rng(0).normal(size=200)
        assert signal_energy(3 * x) == pytest.approx(9 * signal_energy(x))


class TestAccelerometerFeatures:
    def test_feature_count_and_names(self):
        assert len(FEATURE_NAMES) == 4
        window = np.random.default_rng(1).normal(size=(256, 3))
        assert accelerometer_features(window).shape == (4,)

    def test_known_values_on_constant_window(self):
        window = np.full((100, 3), 2.0)
        mean, energy, std, n_peaks = accelerometer_features(window)
        assert mean == pytest.approx(2.0)
        assert energy == pytest.approx(4.0)
        assert std == pytest.approx(0.0)
        assert n_peaks == 0.0

    def test_single_axis_input(self):
        window = np.sin(np.linspace(0, 8 * np.pi, 256))
        features = accelerometer_features(window)
        assert features.shape == (4,)
        assert features[3] > 0  # oscillation produces derivative sign changes

    def test_more_motion_more_std_and_energy(self):
        rng = np.random.default_rng(2)
        calm = rng.normal(0, 0.01, size=(256, 3))
        active = rng.normal(0, 0.5, size=(256, 3))
        f_calm = accelerometer_features(calm)
        f_active = accelerometer_features(active)
        assert f_active[1] > f_calm[1]  # energy
        assert f_active[2] > f_calm[2]  # std

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            accelerometer_features(np.empty((0, 3)))


class TestExtendedFeatures:
    def test_count_and_prefix(self):
        window = np.random.default_rng(3).normal(size=(128, 3))
        extended = extended_accelerometer_features(window)
        assert extended.shape == (len(EXTENDED_FEATURE_NAMES),)
        assert np.allclose(extended[:4], accelerometer_features(window))

    def test_range_is_max_minus_min(self):
        window = np.stack([np.linspace(-1, 1, 50)] * 3, axis=1)
        extended = extended_accelerometer_features(window)
        names = list(EXTENDED_FEATURE_NAMES)
        assert extended[names.index("range")] == pytest.approx(2.0)


class TestFeatureVector:
    def test_batch_shape(self):
        windows = np.random.default_rng(4).normal(size=(10, 64, 3))
        assert feature_vector(windows).shape == (10, 4)
        assert feature_vector(windows, extended=True).shape == (10, 9)

    def test_2d_batch_treated_as_single_axis(self):
        windows = np.random.default_rng(5).normal(size=(6, 64))
        assert feature_vector(windows).shape == (6, 4)

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError):
            feature_vector(np.zeros((2, 3, 4, 5)))

    def test_empty_batch_gives_empty_matrix(self):
        assert feature_vector(np.zeros((0, 256, 3))).shape == (0, 4)
        assert feature_vector(np.zeros((0, 256, 3)), extended=True).shape == (0, 9)


def scalar_stack(windows: np.ndarray) -> np.ndarray:
    return np.stack([accelerometer_features(w) for w in windows])


class TestAccelerometerFeaturesBatch:
    def test_bit_identical_to_scalar_on_profiling_corpus(self, profiling_corpus):
        windows, _ = profiling_corpus
        assert feature_vector(windows).tobytes() == scalar_stack(windows).tobytes()

    @pytest.mark.parametrize("n", [FEATURE_CHUNK - 1, FEATURE_CHUNK, FEATURE_CHUNK + 1])
    def test_bit_identical_across_chunk_boundaries(self, n):
        windows = np.round(np.random.default_rng(n).normal(size=(n, 32, 3)), 1)
        assert feature_vector(windows).tobytes() == scalar_stack(windows).tobytes()

    def test_single_axis_batch_matches_scalar(self):
        # One axis is a contiguous series, which numpy sums pairwise.
        windows = np.random.default_rng(6).normal(size=(7, 256))
        expected = np.stack([accelerometer_features(w) for w in windows])
        assert feature_vector(windows).tobytes() == expected.tobytes()

    def test_empty_window_and_wrong_rank_rejected(self):
        with pytest.raises(ValueError):
            accelerometer_features_batch(np.zeros((2, 0, 3)))
        with pytest.raises(ValueError):
            accelerometer_features_batch(np.zeros((4, 3)))

    def test_input_is_not_modified(self):
        windows = np.random.default_rng(7).normal(size=(1, 16, 3))
        windows[0, 2, 1] = np.inf
        before = windows.copy()
        accelerometer_features_batch(windows)
        assert np.array_equal(windows, before)

    @pytest.mark.parametrize("extended", [False, True])
    def test_non_finite_windows_give_nan_rows_without_warning(self, extended):
        windows = np.random.default_rng(8).normal(size=(6, 64, 3))
        windows[1, 5, 0] = np.inf
        windows[3, :, 2] = np.nan
        windows[4, 0, 1] = -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            features = feature_vector(windows, extended=extended)
        bad = np.array([False, True, False, True, True, False])
        assert np.isnan(features[bad]).all()
        assert np.isfinite(features[~bad]).all()
        expected = feature_vector(windows[~bad], extended=extended)
        assert features[~bad].tobytes() == expected.tobytes()
