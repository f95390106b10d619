"""Tests for Sequential, losses and optimizers."""

import numpy as np
import pytest

from repro.nn.layers import Conv1d, Dense, Flatten, ReLU
from repro.nn.losses import HuberLoss, L1Loss, MSELoss
from repro.nn.network import Sequential
from repro.nn.optim import SGD, Adam


def tiny_net(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential([
        Conv1d(1, 2, 3, stride=2, rng=rng),
        ReLU(),
        Flatten(),
        Dense(2 * 8, 1, rng=rng),
    ])


class TestSequential:
    def test_forward_shape(self):
        net = tiny_net()
        out = net.forward(np.zeros((5, 1, 16)))
        assert out.shape == (5, 1)

    def test_parameter_count(self):
        net = tiny_net()
        expected = (2 * 1 * 3 + 2) + (16 * 1 + 1)
        assert net.n_parameters == expected

    def test_state_dict_roundtrip(self):
        net = tiny_net(seed=1)
        other = tiny_net(seed=2)
        x = np.random.default_rng(0).normal(size=(3, 1, 16))
        assert not np.allclose(net.forward(x), other.forward(x))
        other.load_state_dict(net.state_dict())
        assert np.allclose(net.forward(x), other.forward(x))

    def test_load_state_dict_missing_key(self):
        net = tiny_net()
        state = net.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(KeyError):
            tiny_net().load_state_dict(state)

    def test_load_state_dict_shape_mismatch(self):
        net = tiny_net()
        state = net.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            tiny_net().load_state_dict(state)

    def test_add_is_chainable(self):
        net = Sequential().add(Dense(2, 2)).add(ReLU())
        assert len(net) == 2

    def test_backward_propagates_through_all_layers(self):
        net = tiny_net()
        x = np.random.default_rng(3).normal(size=(4, 1, 16))
        out = net.forward(x, training=True)
        grad = net.backward(np.ones_like(out))
        assert grad.shape == x.shape


class TestLosses:
    def test_mse_value_and_gradient(self):
        loss = MSELoss()
        pred = np.array([[1.0], [3.0]])
        target = np.array([[0.0], [1.0]])
        assert loss.value(pred, target) == pytest.approx((1 + 4) / 2)
        grad = loss.gradient(pred, target)
        assert np.allclose(grad, [[1.0], [2.0]])

    def test_l1_value_is_mae(self):
        loss = L1Loss()
        pred = np.array([[72.0], [68.0]])
        target = np.array([[70.0], [70.0]])
        assert loss.value(pred, target) == pytest.approx(2.0)

    def test_huber_quadratic_then_linear(self):
        loss = HuberLoss(delta=1.0)
        small = loss.value(np.array([[0.5]]), np.array([[0.0]]))
        large = loss.value(np.array([[10.0]]), np.array([[0.0]]))
        assert small == pytest.approx(0.125)
        assert large == pytest.approx(1.0 * (10.0 - 0.5))

    def test_huber_gradient_clipped(self):
        loss = HuberLoss(delta=2.0)
        grad = loss.gradient(np.array([[100.0]]), np.array([[0.0]]))
        assert grad[0, 0] == pytest.approx(2.0)

    def test_loss_gradient_matches_numeric(self):
        rng = np.random.default_rng(0)
        pred = rng.normal(size=(6, 1))
        target = rng.normal(size=(6, 1))
        for loss in (MSELoss(), HuberLoss(1.0)):
            grad = loss.gradient(pred, target)
            eps = 1e-6
            pred[2, 0] += eps
            plus = loss.value(pred, target)
            pred[2, 0] -= 2 * eps
            minus = loss.value(pred, target)
            pred[2, 0] += eps
            assert grad[2, 0] == pytest.approx((plus - minus) / (2 * eps), rel=1e-4, abs=1e-8)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MSELoss().value(np.zeros((2, 1)), np.zeros((3, 1)))

    def test_invalid_huber_delta(self):
        with pytest.raises(ValueError):
            HuberLoss(delta=0.0)


class TestOptimizers:
    def _quadratic_problem(self, optimizer_factory, steps=200):
        """Minimize ||Wx - y||^2 over a fixed batch with a single Dense layer."""
        rng = np.random.default_rng(0)
        net = Sequential([Dense(3, 1, rng=rng)])
        true_w = np.array([[1.0, -2.0, 0.5]])
        x = rng.normal(size=(64, 3))
        y = x @ true_w.T
        optimizer = optimizer_factory(net)
        loss = MSELoss()
        for _ in range(steps):
            optimizer.zero_grad()
            pred = net.forward(x, training=True)
            net.backward(loss.gradient(pred, y))
            optimizer.step()
        return loss.value(net.forward(x), y), net.layers[0].params["weight"]

    def test_sgd_converges(self):
        final, weight = self._quadratic_problem(lambda n: SGD(n, learning_rate=0.05), steps=300)
        assert final < 1e-3
        assert np.allclose(weight, [[1.0, -2.0, 0.5]], atol=0.05)

    def test_sgd_momentum_converges_faster_than_plain(self):
        plain, _ = self._quadratic_problem(lambda n: SGD(n, learning_rate=0.01), steps=60)
        momentum, _ = self._quadratic_problem(
            lambda n: SGD(n, learning_rate=0.01, momentum=0.9), steps=60
        )
        assert momentum < plain

    def test_adam_converges(self):
        final, weight = self._quadratic_problem(lambda n: Adam(n, learning_rate=0.05), steps=300)
        assert final < 1e-3
        assert np.allclose(weight, [[1.0, -2.0, 0.5]], atol=0.05)

    def test_weight_decay_shrinks_weights(self):
        rng = np.random.default_rng(1)
        net = Sequential([Dense(4, 1, rng=rng)])
        initial_norm = np.linalg.norm(net.layers[0].params["weight"])
        optimizer = SGD(net, learning_rate=0.1, weight_decay=0.5)
        x = np.zeros((8, 4))
        y = np.zeros((8, 1))
        loss = MSELoss()
        # With zero inputs the loss gradient vanishes, so only the decay term
        # acts: the weight norm must shrink by (1 - lr * wd) per step.
        for _ in range(100):
            optimizer.zero_grad()
            pred = net.forward(x, training=True)
            net.backward(loss.gradient(pred, y))
            optimizer.step()
        expected = initial_norm * (1 - 0.1 * 0.5) ** 100
        assert np.linalg.norm(net.layers[0].params["weight"]) == pytest.approx(expected, rel=1e-6)

    def test_invalid_hyperparameters(self):
        net = Sequential([Dense(2, 1)])
        with pytest.raises(ValueError):
            SGD(net, learning_rate=0.0)
        with pytest.raises(ValueError):
            SGD(net, learning_rate=0.1, momentum=1.5)
        with pytest.raises(ValueError):
            Adam(net, learning_rate=0.1, beta1=1.0)
        with pytest.raises(ValueError):
            Adam(net, learning_rate=0.1, weight_decay=-1.0)


class TestFoldBatchnorm:
    def bn_net(self, seed=0):
        from repro.nn.layers import BatchNorm1d

        rng = np.random.default_rng(seed)
        net = Sequential([
            Conv1d(2, 4, 3, stride=2, rng=rng),
            BatchNorm1d(4),
            ReLU(),
            Conv1d(4, 4, 3, dilation=2, bias=False, rng=rng),
            BatchNorm1d(4),
            ReLU(),
            Flatten(),
            Dense(4 * 8, 1, rng=rng),
        ])
        # Non-trivial running statistics, as a trained network would have.
        x = rng.normal(size=(16, 2, 16)) * 2.0 + 0.5
        net.forward(x, training=True)
        return net

    def test_folded_matches_eval_forward(self):
        from repro.nn.network import fold_batchnorm

        net = self.bn_net()
        folded = fold_batchnorm(net)
        x = np.random.default_rng(1).normal(size=(8, 2, 16))
        np.testing.assert_allclose(
            folded.forward(x, training=False),
            net.forward(x, training=False),
            rtol=1e-10,
            atol=1e-12,
        )

    def test_folded_structure(self):
        from repro.nn.layers import BatchNorm1d
        from repro.nn.network import fold_batchnorm

        folded = fold_batchnorm(self.bn_net())
        assert not any(isinstance(l, BatchNorm1d) for l in folded.layers)
        convs = [l for l in folded.layers if isinstance(l, Conv1d)]
        assert all(c.bn_folded and c.use_bias for c in convs)

    def test_fold_shares_nothing_with_the_original(self):
        from repro.nn.network import fold_batchnorm

        net = self.bn_net()
        folded = fold_batchnorm(net)
        x = np.random.default_rng(2).normal(size=(4, 2, 16))
        before = folded.forward(x, training=False)
        for _, params in net.parameters():
            for value in params.values():
                value[...] = 0.0
        np.testing.assert_array_equal(folded.forward(x, training=False), before)

    def test_bn_without_preceding_conv_is_kept(self):
        from repro.nn.layers import BatchNorm1d
        from repro.nn.network import fold_batchnorm

        net = Sequential([BatchNorm1d(2), Conv1d(2, 2, 3, rng=np.random.default_rng(0))])
        folded = fold_batchnorm(net)
        assert isinstance(folded.layers[0], BatchNorm1d)
        x = np.random.default_rng(1).normal(size=(3, 2, 12))
        np.testing.assert_allclose(
            folded.forward(x, training=False), net.forward(x, training=False)
        )


class TestForwardFrozen:
    @pytest.mark.parametrize("leading_relu", [False, True])
    def test_equals_layer_by_layer_forward_and_leaves_input_alone(self, leading_relu):
        from repro.nn.layers import AvgPool1d, BatchNorm1d, Dropout, GlobalAvgPool1d
        from repro.nn.network import fold_batchnorm, forward_frozen

        rng = np.random.default_rng(5)
        convs = Sequential([
            *([ReLU()] if leading_relu else []),
            BatchNorm1d(3),
            Conv1d(3, 4, 3, stride=2, rng=rng),
            ReLU(),
            Dropout(0.5),
            AvgPool1d(2),
        ])
        x = rng.normal(size=(6, 3, 32))
        convs.forward(x, training=True)
        head = [Flatten(), Dense(4 * 8, 5, rng=rng), ReLU(), Dense(5, 1, rng=rng)]
        for tail in (head, [GlobalAvgPool1d()]):
            net = fold_batchnorm(Sequential(convs.layers + tail))
            before = x.copy()
            np.testing.assert_array_equal(
                forward_frozen(net, x), net.forward(x, training=False)
            )
            np.testing.assert_array_equal(x, before)
