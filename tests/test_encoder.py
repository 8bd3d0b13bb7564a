"""Tests for the MLP encoder: forward/backward correctness against
re-evaluation and finite-difference oracles, the optimizer, the momentum
queue, and the training loop."""

import copy
import pickle
import tracemalloc

import numpy as np
import pytest

import tempcl.encoder
import tempcl.loss
from tempcl.data import AugmentationPolicy, synth_mixture
from tempcl.encoder import (
    EncoderParams,
    NegativeSource,
    OptimState,
    backward,
    forward,
    init_encoder,
    init_optim_state,
    load_checkpoint,
    lr_at,
    momentum_update,
    queue_push,
    save_checkpoint,
    sgd_step,
    train_epoch,
)
from tempcl.loss import info_nce
from tempcl.schedule import ScheduleConfig
from test_loss import unit_rows


def params_of(layers, n_backbone: int) -> EncoderParams:
    """An :class:`EncoderParams` holding copies of the given (W, b) pairs."""
    return EncoderParams(np.concatenate([np.ravel(a) for pair in layers for a in pair]),
                         tuple(np.shape(W) for W, _ in layers), n_backbone)


def arrays(params: EncoderParams) -> list:
    """Each layer's W, then its b, in chain order: the per-array form."""
    return [a for pair in params.layers for a in pair]


def batch_loss(params, X1, X2, tau) -> float:
    """Mean contrastive loss of two fixed views; the scalar used by the
    finite-difference oracles."""
    U = forward(params, X1).embeddings
    V = forward(params, X2).embeddings
    return float(info_nce(U, V, tau)[0].mean())


def batch_grads(params, X1, X2, tau) -> EncoderParams:
    r1 = forward(params, X1)
    r2 = forward(params, X2)
    _, dU, dV = info_nce(r1.embeddings, r2.embeddings, tau)
    g1 = backward(params, dU, r1)
    g2 = backward(params, dV, r2)
    np.add(g1.flat, g2.flat, out=g1.flat)
    return g1


def smooth_neighbourhood(params, X, kink_margin=1e-3, norm_floor=0.3) -> bool:
    """True when no activation is near a ReLU kink and no projection row is
    near zero norm, so central differences probe a smooth region."""
    res = forward(params, X)
    pre = [a @ W + b for a, (W, b) in zip(res.inputs[:-1], params.layers)]
    if any(np.abs(z).min() < kink_margin for z in pre):
        return False
    return res.norms.min() > norm_floor


def fd_grads(params, X1, X2, tau, h=1e-5) -> np.ndarray:
    base = params.flat.copy()
    out = np.zeros_like(base)
    for i, orig in enumerate(base):
        params.flat[i] = orig + h
        up = batch_loss(params, X1, X2, tau)
        params.flat[i] = orig - h
        down = batch_loss(params, X1, X2, tau)
        params.flat[i] = orig
        out[i] = (up - down) / (2 * h)
    assert np.array_equal(params.flat, base)
    return out


class TestLayout:
    """One vector per parameter set: the layers are views that tile it."""

    @pytest.mark.parametrize("hidden, proj", [((), 1), ((9,), 2), ((9, 5), 1)])
    def test_layer_views_tile_flat_in_chain_order(self, hidden, proj):
        params = init_encoder(7, hidden, embed_dim=3, projection_layers=proj, seed=1)
        assert params.dims == tuple(W.shape for W, _ in params.layers)
        assert all(b.shape == (W.shape[1],) for W, b in params.layers)
        np.testing.assert_array_equal(np.concatenate([a.ravel() for a in arrays(params)]),
                                      params.flat)
        for a in arrays(params):
            assert np.shares_memory(a, params.flat)
        params.layers[-1][1][-1] = 7.0
        assert params.flat[-1] == 7.0

    def test_backward_and_copies_share_the_layout(self):
        params = init_encoder(5, (6,), embed_dim=4, seed=6)
        X = np.random.default_rng(7).standard_normal((3, 5))
        grads = backward(params, np.ones((3, 4)), forward(params, X))
        for other in (grads, params.copy(), params.zeros_like()):
            assert other.dims == params.dims and other.n_backbone == params.n_backbone
            assert not np.shares_memory(other.flat, params.flat)
            for a in arrays(other):
                assert np.shares_memory(a, other.flat)

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
                             ids=["deepcopy", "pickle"])
    def test_a_copied_or_unpickled_set_keeps_its_layers_as_views(self, clone):
        """Every layer of the copy is a view into the copy's flat, not the
        original's, so an in-place update of that flat reaches forward."""
        params = init_encoder(5, (6,), embed_dim=4, seed=6)
        X = np.random.default_rng(7).standard_normal((3, 5))
        before = forward(params, X).embeddings
        other = clone(params)
        assert other.dims == params.dims and other.n_backbone == params.n_backbone
        np.testing.assert_array_equal(other.flat, params.flat)
        for a in arrays(other):
            assert np.shares_memory(a, other.flat) and not np.shares_memory(a, params.flat)
        other.flat[:] *= -1.0
        assert not np.array_equal(forward(other, X).embeddings, before)
        np.testing.assert_array_equal(forward(params, X).embeddings, before)

    def test_layers_cannot_be_rebound(self):
        params = init_encoder(4, (8,), embed_dim=3)
        with pytest.raises(TypeError):
            params.layers[0] = params.layers[1]
        with pytest.raises(AttributeError):
            params.layers = params.layers[:1]
        with pytest.raises(AttributeError):
            params.flat = params.flat.copy()

    @pytest.mark.parametrize("shape", [(0,), (12,), (14,), (13, 1)])
    def test_flat_of_the_wrong_size_refused(self, shape):
        """dims ((2, 3), (3, 1)) hold (2 + 1) * 3 + (3 + 1) * 1 = 13 values."""
        EncoderParams(np.zeros(13), ((2, 3), (3, 1)), 1)
        with pytest.raises(ValueError, match="does not fit dims"):
            EncoderParams(np.zeros(shape), ((2, 3), (3, 1)), 1)


class TestForward:
    def test_identity_projection_returns_input(self):
        """No hidden layers and an identity projection pass unit rows through."""
        params = params_of([(np.eye(3), np.zeros(3))], 0)
        X = np.eye(3)
        res = forward(params, X)
        np.testing.assert_allclose(res.embeddings, X, atol=1e-15)
        np.testing.assert_array_equal(res.features, X)

    def test_rows_unit_norm(self):
        rng = np.random.default_rng(0)
        params = init_encoder(6, (16, 8), embed_dim=4, seed=1)
        X = rng.standard_normal((20, 6))
        res = forward(params, X)
        np.testing.assert_allclose(np.linalg.norm(res.embeddings, axis=1), 1.0, atol=1e-9)

    def test_matches_straight_line_recomputation(self):
        """Independent matmul/relu/normalize chain agrees to 1e-12."""
        rng = np.random.default_rng(2)
        params = init_encoder(5, (7, 6), embed_dim=3, seed=3)
        X = rng.standard_normal((5, 5))
        res = forward(params, X)

        a = X
        for W, b in params.layers[: params.n_backbone]:
            a = np.maximum(a @ W + b, 0.0)
        feats = a
        head = params.layers[params.n_backbone :]
        for i, (W, b) in enumerate(head):
            a = a @ W + b
            if i < len(head) - 1:
                a = np.maximum(a, 0.0)
        expect = a / np.linalg.norm(a, axis=1, keepdims=True)
        np.testing.assert_allclose(res.embeddings, expect, atol=1e-12)
        np.testing.assert_allclose(res.features, feats, atol=1e-12)

    def test_two_layer_projection_head(self):
        params = init_encoder(4, (8,), embed_dim=3, projection_layers=2, seed=4)
        assert (len(params.layers), params.n_backbone) == (3, 1)
        assert params.layers[1][0].shape == (8, 8)
        res = forward(params, np.random.default_rng(5).standard_normal((6, 4)))
        np.testing.assert_allclose(np.linalg.norm(res.embeddings, axis=1), 1.0, atol=1e-9)

    def test_zero_projection_row_replaced_and_flagged(self):
        params = params_of([(np.eye(2), np.zeros(2))], 0)
        X = np.array([[0.0, 0.0], [3.0, 4.0]])
        res = forward(params, X)
        np.testing.assert_array_equal(res.norms, [0.0, 5.0])
        np.testing.assert_array_equal(res.embeddings[0], [1.0, 0.0])

    @pytest.mark.parametrize("hidden", [(), (6,), (6, 5)])
    def test_features_are_the_tape_entry_at_the_tap(self, hidden):
        params = init_encoder(4, hidden, embed_dim=3, projection_layers=2, seed=2)
        res = forward(params, np.random.default_rng(3).standard_normal((5, 4)))
        assert len(res.inputs) == len(params.layers)
        assert res.features is res.inputs[params.n_backbone]

    def test_width_mismatch_diagnostic(self):
        params = init_encoder(4, (8,), embed_dim=3, projection_layers=2)
        with pytest.raises(ValueError, match="backbone layer 0"):
            forward(params, np.zeros((2, 5)))
        params = params_of([*params.layers[:2], (np.zeros((7, 3)), np.zeros(3))], 1)
        with pytest.raises(ValueError, match="projection layer 1: input width 8"):
            forward(params, np.zeros((2, 4)))

    def test_non_finite_input_rejected(self):
        params = init_encoder(2, (4,), embed_dim=2)
        with pytest.raises(ValueError, match="non-finite"):
            forward(params, np.array([[np.nan, 0.0]]))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        params = init_encoder(5, (6,), embed_dim=4, seed=6)
        X = np.random.default_rng(7).standard_normal((3, 5))
        grads = backward(params, np.zeros((3, 4)), forward(params, X))
        assert not grads.flat.any()

    def test_relu_passthrough_at_positive_preactivation(self):
        """With strictly positive preactivations the ReLU factor is one:
        gradients equal the mask-free linear chain."""
        W1 = np.array([[0.7, 1.1]])
        b1 = np.array([0.5, 0.6])
        W2 = np.array([[1.0, 0.2], [-0.3, 0.9]])
        params = params_of([(W1, b1), (W2, np.zeros(2))], 1)
        X = np.array([[1.0]])  # preactivations 1.2 and 1.7, both > 0
        res = forward(params, X)
        assert np.all(X @ W1 + b1 > 0)
        du = np.array([[0.3, -0.4]])
        grads = backward(params, du, res)

        z = res.inputs[1] @ W2
        u = res.embeddings
        dz = (du - np.sum(du * u, axis=1, keepdims=True) * u) / np.linalg.norm(z)
        dfeat = dz @ W2.T  # no relu mask: derivative exactly 1
        np.testing.assert_allclose(grads.layers[0][0], X.T @ dfeat, atol=1e-14)
        np.testing.assert_allclose(grads.layers[0][1], dfeat.sum(axis=0), atol=1e-14)

    def test_normalization_gradient_orthogonal_to_output(self):
        """Pre-normalization gradient rows are orthogonal to the embedding."""
        rng = np.random.default_rng(8)
        x = rng.standard_normal(4) * 2.0
        params = params_of([(np.eye(4), np.zeros(4))], 0)
        res = forward(params, x[None, :])
        du = rng.standard_normal((1, 4))
        grads = backward(params, du, res)
        # with identity projection and a single row, dW = x^T dz (rank one)
        i = int(np.argmax(np.abs(x)))
        dz = grads.layers[0][0][i] / x[i]
        assert abs(float(res.embeddings[0] @ dz)) < 1e-9

    def test_finite_difference_random_configs(self):
        """Ten random (params, views, upstream) configs agree with central
        differences to 1e-4 relative.

        Configurations are redrawn when an activation sits on a ReLU kink
        or a projection row is nearly zero-norm: finite differences are not
        a valid oracle across those non-smooth points.
        """
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 10:
            n_hidden = int(rng.integers(0, 3))
            dims = tuple(int(rng.integers(3, 7)) for _ in range(n_hidden))
            d_in = int(rng.integers(3, 6))
            n = int(rng.integers(2, 6))
            params = init_encoder(d_in, dims, embed_dim=int(rng.integers(2, 5)),
                                  projection_layers=int(rng.choice([1, 2])),
                                  seed=int(rng.integers(1000)))
            X1 = rng.standard_normal((n, d_in))
            X2 = rng.standard_normal((n, d_in))
            tau = float(rng.uniform(0.2, 1.0))
            if not (smooth_neighbourhood(params, X1) and smooth_neighbourhood(params, X2)):
                continue
            analytic = batch_grads(params, X1, X2, tau).flat
            numeric = fd_grads(params, X1, X2, tau)
            err = np.abs(analytic - numeric).max() / np.abs(analytic).max()
            assert err < 1e-4, f"config {checked}: rel err {err:.2e}"
            checked += 1

    def test_upstream_shape_checked(self):
        params = init_encoder(3, (4,), embed_dim=2)
        X = np.zeros((2, 3))
        result = forward(params, X)
        with pytest.raises(ValueError, match="upstream"):
            backward(params, np.zeros((2, 5)), result)


class TestLrAt:
    def ref_state(self, base=0.5, warmup=10, total=2000):
        params = init_encoder(2, (2,), embed_dim=2)
        return init_optim_state(params, base_lr=base, warmup_epochs=warmup,
                                total_epochs=total)

    def test_linear_ramp(self):
        assert lr_at(self.ref_state(), 4) == 0.25

    def test_base_lr_at_warmup_end(self):
        assert lr_at(self.ref_state(), 10) == 0.5

    def test_final_epoch_frozen_value(self):
        """Last-epoch LR for the 2000-epoch protocol, from a high-precision
        evaluation of the cosine formula."""
        lr = lr_at(self.ref_state(), 1999)
        np.testing.assert_allclose(lr, 3.1153261127517873e-07, rtol=1e-9)

    def test_epoch_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            lr_at(self.ref_state(total=100), 100)


def scalar_params(value: float) -> EncoderParams:
    return params_of([(np.array([[value]]), np.zeros(1))], 0)


def scalar_state(params, momentum=0.0, wd=0.0) -> OptimState:
    return OptimState(buffers=params.zeros_like(), weight_decay=wd, sgd_momentum=momentum)


class TestSgdStep:
    def test_zero_grad_zero_decay_is_identity(self):
        params = init_encoder(3, (4,), embed_dim=2, seed=10)
        before = params.flat.copy()
        state = init_optim_state(params, base_lr=0.5, warmup_epochs=0,
                                 total_epochs=5, weight_decay=0.0)
        sgd_step(params, [params.zeros_like()], state, 0.5)
        np.testing.assert_array_equal(params.flat, before)

    def test_plain_gradient_descent(self):
        """One step on f(w) = w^2 from w=1 at lr 0.1 lands on 0.8."""
        params = scalar_params(1.0)
        grads = scalar_params(2.0)
        sgd_step(params, [grads], scalar_state(params), 0.1)
        assert params.layers[0][0][0, 0] == pytest.approx(0.8, abs=1e-15)

    def test_weight_decay_added_to_gradient(self):
        params = scalar_params(2.0)
        sgd_step(params, [params.zeros_like()], scalar_state(params, wd=0.5), 0.1)
        # g = 0 + 0.5 * 2 = 1; w = 2 - 0.1 * 1
        assert params.layers[0][0][0, 0] == pytest.approx(1.9, abs=1e-15)

    def test_momentum_accumulates(self):
        params = scalar_params(0.0)
        state = scalar_state(params, momentum=0.5)
        grads = scalar_params(1.0)
        sgd_step(params, [grads], state, 1.0)   # buf = 1, w = -1
        sgd_step(params, [grads], state, 1.0)   # buf = 1.5, w = -2.5
        assert params.layers[0][0][0, 0] == pytest.approx(-2.5, abs=1e-14)


def sgd_step_oracle(params, grad_sets, state, lr):
    """The unblocked update: the gradient sets summed in place into the
    first, then g + wd * p, the momentum and the step, one whole array at
    a time."""
    grads = grad_sets[0]
    for other in grad_sets[1:]:
        for (W, b), (dW, db) in zip(grads.layers, other.layers):
            W += dW
            b += db
    for p, g, m in zip(arrays(params), arrays(grads), arrays(state.buffers)):
        m *= state.sgd_momentum
        m += g + state.weight_decay * p
        p -= lr * m
    return params


def random_like(params, rng) -> EncoderParams:
    return params_of([(rng.standard_normal(W.shape), rng.standard_normal(b.shape))
                      for W, b in params.layers], params.n_backbone)


class TestBlockedSgdStep:
    # 839,259 values: 51 blocks of 16,384 and a 3,675-value remainder, with
    # blocks that straddle each array boundary; a 17000-wide row and its bias
    # are each larger than a block
    SHAPES = [((3000, 256), (256,)), ((3, 17000), (17000,)), ((1000, 3), (3,))]

    def make(self, seed):
        rng = np.random.default_rng(seed)
        params = params_of([(rng.standard_normal(w), rng.standard_normal(b))
                            for w, b in self.SHAPES], 2)
        state = init_optim_state(params, base_lr=0.3, warmup_epochs=2, total_epochs=6,
                                 weight_decay=5e-4, sgd_momentum=0.9)
        return params, state

    @pytest.mark.parametrize("n_sets", [1, 2, 3])
    def test_bitwise_equal_to_unblocked_oracle(self, n_sets):
        """Params and momentum buffers after several steps (through warmup
        and the cosine) are the oracle's bit for bit."""
        params, state = self.make(80)
        ref_params, ref_state = self.make(80)
        rng = np.random.default_rng(81)
        for epoch in range(4):
            lr = lr_at(state, epoch)
            sets = [random_like(params, rng) for _ in range(n_sets)]
            sgd_step_oracle(ref_params, [g.copy() for g in sets], ref_state, lr)
            sgd_step(params, sets, state, lr)
        assert params.flat.tobytes() == ref_params.flat.tobytes()
        assert state.buffers.flat.tobytes() == ref_state.buffers.flat.tobytes()

    def test_every_gradient_set_is_shape_checked(self):
        """A second set of the parameters' size but other dims, and a set of
        fewer layers, are refused before any parameter moves."""
        params = init_encoder(6, (256,), embed_dim=4, seed=12)
        before = params.flat.copy()
        state = init_optim_state(params, warmup_epochs=0, total_epochs=5)
        second = EncoderParams(np.zeros(params.flat.size), ((params.flat.size - 1, 1),), 0)
        with pytest.raises(ValueError, match=r"dims differ from the parameters' \(\(6, 256\)"):
            sgd_step(params, [params.zeros_like(), second], state, 0.5)
        with pytest.raises(ValueError, match="dims differ"):
            sgd_step(params, [params_of(params.layers[1:], 0)], state, 0.5)
        np.testing.assert_array_equal(params.flat, before)

    def test_no_parameter_sized_temporaries(self):
        """A 3072 x 256 update with two gradient sets allocates under 1 MB;
        one parameter-sized array is 6.3 MB."""
        params = init_encoder(3072, (256,), embed_dim=32, seed=13)
        state = init_optim_state(params, warmup_epochs=0, total_epochs=5)
        sets = [random_like(params, np.random.default_rng(14)) for _ in range(2)]
        tracemalloc.start()
        try:
            sgd_step(params, sets, state, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestOptimState:
    @pytest.mark.parametrize("bad", [dict(sgd_momentum=1.0), dict(base_lr=0.0),
                                     dict(total_epochs=0), dict(warmup_epochs=-1),
                                     dict(weight_decay=-1e-4)])
    def test_direct_construction_checks_ranges(self, bad):
        """The range checks live in the state itself, not only in
        init_optim_state."""
        params = scalar_params(1.0)
        with pytest.raises(ValueError, match="need"):
            OptimState(buffers=params.zeros_like(), **bad)
        with pytest.raises(ValueError, match="need"):
            init_optim_state(params, **bad)

    def test_init_takes_the_state_defaults(self):
        params = init_encoder(3, (4,), embed_dim=2, seed=10)
        state = init_optim_state(params, total_epochs=7)
        direct = OptimState(buffers=params.zeros_like(), total_epochs=7)
        for name in ("base_lr", "warmup_epochs", "total_epochs", "weight_decay",
                     "sgd_momentum"):
            assert getattr(state, name) == getattr(direct, name)
        assert not state.buffers.flat.any()

    def test_scratch_is_the_steps_own(self):
        """Every sgd_step reuses the state's one block buffer; the buffer
        is no hyper-parameter, so no caller can pass one in."""
        params = init_encoder(3, (4,), embed_dim=2, seed=10)
        state = init_optim_state(params, total_epochs=7)
        sgd_step(params, [params.zeros_like()], state, 0.5)
        scratch = state.scratch
        sgd_step(params, [params.zeros_like()], state, 0.5)
        assert state.scratch is scratch
        assert state == OptimState(buffers=state.buffers, total_epochs=7)
        with pytest.raises(TypeError):
            init_optim_state(params, scratch=np.empty(4096))


class TestMomentumUpdate:
    def test_m_one_keeps_key(self):
        f, k = scalar_params(2.0), scalar_params(5.0)
        momentum_update(f, k, 1.0)
        assert k.layers[0][0][0, 0] == 5.0

    def test_m_zero_copies(self):
        f, k = scalar_params(2.0), scalar_params(5.0)
        momentum_update(f, k, 1e-300)
        assert k.layers[0][0][0, 0] == pytest.approx(2.0)

    def test_midpoint(self):
        f, k = scalar_params(2.0), scalar_params(0.0)
        momentum_update(f, k, 0.5)
        assert k.layers[0][0][0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("m", [0.99, 0.5, 1e-3])
    def test_bitwise_equal_to_per_array_oracle(self, m):
        """The whole-vector update is the per-array form's bit for bit."""
        rng = np.random.default_rng(1)
        f = random_like(init_encoder(6, (16, 8), embed_dim=4, projection_layers=2), rng)
        k = random_like(f, rng)
        ref = k.copy()
        for a_f, a_k in zip(arrays(f), arrays(ref)):
            a_k *= m
            a_k += (1.0 - m) * a_f
        assert momentum_update(f, k, m).flat.tobytes() == ref.flat.tobytes()

    def test_other_dims_refused(self):
        with pytest.raises(ValueError, match="shapes of the two encoders differ"):
            momentum_update(init_encoder(4, (8,), 3), init_encoder(4, (6,), 3), 0.9)


class TestQueue:
    def make_source(self, capacity=4, dim=3):
        params = init_encoder(dim, (), embed_dim=dim, seed=11)
        return NegativeSource.momentum_queue(params, capacity=capacity)

    def test_fifo_eviction_one_at_a_time(self):
        src = self.make_source()
        rng = np.random.default_rng(12)
        keys = unit_rows(rng, 6, 3)
        for row in keys:
            queue_push(src, row[None, :])
        np.testing.assert_array_equal(src.queue, keys[2:])

    def test_empty_queue(self):
        src = self.make_source()
        assert src.queue.shape == (0, 3)

    def test_oversized_batch_keeps_tail(self):
        src = self.make_source(capacity=4)
        keys = unit_rows(np.random.default_rng(13), 7, 3)
        queue_push(src, keys)
        np.testing.assert_array_equal(src.queue, keys[-4:])

    def test_non_normalized_rejected(self):
        src = self.make_source()
        with pytest.raises(ValueError, match="unit-norm"):
            queue_push(src, np.array([[1.0, 1.0, 0.0]]))

    def test_invariant_after_random_operations(self):
        src = self.make_source(capacity=5)
        rng = np.random.default_rng(14)
        for _ in range(30):
            queue_push(src, unit_rows(rng, int(rng.integers(1, 8)), 3))
            q = src.queue
            assert q.shape[0] <= 5
            np.testing.assert_allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-9)


def toy_setup(seed=0, n_max=16, batch=8, negatives="in_batch", noise=0.05):
    ds = synth_mixture(4, 6, n_max, 4.0, class_separation=2.0, within_sigma=0.3,
                       seed=seed)
    params = init_encoder(6, (12,), embed_dim=4, seed=seed)
    state = init_optim_state(params, base_lr=0.3, warmup_epochs=0, total_epochs=10,
                             weight_decay=0.0, sgd_momentum=0.0)
    if negatives == "in_batch":
        source = NegativeSource.in_batch()
    else:
        source = NegativeSource.momentum_queue(params, capacity=16)
    policy = AugmentationPolicy(augment="embedding_noise", noise_sigma=noise)
    sched = ScheduleConfig(kind="constant", constant_tau=0.5)
    return ds, params, state, source, policy, sched


class TestTrainEpoch:
    def test_zero_lr_keeps_params_and_reports_initial_loss(self):
        ds, params, state, source, policy, sched = toy_setup(noise=0.0)
        state.base_lr = 0.0
        before = params.flat.copy()
        _, loss = train_epoch(ds, params, state, sched, source, policy,
                              seed=1, epoch=0, batch_size=8)
        np.testing.assert_array_equal(params.flat, before)
        # with identity augmentation the reported loss is the loss of the
        # untouched parameters on the dataset batches, in the epoch's order
        order = np.random.default_rng(np.random.SeedSequence([1, 0])).permutation(ds.n)
        batch_losses = []
        for b in range(ds.n // 8):
            U = forward(params, ds.features[order[b * 8 : (b + 1) * 8]]).embeddings
            batch_losses.append(float(info_nce(U, U, 0.5)[0].mean()))
        assert loss == float(np.mean(batch_losses))

    @pytest.mark.parametrize("epoch, lr", [(1, 0.15), (5, 0.15 * (1 + np.cos(np.pi / 6)))],
                             ids=["warmup", "cosine"])
    def test_every_step_of_an_epoch_takes_the_epochs_lr(self, monkeypatch, epoch, lr):
        """lr_at(state, epoch) reaches each of a 3-batch epoch's steps: 0.3 * 2 / 4
        at epoch 1 of a 4-epoch warmup, the cosine's value at epoch 5 of 10."""
        ds, params, state, source, policy, sched = toy_setup()
        state.warmup_epochs = 4
        step, lrs = tempcl.encoder.sgd_step, []

        def record(params, grads, state, lr):
            lrs.append(lr)
            return step(params, grads, state, lr)

        monkeypatch.setattr(tempcl.encoder, "sgd_step", record)
        train_epoch(ds, params, state, sched, source, policy,
                    seed=0, epoch=epoch, batch_size=ds.n // 3)
        assert lrs == [lr_at(state, epoch)] * 3
        assert lrs[0] == pytest.approx(lr, rel=1e-15)

    def test_bitwise_deterministic(self):
        runs = []
        for _ in range(2):
            ds, params, state, source, policy, sched = toy_setup(seed=3)
            for epoch in range(3):
                train_epoch(ds, params, state, sched, source, policy,
                            seed=99, epoch=epoch, batch_size=8)
            runs.append(params.flat)
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_first_step_follows_finite_difference_direction(self):
        """The parameter update direction matches the finite-difference
        gradient of the batch loss (cosine >= 0.999)."""
        ds, params, state, source, policy, sched = toy_setup(n_max=4, batch=4,
                                                             noise=0.0)
        # single batch of the whole dataset, identity views
        before = params.copy()
        train_epoch(ds, params, state, sched, source, policy,
                    seed=5, epoch=0, batch_size=ds.n)
        step = before.flat - params.flat

        X = ds.features
        numeric = fd_grads(before, X, X, 0.5)
        cos = step @ numeric / (np.linalg.norm(step) * np.linalg.norm(numeric))
        assert cos > 0.999

    def test_momentum_queue_mode_pushes_keys(self):
        ds, params, state, source, policy, sched = toy_setup(negatives="momentum_queue")
        train_epoch(ds, params, state, sched, source, policy,
                    seed=7, epoch=0, batch_size=8)
        q = source.queue
        assert q.shape[0] == min(source.capacity, (ds.n // 8) * 8)
        np.testing.assert_allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-9)

    def test_momentum_queue_checks_each_key_once(self, monkeypatch):
        """Each batch checks the unit norm of its anchors and its fresh keys
        once; queued keys are not checked again."""
        check, checked = tempcl.loss._check_unit_rows, []

        def record(X, name):
            checked.append(X.shape[0])
            check(X, name)

        monkeypatch.setattr(tempcl.loss, "_check_unit_rows", record)
        monkeypatch.setattr(tempcl.encoder, "_check_unit_rows", record)
        ds, params, state, source, policy, sched = toy_setup(negatives="momentum_queue")
        train_epoch(ds, params, state, sched, source, policy,
                    seed=7, epoch=0, batch_size=8)
        assert checked == [8] * (2 * (ds.n // 8))

    def test_momentum_queue_deterministic(self):
        losses = []
        for _ in range(2):
            ds, params, state, source, policy, sched = toy_setup(seed=4,
                                                                 negatives="momentum_queue")
            ls = [train_epoch(ds, params, state, sched, source, policy,
                              seed=11, epoch=e, batch_size=8)[1] for e in range(3)]
            losses.append(ls)
        assert losses[0] == losses[1]

    def test_coarse_supervision_accepted(self):
        ds, params, state, source, policy, _ = toy_setup()
        coarse = ScheduleConfig(coarse=True, head_classes=(0, 1), tau_head=1.0, tau_tail=0.1)
        _, loss = train_epoch(ds, params, state, coarse, source, policy,
                              seed=2, epoch=0, batch_size=8)
        assert np.isfinite(loss)

    def test_batch_size_larger_than_dataset_rejected(self):
        ds, params, state, source, policy, sched = toy_setup()
        with pytest.raises(ValueError, match="batch_size"):
            train_epoch(ds, params, state, sched, source, policy,
                        seed=0, epoch=0, batch_size=10_000)

    def test_loss_decreases_on_separable_mixture(self):
        """Mean epoch loss after 50 epochs is below the first-epoch loss for
        five consecutive seeds at fixed tau = 0.2."""
        for seed in range(5):
            ds = synth_mixture(4, 8, 64, 4.0, class_separation=2.0,
                               within_sigma=0.2, seed=seed)
            params = init_encoder(8, (32, 16), embed_dim=8, seed=seed)
            state = init_optim_state(params, base_lr=0.3, warmup_epochs=5,
                                     total_epochs=50, weight_decay=1e-4,
                                     sgd_momentum=0.9)
            source = NegativeSource.in_batch()
            policy = AugmentationPolicy(augment="embedding_noise", noise_sigma=0.05)
            sched = ScheduleConfig(kind="constant", constant_tau=0.2)
            first = last = None
            for epoch in range(50):
                _, loss = train_epoch(ds, params, state, sched, source, policy,
                                      seed=seed, epoch=epoch, batch_size=32)
                if epoch == 0:
                    first = loss
                last = loss
            assert last < first, f"seed {seed}: {last:.4f} !< {first:.4f}"


class TestCheckpoint:
    @pytest.mark.parametrize("projection_layers", [1, 2])
    @pytest.mark.parametrize("hidden_dims", [(), (9,), (9, 5)],
                             ids=["no-hidden", "one-hidden", "two-hidden"])
    def test_round_trip(self, tmp_path, hidden_dims, projection_layers):
        params = init_encoder(7, hidden_dims, embed_dim=3,
                              projection_layers=projection_layers, seed=20)
        p = tmp_path / "enc.tclp"
        save_checkpoint(params, p)
        back = load_checkpoint(p)
        assert back.n_backbone == len(hidden_dims)
        assert len(back.layers) == len(hidden_dims) + projection_layers
        assert back.dims == params.dims
        np.testing.assert_array_equal(back.flat, params.flat)

    def test_body_is_the_flat_vector(self, tmp_path):
        """After the magic, the two layer counts and the (d_in, d_out) table,
        the file is ``flat``'s bytes."""
        params = init_encoder(7, (9, 5), embed_dim=3, projection_layers=2, seed=21)
        p = tmp_path / "enc.tclp"
        save_checkpoint(params, p)
        header = 4 + 8 + 8 * len(params.dims)
        assert p.read_bytes()[header:] == params.flat.tobytes()

    def test_magic_checked(self, tmp_path):
        p = tmp_path / "bad.tclp"
        p.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(ValueError, match="TCLP"):
            load_checkpoint(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        params = init_encoder(3, (), embed_dim=2)
        p = tmp_path / "t.tclp"
        save_checkpoint(params, p)
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(p)
