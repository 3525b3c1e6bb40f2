from __future__ import annotations

import math

import numpy as np
import pytest

from salience_lab.neural import (
    AdamState,
    Dense,
    Embedding,
    GruLayer,
    NeuralError,
    bce_loss,
    clip_gradients,
    grad_check,
    load_checkpoint,
    save_checkpoint,
    sigmoid,
    smape_loss,
)


# -- dense layer ---------------------------------------------------------------


def test_dense_identity_passthrough():
    layer = Dense(3, 3, "linear", np.random.default_rng(0))
    layer.params["dense.W"][...] = np.eye(3)
    layer.params["dense.b"][...] = 0.0
    x = np.random.default_rng(1).normal(size=(4, 3))
    assert np.allclose(layer.forward(x), x)


def test_dense_zero_input_zero_preactivation():
    layer = Dense(3, 2, "linear", np.random.default_rng(0))
    layer.params["dense.b"][...] = 0.0
    assert np.allclose(layer.forward(np.zeros((1, 3))), 0.0)


def test_dense_shape_error_names_shapes():
    layer = Dense(3, 2, "linear")
    with pytest.raises(NeuralError, match=r"\(5, 4\).*\(2, 3\)"):
        layer.forward(np.zeros((5, 4)))


def _dense_gradcheck(activation: str, seed: int) -> float:
    rng = np.random.default_rng(seed)
    layer = Dense(4, 3, activation, rng)
    x = rng.normal(size=(5, 4))
    target = rng.normal(size=(5, 3))

    def loss_fn():
        out = layer.forward(x)
        return 0.5 * float(((out - target) ** 2).sum())

    layer.zero_grads()
    out = layer.forward(x)
    layer.backward(out - target)
    return grad_check(loss_fn, layer.params, layer.grads)


@pytest.mark.parametrize("activation,tol", [
    ("linear", 1e-6),
    ("tanh", 1e-4),
    ("sigmoid", 1e-4),
    ("softplus", 1e-4),
])
def test_dense_gradient_matches_finite_differences(activation, tol):
    for seed in range(5):
        assert _dense_gradcheck(activation, seed) < tol


# -- embedding -----------------------------------------------------------------


def test_embedding_lookup_returns_rows():
    emb = Embedding(6, 3, np.random.default_rng(0))
    idx = np.array([2, 5, 2])
    out = emb.forward(idx)
    assert np.array_equal(out, emb.params["emb.W"][idx])


def test_embedding_out_of_range_errors():
    emb = Embedding(4, 2)
    with pytest.raises(NeuralError, match="0..3"):
        emb.forward(np.array([4]))


def test_embedding_gradient_only_touches_used_rows():
    emb = Embedding(5, 3, np.random.default_rng(0))
    emb.forward(np.array([1, 3]))
    emb.backward(np.ones((2, 3)))
    grad = emb.grads["emb.W"]
    assert np.all(grad[[0, 2, 4]] == 0.0)
    assert np.all(grad[[1, 3]] == 1.0)


def test_embedding_repeated_lookup_accumulates():
    emb = Embedding(5, 3, np.random.default_rng(0))
    emb.forward(np.array([2, 2]))
    emb.backward(np.ones((2, 3)))
    assert np.all(emb.grads["emb.W"][2] == 2.0)


def test_embedding_gradcheck():
    rng = np.random.default_rng(3)
    emb = Embedding(5, 3, rng)
    idx = np.array([0, 2, 2, 4])
    target = rng.normal(size=(4, 3))

    def loss_fn():
        return 0.5 * float(((emb.forward(idx) - target) ** 2).sum())

    emb.zero_grads()
    out = emb.forward(idx)
    emb.backward(out - target)
    assert grad_check(loss_fn, emb.params, emb.grads) < 1e-6


# -- recurrent layer -----------------------------------------------------------


def test_gru_zero_parameters_halve_state():
    gru = GruLayer(2, 3, np.random.default_rng(0))
    for p in gru.params.values():
        p[...] = 0.0
    h = np.array([[0.4, -1.0, 2.0]])
    x = np.array([[0.7, 0.1]])
    assert np.allclose(gru.forward(x[:, None, :], h0=h)[:, 0], 0.5 * h)


def test_gru_causality():
    rng = np.random.default_rng(5)
    gru = GruLayer(3, 4, rng)
    x = rng.normal(size=(2, 6, 3))
    out = gru.forward(x)
    x2 = x.copy()
    x2[:, 4, :] += 10.0  # perturb step 5 (index 4)
    out2 = gru.forward(x2)
    assert np.allclose(out[:, :4], out2[:, :4])
    assert not np.allclose(out[:, 4:], out2[:, 4:])


def test_gru_mask_holds_state():
    rng = np.random.default_rng(6)
    gru = GruLayer(3, 4, rng)
    x = rng.normal(size=(1, 5, 3))
    mask = np.array([[1.0, 1.0, 1.0, 0.0, 0.0]])
    out = gru.forward(x, mask=mask)
    assert np.allclose(out[0, 2], out[0, 3])
    assert np.allclose(out[0, 2], out[0, 4])


def _gru_bptt_gradcheck(seed: int, T: int = 5) -> float:
    rng = np.random.default_rng(seed)
    gru = GruLayer(3, 4, rng)
    x = rng.normal(size=(2, T, 3))
    mask = np.ones((2, T))
    mask[1, T - 1 :] = 0.0  # one padded tail
    target = rng.normal(size=(2, T, 4))

    def loss_fn():
        out = gru.forward(x, mask=mask)
        return 0.5 * float((((out - target) * mask[..., None]) ** 2).sum())

    gru.zero_grads()
    out = gru.forward(x, mask=mask)
    gru.backward((out - target) * mask[..., None])
    return grad_check(loss_fn, gru.params, gru.grads)


def test_gru_bptt_gradient_matches_finite_differences():
    for seed in range(5):
        assert _gru_bptt_gradcheck(seed) < 1e-5


def test_gru_masked_steps_have_zero_gradient_influence():
    rng = np.random.default_rng(8)
    gru = GruLayer(3, 4, rng)
    x = rng.normal(size=(1, 6, 3))
    mask = np.ones((1, 6))
    mask[0, 4:] = 0.0
    target = rng.normal(size=(1, 6, 4))

    def run(inputs):
        gru.zero_grads()
        out = gru.forward(inputs, mask=mask)
        gru.backward((out - target) * mask[..., None])
        loss = 0.5 * float((((out - target) * mask[..., None]) ** 2).sum())
        return loss, {k: v.copy() for k, v in gru.grads.items()}

    loss_a, grads_a = run(x)
    x2 = x.copy()
    x2[0, 4:, :] = 99.0  # padded inputs must not matter
    loss_b, grads_b = run(x2)
    assert loss_a == loss_b
    for k in grads_a:
        assert np.array_equal(grads_a[k], grads_b[k])


# -- losses ----------------------------------------------------------------------


def test_smape_identity_is_zero():
    pred = np.array([[1.0, 2.0]])
    loss, _ = smape_loss(pred, pred.copy(), np.ones_like(pred))
    assert loss == 0.0


def test_smape_maximal_disagreement():
    pred = np.zeros((1, 3))
    target = np.array([[1.0, 5.0, 0.25]])
    loss, _ = smape_loss(pred, target, np.ones_like(pred))
    assert loss == pytest.approx(1.0, abs=1e-9)


def test_bce_half_half():
    loss, _ = bce_loss(np.array([0.5]), np.array([0.5]), np.ones(1))
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_losses_bounded_after_clipping():
    rng = np.random.default_rng(0)
    pred = rng.uniform(0.0, 1.0, size=(4, 7))
    target = rng.uniform(0.0, 1.0, size=(4, 7))
    mask = np.ones_like(pred)
    s, _ = smape_loss(pred, target, mask)
    assert 0.0 <= s <= 1.0


def test_losses_all_masked_errors():
    with pytest.raises(NeuralError):
        smape_loss(np.ones((2, 2)), np.ones((2, 2)), np.zeros((2, 2)))
    with pytest.raises(NeuralError):
        bce_loss(np.full((2, 2), 0.5), np.ones((2, 2)), np.zeros((2, 2)))


def test_masked_entries_do_not_move_loss():
    rng = np.random.default_rng(1)
    pred = rng.uniform(0.1, 0.9, size=(3, 4))
    target = rng.uniform(0.1, 0.9, size=(3, 4))
    mask = np.ones((3, 4))
    mask[1, 2] = 0.0
    base_bce, dbce = bce_loss(pred, target, mask)
    base_smape, dsmape = smape_loss(pred, target, mask)
    pred2 = pred.copy()
    pred2[1, 2] = 0.999
    bce2, _ = bce_loss(pred2, target, mask)
    smape2, _ = smape_loss(pred2, target, mask)
    assert bce2 == base_bce and smape2 == base_smape
    assert dbce[1, 2] == 0.0 and dsmape[1, 2] == 0.0


def _loss_gradcheck(loss, seed: int) -> float:
    rng = np.random.default_rng(seed)
    pred = rng.uniform(0.15, 0.85, size=(3, 4))
    target = rng.uniform(0.15, 0.85, size=(3, 4))
    # keep away from the SMAPE kink at pred == target
    target = np.where(np.abs(pred - target) < 0.05, target + 0.1, target)
    mask = np.ones((3, 4))
    mask[0, 1] = 0.0
    params = {"pred": pred}

    def loss_fn():
        return loss(pred, target, mask)[0]

    _, grad = loss(pred, target, mask)
    return grad_check(loss_fn, params, {"pred": grad})


@pytest.mark.parametrize("loss", [bce_loss, smape_loss])
def test_loss_gradients_match_finite_differences(loss):
    for seed in range(5):
        assert _loss_gradcheck(loss, seed) < 1e-6


# -- optimizer -------------------------------------------------------------------


def test_adam_zero_gradient_no_move():
    params = {"w": np.array([1.0, -2.0])}
    adam = AdamState(lr=0.1)
    adam.step(params, {"w": np.zeros(2)})
    assert np.array_equal(params["w"], [1.0, -2.0])


def test_adam_constant_gradient_limits_to_lr():
    params = {"w": np.array([0.0])}
    adam = AdamState(lr=0.05, clip_norm=1e9)
    prev = params["w"].copy()
    step_size = None
    for _ in range(300):
        prev = params["w"].copy()
        adam.step(params, {"w": np.array([2.5])})
        step_size = abs(float(params["w"][0] - prev[0]))
    assert step_size == pytest.approx(0.05, rel=1e-3)


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(4)
        params = {"w": rng.normal(size=(3, 3))}
        adam = AdamState(lr=0.01)
        for i in range(20):
            g = np.sin(params["w"] + i)
            adam.step(params, {"w": g})
        return params["w"]

    assert np.array_equal(run(), run())


def test_adam_rejects_non_finite():
    adam = AdamState()
    with pytest.raises(NeuralError):
        adam.step({"w": np.zeros(2)}, {"w": np.array([np.nan, 1.0])})


def test_clip_gradients_scales_to_max_norm():
    grads = {"a": np.array([3.0, 4.0])}
    norm = clip_gradients(grads, max_norm=1.0)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(grads["a"]) == pytest.approx(1.0)


# -- checkpoints -----------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    params = {"layer.W": rng.normal(size=(3, 4)), "layer.b": rng.normal(size=4)}
    path = tmp_path / "model.json"
    save_checkpoint(path, params, meta={"kind": "test", "seed": 9})
    loaded, meta = load_checkpoint(path)
    assert meta == {"kind": "test", "seed": 9}
    for k in params:
        assert np.array_equal(loaded[k], params[k])
    assert (tmp_path / "model.bin").exists()


def test_sigmoid_extremes_stable():
    x = np.array([-800.0, 0.0, 800.0])
    out = sigmoid(x)
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(0.0, abs=1e-12)
    assert out[1] == 0.5
    assert out[2] == pytest.approx(1.0, abs=1e-12)
