from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest

from helpers import grad_check, max_rel
from salience_lab.neural import (
    AdamState,
    Dense,
    Embedding,
    GruLayer,
    NeuralError,
    bce_loss,
    clip_gradients,
    load_checkpoint,
    save_checkpoint,
    sigmoid,
    smape_loss,
)
from salience_lab.features import build_dataset
from salience_lab.models import ArchConfig, MelchiorModel, load_model, make_batches, save_model


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


@pytest.mark.parametrize("shape", [(6, 9), (11,)], ids=["env_BT", "game_B"])
def test_embedding_backward_equals_add_at(shape):
    rng = np.random.default_rng(12)
    emb = Embedding(7, 4, rng)
    idx = rng.integers(0, 4, size=shape)  # few rows, so most are repeated
    dout = rng.normal(size=shape + (4,))
    emb.forward(idx)
    emb.backward(dout)
    expected = np.zeros((7, 4))
    np.add.at(expected, idx, dout)
    assert np.array_equal(emb.grads["emb.W"], expected)


def test_embedding_gradcheck():
    rng = np.random.default_rng(3)
    emb = Embedding(5, 3, rng)
    idx = np.array([0, 2, 2, 4])
    target = rng.normal(size=(4, 3))

    def loss_fn():
        return 0.5 * float(((emb.forward(idx) - target) ** 2).sum())

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
        for g in gru.grads.values():
            g[...] = 0.0
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


def _reference_gru(params, name, x, mask, h0, dout):
    """The per-step GRU forward and backward, one set of products per gate and step."""
    p = {k[len(name) + 1:]: v for k, v in params.items()}
    B, T, _ = x.shape
    h = h0.copy()
    steps = []
    out = np.empty((B, T, h.shape[1]))
    for t in range(T):
        xt = x[:, t, :]
        m = mask[:, t][:, None]
        z = sigmoid(xt @ p["Wz"].T + h @ p["Uz"].T + p["bz"])
        r = sigmoid(xt @ p["Wr"].T + h @ p["Ur"].T + p["br"])
        rh = r * h
        n = np.tanh(xt @ p["Wn"].T + rh @ p["Un"].T + p["bn"])
        h_cand = z * h + (1.0 - z) * n
        steps.append((xt, h.copy(), z, r, rh, n, m))
        h = m * h_cand + (1.0 - m) * h
        out[:, t, :] = h
    g = {k: np.zeros_like(v) for k, v in p.items()}
    dx = np.zeros(x.shape)
    dh = np.zeros_like(h)
    for t in range(T - 1, -1, -1):
        xt, h_prev, z, r, rh, n, m = steps[t]
        dh = dh + dout[:, t, :]
        dcand = m * dh
        dh_prev = (1.0 - m) * dh
        dz = dcand * (h_prev - n)
        dn = dcand * (1.0 - z)
        dh_prev += dcand * z
        dan = dn * (1.0 - n * n)
        g["Wn"] += dan.T @ xt
        g["Un"] += dan.T @ rh
        g["bn"] += dan.sum(axis=0)
        dx[:, t, :] += dan @ p["Wn"]
        drh = dan @ p["Un"]
        dr = drh * h_prev
        dh_prev += drh * r
        daz = dz * z * (1.0 - z)
        g["Wz"] += daz.T @ xt
        g["Uz"] += daz.T @ h_prev
        g["bz"] += daz.sum(axis=0)
        dx[:, t, :] += daz @ p["Wz"]
        dh_prev += daz @ p["Uz"]
        dar = dr * r * (1.0 - r)
        g["Wr"] += dar.T @ xt
        g["Ur"] += dar.T @ h_prev
        g["br"] += dar.sum(axis=0)
        dx[:, t, :] += dar @ p["Wr"]
        dh_prev += dar @ p["Ur"]
        dh = dh_prev
    return out, dx, {f"{name}.{k}": v for k, v in g.items()}


def _check_against_reference(B: int, T: int, in_dim: int, hidden: int, lengths: list[int],
                             seed: int) -> None:
    """forward and backward on ragged rows of the given lengths (cycled) and a random h0."""
    rng = np.random.default_rng(seed)
    gru = GruLayer(in_dim, hidden, rng, "g")
    for v in gru.params.values():  # non-zero biases too
        v += rng.normal(scale=0.3, size=v.shape)
    x = rng.normal(size=(B, T, in_dim))
    mask = np.ones((B, T))
    for i, length in zip(range(B), itertools.cycle(lengths)):
        mask[i, length:] = 0.0
    h0 = rng.normal(size=(B, hidden))
    dout = rng.normal(size=(B, T, hidden))  # held states at padded steps carry gradient too
    out_ref, dx_ref, g_ref = _reference_gru(gru.params, "g", x, mask, h0, dout)
    out = gru.forward(x, mask=mask, h0=h0)
    dx = gru.backward(dout)
    assert max_rel(out, out_ref) < 1e-12
    assert max_rel(dx, dx_ref) < 1e-12
    assert list(gru.grads) == list(g_ref)
    for k in g_ref:
        assert gru.grads[k].shape == g_ref[k].shape
        assert max_rel(gru.grads[k], g_ref[k]) < 1e-12, k


@pytest.mark.parametrize("T", [1, 2, 9])
@pytest.mark.parametrize("in_dim,hidden", [(3, 4), (64, 32), (16, 64)])
def test_gru_matches_per_step_reference(in_dim, hidden, T):
    # ragged; the first steps have every row valid
    _check_against_reference(5, T, in_dim, hidden, [T, 1, max(1, T - 3), T, max(1, T // 2)],
                             seed=in_dim * 100 + hidden + T)


@pytest.mark.parametrize("B", [1, 6, 32])
@pytest.mark.parametrize("T", [1, 9, 77])
@pytest.mark.parametrize("in_dim,hidden", [(3, 4), (64, 32), (128, 64)])
def test_gru_matches_per_step_reference_across_batch_sizes(in_dim, hidden, T, B):
    # The per-step products take (features x batch) operands, which BLAS rounds
    # differently at some batch sizes.  Row 0 is cut short, so one row alone is
    # ragged too.
    _check_against_reference(B, T, in_dim, hidden, [max(1, T // 2), T, 1, max(1, T - 3)],
                             seed=in_dim * 100 + hidden + T + 1000 * B)


def test_gru_saturated_gates_match_per_step_reference():
    rng = np.random.default_rng(17)
    B, T, in_dim, hidden = 4, 6, 8, 5
    gru = GruLayer(in_dim, hidden, rng, "g")
    for v in gru.params.values():
        v += rng.normal(scale=0.3, size=v.shape)
        v *= 400.0
    x = rng.normal(size=(B, T, in_dim))
    mask = np.ones((B, T))
    mask[1, 2:] = 0.0
    h0 = rng.uniform(-1.0, 1.0, size=(B, hidden))
    dout = rng.normal(size=(B, T, hidden))
    pre = x @ gru.W.T + gru.b
    assert np.max(np.abs(pre)) > 1e3  # pre-activations reach past ±1e3
    out_ref, dx_ref, g_ref = _reference_gru(gru.params, "g", x, mask, h0, dout)
    out = gru.forward(x, mask=mask, h0=h0)
    gates = gru._cache[4]  # z and r of every step
    assert np.all(np.isfinite(out)) and np.all(np.abs(out) <= 1.0)
    assert np.all((gates >= 0.0) & (gates <= 1.0))
    dx = gru.backward(dout)
    assert max_rel(out, out_ref) < 1e-12
    assert max_rel(dx, dx_ref) < 1e-12
    # Measured against the largest gradient of all nine arrays, not each array's own:
    # below a ≈ -37 a gate 0.5 + 0.5 tanh(a / 2) is exactly 0 where sigmoid keeps
    # e^a, so an array fed only by such gates is 0 instead of about 1e-150.
    scale = max(float(np.max(np.abs(g))) for g in g_ref.values())
    for k in g_ref:
        assert np.max(np.abs(gru.grads[k] - g_ref[k])) < 1e-12 * scale, k


def test_gru_initial_weights_follow_gate_draw_order():
    gru = GruLayer(3, 4, np.random.default_rng(21), "g")
    rng = np.random.default_rng(21)
    for gate in "zrn":
        bound_w, bound_u = np.sqrt(6.0 / 7.0), np.sqrt(6.0 / 8.0)
        assert np.array_equal(gru.params[f"g.W{gate}"], rng.uniform(-bound_w, bound_w, (4, 3)))
        assert np.array_equal(gru.params[f"g.U{gate}"], rng.uniform(-bound_u, bound_u, (4, 4)))
        assert np.array_equal(gru.params[f"g.b{gate}"], np.zeros(4))


def test_gru_write_through_named_parameter_changes_forward():
    rng = np.random.default_rng(22)
    gru = GruLayer(3, 4, rng, "g")
    x = rng.normal(size=(2, 5, 3))
    before = gru.forward(x)
    gru.params["g.Wz"][...] = rng.normal(size=(4, 3))  # as set_params and Adam write
    after = gru.forward(x)
    assert not np.allclose(before, after)
    fresh = GruLayer(3, 4, np.random.default_rng(0), "g")
    for k, v in gru.params.items():
        fresh.params[k][...] = v
    assert np.array_equal(fresh.forward(x), after)


def test_melchior_checkpoint_round_trip_reproduces_forward(small_population, tmp_path):
    split = build_dataset(small_population, ratio=0.8, seed=3)
    model = MelchiorModel(split.vocabs, ArchConfig(hidden_width=16, d_z=8, emb_dim=4), seed=4)
    batch = make_batches(split.test, 16)[0]
    rng = np.random.default_rng(23)
    model.set_params({k: v + rng.normal(scale=0.1, size=v.shape)
                      for k, v in model.params().items()})
    expected = model.forward(batch)
    save_model(model, tmp_path / "melchior.json")
    loaded = load_model(tmp_path / "melchior.json", split.vocabs)
    got = loaded.forward(batch)
    for k in expected:
        assert np.array_equal(got[k], expected[k]), k


def test_second_forward_leaves_the_first_results_intact(small_population):
    # evaluate keeps every batch's head outputs and hidden states while it runs the next
    split = build_dataset(small_population, ratio=0.8, seed=3)
    model = MelchiorModel(split.vocabs, ArchConfig(hidden_width=16, d_z=8, emb_dim=4), seed=4)
    first, second = make_batches(split.train, 4)[:2]
    outputs, hidden = model.forward(first), model.hidden_states
    kept = {k: v.copy() for k, v in outputs.items()}, hidden.copy()
    model.forward(second)
    model.backward({k: np.ones_like(v) for k, v in model.forward(second).items()})
    assert model.hidden_states is not hidden
    for k in kept[0]:
        assert np.array_equal(outputs[k], kept[0][k]), k
    assert np.array_equal(hidden, kept[1])


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
    theta = np.array([1.0, -2.0])
    adam = AdamState(lr=0.1)
    adam.step(theta, np.zeros(2))
    assert np.array_equal(theta, [1.0, -2.0])


def test_adam_constant_gradient_limits_to_lr():
    theta = np.array([0.0])
    adam = AdamState(lr=0.05)
    step_size = None
    for _ in range(300):
        prev = theta.copy()
        adam.step(theta, np.array([2.5]))
        step_size = abs(float(theta[0] - prev[0]))
    assert step_size == pytest.approx(0.05, rel=1e-3)


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(4)
        theta = rng.normal(size=9)
        adam = AdamState(lr=0.01)
        for i in range(20):
            adam.step(theta, np.sin(theta + i))
        return theta

    assert np.array_equal(run(), run())


def test_clip_gradients_rejects_non_finite():
    with pytest.raises(NeuralError):
        clip_gradients({"w": np.array([np.nan, 1.0])})


def test_clip_gradients_names_the_non_finite_parameter():
    grads = {"a": np.array([0.5, 1.0]), "b": np.array([1.0, np.nan, 2.0])}
    with pytest.raises(NeuralError, match=r"non-finite gradient norm in b$"):
        clip_gradients(grads)
    assert np.array_equal(grads["a"], [0.5, 1.0])


def test_clip_gradients_scales_to_max_norm():
    grads = {"a": np.array([3.0, 4.0])}
    norm = clip_gradients(grads, max_norm=1.0)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(grads["a"]) == pytest.approx(1.0)


def test_clip_gradients_scales_gradients_whose_squares_overflow():
    grads = {"a": np.array([1e200, 1.0]), "b": np.array([-3e199])}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = clip_gradients(grads, max_norm=2.0)
    assert norm == pytest.approx(math.hypot(1e200, 3e199), rel=1e-12)
    assert math.hypot(*grads["a"], *grads["b"]) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(NeuralError, match=r"non-finite gradient norm \(the norm overflows\)$"):
        clip_gradients({"a": np.full(4, 1e308)})


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


def _reference_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_sigmoid_equals_two_branch_reference():
    rng = np.random.default_rng(24)
    special = np.array([-800.0, -40.0, -0.0, 0.0, 40.0, 800.0, np.inf, -np.inf, np.nan])
    for x in (rng.normal(scale=6.0, size=(50, 7)), rng.normal(scale=300.0, size=500), special):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = sigmoid(x)
        expected = _reference_sigmoid(x)
        assert np.array_equal(np.isnan(out), np.isnan(x))
        assert np.array_equal(out, expected, equal_nan=True)
