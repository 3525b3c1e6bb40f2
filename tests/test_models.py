from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest

from helpers import awkward_table, feature_table, grad_check, join, make_trace, max_rel
from salience_lab import models
from salience_lab.features import TARGETS as FEATURE_TARGETS
from salience_lab.features import build_dataset, split_users
from salience_lab.models import (
    ArchConfig,
    Batch,
    MelchiorModel,
    ModelError,
    TdEnet,
    TdMlp,
    TrainConfig,
    build_model,
    enet_solve,
    evaluate,
    evaluate_outputs,
    extract_embedding,
    load_model,
    make_batches,
    masked_loss,
    save_model,
    train,
)
from salience_lab.neural import BCE_CLIP, SMAPE_EPS, Dense, clip_gradients, sigmoid
from salience_lab.telemetry import GameSpec, simulate_population

SMALL_ARCH = ArchConfig(hidden_width=16, d_z=8, layers=1, emb_dim=4)
TARGETS = ("ch", "st", "ss", "ab")


@pytest.fixture(scope="module")
def dataset():
    games = [
        GameSpec("alpha", base_quality=0.85, quality_drift=-0.004, completion_sessions=25),
        GameSpec("beta", base_quality=0.5, quality_drift=-0.003, completion_sessions=30),
        GameSpec("gamma", base_quality=0.35, quality_drift=-0.003, noise_sd=0.12),
    ]
    traces = simulate_population(games, players_per_game=15, calendar_start=5_000,
                                 horizon_days=21, seed=13)
    return build_dataset(traces, ratio=0.8, seed=13)


# -- elastic net ----------------------------------------------------------------


def test_enet_matches_least_squares_when_unpenalised():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 6))
    w_true = rng.normal(size=6)
    y = X @ w_true + 0.01 * rng.normal(size=40)
    w = enet_solve(X, y, lam=0.0, l1_ratio=0.5, fit_intercept=False, max_iter=20_000,
                   tol=1e-12).weights
    w_ref, *_ = np.linalg.lstsq(X, y, rcond=None)
    assert np.max(np.abs(w - w_ref)) < 1e-6


def test_enet_ridge_matches_closed_form():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(50, 5))
    y = rng.normal(size=50)
    lam = 2.5
    w = enet_solve(X, y, lam=lam, l1_ratio=0.0, fit_intercept=False, max_iter=20_000,
                   tol=1e-12).weights
    w_ref = np.linalg.solve(X.T @ X + lam * np.eye(5), X.T @ y)
    assert np.max(np.abs(w - w_ref)) < 1e-6


def test_enet_full_shrinkage_with_large_l1():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    w = enet_solve(X, y, lam=1e6, l1_ratio=1.0, fit_intercept=True).weights
    assert np.all(w[:-1] == 0.0)  # every non-intercept weight exactly zero


def test_enet_rejects_bad_penalty():
    with pytest.raises(ModelError):
        enet_solve(np.eye(2), np.ones(2), lam=-1.0, l1_ratio=0.5)
    with pytest.raises(ModelError):
        enet_solve(np.eye(2), np.ones(2), lam=1.0, l1_ratio=2.0)


def test_enet_rejects_unknown_loss_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("enet_solve started solving before checking its loss")

    monkeypatch.setattr(models, "_spectral_norm_sq", no_work)
    with pytest.raises(ModelError, match="bogus"):
        enet_solve(np.eye(2), np.ones(2), lam=1.0, l1_ratio=0.5, loss="bogus")


def test_enet_non_finite_weights_are_named():
    with np.errstate(invalid="ignore"), pytest.raises(ModelError, match="non-finite weights"):
        enet_solve(np.eye(2), np.array([np.inf, 1.0]), lam=1.0, l1_ratio=0.5)


@pytest.mark.parametrize("loss", ["squared", "bce"])
def test_enet_zero_column_keeps_zero_weight(loss):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 5))
    y = X @ rng.normal(size=5) + 0.1 * rng.normal(size=40)
    if loss == "bce":
        y = (y > 0).astype(float)
    with_zero = np.insert(X, 2, 0.0, axis=1)
    fit = enet_solve(with_zero, y, lam=0.5, l1_ratio=0.5, loss=loss, max_iter=400)
    plain = enet_solve(X, y, lam=0.5, l1_ratio=0.5, loss=loss, max_iter=400)
    assert fit.weights.shape == (7,)
    assert fit.weights[2] == 0.0
    assert np.array_equal(np.delete(fit.weights, 2), plain.weights)
    assert (fit.iterations, fit.converged) == (plain.iterations, plain.converged)
    ref = _reference_enet_solve(with_zero, y, 0.5, 0.5, loss, max_iter=400)
    assert np.max(np.abs(fit.weights - ref)) < 1e-9


def test_enet_reports_iterations_and_convergence():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 3))
    y = rng.normal(size=30)
    converged = enet_solve(X, y, lam=0.1, l1_ratio=0.5, max_iter=10_000)
    assert converged.converged and 1 <= converged.iterations < 10_000
    capped = enet_solve(X, y, lam=0.1, l1_ratio=0.5, max_iter=3)
    assert (capped.iterations, capped.converged) == (3, False)


# The dense design and the dense FISTA that TdEnet ran before it solved only the
# live columns; the tests hold the current solver and forward pass to them.


def _reference_design_rows(model: TdEnet, batch: Batch) -> np.ndarray:
    B, T, _ = batch.behaviour.shape
    blocks = [batch.behaviour]
    for j, size in enumerate(model._onehot_sizes[:4]):
        eye = np.eye(size)
        blocks.append(eye[batch.env_idx[..., j]])
    eye_game = np.eye(model._onehot_sizes[4])
    game = eye_game[batch.game_idx]  # (B, size)
    blocks.append(np.broadcast_to(game[:, None, :], (B, T, game.shape[-1])).copy())
    return np.concatenate(blocks, axis=-1)


def _reference_spectral_norm_sq(X, iters=60):
    v = np.ones(X.shape[1]) / math.sqrt(X.shape[1])
    est = 0.0
    for _ in range(iters):
        w = X.T @ (X @ v)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        v = w / norm
        est = norm
    return est


def _reference_enet_solve(X, y, lam, l1_ratio, loss, max_iter, tol=1e-8):
    X = np.concatenate([X, np.ones((X.shape[0], 1))], axis=1)
    d = X.shape[1]
    penalised = np.ones(d)
    penalised[-1] = 0.0
    sq_norm = _reference_spectral_norm_sq(X) * 1.02 + 1e-12
    L = sq_norm if loss == "squared" else sq_norm / 4.0
    L += lam * (1.0 - l1_ratio)
    l1 = lam * l1_ratio

    def smooth_grad(w):
        resid = X @ w - y if loss == "squared" else sigmoid(X @ w) - y
        return X.T @ resid + lam * (1.0 - l1_ratio) * penalised * w

    w = np.zeros(d)
    z = w.copy()
    t_acc = 1.0
    for _ in range(max_iter):
        step = z - smooth_grad(z) / L
        w_new = np.where(penalised > 0, np.sign(step) * np.maximum(np.abs(step) - l1 / L, 0.0),
                         step)
        t_new = (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc)) / 2.0
        z = w_new + ((t_acc - 1.0) / t_new) * (w_new - w)
        change = float(np.max(np.abs(w_new - w)))
        w = w_new
        t_acc = t_new
        if change < tol:
            break
    return w


def _reference_td_enet_problems(model: TdEnet, traces):
    """Per target (X, y) of the dense design, built batch by batch as TdEnet.fit was."""
    rows, targs, masks = [], {n: [] for n in TARGETS}, []
    for batch in make_batches(traces, 256):
        valid = batch.mask > 0
        rows.append(_reference_design_rows(model, batch)[valid])
        masks.append(batch.ab_mask[valid])
        for name in TARGETS:
            targs[name].append(batch.targets[name][valid])
    X = np.concatenate(rows)
    observed = np.concatenate(masks) > 0
    problems = {}
    for name in TARGETS:
        y = np.concatenate(targs[name])
        keep = observed if name == "ab" else np.ones(len(y), dtype=bool)
        problems[name] = (X[keep], y[keep])
    return problems


def test_td_enet_matches_dense_reference(dataset):
    # FISTA stops at max_iter here, so the weights are an iterate, not the optimum.  An
    # iterate is comparable at 1e-9 only while the reference itself is: after a support
    # change its last digits follow summation order (at lam=1e-2 the reference's own ab
    # weights move 1.2e-8 when the rows are permuted).  At lam=1e-3 a permutation moves
    # them at most 2e-12.
    model = TdEnet(dataset.vocabs, lam=1e-3, l1_ratio=0.5, max_iter=1200).fit(dataset.train)
    for name, (X, y) in _reference_td_enet_problems(model, dataset.train).items():
        loss = "bce" if name == "ch" else "squared"
        ref = _reference_enet_solve(X, y, 1e-3, 0.5, loss, max_iter=1200)
        w = model.weights[name]
        assert w.shape == ref.shape == (model.feature_width + 1,)
        assert np.max(np.abs(w - ref)) < 1e-9, name
        dead = np.append(~np.any(X != 0.0, axis=0), False)
        assert dead.sum() > 100  # most yearday columns never occur in the train split
        assert np.all(w[dead] == 0.0), name
        assert model.convergence[name] == (1200, False)


def test_td_enet_forward_equals_dense_design_product(dataset):
    """Gathered one-hot weights give the dense product up to summation order."""
    model = TdEnet(dataset.vocabs, lam=1e-2, l1_ratio=0.5, max_iter=300).fit(dataset.train)
    for batch in make_batches(dataset.test, 16):
        design = _reference_design_rows(model, batch)
        out = model.forward(batch)
        for name in TARGETS:
            w = model.weights[name]
            pred = design @ w[:-1] + w[-1]
            expected = sigmoid(pred) if name == "ch" else np.maximum(pred, 0.0)
            # At most 11 non-zero terms: their rounding is bounded by 16 eps of their size.
            bound = 16 * np.finfo(np.float64).eps * (np.abs(design) @ np.abs(w[:-1]) + abs(w[-1]))
            assert np.all(np.abs(out[name] - expected) <= bound), name


def test_td_enet_fits_and_predicts(dataset):
    model = TdEnet(dataset.vocabs, lam=1e-3, l1_ratio=0.5).fit(dataset.train)
    batch = make_batches(dataset.test, 16)[0]
    out = model.forward(batch)
    for name in ("st", "ss", "ab"):
        assert np.all(out[name] >= 0.0)
    assert np.all((out["ch"] > 0.0) & (out["ch"] < 1.0))


# -- batching ---------------------------------------------------------------------


def test_make_batches_padding_and_mask(dataset):
    batches = make_batches(dataset.train, 8)
    seen = 0
    for batch in batches:
        B, T, F = batch.behaviour.shape
        assert F == 5
        for i in range(B):
            L = int(batch.lengths[i])
            assert np.all(batch.mask[i, :L] == 1.0)
            assert np.all(batch.mask[i, L:] == 0.0)
            assert batch.ab_mask[i, L - 1] == 0.0  # final absence unobserved
        seen += B
    assert seen == len(dataset.train)


def _reference_make_batches(traces, batch_size):
    """make_batches one trace at a time: a sort of the trace views, then a loop per trace."""
    ordered = sorted(traces, key=lambda t: (t.length, t.user_id))
    batches = []
    for lo in range(0, len(ordered), batch_size):
        chunk = ordered[lo : lo + batch_size]
        B = len(chunk)
        T = max(t.length for t in chunk)
        behaviour = np.zeros((B, T, chunk[0].behaviour.shape[1]))
        env_idx = np.zeros((B, T, 4), dtype=np.int64)
        mask = np.zeros((B, T))
        ab_mask = np.zeros((B, T))
        targets = {name: np.zeros((B, T)) for name in TARGETS}
        for i, ft in enumerate(chunk):
            L = ft.length
            behaviour[i, :L] = ft.behaviour
            env_idx[i, :L] = ft.env_idx
            mask[i, :L] = 1.0
            ab_mask[i, :L] = ft.ab_mask
            for name, field in FEATURE_TARGETS.items():
                targets[name][i, :L] = getattr(ft, field)
        batches.append(Batch(
            behaviour=behaviour, env_idx=env_idx,
            game_idx=np.asarray([t.game_idx for t in chunk], dtype=np.int64), mask=mask,
            targets=targets, ab_mask=ab_mask, user_ids=[t.user_id for t in chunk],
            game_ids=[t.game_id for t in chunk],
            lengths=np.asarray([t.length for t in chunk], dtype=np.int64)))
    return batches


def test_make_batches_equal_the_per_trace_loop():
    # u7 has two traces of one length in two games: a tie on (length, user_id)
    table = join([awkward_table(), make_trace("u7", "beta", [0, 500], [9.0, 4.0]),
                  make_trace("u7", "alpha", [20, 900], [3.0, 8.0])])
    split = build_dataset(table, ratio=0.5, seed=3)
    for traces in (split.traces, split.train, split.test):
        for batch_size in (1, 7, 32, len(traces) + 5):
            ours = make_batches(traces, batch_size)
            theirs = _reference_make_batches(traces, batch_size)
            assert len(ours) == len(theirs)
            for a, b in zip(ours, theirs):
                for field in dataclasses.fields(Batch):
                    x, y = getattr(a, field.name), getattr(b, field.name)
                    if field.name == "targets":
                        assert list(x) == list(y)
                        x, y = list(x.values()), list(y.values())
                    else:
                        x, y = [x], [y]
                    for p, q in zip(x, y):
                        if isinstance(q, list):
                            assert type(p) is list and p == q, field.name
                        else:
                            assert p.dtype == q.dtype and p.shape == q.shape, field.name
                            assert (p == q).all(), field.name
    u7 = [batch.game_ids for batch in make_batches(split.traces, 1) if batch.user_ids == ["u7"]]
    assert u7 == [["alpha"], ["beta"]]


# -- melchior forward contracts ----------------------------------------------------


def _toy_batch(dataset, n=4) -> Batch:
    return make_batches(dataset.train[:n], n)[0]


def test_melchior_output_shapes(dataset):
    model = MelchiorModel(dataset.vocabs, SMALL_ARCH, seed=0)
    batch = _toy_batch(dataset)
    out = model.forward(batch)
    B, T, _ = batch.behaviour.shape
    for name in ("ch", "st", "ss", "ab"):
        assert out[name].shape == (B, T)
    assert model.hidden_states.shape == (B, T, SMALL_ARCH.d_z)
    assert np.all((out["ch"] > 0) & (out["ch"] < 1))
    for name in ("st", "ss", "ab"):
        assert np.all(out[name] >= 0)


def test_melchior_identical_inputs_identical_hidden(dataset):
    model = MelchiorModel(dataset.vocabs, SMALL_ARCH, seed=0)
    batch = _toy_batch(dataset, 2)
    for arr in (batch.behaviour, batch.env_idx, batch.mask, batch.ab_mask):
        arr[1] = arr[0]
    batch.game_idx[1] = batch.game_idx[0]
    model.forward(batch)
    z = model.hidden_states
    assert np.array_equal(z[0], z[1])


def test_melchior_causality(dataset):
    model = MelchiorModel(dataset.vocabs, SMALL_ARCH, seed=0)
    batch = _toy_batch(dataset)
    longest = int(np.argmax(batch.lengths))
    t_cut = int(batch.lengths[longest]) - 1
    if t_cut < 1:
        pytest.skip("trace too short")
    out1 = {k: v.copy() for k, v in model.forward(batch).items()}
    batch.behaviour[longest, t_cut] += 3.0
    out2 = model.forward(batch)
    for name in ("ch", "st", "ss", "ab"):
        assert np.allclose(out1[name][longest, :t_cut], out2[name][longest, :t_cut])
    assert not np.allclose(out1["ch"][longest, t_cut:], out2["ch"][longest, t_cut:])


def test_baselines_are_markovian(dataset):
    model = TdMlp(dataset.vocabs, SMALL_ARCH, seed=0)
    batch = _toy_batch(dataset)
    longest = int(np.argmax(batch.lengths))
    t_loc = int(batch.lengths[longest]) // 2
    out1 = {k: v.copy() for k, v in model.forward(batch).items()}
    # permute every other step's inputs; step t_loc must not move
    perm = batch.behaviour[longest].copy()
    perm[: t_loc], perm[t_loc + 1 :] = perm[: t_loc][::-1], perm[t_loc + 1 :][::-1]
    batch.behaviour[longest] = perm
    out2 = model.forward(batch)
    for name in ("ch", "st", "ss", "ab"):
        assert np.allclose(out1[name][longest, t_loc], out2[name][longest, t_loc])


def test_full_model_gradcheck(dataset):
    tiny = ArchConfig(hidden_width=8, d_z=4, layers=1, emb_dim=2)
    model = MelchiorModel(dataset.vocabs, tiny, seed=1)
    # 2 users x <=3 steps toy batch
    short = dataset.train.take(np.argsort(dataset.train.lengths, kind="stable")[:2])
    batch = make_batches(short, 2)[0]
    batch.behaviour = batch.behaviour[:, :3]
    batch.env_idx = batch.env_idx[:, :3]
    batch.mask = batch.mask[:, :3]
    batch.ab_mask = batch.ab_mask[:, :3]
    batch.targets = {k: v[:, :3] for k, v in batch.targets.items()}
    weights = (0.25, 0.25, 0.25, 0.25)

    def loss_fn():
        loss, _, _ = masked_loss(model.forward(batch), batch, weights)
        return loss

    model.zero_grads()
    model.loss_and_grads(batch, weights)
    grads = {k: v.copy() for k, v in model.grads().items()}
    assert grad_check(loss_fn, model.params(), grads) < 1e-4


def test_loss_weight_zero_kills_head_gradients(dataset):
    model = MelchiorModel(dataset.vocabs, SMALL_ARCH, seed=0)
    batch = _toy_batch(dataset)
    model.zero_grads()
    model.loss_and_grads(batch, (1.0, 0.0, 0.0, 0.0))
    grads = model.grads()
    for head in ("st", "ss", "ab"):
        assert np.all(grads[f"head_{head}.W"] == 0.0)
        assert np.all(grads[f"head_{head}.b"] == 0.0)
    assert np.any(grads["head_ch.W"] != 0.0)


# The four heads as they were before they became one layer: one Dense(width, 1) each,
# built from the fused layer's rows.
@pytest.mark.parametrize("weights", [(0.25, 0.25, 0.25, 0.25), (0.4, 0.3, 0.3, 0.0)])
@pytest.mark.parametrize("arch", [SMALL_ARCH, ArchConfig()], ids=["small", "default"])
@pytest.mark.parametrize("kind", ["td_mlp", "melchior"])
def test_fused_heads_equal_per_row_dense_heads(dataset, kind, arch, weights):
    model = build_model(kind, dataset.vocabs, arch, seed=4)
    width = arch.d_z if kind == "melchior" else arch.hidden_width
    params = model.params()
    reference = {}
    for name, (activation, _, _) in models.HEADS.items():
        head = Dense(width, 1, activation, name=f"head_{name}")
        head.W[...] = params[f"head_{name}.W"]
        head.b[...] = params[f"head_{name}.b"]
        reference[name] = head
    batch = make_batches(dataset.train, 8)[3]
    x = np.random.default_rng(5).normal(size=(*batch.mask.shape, width))
    outputs = dict(zip(models.HEADS, model.heads.forward(x)))
    _, _, douts = masked_loss(outputs, batch, weights)
    model.zero_grads()
    dx = model.heads.backward([douts[name] for name in models.HEADS])
    dx_ref = np.zeros_like(x)
    for name, head in reference.items():
        out_ref = head.forward(x)[..., 0]
        assert outputs[name].shape == out_ref.shape
        assert max_rel(outputs[name], out_ref) < 1e-12, name
        dx_ref += head.backward(douts[name][..., None])
    assert max_rel(dx, dx_ref) < 1e-12
    grads = model.grads()
    for name, head in reference.items():
        for a, ref in (("W", head.gW), ("b", head.gb)):
            g = grads[f"head_{name}.{a}"]
            assert g.shape == ref.shape
            if name == "ab" and weights[3] == 0.0:
                assert np.all(g == 0.0)
            else:
                assert max_rel(g, ref) < 1e-12, (name, a)


@pytest.mark.parametrize("kind", ["td_mlp", "melchior"])
def test_params_and_grads_are_views_that_tile_theta_and_grad(dataset, kind):
    model = build_model(kind, dataset.vocabs, SMALL_ARCH, seed=3)
    assert list(model.params()) == list(model.grads())
    for named, flat, other in ((model.params(), model.theta, model.grad),
                               (model.grads(), model.grad, model.theta)):
        arrays = list(named.values())
        for i, a in enumerate(arrays):
            assert np.shares_memory(a, flat) and not np.shares_memory(a, other)
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :])
        assert sum(a.size for a in arrays) == flat.size


@pytest.mark.parametrize("kind", ["td_mlp", "melchior"])
def test_writes_through_theta_change_forward_and_zero_grads_clears_grad(dataset, kind):
    model = build_model(kind, dataset.vocabs, SMALL_ARCH, seed=3)
    batch = _toy_batch(dataset)
    before = {k: v.copy() for k, v in model.forward(batch).items()}
    model.theta += np.random.default_rng(0).normal(scale=0.05, size=model.theta.size)
    after = model.forward(batch)
    for name in TARGETS:
        assert not np.allclose(before[name], after[name]), name
    model.loss_and_grads(batch, (0.25, 0.25, 0.25, 0.25))
    assert np.any(model.grad != 0.0)
    model.zero_grads()
    assert all(np.all(g == 0.0) for g in model.grads().values())


#: Per (model kind, architecture) at seed 3 on the dataset fixture: "name:shape"
#: of each parameter in params() order, and the sha256 of theta.tobytes().  They pin
#: the RNG draw order (embedding bank, the model's own layers, then heads), which
#: every trained model and every file derived from one depends on.
_DEEP_ARCH = ArchConfig(hidden_width=16, d_z=8, layers=2, emb_dim=4)
_PINNED_CONSTRUCTION = {
    ("td_mlp", "small"): (
        "emb_hour.W:25x4 emb_weekday.W:8x4 emb_yearday.W:367x8 emb_region.W:5x4 "
        "emb_game.W:4x4 mlp0.W:16x29 mlp0.b:16 head_ch.W:1x16 head_ch.b:1 head_st.W:1x16 "
        "head_st.b:1 head_ss.W:1x16 head_ss.b:1 head_ab.W:1x16 head_ab.b:1",
        "88c80040c9be2a35977dbfd3b8bc66c6b5548a71e3916d680244d4389e55cdd9",
    ),
    ("td_mlp", "default"): (
        "emb_hour.W:25x8 emb_weekday.W:8x8 emb_yearday.W:367x16 emb_region.W:5x8 "
        "emb_game.W:4x8 mlp0.W:64x53 mlp0.b:64 head_ch.W:1x64 head_ch.b:1 head_st.W:1x64 "
        "head_st.b:1 head_ss.W:1x64 head_ss.b:1 head_ab.W:1x64 head_ab.b:1",
        "1566b62c274875e809200adcc69da6a5e3faaa25ef885127a78732a2833c9267",
    ),
    ("td_mlp", "deep"): (
        "emb_hour.W:25x4 emb_weekday.W:8x4 emb_yearday.W:367x8 emb_region.W:5x4 "
        "emb_game.W:4x4 mlp0.W:16x29 mlp0.b:16 mlp1.W:16x16 mlp1.b:16 head_ch.W:1x16 "
        "head_ch.b:1 head_st.W:1x16 head_st.b:1 head_ss.W:1x16 head_ss.b:1 head_ab.W:1x16 "
        "head_ab.b:1",
        "d2128e7dbfc9c99db85dc258f80d7f1b8e7982c5a28d2f32f4461bd66030ce7a",
    ),
    ("melchior", "small"): (
        "emb_hour.W:25x4 emb_weekday.W:8x4 emb_yearday.W:367x8 emb_region.W:5x4 "
        "emb_game.W:4x4 beh0.W:8x5 beh0.b:8 env0.W:8x20 env0.b:8 fusion.W:16x20 fusion.b:16 "
        "salience.Wz:8x16 salience.Uz:8x8 salience.bz:8 salience.Wr:8x16 salience.Ur:8x8 "
        "salience.br:8 salience.Wn:8x16 salience.Un:8x8 salience.bn:8 head_ch.W:1x8 "
        "head_ch.b:1 head_st.W:1x8 head_st.b:1 head_ss.W:1x8 head_ss.b:1 head_ab.W:1x8 "
        "head_ab.b:1",
        "5eed935e4d91ff9f38bd166a318b9d82655c690777ff4b437004cfb3b9661090",
    ),
    ("melchior", "default"): (
        "emb_hour.W:25x8 emb_weekday.W:8x8 emb_yearday.W:367x16 emb_region.W:5x8 "
        "emb_game.W:4x8 beh0.W:32x5 beh0.b:32 env0.W:32x40 env0.b:32 fusion.W:64x72 "
        "fusion.b:64 salience.Wz:32x64 salience.Uz:32x32 salience.bz:32 salience.Wr:32x64 "
        "salience.Ur:32x32 salience.br:32 salience.Wn:32x64 salience.Un:32x32 salience.bn:32 "
        "head_ch.W:1x32 head_ch.b:1 head_st.W:1x32 head_st.b:1 head_ss.W:1x32 head_ss.b:1 "
        "head_ab.W:1x32 head_ab.b:1",
        "33173b8f40d83220ea103531bcbab32c95de8e6358914029c34a560582e75c6b",
    ),
    ("melchior", "deep"): (
        "emb_hour.W:25x4 emb_weekday.W:8x4 emb_yearday.W:367x8 emb_region.W:5x4 "
        "emb_game.W:4x4 beh0.W:8x5 beh0.b:8 beh1.W:8x8 beh1.b:8 env0.W:8x20 env0.b:8 "
        "env1.W:8x8 env1.b:8 fusion.W:16x20 fusion.b:16 salience.Wz:8x16 salience.Uz:8x8 "
        "salience.bz:8 salience.Wr:8x16 salience.Ur:8x8 salience.br:8 salience.Wn:8x16 "
        "salience.Un:8x8 salience.bn:8 head_ch.W:1x8 head_ch.b:1 head_st.W:1x8 head_st.b:1 "
        "head_ss.W:1x8 head_ss.b:1 head_ab.W:1x8 head_ab.b:1",
        "c7c151a2236a718a8acd5c13d99e0e1c4526966b6d8250ed9869d7c5e7d5e069",
    ),
}


@pytest.mark.parametrize("kind, arch_name", list(_PINNED_CONSTRUCTION))
def test_construction_is_pinned(dataset, kind, arch_name):
    arch = {"small": SMALL_ARCH, "default": ArchConfig(), "deep": _DEEP_ARCH}[arch_name]
    spec, digest = _PINNED_CONSTRUCTION[(kind, arch_name)]
    entries = [entry.split(":") for entry in spec.split()]
    model = build_model(kind, dataset.vocabs, arch, seed=3)
    assert list(model.params()) == [name for name, _ in entries]
    assert [model.params()[name].shape for name, _ in entries] == [
        tuple(int(n) for n in shape.split("x")) for _, shape in entries
    ]
    assert hashlib.sha256(model.theta.tobytes()).hexdigest() == digest


def _reference_train(model, split, config):
    """The training loop with one Adam state per named array, clipping inside the
    step, and a dict snapshot of the best weights."""
    fit_users, val_users = split_users([t.user_id for t in split.train],
                                       1.0 - config.val_fraction, config.seed)
    train_batches = make_batches(
        split.train.take([t.index for t in split.train if t.user_id in fit_users]),
        config.batch_size)
    val_batches = make_batches(
        split.train.take([t.index for t in split.train if t.user_id in val_users]),
        config.batch_size)
    params, grads = model.params(), model.grads()
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    step = 0
    history = []
    best_val, best_row = math.inf, None
    best = {k: p.copy() for k, p in params.items()}
    stale = 0
    for epoch in range(config.epochs):
        order = np.random.default_rng(
            np.random.SeedSequence((config.seed, epoch))
        ).permutation(len(train_batches))
        running = running_n = 0.0
        for b in order:
            batch = train_batches[b]
            for g in grads.values():
                g[...] = 0.0
            loss, _ = model.loss_and_grads(batch, config.loss_weights)
            clip_gradients(grads, config.clip_norm)
            step += 1
            correct1 = 1.0 - 0.9**step
            correct2 = 1.0 - 0.999**step
            for k, p in params.items():
                g = grads[k]
                m[k] += (1.0 - 0.9) * (g - m[k])
                v[k] += (1.0 - 0.999) * (g * g - v[k])
                p -= config.lr * (m[k] / correct1) / (np.sqrt(v[k] / correct2) + 1e-8)
            n = float(batch.mask.sum())
            running += loss * n
            running_n += n
        val = models._epoch_loss(model, val_batches, config.loss_weights)
        history.append({"epoch": epoch, "train": running / running_n, "val": val})
        if val < best_val - 1e-12:
            best_val, best_row = val, history[-1]
            best = {k: p.copy() for k, p in params.items()}
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    model.set_params(best)
    best_row["best"] = True
    return history


# Every step clips, and the best epoch is the second, so the best weights are restored.
@pytest.mark.parametrize("kind,lr", [("td_mlp", 0.1), ("melchior", 0.03)])
def test_train_equals_per_array_reference_loop(dataset, kind, lr):
    cfg = TrainConfig(epochs=3, batch_size=8, lr=lr, patience=5, seed=2, clip_norm=0.05)
    model = build_model(kind, dataset.vocabs, SMALL_ARCH, seed=2)
    reference = build_model(kind, dataset.vocabs, SMALL_ARCH, seed=2)
    assert train(model, dataset, cfg) == _reference_train(reference, dataset, cfg)
    for k, p in reference.params().items():
        assert np.array_equal(model.params()[k], p), k


# -- training -----------------------------------------------------------------------


def test_train_same_seed_identical_history(dataset):
    cfg = TrainConfig(epochs=3, batch_size=8, lr=3e-3, patience=5, seed=2)
    h1 = train(MelchiorModel(dataset.vocabs, SMALL_ARCH, seed=2), dataset, cfg)
    h2 = train(MelchiorModel(dataset.vocabs, SMALL_ARCH, seed=2), dataset, cfg)
    assert h1 == h2


def test_train_reports_losses_and_early_stops(dataset):
    cfg = TrainConfig(epochs=4, batch_size=8, seed=0)
    model = TdMlp(dataset.vocabs, SMALL_ARCH, seed=0)
    history = train(model, dataset, cfg)
    assert 1 <= len(history) <= 4
    for row in history:
        assert math.isfinite(row["train"]) and math.isfinite(row["val"])


def test_train_config_validation():
    with pytest.raises(ModelError):
        TrainConfig(epochs=0).validate()
    with pytest.raises(ModelError):
        TrainConfig(loss_weights=(0.5, 0.5, 0.5, 0.5)).validate()


def test_overfit_tiny_batch(dataset):
    """A handful of hard-labelled users must be nearly memorised quickly."""
    chosen = dataset.train.take([
        t.index for t in dataset.train if t.churn[0] in (0.0, 1.0) and t.length >= 20
    ][:8])
    assert len(chosen) == 8, "benchmark population must provide 8 long hard-label users"
    cfg = TrainConfig(epochs=500, batch_size=8, lr=1e-2, patience=500, seed=1,
                      val_fraction=0.2)
    model = MelchiorModel(dataset.vocabs, ArchConfig(hidden_width=64, d_z=32), seed=1)
    history = train(model, dataset, cfg, train_traces=chosen, val_traces=chosen)
    assert min(row["train"] for row in history) < 0.05


def test_batch_of_single_session_traces_trains(dataset):
    """No observed absence anywhere: the ab loss must drop out, not crash."""
    donors = dataset.train[:6]
    first = donors.first_rows
    singles = feature_table(
        [1] * 6, user_id=donors.user_id, game_id=donors.game_id, game_idx=donors.game_idx,
        behaviour=donors.behaviour[first], env_idx=donors.env_idx[first],
        churn=donors.churn[first])
    model = MelchiorModel(dataset.vocabs, SMALL_ARCH, seed=0)
    batch = make_batches(singles, 6)[0]
    model.zero_grads()
    loss, per_target = model.loss_and_grads(batch, (0.25, 0.25, 0.25, 0.25))
    assert math.isfinite(loss)
    assert per_target["ab"] == 0.0
    assert np.all(model.grads()["head_ab.W"] == 0.0)


# -- evaluation -----------------------------------------------------------------------


def test_evaluate_perfect_predictor_zero_smape(dataset):
    batches = make_batches(dataset.test, 16)
    outputs = [dict(batch.targets) for batch in batches]
    report = evaluate_outputs(batches, outputs)
    assert report.overall["st"] == 0.0
    assert report.overall["ss"] == 0.0
    assert report.overall["ab"] == 0.0


def test_evaluate_constant_half_churn_is_ln2(dataset):
    # force a population whose churn target is exactly 0.5 everywhere
    donors = dataset.test[:5]
    keep = feature_table(donors.lengths, **{
        **{name: getattr(donors, name) for name in donors.ROW_COLUMNS + donors.TRACE_COLUMNS},
        "churn": np.full_like(donors.churn, 0.5)})
    batches = make_batches(keep, 16)
    outputs = []
    for batch in batches:
        out = dict(batch.targets)
        out["ch"] = np.full_like(batch.targets["ch"], 0.5)
        outputs.append(out)
    report = evaluate_outputs(batches, outputs)
    assert report.overall["ch"] == pytest.approx(math.log(2.0), abs=1e-12)


def test_evaluate_values_in_unit_interval(dataset):
    model = MelchiorModel(dataset.vocabs, SMALL_ARCH, seed=3)
    cfg = TrainConfig(epochs=3, batch_size=8, seed=3)
    train(model, dataset, cfg)
    report = evaluate(model, dataset.test)
    for name, value in report.overall.items():
        assert 0.0 <= value <= 1.0
    for cell in report.cells:
        assert 0.0 <= cell["loss"] <= 1.0


def _reference_evaluate(batches, outputs_per_batch):
    """Cell by cell in Python, in batch, row and step order: the reference for evaluate_outputs."""
    overall_sum = dict.fromkeys(TARGETS, 0.0)
    overall_cnt = dict.fromkeys(TARGETS, 0.0)
    cell_sum: dict[tuple, float] = {}
    cell_cnt: dict[tuple, float] = {}
    for batch, outputs in zip(batches, outputs_per_batch):
        masks = {name: batch.mask for name in TARGETS}
        masks["ab"] = batch.mask * batch.ab_mask
        for name in TARGETS:
            pred, target = outputs[name], batch.targets[name]
            if name == "ch":
                p = np.clip(pred, BCE_CLIP, 1.0 - BCE_CLIP)
                terms = -(target * np.log(p) + (1.0 - target) * np.log(1.0 - p))
            else:
                terms = np.abs(pred - target) / (np.abs(pred) + np.abs(target) + SMAPE_EPS)
            m = masks[name]
            overall_sum[name] += float((terms * m).sum())
            overall_cnt[name] += float(m.sum())
            for i, game in enumerate(batch.game_ids):
                for t in range(int(batch.lengths[i])):
                    if m[i, t] == 0.0:
                        continue
                    key = (game, t + 1, name)
                    cell_sum[key] = cell_sum.get(key, 0.0) + float(terms[i, t])
                    cell_cnt[key] = cell_cnt.get(key, 0.0) + 1.0
    overall = {
        name: (overall_sum[name] / overall_cnt[name]) if overall_cnt[name] else 0.0
        for name in TARGETS
    }
    cells = [
        {"game": game, "session_index": idx, "target": name,
         "loss": cell_sum[key] / cell_cnt[key], "count": int(cell_cnt[key])}
        for key in sorted(cell_sum)
        for game, idx, name in [key]
    ]
    return overall, cells


def test_evaluate_outputs_equals_reference_loop(dataset):
    model = MelchiorModel(dataset.vocabs, SMALL_ARCH, seed=4)
    train(model, dataset, TrainConfig(epochs=2, batch_size=8, seed=4))
    no_absence = make_batches(dataset.train[:5], 5)[0]
    no_absence.ab_mask[...] = 0.0
    batches = make_batches(dataset.test, 4) + make_batches(dataset.train, 16) + [no_absence]
    assert len({g for b in batches for g in b.game_ids}) == 3
    assert len({b.mask.shape[1] for b in batches}) > 3
    outputs = [model.forward(batch) for batch in batches]
    overall, cells = _reference_evaluate(batches, outputs)
    report = evaluate_outputs(batches, outputs)
    assert report.overall == overall
    assert report.cells == cells
    ab_only = evaluate_outputs([no_absence], [outputs[-1]])
    assert ab_only.overall == _reference_evaluate([no_absence], [outputs[-1]])[0]
    assert ab_only.overall["ab"] == 0.0
    assert not [c for c in ab_only.cells if c["target"] == "ab"]


def test_evaluate_empty_split_errors(dataset):
    model = MelchiorModel(dataset.vocabs, SMALL_ARCH, seed=0)
    with pytest.raises(ModelError):
        evaluate(model, [])


# -- embedding extraction ---------------------------------------------------------------


def test_extract_embedding_widths_and_purity(dataset):
    model = MelchiorModel(dataset.vocabs, SMALL_ARCH, seed=0)
    users, z1 = extract_embedding(model, dataset.test)
    again, z2 = extract_embedding(model, dataset.test)
    assert users == again == sorted(t.user_id for t in dataset.test)
    assert z1.shape == (len(dataset.test), SMALL_ARCH.d_z)
    assert np.array_equal(z1, z2)


def test_extract_embedding_causal_prefix(dataset):
    model = MelchiorModel(dataset.vocabs, SMALL_ARCH, seed=0)
    donor = max(dataset.test, key=lambda t: t.length)
    if donor.length < 3:
        pytest.skip("trace too short")
    cut = donor.length - 1
    full = dataset.test.take([donor.index])
    truncated = feature_table([cut], user_id=donor.user_id, game_id=donor.game_id,
                              game_idx=donor.game_idx,
                              **{name: getattr(donor, name)[:cut]
                                 for name in full.ROW_COLUMNS})
    model.forward(make_batches(full, 1)[0])
    z_full = model.hidden_states[0].copy()
    model.forward(make_batches(truncated, 1)[0])
    z_cut = model.hidden_states[0].copy()
    assert z_full.shape == (donor.length, SMALL_ARCH.d_z)
    assert np.allclose(z_full[:cut], z_cut)
    # extract_embedding keeps exactly the state after each trace's final session
    assert np.array_equal(extract_embedding(model, full)[1], z_full[-1:])
    assert np.array_equal(extract_embedding(model, truncated)[1], z_cut[-1:])


# -- persistence ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["td_enet", "td_mlp", "melchior"])
def test_model_save_load_round_trip(tmp_path, dataset, kind):
    model = build_model(kind, dataset.vocabs, SMALL_ARCH, seed=5)
    if kind == "td_enet":
        model.max_iter = 200
        model.fit(dataset.train[:10])
    path = tmp_path / f"{kind}.json"
    save_model(model, path)
    loaded = load_model(path, dataset.vocabs)
    assert loaded.kind == kind
    assert loaded.seed == 5
    if kind == "td_enet":
        assert loaded.max_iter == 200
    batch = make_batches(dataset.test[:4], 4)[0]
    a = model.forward(batch)
    b = loaded.forward(batch)
    for name in ("ch", "st", "ss", "ab"):
        assert np.array_equal(a[name], b[name])


@pytest.mark.parametrize("kind,dropped",
                         [("melchior", "salience.bz"), ("td_mlp", "mlp0.b"), ("td_enet", "enet.ch")])
def test_load_model_rejects_a_checkpoint_missing_a_parameter(tmp_path, dataset, kind, dropped):
    path = tmp_path / f"{kind}.json"
    model = build_model(kind, dataset.vocabs, SMALL_ARCH, seed=5)
    if kind == "td_enet":
        model.max_iter = 20
        model.fit(dataset.train[:10])
    save_model(model, path)
    manifest = json.loads(path.read_text(encoding="utf-8"))
    blob = path.with_suffix(".bin").read_bytes()
    sizes = [8 * math.prod(entry["shape"]) for entry in manifest["arrays"]]
    i = [entry["name"] for entry in manifest["arrays"]].index(dropped)
    start = sum(sizes[:i])
    del manifest["arrays"][i]
    path.write_text(json.dumps(manifest), encoding="utf-8")
    path.with_suffix(".bin").write_bytes(blob[:start] + blob[start + sizes[i] :])
    with pytest.raises(ModelError, match=rf"^missing parameter {re.escape(dropped)}$"):
        load_model(path, dataset.vocabs)
