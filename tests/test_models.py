from __future__ import annotations

import math

import numpy as np
import pytest

from salience_lab.features import build_dataset
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
from salience_lab.neural import BCE_CLIP, SMAPE_EPS, grad_check
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
                   tol=1e-12)
    w_ref, *_ = np.linalg.lstsq(X, y, rcond=None)
    assert np.max(np.abs(w - w_ref)) < 1e-6


def test_enet_ridge_matches_closed_form():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(50, 5))
    y = rng.normal(size=50)
    lam = 2.5
    w = enet_solve(X, y, lam=lam, l1_ratio=0.0, fit_intercept=False, max_iter=20_000,
                   tol=1e-12)
    w_ref = np.linalg.solve(X.T @ X + lam * np.eye(5), X.T @ y)
    assert np.max(np.abs(w - w_ref)) < 1e-6


def test_enet_full_shrinkage_with_large_l1():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    w = enet_solve(X, y, lam=1e6, l1_ratio=1.0, fit_intercept=True)
    assert np.all(w[:-1] == 0.0)  # every non-intercept weight exactly zero


def test_enet_rejects_bad_penalty():
    with pytest.raises(ModelError):
        enet_solve(np.eye(2), np.ones(2), lam=-1.0, l1_ratio=0.5)
    with pytest.raises(ModelError):
        enet_solve(np.eye(2), np.ones(2), lam=1.0, l1_ratio=2.0)


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
    short = sorted(dataset.train, key=lambda t: t.length)[:2]
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
    chosen = [
        t for t in dataset.train if t.churn[0] in (0.0, 1.0) and t.length >= 20
    ][:8]
    assert len(chosen) == 8, "benchmark population must provide 8 long hard-label users"
    cfg = TrainConfig(epochs=500, batch_size=8, lr=1e-2, patience=500, seed=1,
                      val_fraction=0.2)
    model = MelchiorModel(dataset.vocabs, ArchConfig(hidden_width=64, d_z=32), seed=1)
    history = train(model, dataset, cfg, train_traces=chosen, val_traces=chosen)
    assert min(row["train"] for row in history) < 0.05


def test_batch_of_single_session_traces_trains(dataset):
    """No observed absence anywhere: the ab loss must drop out, not crash."""
    import copy

    singles = []
    for t in dataset.train[:6]:
        clone = copy.deepcopy(t)
        clone.behaviour = clone.behaviour[:1]
        clone.env_idx = clone.env_idx[:1]
        clone.churn = clone.churn[:1]
        clone.survival_time = np.zeros(1)
        clone.survival_sessions = np.zeros(1)
        clone.absence = np.zeros(1)
        clone.ab_mask = np.zeros(1)
        singles.append(clone)
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
    import copy

    # force a population whose churn target is exactly 0.5 everywhere
    keep = []
    for t in dataset.test[:5]:
        clone = copy.deepcopy(t)
        clone.churn = np.full_like(clone.churn, 0.5)
        keep.append(clone)
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
    z1 = extract_embedding(model, dataset.test)
    z2 = extract_embedding(model, dataset.test)
    for t in dataset.test:
        assert z1[t.user_id].shape == (t.length, SMALL_ARCH.d_z)
        assert np.array_equal(z1[t.user_id], z2[t.user_id])


def test_extract_embedding_causal_prefix(dataset):
    model = MelchiorModel(dataset.vocabs, SMALL_ARCH, seed=0)
    donor = max(dataset.test, key=lambda t: t.length)
    if donor.length < 3:
        pytest.skip("trace too short")
    import copy

    truncated = copy.deepcopy(donor)
    cut = donor.length - 1
    truncated.behaviour = truncated.behaviour[:cut]
    truncated.env_idx = truncated.env_idx[:cut]
    truncated.churn = truncated.churn[:cut]
    truncated.survival_time = truncated.survival_time[:cut]
    truncated.survival_sessions = truncated.survival_sessions[:cut]
    truncated.absence = truncated.absence[:cut]
    truncated.ab_mask = truncated.ab_mask[:cut]
    z_full = extract_embedding(model, [donor])[donor.user_id]
    z_cut = extract_embedding(model, [truncated])[donor.user_id]
    assert np.allclose(z_full[:cut], z_cut)


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
