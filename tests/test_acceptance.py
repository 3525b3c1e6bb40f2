"""Acceptance suite: one test per criterion, one printed verdict line each.

The heavy criteria share a session fixture that runs the CLI on the bundled
synthetic benchmark for three seeds (simulate, featurize, all three estimators
trained, evaluate) and reads back the files it writes.
Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
"""

from __future__ import annotations

import filecmp
import time
from pathlib import Path

import numpy as np
import pytest

from salience_lab import csvio
from salience_lab.analysis import (
    elbow_select,
    lloyd_kmeans,
    minibatch_kmeans,
    principal_scores,
    profile_partitions,
    random_orthogonal_projection,
    silhouette,
    spearman,
)
from salience_lab.cli import CliError, main, scope_traces
from salience_lab.features import Vocab, Vocabularies, build_dataset, load_dataset
from salience_lab.models import (
    Batch,
    MelchiorModel,
    extract_embedding,
    load_model,
    make_batches,
    masked_loss,
)
from salience_lab.neural import Dense, Embedding, GruLayer, bce_loss, smape_loss
from salience_lab.telemetry import ingest_csv, read_latent_csv
from salience_lab.tuning import make_schedule
from helpers import ACCEPTANCE_LINES, grad_check, random_trace

SEEDS = (0, 1, 2)
TARGETS = ("ch", "st", "ss", "ab")


def verdict(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} - {name}: {detail}"
    print(f"\n{line}")
    ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {number} ({name}): {detail}"


# ---------------------------------------------------------------------------
# Shared benchmark runs


BENCHMARK = str(Path(__file__).resolve().parents[1] / "src/salience_lab/configs/benchmark.json")
_LOSSES_COLUMNS = {"model": str, "target": str, "loss": float}


@pytest.fixture(scope="session")
def benchmark_runs(tmp_path_factory):
    """For each seed, run the CLI's simulate, featurize, train (all three models) and
    evaluate on the bundled benchmark, and read back what they wrote."""
    runs = {}
    t0 = time.monotonic()
    for seed in SEEDS:
        out = tmp_path_factory.mktemp(f"benchmark-seed-{seed}")
        for argv in (["simulate"], ["featurize"], ["train", "--model", "td_enet"],
                     ["train", "--model", "td_mlp"], ["train", "--model", "melchior"],
                     ["evaluate"]):
            assert main(["--config", BENCHMARK, "--seed", str(seed), "--out", str(out),
                         *argv]) == 0
        split = load_dataset(out / "features")
        melchior = load_model(out / "models" / "melchior.json", split.vocabs)
        losses = csvio.read_columns(out / "eval" / "losses.csv", _LOSSES_COLUMNS, CliError)
        reports: dict[str, dict[str, float]] = {}
        for kind, target, loss in zip(losses["model"].tolist(), losses["target"].tolist(),
                                      losses["loss"].tolist()):
            reports.setdefault(kind, {})[target] = loss
        latent = read_latent_csv(out / "telemetry.latent.csv")
        runs[seed] = {
            "traces": ingest_csv(out / "telemetry.csv"),
            "split": split,
            "reports": reports,
            "melchior": melchior,
            "arch": melchior.arch,
            # each user's salience after their last session
            "true_salience": {user: rows[-1][0] for user, rows in latent.items()},
        }
    runs["elapsed"] = time.monotonic() - t0
    return runs


# ---------------------------------------------------------------------------
# 1. Gradient suite


def test_criterion_1_gradient_suite():
    t0 = time.monotonic()
    worst: dict[str, float] = {}

    def dense_case(seed, activation):
        rng = np.random.default_rng(seed)
        layer = Dense(4, 3, activation, rng)
        x = rng.normal(size=(5, 4))
        target = rng.normal(size=(5, 3))

        def loss_fn():
            return 0.5 * float(((layer.forward(x) - target) ** 2).sum())

        layer.backward(layer.forward(x) - target)
        return grad_check(loss_fn, layer.params, layer.grads)

    for activation in ("linear", "tanh", "sigmoid", "softplus"):
        worst[f"dense_{activation}"] = max(dense_case(s, activation) for s in range(100))

    def embedding_case(seed):
        rng = np.random.default_rng(seed)
        emb = Embedding(6, 3, rng)
        idx = rng.integers(0, 6, size=5)
        target = rng.normal(size=(5, 3))

        def loss_fn():
            return 0.5 * float(((emb.forward(idx) - target) ** 2).sum())

        emb.backward(emb.forward(idx) - target)
        return grad_check(loss_fn, emb.params, emb.grads)

    worst["embedding"] = max(embedding_case(s) for s in range(100))

    def gru_case(seed):
        rng = np.random.default_rng(seed)
        gru = GruLayer(3, 4, rng)
        x = rng.normal(size=(2, 5, 3))
        mask = np.ones((2, 5))
        mask[1, 4] = 0.0
        target = rng.normal(size=(2, 5, 4))

        def loss_fn():
            out = gru.forward(x, mask=mask)
            return 0.5 * float((((out - target) * mask[..., None]) ** 2).sum())

        gru.backward((gru.forward(x, mask=mask) - target) * mask[..., None])
        return grad_check(loss_fn, gru.params, gru.grads)

    worst["gru_bptt"] = max(gru_case(s) for s in range(100))

    def loss_case(seed, loss):
        rng = np.random.default_rng(seed)
        pred = rng.uniform(0.15, 0.85, size=(3, 4))
        target = rng.uniform(0.15, 0.85, size=(3, 4))
        target = np.where(np.abs(pred - target) < 0.05, target + 0.1, target)
        mask = np.ones((3, 4))
        mask[0, 1] = 0.0
        params = {"pred": pred}

        def loss_fn():
            return loss(pred, target, mask)[0]

        _, grad = loss(pred, target, mask)
        return grad_check(loss_fn, params, {"pred": grad})

    worst["bce"] = max(loss_case(s, bce_loss) for s in range(100))
    worst["smape"] = max(loss_case(s, smape_loss) for s in range(100))

    tiny_vocabs = Vocabularies(
        hour=Vocab(tuple(range(4))),
        weekday=Vocab(tuple(range(3))),
        yearday=Vocab(tuple(range(1, 6))),
        region=Vocab(("eu", "na")),
        game=Vocab(("g1", "g2")),
    )

    def melchior_case(seed):
        rng = np.random.default_rng(seed)
        from salience_lab.models import ArchConfig

        model = MelchiorModel(tiny_vocabs, ArchConfig(hidden_width=8, d_z=4, layers=1,
                                                      emb_dim=2), seed=seed)
        B, T = 2, 3
        mask = np.ones((B, T))
        mask[1, 2] = 0.0
        ab_mask = mask.copy()
        ab_mask[0, 2] = 0.0
        batch = Batch(
            behaviour=rng.uniform(0, 1, size=(B, T, 5)),
            env_idx=np.stack(
                [
                    rng.integers(0, 5, size=(B, T)),
                    rng.integers(0, 4, size=(B, T)),
                    rng.integers(0, 6, size=(B, T)),
                    rng.integers(0, 3, size=(B, T)),
                ],
                axis=-1,
            ),
            game_idx=rng.integers(0, 3, size=B),
            mask=mask,
            targets={name: rng.uniform(0.1, 0.9, size=(B, T)) for name in TARGETS},
            ab_mask=ab_mask,
            index=np.arange(B),
            lengths=np.array([3, 2]),
        )
        weights = (0.25, 0.25, 0.25, 0.25)

        def loss_fn():
            return masked_loss(model.forward(batch), batch, weights)[0]

        model.zero_grads()
        model.loss_and_grads(batch, weights)
        grads = {k: v.copy() for k, v in model.grads().items()}
        return grad_check(loss_fn, model.params(), grads)

    worst["melchior_full"] = max(melchior_case(s) for s in range(100))

    elapsed = time.monotonic() - t0
    linear_bound = 1e-6
    loose_bound = 1e-4
    checks = {
        "dense_linear": (worst["dense_linear"], linear_bound),
        "embedding": (worst["embedding"], linear_bound),
        "bce": (worst["bce"], linear_bound),
        "smape": (worst["smape"], linear_bound),
        "dense_tanh": (worst["dense_tanh"], loose_bound),
        "dense_sigmoid": (worst["dense_sigmoid"], loose_bound),
        "dense_softplus": (worst["dense_softplus"], loose_bound),
        "gru_bptt": (worst["gru_bptt"], loose_bound),
        "melchior_full": (worst["melchior_full"], loose_bound),
    }
    ok = all(err < bound for err, bound in checks.values()) and elapsed < 120.0
    detail = (
        ", ".join(f"{name} {err:.1e}" for name, (err, _) in checks.items())
        + f"; runtime {elapsed:.1f}s"
    )
    verdict(1, "gradient suite (100 seeds each)", ok, detail)


# ---------------------------------------------------------------------------
# 2. Model-ordering analog


def test_criterion_2_loss_ordering(benchmark_runs):
    means = {
        kind: {
            t: float(np.mean([benchmark_runs[s]["reports"][kind][t] for s in SEEDS]))
            for t in TARGETS
        }
        for kind in ("td_enet", "td_mlp", "melchior")
    }
    ordered = [
        t
        for t in TARGETS
        if means["melchior"][t] <= means["td_mlp"][t] <= means["td_enet"][t]
    ]
    elapsed = benchmark_runs["elapsed"]
    ok = len(ordered) >= 3 and elapsed < 1200.0
    detail = (
        f"ordering holds on {ordered} ({len(ordered)}/4); "
        f"3-seed benchmark wall time {elapsed:.0f}s"
    )
    verdict(2, "recurrent <= per-step MLP <= linear on mean test losses", ok, detail)


# ---------------------------------------------------------------------------
# 3. Target-math oracle


def test_criterion_3_target_math_oracle():
    from salience_lab.features import compute_targets, inactivity_threshold

    rng = np.random.default_rng(2024)
    worst_st = 0.0
    worst_thr = 0.0
    churn_mismatches = 0
    for i in range(1000):
        table = random_trace(rng, f"user{i}")
        (trace,) = table
        gaps = trace.delta_session[1:].tolist() or [float(rng.uniform(1, 50))]
        q1, q3 = np.quantile(gaps, [0.25, 0.75])
        thr_ref = float(q3 + 1.5 * (q3 - q1))
        worst_thr = max(worst_thr, abs(inactivity_threshold(gaps) - thr_ref))

        last_end = int(trace.start_utc[-1]) + float(trace.session_time[-1])
        observation_end = last_end + float(rng.uniform(0.0, 3.0 * thr_ref + 10.0))
        targets = compute_targets(table, thr_ref, observation_end)

        total = sum(trace.play_time.tolist())
        inactive = observation_end - last_end
        if trace.completed:
            ch_ref = 0.0
        elif inactive >= thr_ref:
            ch_ref = 1.0
        else:
            ch_ref = 0.5
        for t in range(1, trace.total_sessions + 1):
            played = sum(trace.play_time[:t].tolist())
            worst_st = max(worst_st, abs(targets["survival_time"][t - 1] - (total - played)))
            if targets["survival_sessions"][t - 1] != trace.total_sessions - t:
                churn_mismatches += 1
            if targets["churn"][t - 1] != ch_ref:
                churn_mismatches += 1
    ok = churn_mismatches == 0 and worst_st < 1e-9 and worst_thr < 1e-9
    verdict(
        3,
        "survival/churn math vs brute force on 1000 traces",
        ok,
        f"churn mismatches {churn_mismatches}, max |st err| {worst_st:.2e}, "
        f"max |threshold err| {worst_thr:.2e}",
    )


# ---------------------------------------------------------------------------
# 4. No leakage; monotone terminal-zero targets


def test_criterion_4_no_leakage_and_monotone_targets(benchmark_runs):
    split = benchmark_runs[0]["split"]
    traces = benchmark_runs[0]["traces"]
    train_users = {t.user_id for t in split.train}
    train_only = traces.take([i for i, t in enumerate(traces) if t.user_id in train_users])
    reduced = build_dataset(train_only, ratio=0.999999, seed=0,
                            observation_end=split.observation_end)
    identical = (reduced.scaler == split.scaler) and (reduced.vocabs == split.vocabs)

    monotone = True
    for ft in split.train + split.test:
        st = ft.survival_time
        ss = ft.survival_sessions
        if st[-1] != 0.0 or ss[-1] != 0.0:
            monotone = False
        if np.any(np.diff(st) > 0) or np.any(np.diff(ss) > 0):
            monotone = False
    ok = identical and monotone
    verdict(
        4,
        "scaler/vocab leakage-free; st/ss non-increasing, terminal zero",
        ok,
        f"stats identical {identical}; monotone terminal-zero {monotone} "
        f"over {len(split.train) + len(split.test)} traces",
    )


# ---------------------------------------------------------------------------
# 5. Salience recovery


def _mean_predicted_ss(model, traces):
    out = {}
    for batch in make_batches(traces, 64):
        preds = model.forward(batch)
        for i, user in enumerate(traces.user_id[batch.index].tolist()):
            out[user] = float(preds["ss"][i, : int(batch.lengths[i])].mean())
    return out


def test_criterion_5_salience_recovery(benchmark_runs):
    rows = []
    ok = True
    for seed in SEEDS:
        run = benchmark_runs[seed]
        true_salience = run["true_salience"]
        pred = _mean_predicted_ss(run["melchior"], run["split"].test)
        users = sorted(pred)
        rho_pred = spearman([true_salience[u] for u in users], [pred[u] for u in users])
        test = run["split"].test
        z_final = extract_embedding(run["melchior"], test)
        # the principal axis has arbitrary orientation; magnitude is the claim
        rho_pc = abs(
            spearman([true_salience[u] for u in test.user_id.tolist()],
                     principal_scores(z_final).tolist())
        )
        rows.append((seed, rho_pred, rho_pc))
        ok = ok and rho_pred >= 0.5 and rho_pc >= 0.5
    detail = "; ".join(
        f"seed {s}: rho(pred ss) {a:.3f}, |rho(PC1 z)| {b:.3f}" for s, a, b in rows
    )
    verdict(5, "true final salience recovered from predictions and embedding", ok, detail)


# ---------------------------------------------------------------------------
# 6. Embedding separation


def test_criterion_6_embedding_separation(benchmark_runs):
    rows = []
    ok = True
    for seed in SEEDS:
        run = benchmark_runs[seed]
        test = run["split"].test
        z_final = extract_embedding(run["melchior"], test)
        labels = test.game_id
        sil_z = silhouette(z_final, labels, seed=seed)
        raw = test.behaviour[test.last_rows]
        baseline = silhouette(
            random_orthogonal_projection(raw, run["arch"].d_z, seed=seed), labels, seed=seed
        )
        rows.append((seed, sil_z, baseline))
        ok = ok and sil_z > baseline
    detail = "; ".join(f"seed {s}: z {a:.3f} vs baseline {b:.3f}" for s, a, b in rows)
    verdict(6, "game silhouette in z-space beats random projection 3/3", ok, detail)


# ---------------------------------------------------------------------------
# 7. Profile contrast


def _mean_over_first_sessions(cluster: dict, metric: str, n: int = 5):
    values = [r["mean"] for r in cluster["curves"][metric][:n] if r["mean"] is not None]
    return float(np.mean(values)) if values else None


def test_criterion_7_profile_contrast(benchmark_runs):
    rows = []
    ok = True
    for seed in SEEDS:
        run = benchmark_runs[seed]
        everyone = scope_traces(run["split"], "all")  # as `embed` takes scope "all"
        z_final = extract_embedding(run["melchior"], everyone)
        elbow = elbow_select(z_final, range(2, 7), seed=seed)
        profile = profile_partitions(elbow.model.assign(z_final), everyone, run["split"].scaler)
        ranked = profile.ranked_by_median_ss()
        low = profile.clusters[ranked[0]]
        high = profile.clusters[ranked[-1]]
        st_hi = _mean_over_first_sessions(high, "session_time")
        st_lo = _mean_over_first_sessions(low, "session_time")
        dl_hi = _mean_over_first_sessions(high, "delta_session")
        dl_lo = _mean_over_first_sessions(low, "delta_session")
        seed_ok = (
            None not in (st_hi, st_lo, dl_hi, dl_lo)
            and st_hi > st_lo
            and dl_hi < dl_lo
        )
        rows.append((seed, elbow.chosen_k, st_hi, st_lo, dl_hi, dl_lo, seed_ok))
        ok = ok and seed_ok
    detail = "; ".join(
        f"seed {s} (k={k}): session_time {a:.0f}>{b:.0f}, gap {c:.0f}<{d:.0f} -> {good}"
        for s, k, a, b, c, d, good in rows
    )
    verdict(7, "top-engagement cluster: longer sessions, shorter gaps (sessions 1-5)",
            ok, detail)


# ---------------------------------------------------------------------------
# 8. Clustering oracles


def test_criterion_8_clustering_oracles():
    rng = np.random.default_rng(88)
    centers = [(0.0, 0.0), (12.0, 0.0), (0.0, 12.0), (12.0, 12.0)]
    X = np.concatenate(
        [rng.normal(size=(130, 2)) * 0.8 + np.asarray(c) for c in centers], axis=0
    )

    mb = minibatch_kmeans(X, 4, batch_size=64, iterations=300, seed=1)
    lloyd, history = lloyd_kmeans(X, 4, seed=1)
    inertia_ok = mb.inertia(X) <= 1.1 * lloyd.inertia(X)

    elbow = elbow_select(X, range(1, 9), seed=2)
    elbow_ok = elbow.chosen_k in (3, 4, 5)

    labels = mb.assign(X)
    brute = np.array([int(np.argmin(((x - mb.centroids) ** 2).sum(axis=1))) for x in X])
    assign_ok = bool(np.array_equal(labels, brute))

    ok = inertia_ok and elbow_ok and assign_ok
    verdict(
        8,
        "mini-batch k-means vs Lloyd, elbow on planted blobs, nearest-centroid",
        ok,
        f"inertia ratio {mb.inertia(X) / lloyd.inertia(X):.3f} <= 1.1 {inertia_ok}; "
        f"elbow k={elbow.chosen_k} {elbow_ok}; assignments exact {assign_ok}",
    )


# ---------------------------------------------------------------------------
# 9. Hyperband schedule


def test_criterion_9_hyperband_schedule():
    schedule = make_schedule(81, 3)
    starts = [(b.rounds[0].n_configs, b.rounds[0].epochs) for b in schedule.brackets]
    table_ok = starts == [(81, 1), (34, 3), (15, 9), (8, 27), (5, 81)]

    rng = np.random.default_rng(9)
    budget_ok = True
    for _ in range(50):
        eta = int(rng.integers(2, 6))
        R = int(rng.integers(eta, 220))
        sched = make_schedule(R, eta)
        for bracket in sched.brackets:
            spent = sum(r.n_configs * r.epochs for r in bracket.rounds)
            if spent > sched.budget_bound():
                budget_ok = False
    ok = table_ok and budget_ok
    verdict(
        9,
        "bracket table for R=81, eta=3 and budget bound on 50 random pairs",
        ok,
        f"starts {starts}; budget bound {budget_ok}",
    )


# ---------------------------------------------------------------------------
# 10. Pipeline determinism


def test_criterion_10_pipeline_determinism(tmp_path):
    smoke = str(Path(__file__).resolve().parents[1] / "src/salience_lab/configs/smoke.json")
    commands = (
        ["simulate"],
        ["featurize"],
        ["train", "--model", "td_enet"],
        ["train", "--model", "td_mlp"],
        ["train", "--model", "melchior"],
        ["tune"],
        ["evaluate"],
        ["embed"],
        ["cluster"],
        ["report"],
    )
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        for argv in commands:
            assert main(["--config", smoke, "--out", str(out), *argv]) == 0
        outs.append(out)

    mismatched = []
    files_a = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
    same_listing = files_a == files_b
    for rel in files_a:
        if not filecmp.cmp(outs[0] / rel, outs[1] / rel, shallow=False):
            mismatched.append(str(rel))
    ok = same_listing and not mismatched
    verdict(
        10,
        "full pipeline rerun is byte-identical",
        ok,
        f"{len(files_a)} files compared; mismatches: {mismatched or 'none'}",
    )
