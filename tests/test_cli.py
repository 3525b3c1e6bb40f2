from __future__ import annotations

import csv
import json
import multiprocessing
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from helpers import deadline
from salience_lab import tuning
from salience_lab.cli import (
    CliError,
    apply_overrides,
    bundled_config,
    load_config,
    main,
    validate_config,
)
from salience_lab.features import load_dataset, target_medians
from salience_lab.neural import NeuralError
from salience_lab.telemetry import CSV_COLUMNS

SMOKE = str(Path(__file__).resolve().parents[1] / "src/salience_lab/configs/smoke.json")


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    for argv in (
        ["simulate"],
        ["featurize"],
        ["train", "--model", "td_enet"],
        ["train", "--model", "td_mlp"],
        ["train", "--model", "melchior"],
        ["evaluate"],
        ["embed"],
        ["cluster"],
        ["report"],
    ):
        assert main(["--config", SMOKE, "--out", str(out), *argv]) == 0
    return out


def test_pipeline_products_exist(pipeline_dir):
    for rel in (
        "telemetry.csv",
        "telemetry.latent.csv",
        "features/manifest.json",
        "features/train.csv",
        "features/test.csv",
        "models/melchior.json",
        "models/melchior.bin",
        "eval/losses.csv",
        "eval/report.json",
        "embed/embedding_2d.csv",
        "cluster/clusters.csv",
        "cluster/profiles.json",
        "cluster/elbow.json",
        "report/comparison.csv",
        "report/embedding.svg",
        "report/profile_session_time.svg",
    ):
        assert (pipeline_dir / rel).exists(), rel


def test_evaluate_emits_twelve_rows(pipeline_dir):
    with (pipeline_dir / "eval" / "losses.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12  # 3 models x 4 targets
    assert {r["model"] for r in rows} == {"td_enet", "td_mlp", "melchior"}
    assert {r["target"] for r in rows} == {"ch", "st", "ss", "ab"}
    for r in rows:
        assert 0.0 <= float(r["loss"]) <= 1.0


def test_train_td_enet_reports_each_targets_iterations(pipeline_dir, capsys):
    argv = ["--config", SMOKE, "--out", str(pipeline_dir), "train", "--model", "td_enet"]
    assert main(argv) == 0
    pattern = re.compile(
        r"train: td_enet (\w+): (\d+) iterations, (met tol|stopped at max_iter=300)")
    lines = capsys.readouterr().out.splitlines()
    reports = [m.groups() for m in map(pattern.fullmatch, lines) if m]
    assert [target for target, _, _ in reports] == ["ch", "st", "ss", "ab"]
    for _, iterations, ending in reports:
        assert 1 <= int(iterations) <= 300
        assert ending == "met tol" or int(iterations) == 300


def test_rerun_is_idempotent(pipeline_dir):
    before = (pipeline_dir / "eval" / "losses.csv").read_bytes()
    assert main(["--config", SMOKE, "--out", str(pipeline_dir), "evaluate"]) == 0
    assert (pipeline_dir / "eval" / "losses.csv").read_bytes() == before


def test_unsupported_checkpoint_version_exits_2_with_an_error(pipeline_dir, tmp_path, capsys):
    out = tmp_path / "run"
    shutil.copytree(pipeline_dir, out)
    path = out / "models" / "td_mlp.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["format_version"] = 99
    path.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["--config", SMOKE, "--out", str(out), "evaluate"]) == 2
    assert "error: unsupported checkpoint version 99" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [-8, 64], ids=["short", "long"])
def test_checkpoint_bin_of_the_wrong_length_exits_2_with_an_error(pipeline_dir, tmp_path,
                                                                  capsys, extra):
    out = tmp_path / "run"
    shutil.copytree(pipeline_dir, out)
    path = out / "models" / "td_mlp.bin"
    blob = path.read_bytes()
    path.write_bytes(blob[:extra] if extra < 0 else blob + bytes(extra))
    assert main(["--config", SMOKE, "--out", str(out), "evaluate"]) == 2
    err = capsys.readouterr().err
    assert f"error: checkpoint {path} holds {len(blob) + extra} bytes" in err
    assert f"td_mlp.json describes {len(blob)}" in err


def _raises_in_worker(config, epochs, trial_seed, fit, val):
    raise NeuralError(f"no layer for trial seed {trial_seed}")


def _dies_in_worker(config, epochs, trial_seed, fit, val):
    os._exit(3)


@pytest.mark.parametrize("objective, message", [
    (_raises_in_worker, "error: no layer for trial seed "),
    (_dies_in_worker, "error: a tuning worker died (exit code 3) while running trial "),
], ids=["raises", "dies"])
def test_tune_trial_failure_exits_2_with_an_error(pipeline_dir, tmp_path, monkeypatch,
                                                  capsys, objective, message):
    out = tmp_path / "run"
    shutil.copytree(pipeline_dir, out)
    monkeypatch.setattr(tuning, "default_objective", lambda split, batch_size: objective)
    with deadline(60):
        assert main(["--config", SMOKE, "--out", str(out), "tune"]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not (out / "tune").exists()
    assert multiprocessing.active_children() == []


def test_embedding_2d_medians_are_the_target_medians(pipeline_dir):
    split = load_dataset(pipeline_dir / "features")
    with (pipeline_dir / "embed" / "embedding_2d.csv").open(newline="") as fh:
        rows = {r["user_id"]: r for r in csv.DictReader(fh)}
    assert sorted(rows) == sorted(t.user_id for t in split.test)
    for trace in split.test:
        medians = target_medians(trace, split.scaler)
        row = rows[trace.user_id]
        written = [row["ch"], row["median_st"], row["median_ss"], row["median_ab"]]
        assert [float(v) for v in written] == [
            0.0 if m is None else m for m in medians.values()]


def test_cluster_covers_scope_users(pipeline_dir):
    with (pipeline_dir / "cluster" / "clusters.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    with (pipeline_dir / "features" / "test.csv").open(newline="") as fh:
        test_users = {r["user_id"] for r in csv.DictReader(fh)}
    assert {r["user_id"] for r in rows} == test_users


def test_missing_config_exits_nonzero(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.json"), "--out", str(tmp_path),
                 "simulate"]) == 2
    assert "not found" in capsys.readouterr().err


def test_out_of_order_commands_fail_with_hint(tmp_path, capsys):
    assert main(["--config", SMOKE, "--out", str(tmp_path), "featurize"]) == 2
    err = capsys.readouterr().err
    assert "telemetry.csv" in err and "simulate" in err


def test_invalid_model_kind(tmp_path):
    with pytest.raises(SystemExit):
        main(["--config", SMOKE, "--out", str(tmp_path), "train", "--model", "oracle"])


def test_set_overrides_parse_json():
    config = {"simulate": {"horizon_days": 4}, "seed": 0}
    apply_overrides(config, ["simulate.horizon_days=9", "seed=3", "tag=fast"])
    assert config["simulate"]["horizon_days"] == 9
    assert config["seed"] == 3
    assert config["tag"] == "fast"


def test_validate_config_names_missing_field():
    with pytest.raises(CliError, match="simulate.calendar_start"):
        validate_config({"seed": 1, "simulate": {}})


#: Fields no command reads, each with its place in the smoke config: typos, a search-space
#: key, a per-game key, a top-level key, the deleted tune.model, analysis.batch_size and
#: analysis.iterations, and the seed and clip_norm that the CLI keeps to itself.
UNREAD_FIELDS = {
    "models.melchior.epoch": ("models", "melchior", "epoch"),
    "models.arch.hiden_width": ("models", "arch", "hiden_width"),
    "analysis.k_rnage": ("analysis", "k_rnage"),
    "tune.RR": ("tune", "RR"),
    "tune.space.widht": ("tune", "space", "widht"),
    "simulate.games[0].colour": ("simulate", "games", 0, "colour"),
    "tag": ("tag",),
    "tune.model": ("tune", "model"),
    "analysis.batch_size": ("analysis", "batch_size"),
    "analysis.iterations": ("analysis", "iterations"),
    "models.melchior.seed": ("models", "melchior", "seed"),
    "models.melchior.clip_norm": ("models", "melchior", "clip_norm"),
}


@pytest.mark.parametrize("field", UNREAD_FIELDS)
def test_unread_config_field_fails_naming_it(tmp_path, capsys, field):
    config = bundled_config("smoke")
    *parents, key = UNREAD_FIELDS[field]
    node = config
    for part in parents:
        node = node[part]
    node[key] = 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["--config", str(path), "--out", str(tmp_path), "simulate"]) == 2
    assert f"'{field}'" in capsys.readouterr().err
    assert not (tmp_path / "telemetry.csv").exists()


def test_unknown_analysis_scope_fails(tmp_path, capsys):
    argv = ["--config", SMOKE, "--out", str(tmp_path), "--set", "analysis.scope=tset", "simulate"]
    assert main(argv) == 2
    assert "analysis.scope" in capsys.readouterr().err


def test_clusters_csv_is_the_elbow_partition(pipeline_dir):
    elbow = json.loads((pipeline_dir / "cluster" / "elbow.json").read_text(encoding="utf-8"))
    with (pipeline_dir / "embed" / "embeddings.csv").open(newline="") as fh:
        z = {r.pop("user_id"): [float(v) for v in r.values()] for r in csv.DictReader(fh)}
    with (pipeline_dir / "cluster" / "clusters.csv").open(newline="") as fh:
        label = {r["user_id"]: int(r["cluster"]) for r in csv.DictReader(fh)}
    X = np.array([z[u] for u in label])
    labels = np.array(list(label.values()))
    inertia = sum(float(((X[labels == c] - X[labels == c].mean(axis=0)) ** 2).sum())
                  for c in np.unique(labels))
    expected = elbow["inertia"][elbow["k"].index(elbow["chosen_k"])]
    assert abs(inertia - expected) <= 1e-9 * expected


def test_bundled_configs_validate():
    for name in ("default", "benchmark", "smoke"):
        validate_config(bundled_config(name))


def test_seed_flag_overrides(tmp_path):
    config = load_config(SMOKE, [], seed=42)
    assert config["seed"] == 42


def test_user_in_two_games_stays_two_traces(tmp_path, capsys):
    # u1 plays alpha (3 sessions) and beta (4 sessions); nine others play one game each.
    sessions = {("u1", "alpha"): 3, ("u1", "beta"): 4}
    for i in range(9):
        sessions[(f"u{i + 2}", "alpha" if i % 2 else "beta")] = 2 + i % 3
    rows = []
    for (user, game), count in sessions.items():
        start = 1_000 if game == "alpha" else 9_000
        for k in range(count):
            rows.append([user, game, start + 300 * k, "30.0", "20.0", "0.0", 6, 2, "eu"])
    with (tmp_path / "telemetry.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)

    assert main(["--config", SMOKE, "--out", str(tmp_path), "featurize"]) == 0
    split = load_dataset(tmp_path / "features")
    u1 = sorted(((t.game_id, t.length) for t in split.train + split.test if t.user_id == "u1"))
    assert u1 == [("alpha", 3), ("beta", 4)]

    base = ["--config", SMOKE, "--out", str(tmp_path), "--set", "analysis.scope=all"]
    assert main([*base, "--set", "models.melchior.epochs=1", "train", "--model", "melchior"]) == 0
    capsys.readouterr()
    assert main([*base, "embed"]) == 2
    assert "user u1 has more than one trace" in capsys.readouterr().err
