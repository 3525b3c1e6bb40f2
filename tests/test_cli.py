from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from salience_lab.cli import (
    CliError,
    apply_overrides,
    bundled_config,
    load_config,
    main,
    validate_config,
)
from salience_lab.features import load_dataset
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


def test_rerun_is_idempotent(pipeline_dir):
    before = (pipeline_dir / "eval" / "losses.csv").read_bytes()
    assert main(["--config", SMOKE, "--out", str(pipeline_dir), "evaluate"]) == 0
    assert (pipeline_dir / "eval" / "losses.csv").read_bytes() == before


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
