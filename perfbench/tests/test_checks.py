"""Each benchmark check accepts the program's real output and rejects a wrong one.

Run from the checkout root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import csv
import json
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

import checks
from salience_lab import cli
from tracer import Tracer

SMOKE = Path(cli.__file__).parent / "configs" / "smoke.json"
# A converged elastic net, so that the KKT check has something exact to accept,
# and every user embedded, so that clustering has enough points to tell apart.
OVERRIDES = ["models.td_enet.max_iter=20000", "analysis.scope=all"]
COMMANDS = (["simulate"], ["featurize"], ["train", "--model", "td_enet"],
            ["train", "--model", "td_mlp"], ["train", "--model", "melchior"], ["evaluate"],
            ["embed"], ["cluster"], ["tune"])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    base = ["--config", str(SMOKE), "--out", str(out)]
    for item in OVERRIDES:
        base += ["--set", item]
    for command in COMMANDS:
        assert cli.main(base + command) == 0
    return out, cli.load_config(str(SMOKE), OVERRIDES, None)


@pytest.fixture
def run(smoke, tmp_path):
    """A private copy of the smoke run that a test may damage."""
    out, config = smoke
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    return copy, config


def edit_csv(path: Path, edit) -> None:
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header, rows = reader.fieldnames, list(reader)
    edit(rows)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, header)
        writer.writeheader()
        writer.writerows(rows)


def telemetry_rows(out: Path) -> int:
    return len((out / "telemetry.csv").read_text(encoding="utf-8").splitlines()) - 1


# ---------------------------------------------------------------------------
# telemetry and features


def test_telemetry_accepts_simulated_sessions(run):
    out, config = run
    lengths = checks.check_telemetry(out / "telemetry.csv", config)
    assert sum(lengths.values()) == telemetry_rows(out)


@pytest.mark.parametrize("field,value", [("play_time", "1e9"), ("activity_diversity", "999")])
def test_telemetry_rejects_broken_session(run, field, value):
    out, config = run
    edit_csv(out / "telemetry.csv", lambda rows: rows[3].update({field: value}))
    with pytest.raises(checks.CheckFailed):
        checks.check_telemetry(out / "telemetry.csv", config)


def test_telemetry_rejects_reordered_starts(run):
    out, config = run

    def swap(rows):
        i = next(i for i in range(len(rows) - 1) if rows[i]["user_id"] == rows[i + 1]["user_id"])
        rows[i]["start_utc"], rows[i + 1]["start_utc"] = (rows[i + 1]["start_utc"],
                                                          rows[i]["start_utc"])

    edit_csv(out / "telemetry.csv", swap)
    with pytest.raises(checks.CheckFailed, match="strictly increasing"):
        checks.check_telemetry(out / "telemetry.csv", config)


def test_telemetry_rejects_wrong_trace_count(run):
    out, config = run
    config["simulate"]["players_per_game"] += 1
    with pytest.raises(checks.CheckFailed, match="traces"):
        checks.check_telemetry(out / "telemetry.csv", config)


def test_features_accept_featurized_telemetry(run):
    out, _ = run
    checks.check_features(checks.load_features(out / "features"), telemetry_rows(out))


def test_features_reject_lost_rows(run):
    out, _ = run
    with pytest.raises(checks.CheckFailed, match="rows"):
        checks.check_features(checks.load_features(out / "features"), telemetry_rows(out) + 1)


@pytest.mark.parametrize("target", ["st", "ss"])
def test_features_reject_remaining_quantity_that_rises_or_ends_above_zero(run, target):
    out, _ = run
    feats = checks.load_features(out / "features")
    idx = next(i for i in checks.trace_rows(feats["train"]).values() if len(i) >= 2)
    feats["train"][target][idx[-1]] = 0.5
    with pytest.raises(checks.CheckFailed, match=target):
        checks.check_features(feats, telemetry_rows(out))


def test_completion_labels_are_counted_per_trace():
    feats = {part: {"user_id": np.array(["a", "a", "b"]), "game_id": np.array(["g", "g", "g"]),
                    "session_index": np.array([1.0, 2.0, 1.0]),
                    "ch": np.array([0.0, 0.0, 0.5])} for part in ("train", "test")}
    lengths = {("a", "g"): 2, ("b", "g"): 1}
    config = {"simulate": {"games": [{"game_id": "g", "completion_sessions": 2}]}}
    assert checks.completed_traces(lengths, config) == {("a", "g")}
    assert checks.mislabelled_completions(feats, {("a", "g")}) == 0
    feats["test"]["ch"][:2] = 0.5
    assert checks.mislabelled_completions(feats, {("a", "g")}) == 1


# ---------------------------------------------------------------------------
# estimators


def enet_args(out: Path, config: dict):
    section = config["models"]["td_enet"]
    return (checks.load_features(out / "features"), out / "models" / "td_enet.json",
            section["lam"], section["l1_ratio"])


def test_enet_kkt_accepts_converged_fit(run):
    out, config = run
    assert checks.check_enet_kkt(*enet_args(out, config)) <= checks.KKT_TOLERANCE


@pytest.mark.parametrize("name,index", [("enet.st", 0), ("enet.ch", 2), ("enet.ab", -1)])
def test_enet_kkt_rejects_perturbed_weight(run, name, index):
    out, config = run
    path = out / "models" / "td_enet.json"
    arrays, _ = checks.read_checkpoint(path)
    arrays[name][index] += 0.05
    manifest = json.loads(path.read_text(encoding="utf-8"))
    blob = np.concatenate([arrays[e["name"]].ravel() for e in manifest["arrays"]])
    blob.astype("<f8").tofile(path.with_suffix(".bin"))
    with pytest.raises(checks.CheckFailed, match=name):
        checks.check_enet_kkt(*enet_args(out, config))


def test_constant_predictor_losses_match_hand_computation():
    train = {"ch": np.array([0.5, 1.0, 1.0, 0.5]), "st": np.array([1.0, 2.0, 4.0, 0.0]),
             "ss": np.array([0.2, 0.0, 0.4, 0.0]), "ab": np.array([3.0, 9.0, 1.0, 0.0]),
             "ab_mask": np.array([1.0, 0.0, 1.0, 0.0])}
    test = {"ch": np.array([1.0]), "st": np.array([1.0]), "ss": np.array([0.1]),
            "ab": np.array([2.0]), "ab_mask": np.array([1.0])}
    got = checks.constant_losses({"train": train, "test": test})
    assert got["ch"] == pytest.approx(-np.log(0.75))
    assert got["st"] == pytest.approx(0.5 / 2.5)  # median 1.5 against 1.0
    assert got["ss"] == pytest.approx(0.0)  # median 0.1 against 0.1
    assert got["ab"] == pytest.approx(0.0)  # observed median 2.0 against 2.0


@pytest.mark.parametrize("delta,fails", [(-1e-3, False), (0.0, True), (1e-3, True)])
def test_beats_constant_needs_a_strictly_lower_loss(run, delta, fails):
    out, _ = run
    feats = checks.load_features(out / "features")
    baseline = checks.constant_losses(feats)
    path = out / "eval" / "losses.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "target", "loss"])
        for target, loss in baseline.items():
            writer.writerow(["melchior", target, repr(loss + (delta if target == "ss" else -1e-3))])
    if fails:
        with pytest.raises(checks.CheckFailed, match="melchior ss"):
            checks.check_beats_constant(feats, path, ["melchior"])
    else:
        checks.check_beats_constant(feats, path, ["melchior"])


def test_cells_accept_evaluation(run):
    checks.check_cells(run[0] / "eval")


def test_cells_reject_perturbed_cell(run):
    out, _ = run
    edit_csv(out / "eval" / "cells.csv",
             lambda rows: rows[0].update({"loss": repr(float(rows[0]["loss"]) * 1.01 + 1e-6)}))
    with pytest.raises(checks.CheckFailed, match="weighted mean"):
        checks.check_cells(out / "eval")


# ---------------------------------------------------------------------------
# embedding analysis


def test_pca_accepts_projection(run):
    checks.check_pca(run[0] / "embed")


def test_pca_rejects_swapped_axes(run):
    out, _ = run

    def swap(rows):
        for row in rows:
            row["x"], row["y"] = row["y"], row["x"]

    edit_csv(out / "embed" / "embedding_2d.csv", swap)
    with pytest.raises(checks.CheckFailed, match="variance of x"):
        checks.check_pca(out / "embed")


def test_clusters_accept_partition(run):
    out, _ = run
    ratio = checks.check_clusters(out / "embed", out / "cluster")
    assert 0.0 < ratio <= checks.CLUSTER_INERTIA_FACTOR


def test_clusters_reject_rising_elbow(run):
    out, _ = run
    path = out / "cluster" / "elbow.json"
    elbow = json.loads(path.read_text(encoding="utf-8"))
    elbow["inertia"][-1] = elbow["inertia"][0] * 2.0
    path.write_text(json.dumps(elbow), encoding="utf-8")
    with pytest.raises(checks.CheckFailed, match="inertia rises"):
        checks.check_clusters(out / "embed", out / "cluster")


def test_clusters_reject_scrambled_partition(run):
    out, _ = run
    k = json.loads((out / "cluster" / "elbow.json").read_text(encoding="utf-8"))["chosen_k"]
    edit_csv(out / "cluster" / "clusters.csv",
             lambda rows: [row.update({"cluster": str(i % k)}) for i, row in enumerate(rows)])
    with pytest.raises(checks.CheckFailed, match="partition inertia"):
        checks.check_clusters(out / "embed", out / "cluster")


# ---------------------------------------------------------------------------
# Hyperband


def test_bracket_table_matches_the_hyperband_paper():
    # Li et al. (JMLR 2018), R = 27 and eta = 3: (configs, epochs) per round.
    assert checks.bracket_table(27, 3) == [
        (3, [(27, 1), (9, 3), (3, 9), (1, 27)]),
        (2, [(12, 3), (4, 9), (1, 27)]),
        (1, [(6, 9), (2, 27)]),
        (0, [(4, 27)]),
    ]


def tune_args(out: Path, config: dict):
    return out / "tune", config["tune"]["R"], config["tune"]["eta"]


def test_hyperband_accepts_search(run):
    checks.check_hyperband(*tune_args(*run))


def test_hyperband_rejects_demoted_winner(run):
    out, config = run
    path = out / "tune" / "best_config.json"
    best = json.loads(path.read_text(encoding="utf-8"))
    with (out / "tune" / "trials.csv").open(newline="", encoding="utf-8") as fh:
        finals = [r for r in csv.DictReader(fh) if r["round"] == r["bracket"]]
    loser = max(finals, key=lambda r: float(r["val_loss"]))
    best.update(best_config=json.loads(loser["config_json"]), val_loss=float(loser["val_loss"]))
    path.write_text(json.dumps(best), encoding="utf-8")
    with pytest.raises(checks.CheckFailed, match="best_config"):
        checks.check_hyperband(*tune_args(out, config))


def test_hyperband_rejects_wrong_promotion(run):
    out, config = run

    def sink_promoted_trial(rows):
        promoted = next(r["trial"] for r in rows if r["round"] == "1")
        first = next(r for r in rows if r["round"] == "0" and r["trial"] == promoted)
        first["val_loss"] = "1e9"  # now the worst of its round, yet it went on

    edit_csv(out / "tune" / "trials.csv", sink_promoted_trial)
    with pytest.raises(checks.CheckFailed, match="the top of round 0"):
        checks.check_hyperband(*tune_args(out, config))


def test_hyperband_rejects_schedule_of_another_budget(run):
    out, config = run
    with pytest.raises(checks.CheckFailed, match="expected"):
        checks.check_hyperband(out / "tune", 9, config["tune"]["eta"])


# ---------------------------------------------------------------------------
# tracing


def test_tracer_reports_self_time_of_nested_spans():
    tracer = Tracer()
    inner = tracer.timed("inner", lambda: time.sleep(0.05), calls="inner_calls")
    outer = tracer.timed("outer", lambda: (inner(), inner()))
    outer()
    assert tracer.self_s["inner"] >= 0.1
    assert tracer.self_s["outer"] < 0.05
    assert tracer.counts["inner_calls"] == 2
