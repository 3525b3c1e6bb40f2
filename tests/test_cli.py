from __future__ import annotations

import csv
import hashlib
import json
import math
import multiprocessing
import os
import re
import shutil
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from helpers import benchmark_checks, deadline
from salience_lab import tuning
from salience_lab.cli import (
    CliError,
    apply_overrides,
    bundled_config,
    load_config,
    main,
    validate_config,
)
from salience_lab.features import FeatureError, build_dataset, load_dataset, target_medians
from salience_lab.neural import NeuralError
from salience_lab.telemetry import (
    CSV_COLUMNS,
    GameSpec,
    PopulationSpec,
    TelemetryError,
    ingest_csv,
    read_latent_csv,
    simulate_population,
)

CONFIGS = Path(__file__).resolve().parents[1] / "src/salience_lab/configs"
SMOKE = str(CONFIGS / "smoke.json")
BENCHMARK = str(CONFIGS / "benchmark.json")


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


#: sha256 of every file that simulate, featurize, train (all three models), evaluate, embed,
#: cluster and report write on smoke.json at seed 0, so that a change to a reader, a writer
#: or a computation that moves any byte fails here.  telemetry and features are plain
#: arithmetic; the files from models/ on also assume the numpy and OpenBLAS build they were
#: taken with (numpy 2.4.6, OpenBLAS 0.3.31 on x86-64; the same at 1 and 2 BLAS threads).
_PINNED_OUTPUTS = {
    "cluster/clusters.csv": "03be80ebc8b8fd46f3e90652ad14de695c03b00c33952b38fff82ac34bc3cdfe",
    "cluster/elbow.json": "9ecc01af048dcd2cb5b2d440a3937cb9eda911e9572081d443d2752a9406bd7d",
    "cluster/profiles.json": "4515d92a2953f0f592a6a4ef0295d7aad4a9e12edc17dafe418a34fd6c1635e7",
    "embed/embedding_2d.csv": "3bd59dd6800dcc49ecc39fa9d5281afe213e3d62549be24962c09c7c076abee4",
    "embed/embeddings.csv": "118864c8029f7525f95dcfa490f1f8154434bfd81c80de5a88c02efd94741d8b",
    "eval/cells.csv": "0bc0fe057efd7b616ab034e9df6947f83c26c57b7efd813665df58195fb17674",
    "eval/losses.csv": "d593d34f7371de298a8cf9ab6e375c5c86dda520701d8be0066935ca6d94302c",
    "eval/report.json": "ef545a3e63f3db2d6bf16a3195b07b9213411d2617f963d54187871f4d94a79a",
    "features/manifest.json": "110ebaa73dc457afcf2d28fc8d6b36c1273f30b16ad1fe011821e0c5129bda2d",
    "features/test.csv": "5f892c0b7451a0f5d0eca24acfa4529f2c582cf73346aa7a905fcb860fce581e",
    "features/train.csv": "02f67cccc18cee7f80db9a1df9dfd9dbc5c9036d94c1c427570e713e96def92f",
    "models/melchior.bin": "734f8543d423c4315eb6db567ab98d906c8e423edfc9aed94b3549ad92380c45",
    "models/melchior.json": "75143ea17f2bf311449da32d4290d07ed77bf4e2f89a0ce97a96e9f8ef25fec0",
    "models/melchior_history.csv": "45a24f4d7df4f33b1e32e0fd48f1c4879edf30b2a1e488dec4834355a8f5d544",
    "models/td_enet.bin": "68652aea5ee58a7e9e747e6708af946300d68bdcaba281e5a8231ecccae12ef0",
    "models/td_enet.json": "9c2cbaecef94c17e20642b92b2e355e415dcc5d10fb702df0e0cc1710e02ff7c",
    "models/td_enet_history.csv": "45aaddbdb8954d2222d14d7aff87b16b4bfe3dde8ae03d4a22355aa6f5b8b167",
    "models/td_mlp.bin": "a60f39bb3a149e5716351d9735ad1132e01d77d72aeca1a6d22bbf26c3f1644a",
    "models/td_mlp.json": "095cc79a5a66dad8559e9ffecc02d09d89924e9a6234dfd85e72781d1da5a63d",
    "models/td_mlp_history.csv": "c0cc339291b2ea7a1520a7111febe605f3346bc78360db8c48a542fb1b122d4e",
    "report/comparison.csv": "1fc86abc16d78ebb5f51dce3e72f624e282b60099044a4706a8b0bb98dd3f41c",
    "report/embedding.svg": "7e50481b631bcafd01e3d9c1bbf3d094757a357f9b313312589191cca2cc6f1f",
    "report/profile_delta_session.svg": "46c9c09b6e8cde77f0862ebd99313b9e60316d44d75899ea09f1bc41755c41c6",
    "report/profile_session_time.svg": "f1c954a7f8e7b2168a488aaf3d305e6dd262d91201d946e86db65da15b80f73b",
    "telemetry.csv": "92c73e18c2f31a7e6518e4d58133dae45f90d442440a3703f170fe516fa5f71b",
    "telemetry.latent.csv": "b6de501d3878f354d55fe5c35cd6515592afb0ce5338bf94b2c79bd00cf881b5",
}
_FEATURIZATION = ("telemetry.csv", "features/train.csv", "features/test.csv",
                  "features/manifest.json")


def _digests(out: Path, names) -> dict[str, str]:
    return {rel: hashlib.sha256((out / rel).read_bytes()).hexdigest() for rel in names}


def test_featurized_split_is_pinned(tmp_path):
    for command in ("simulate", "featurize"):
        assert main(["--config", SMOKE, "--out", str(tmp_path), command]) == 0
    assert _digests(tmp_path, _FEATURIZATION) == {
        rel: _PINNED_OUTPUTS[rel] for rel in _FEATURIZATION}


def test_the_cli_split_is_the_library_split(tmp_path):
    """simulate and featurize through the CLI, with its CSV round trips, build the split
    that the library builds in memory from the same config."""
    config = bundled_config("benchmark")
    sim = config["simulate"]
    traces = simulate_population([GameSpec(**game) for game in sim["games"]],
                                 sim["players_per_game"], sim["calendar_start"],
                                 sim["horizon_days"], seed=0,
                                 population=PopulationSpec(**sim["population"]))
    library = build_dataset(traces, ratio=config["featurize"]["ratio"], seed=0)
    for command in ("simulate", "featurize"):
        assert main(["--config", BENCHMARK, "--seed", "0", "--out", str(tmp_path), command]) == 0
    loaded = load_dataset(tmp_path / "features")
    assert loaded.traces == library.traces
    assert loaded.n_train == library.n_train
    assert loaded.vocabs == library.vocabs
    assert loaded.scaler == library.scaler
    assert loaded.thresholds == library.thresholds
    # the 15,325 training rows labelled churn 0 (completed), 0.5 and 1
    assert np.unique(loaded.train.churn, return_counts=True)[1].tolist() == [2745, 7389, 5191]


def test_every_pipeline_output_is_pinned(tmp_path):
    for argv in (["simulate"], ["featurize"], ["train", "--model", "td_enet"],
                 ["train", "--model", "td_mlp"], ["train", "--model", "melchior"],
                 ["evaluate"], ["embed"], ["cluster"], ["report"]):
        assert main(["--config", SMOKE, "--out", str(tmp_path), *argv]) == 0
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
    assert written == sorted(_PINNED_OUTPUTS)
    assert _digests(tmp_path, written) == _PINNED_OUTPUTS


#: sha256 of what simulate and featurize write on smoke.json at seed 0 with many short
#: traces, shaped like the wide-population benchmark: 200 players per game over 2 days,
#: the completing game completed after 10 sessions.
_MANY_SHORT_TRACES = {
    "telemetry.csv": "fe8487d4e645514bb53834342e39e5869a1d13d809b8a5b64ceab781829f82c7",
    "telemetry.latent.csv": "f23267b22361b5f07685ccefd1640d20561158a8009f36ebdd61655ed4dd884e",
    "features/manifest.json": "30d734eab1dbcbf7e3d948a40641bd0fe79dd2577a70b58ef68d2f45f80999ff",
    "features/test.csv": "dd80292222543c4c3b619757ebc211633e4b0867f32d9bf454cd830c035ef7c1",
    "features/train.csv": "c038dcf8de006dc7dc4c31a411c228bfdb99c57521ccccc77836ae26d0d21734",
}


def test_many_short_traces_are_pinned(tmp_path):
    config = bundled_config("smoke")
    config["simulate"].update(players_per_game=200, horizon_days=2)
    for game in config["simulate"]["games"]:
        if game["completion_sessions"] is not None:
            game["completion_sessions"] = 10
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    for command in ("simulate", "featurize"):
        assert main(["--config", str(path), "--out", str(out), command]) == 0
    assert _digests(out, _MANY_SHORT_TRACES) == _MANY_SHORT_TRACES


#: sha256 of what tune writes on smoke.json at seed 0; its trials train in worker
#: processes pinned to one BLAS thread each.
_PINNED_TUNE = {
    "tune/best_config.json": "0fd056c7b3ef2d4e1a15e81d0a2f6cfc691f24f9c7d0f022aae7235486aa6cdc",
    "tune/trials.csv": "526be0680893667c32740d05671ea9be6ae4dddfe2ccf365e60569335ac4a848",
}


def test_tune_outputs_are_pinned(pipeline_dir, tmp_path):
    out = tmp_path / "run"
    shutil.copytree(pipeline_dir / "features", out / "features")
    assert main(["--config", SMOKE, "--out", str(out), "tune"]) == 0
    assert _digests(out, _PINNED_TUNE) == _PINNED_TUNE


def test_tune_at_an_r_that_is_no_power_of_eta_follows_the_schedule(pipeline_dir, tmp_path):
    out = tmp_path / "run"
    shutil.copytree(pipeline_dir / "features", out / "features")
    assert main(["--config", SMOKE, "--out", str(out), "--set", "tune.R=7", "tune"]) == 0
    benchmark_checks().check_hyperband(out / "tune", 7, 3)


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


def _truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:40])


def _not_utf8(path: Path) -> None:
    path.write_bytes('{"seed": 0, "tag": "café"}'.encode("latin-1"))


def _append_e9(path: Path) -> None:
    path.write_bytes(path.read_bytes() + b"\xe9")


def _cut_inside_a_field(path: Path) -> None:
    """Cut the file one byte short of the first line end past its middle: the row left
    last still parses, and the rows after it are gone."""
    blob = path.read_bytes()
    path.write_bytes(blob[:blob.index(b"\r\n", len(blob) // 2) - 1])


def _cut_at_a_row_boundary(path: Path) -> None:
    """Cut the file just after the first line end past its middle: every row left parses."""
    blob = path.read_bytes()
    path.write_bytes(blob[:blob.index(b"\r\n", len(blob) // 2) + 2])


def _bad_session_index(path: Path) -> None:
    lines = path.read_bytes().split(b"\r\n")
    column = lines[0].split(b",").index(b"session_index")
    fields = lines[2].split(b",")  # line 3
    fields[column] = b"x"
    lines[2] = b",".join(fields)
    path.write_bytes(b"\r\n".join(lines))


def _inserted(byte: bytes):
    """A damage that puts byte after the first field of the file's second line."""
    def damage(path: Path) -> None:
        blob = path.read_bytes()
        at = blob.index(b",", blob.index(b"\n"))
        path.write_bytes(blob[:at] + byte + blob[at:])
    return damage


def _empty(path: Path) -> None:
    path.write_bytes(b"")


def _wrong_header(path: Path) -> None:
    header, rows = path.read_bytes().split(b"\r\n", 1)
    first, second, *others = header.split(b",")
    path.write_bytes(b",".join([second, first, *others]) + b"\r\n" + rows)


def _csv_number_does_not_parse(path: Path) -> None:
    lines = path.read_bytes().split(b"\r\n")
    fields = lines[2].split(b",")  # line 3, whose first numeric field becomes 1.2.3
    column = next(i for i, f in enumerate(fields) if re.fullmatch(rb"-?[0-9][0-9.e+-]*", f))
    fields[column] = b"1.2.3"
    lines[2] = b",".join(fields)
    path.write_bytes(b"\r\n".join(lines))


def _json_number_does_not_parse(path: Path) -> None:
    blob, count = re.subn(rb": -?[0-9][0-9.eE+-]*", b": 1.2.3", path.read_bytes(), count=1)
    assert count == 1
    path.write_bytes(blob)


def _text(text: str):
    def damage(path: Path) -> None:
        path.write_text(text, encoding="utf-8")
    return damage


def _edit(change):
    """A damage that applies change to the JSON value in place and writes it back."""
    def damage(path: Path) -> None:
        value = json.loads(path.read_text(encoding="utf-8"))
        change(value)
        path.write_text(json.dumps(value), encoding="utf-8")
    return damage


def _directory(path: Path) -> None:
    path.unlink()
    path.mkdir()


def _completed_in_line_2(value: bytes | None):
    """A damage that sets the completed field, the last, of the telemetry's line 2 to value,
    or flips it (None), so that it differs from line 3 of the same trace."""
    def damage(path: Path) -> None:
        lines = path.read_bytes().split(b"\r\n")
        fields, following = lines[1].split(b","), lines[2].split(b",")
        assert fields[:2] == following[:2]  # lines 2 and 3 hold one trace
        fields[-1] = {b"0": b"1", b"1": b"0"}[fields[-1]] if value is None else value
        lines[1] = b",".join(fields)
        path.write_bytes(b"\r\n".join(lines))
    return damage


def _replaced(old: bytes, new: bytes):
    """A damage that replaces the first old in the file by new."""
    def damage(path: Path) -> None:
        blob = path.read_bytes()
        assert old in blob
        path.write_bytes(blob.replace(old, new, 1))
    return damage


_CSV_FAULTS = {"cut-inside-a-field": _cut_inside_a_field, "non-utf8-byte": _inserted(b"\xe9"),
               "nul": _inserted(b"\x00"), "empty": _empty,
               "number-does-not-parse": _csv_number_does_not_parse, "wrong-header": _wrong_header}
_JSON_FAULTS = {"truncated": _truncate, "non-utf8-byte": _inserted(b"\xe9"),
                "nul": _inserted(b"\x00"), "empty": _empty,
                "number-does-not-parse": _json_number_does_not_parse}

#: Every file that a command reads, with the command, a name for the file, and the faults of
#: its type that no hand-written case of _FAULT_CASES below already applies to it.
_SWEEP = [
    ("config.json", "simulate", "config", _JSON_FAULTS.keys()),
    ("telemetry.csv", "featurize", "telemetry", _CSV_FAULTS.keys()),
    ("features/train.csv", "train --model td_mlp", "split-train", _CSV_FAULTS.keys()),
    ("features/test.csv", "evaluate", "split",
     _CSV_FAULTS.keys() - {"cut-inside-a-field", "number-does-not-parse"}),
    ("features/manifest.json", "tune", "features-manifest", _JSON_FAULTS.keys() - {"truncated"}),
    ("models/td_mlp.json", "evaluate", "checkpoint", _JSON_FAULTS.keys() - {"truncated"}),
    ("models/melchior.json", "cluster", "melchior-checkpoint", _JSON_FAULTS.keys()),
    ("eval/losses.csv", "report", "losses", _CSV_FAULTS.keys()),
    ("embed/embedding_2d.csv", "report", "embedding", _CSV_FAULTS.keys()),
    ("cluster/profiles.json", "report", "cluster-profiles", _JSON_FAULTS.keys() - {"truncated"}),
]

_FAULT_CASES = [
    pytest.param("models/td_mlp.json", "evaluate", _truncate, id="checkpoint"),
    pytest.param("features/manifest.json", "evaluate", _truncate, id="features-manifest"),
    pytest.param("cluster/profiles.json", "report", _truncate, id="cluster-profiles"),
    pytest.param("config.json", "simulate", _directory, id="config-directory"),
    pytest.param("config.json", "simulate", _not_utf8, id="config-not-utf8"),
    pytest.param("telemetry.csv", "featurize", _append_e9, id="telemetry-not-utf8"),
    pytest.param("telemetry.csv", "featurize", _completed_in_line_2(b"2"),
                 id="telemetry-completed-2"),
    pytest.param("telemetry.csv", "featurize", _completed_in_line_2(None),
                 id="telemetry-completed-changes-within-a-trace"),
    pytest.param("telemetry.csv", "featurize", _replaced(b"completed", b"completd"),
                 id="telemetry-completed-misspelled-in-the-header"),
    pytest.param("features/test.csv", "evaluate", _bad_session_index,
                 id="split-session-index-not-an-int"),
    pytest.param("features/test.csv", "evaluate", _cut_inside_a_field,
                 id="split-cut-inside-a-field"),
    pytest.param("features/test.csv", "evaluate", _cut_at_a_row_boundary,
                 id="split-cut-at-a-row-boundary"),
    pytest.param("features/train.csv", "tune", _cut_at_a_row_boundary,
                 id="split-train-cut-at-a-row-boundary"),
    # JSON that parses but does not hold the layout its reader expects
    pytest.param("config.json", "simulate", _text("[]"), id="config-not-an-object"),
    pytest.param("features/manifest.json", "evaluate", _text("{}"),
                 id="features-manifest-empty-object"),
    pytest.param("features/manifest.json", "evaluate", _text("[]"),
                 id="features-manifest-not-an-object"),
    pytest.param("features/manifest.json", "evaluate",
                 _edit(lambda m: m["scaler"][0].update(min="abc")),
                 id="features-manifest-scaler-min-not-a-number"),
    pytest.param("features/manifest.json", "evaluate",
                 _edit(lambda m: m.update(thresholds=list(m["thresholds"].values()))),
                 id="features-manifest-thresholds-a-list"),
    pytest.param("features/manifest.json", "embed", _edit(lambda m: m.pop("rows")),
                 id="features-manifest-lacks-rows"),
    pytest.param("models/td_mlp.json", "evaluate", _text('{"format_version": 1}'),
                 id="checkpoint-lacks-arrays"),
    pytest.param("models/td_mlp.json", "evaluate", _text("[1]"), id="checkpoint-not-an-object"),
    pytest.param("models/td_mlp.json", "evaluate", _edit(lambda m: m["meta"].pop("arch")),
                 id="checkpoint-meta-lacks-arch"),
    pytest.param("models/td_mlp.json", "evaluate",
                 _edit(lambda m: m["arrays"][0].update(shape="x")), id="checkpoint-shape-not-a-list"),
    pytest.param("models/td_mlp.json", "evaluate", _edit(lambda m: m.update(format_version=99)),
                 id="checkpoint-version-99"),
    pytest.param("models/td_mlp.json", "evaluate", _edit(lambda m: m["meta"]["arch"].update(d_z=0)),
                 id="checkpoint-arch-d-z-0"),
    pytest.param("models/td_enet.json", "evaluate", _edit(lambda m: m["meta"].pop("enet")),
                 id="td-enet-checkpoint-meta-lacks-enet"),
    pytest.param("models/melchior.json", "embed", _edit(lambda m: m.pop("meta")),
                 id="melchior-checkpoint-lacks-meta"),
    pytest.param("models/melchior.json", "embed",
                 _edit(lambda m: m["meta"]["arch"].update(width=8)),
                 id="melchior-checkpoint-arch-holds-a-wrong-field"),
    pytest.param("models/td_mlp.bin", "evaluate", Path.unlink, id="checkpoint-bin-missing"),
    pytest.param("models/melchior.bin", "embed", Path.unlink, id="melchior-bin-missing"),
    pytest.param("models/td_enet.bin", "evaluate", _truncate, id="td-enet-bin-truncated"),
    pytest.param("models/td_enet.bin", "evaluate", _empty, id="td-enet-bin-empty"),
    pytest.param("cluster/profiles.json", "report", _text('{"0": {"count": 3}}'),
                 id="cluster-profiles-lacks-curves"),
    pytest.param("cluster/profiles.json", "report", _text("[]"),
                 id="cluster-profiles-not-an-object"),
] + [pytest.param(rel, command, (_JSON_FAULTS if rel.endswith(".json") else _CSV_FAULTS)[fault],
                  id=f"{name}-{fault}")
     for rel, command, name, faults in _SWEEP for fault in sorted(faults)]


@pytest.mark.parametrize("rel, command, damage", _FAULT_CASES)
def test_a_file_that_does_not_parse_exits_2_naming_it(pipeline_dir, tmp_path, capsys,
                                                      rel, command, damage):
    out = tmp_path / "run"
    shutil.copytree(pipeline_dir, out)
    path = out / rel
    if rel == "config.json":
        shutil.copy(SMOKE, path)
    damage(path)
    config = str(path) if rel == "config.json" else SMOKE
    assert main(["--config", config, "--out", str(out), *command.split()]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("inside", [False, True], ids=["a-file", "under-a-file"])
def test_an_out_that_is_no_directory_exits_2_naming_it(tmp_path, capsys, inside):
    out = tmp_path / "afile"
    out.write_text("not a directory\n", encoding="utf-8")
    if inside:
        out = out / "x"
    assert main(["--config", SMOKE, "--out", str(out), "simulate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


def test_every_json_file_keeps_the_convention(pipeline_dir):
    written = sorted(str(p.relative_to(pipeline_dir)) for p in pipeline_dir.rglob("*.json"))
    assert written == ["cluster/elbow.json", "cluster/profiles.json", "eval/report.json",
                       "features/manifest.json", "models/melchior.json", "models/td_enet.json",
                       "models/td_mlp.json"]
    for rel in written:
        text = (pipeline_dir / rel).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", rel


@pytest.mark.parametrize("rel, text, message", [
    ("eval/losses.csv", "model,target\r\ntd_mlp,ch\r\n", "header must be model,target,loss"),
    ("embed/embedding_2d.csv", "user_id,x,y,game,ch,median_st,median_ss,median_ab\r\n"
                               "u1,0.5,1.0x,alpha,0.0,1.0,2.0,3.0\r\n", "line 2: malformed row"),
    ("eval/losses.csv", "model,target,loss\r\ntd_mlp,st,0.4432557081",
     "the last line has no line end"),
    ("embed/embedding_2d.csv", "user_id,x,y,game,ch,median_st,median_ss,median_ab\r\n"
                               "u1,0.5,1.0,alpha,0.0,1.0,2.0,3.", "the last line has no line end"),
], ids=["losses-lacks-a-column", "embedding-float-does-not-parse", "losses-cut-inside-a-field",
        "embedding-cut-inside-a-field"])
def test_report_on_a_malformed_csv_exits_2_naming_it(pipeline_dir, tmp_path, capsys,
                                                     rel, text, message):
    out = tmp_path / "run"
    shutil.copytree(pipeline_dir, out)
    (out / rel).write_bytes(text.encode("utf-8"))
    assert main(["--config", SMOKE, "--out", str(out), "report"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {out / rel}: {message}")


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


@pytest.mark.parametrize("rel, read, error", [
    ("telemetry.csv", ingest_csv, TelemetryError),
    ("telemetry.latent.csv", read_latent_csv, TelemetryError),
    ("features/test.csv", lambda path: load_dataset(path.parent), FeatureError),
], ids=["telemetry", "latent", "split"])
def test_a_csv_cut_inside_a_field_is_rejected_naming_it(pipeline_dir, tmp_path, rel, read,
                                                        error):
    out = tmp_path / "run"
    shutil.copytree(pipeline_dir, out)
    path = out / rel
    _cut_inside_a_field(path)
    with pytest.raises(error, match=f"^{re.escape(str(path))}: the last line has no line end"):
        read(path)


def test_report_svgs_stay_well_formed_for_a_game_id_with_markup(tmp_path):
    config = bundled_config("smoke")
    config["simulate"]["games"][0]["game_id"] = "A&B <1>"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "run"
    for argv in (["simulate"], ["featurize"], ["train", "--model", "td_enet"],
                 ["train", "--model", "td_mlp"], ["train", "--model", "melchior"],
                 ["evaluate"], ["embed"], ["cluster"], ["report"]):
        assert main(["--config", str(path), "--out", str(out), *argv]) == 0
    for svg_path in (out / "report").glob("*.svg"):
        ElementTree.parse(svg_path)
    embedding = ElementTree.parse(out / "report" / "embedding.svg")
    assert "A&B <1>" in [node.text for node in embedding.iter() if node.tag.endswith("text")]


def test_embedding_2d_medians_are_the_target_medians(pipeline_dir):
    split = load_dataset(pipeline_dir / "features")
    with (pipeline_dir / "embed" / "embedding_2d.csv").open(newline="") as fh:
        rows = {r["user_id"]: r for r in csv.DictReader(fh)}
    assert sorted(rows) == sorted(t.user_id for t in split.test)
    for trace, medians in zip(split.test, target_medians(split.test, split.scaler).tolist()):
        row = rows[trace.user_id]
        written = [row["ch"], row["median_st"], row["median_ss"], row["median_ab"]]
        assert [float(v) for v in written] == [0.0 if math.isnan(m) else m for m in medians]


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
#: key, a per-game key, a top-level key, the deleted tune.model, tune.batch_size,
#: analysis.batch_size and analysis.iterations, and the seed and clip_norm that the CLI
#: keeps to itself.
UNREAD_FIELDS = {
    "models.melchior.epoch": ("models", "melchior", "epoch"),
    "models.arch.hiden_width": ("models", "arch", "hiden_width"),
    "analysis.k_rnage": ("analysis", "k_rnage"),
    "tune.RR": ("tune", "RR"),
    "tune.space.widht": ("tune", "space", "widht"),
    "simulate.games[0].colour": ("simulate", "games", 0, "colour"),
    "tag": ("tag",),
    "tune.model": ("tune", "model"),
    "tune.batch_size": ("tune", "batch_size"),
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


#: Values of the wrong type inside list-valued and optional fields, each with its place
#: in the smoke config; the last has the wrong length.
MISTYPED_FIELDS = {
    "tune.space.lr": (("tune", "space", "lr"), ["a", 0.01]),
    "simulate.population.salience_range": (("simulate", "population", "salience_range"),
                                           ["x", 0.9]),
    "models.melchior.loss_weights": (("models", "melchior", "loss_weights"), [1, "b", 0, 0]),
    "featurize.observation_end": (("featurize", "observation_end"), "abc"),
    "simulate.games[0].completion_sessions": (("simulate", "games", 0, "completion_sessions"),
                                              "x"),
    "analysis.k_range": (("analysis", "k_range"), [2, 3, 4]),
}


@pytest.mark.parametrize("field", MISTYPED_FIELDS)
def test_mistyped_config_value_fails_naming_it(tmp_path, capsys, field):
    config = bundled_config("smoke")
    (*parents, key), value = MISTYPED_FIELDS[field]
    node = config
    for part in parents:
        node = node[part]
    node[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["--config", str(path), "--out", str(tmp_path), "simulate"]) == 2
    assert f"'{field}" in capsys.readouterr().err
    assert not (tmp_path / "telemetry.csv").exists()


@pytest.mark.parametrize("override", ["simulate.horizon_days=Infinity",
                                      "models.melchior.lr=NaN",
                                      "models.melchior.lr=-Infinity"])
def test_non_finite_config_number_fails_naming_it(tmp_path, capsys, override):
    argv = ["--config", SMOKE, "--out", str(tmp_path), "--set", override, "simulate"]
    assert main(argv) == 2
    key = override.split("=")[0]
    assert f"config field '{key}' must be a finite" in capsys.readouterr().err
    assert not (tmp_path / "telemetry.csv").exists()


@pytest.mark.parametrize("field, place", [
    ("simulate.games[1].game_id", ("simulate", "games", 1, "game_id")),
    ("simulate.population.regions[1]", ("simulate", "population", "regions", 1)),
])
def test_nul_in_a_config_string_fails_naming_it(tmp_path, capsys, field, place):
    config = bundled_config("smoke")
    *parents, key = place
    node = config
    for part in parents:
        node = node[part]
    node[key] += "\x00"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["--config", str(path), "--out", str(tmp_path), "simulate"]) == 2
    assert f"config field '{field}' must not hold NUL" in capsys.readouterr().err
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
