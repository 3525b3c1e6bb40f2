"""End-to-end pipeline orchestration.

Every command reads a JSON run configuration, is idempotent for a fixed
(config, seed) pair, and writes only under the configured output directory.
A rerun with identical inputs produces byte-identical CSV/JSON/SVG files.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import analysis, features, models, svg, telemetry, tuning
from .features import DatasetSplit, build_dataset, load_dataset, save_dataset
from .models import ArchConfig, TrainConfig

MODEL_KINDS = ("td_enet", "td_mlp", "melchior")


class CliError(ValueError):
    """Configuration or input-file problems; message names the file/field."""


# ---------------------------------------------------------------------------
# Configuration


def default_config() -> dict:
    return json.loads(
        resources.files("salience_lab.configs").joinpath("default.json").read_text("utf-8")
    )


def bundled_config(name: str) -> dict:
    return json.loads(
        resources.files("salience_lab.configs").joinpath(f"{name}.json").read_text("utf-8")
    )


def _require(config: dict, path: str, kind=None):
    node = config
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise CliError(f"config is missing required field '{path}'")
        node = node[part]
    if kind is not None and not isinstance(node, kind):
        raise CliError(f"config field '{path}' must be {kind.__name__}, got {type(node).__name__}")
    return node


def validate_config(config: dict) -> dict:
    _require(config, "seed", int)
    _require(config, "simulate.calendar_start", int)
    _require(config, "simulate.horizon_days", int)
    _require(config, "simulate.players_per_game", int)
    games = _require(config, "simulate.games", list)
    if not games:
        raise CliError("config field 'simulate.games' must list at least one game")
    for i, game in enumerate(games):
        for key in ("game_id", "base_quality"):
            if key not in game:
                raise CliError(f"config field 'simulate.games[{i}].{key}' is missing")
    ratio = _require(config, "featurize.ratio")
    if not 0.0 < ratio < 1.0:
        raise CliError("config field 'featurize.ratio' must lie in (0, 1)")
    _require(config, "models.arch", dict)
    for kind in MODEL_KINDS:
        _require(config, f"models.{kind}", dict)
    _require(config, "tune", dict)
    _require(config, "analysis", dict)
    return config


def apply_overrides(config: dict, overrides: Sequence[str]) -> dict:
    """Apply repeatable --set path.to.key=value with JSON-parsed values."""
    for item in overrides:
        if "=" not in item:
            raise CliError(f"--set expects path.to.key=value, got '{item}'")
        path, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        parts = path.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise CliError(f"--set path '{path}' crosses a non-object field")
        node[parts[-1]] = value
    return config


def load_config(path: Optional[str], overrides: Sequence[str], seed: Optional[int]) -> dict:
    if path is None:
        config = default_config()
    else:
        file = Path(path)
        if not file.exists():
            raise CliError(f"config file not found: {file}")
        try:
            config = json.loads(file.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise CliError(f"config file {file} is not valid JSON: {exc}") from exc
    config = apply_overrides(config, overrides)
    if seed is not None:
        config["seed"] = seed
    return validate_config(config)


# ---------------------------------------------------------------------------
# Helpers


def _worker_cap() -> int:
    raw = os.environ.get("SALIENCE_LAB_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _games_from_config(config: dict) -> list[telemetry.GameSpec]:
    out = []
    for game in config["simulate"]["games"]:
        out.append(
            telemetry.GameSpec(
                game_id=game["game_id"],
                base_quality=float(game["base_quality"]),
                quality_drift=float(game.get("quality_drift", 0.0)),
                completion_sessions=game.get("completion_sessions"),
                noise_sd=float(game.get("noise_sd", 0.1)),
            )
        )
    return out


def _population_from_config(config: dict) -> telemetry.PopulationSpec:
    pop = config["simulate"].get("population", {})
    defaults = telemetry.PopulationSpec()
    return telemetry.PopulationSpec(
        salience_range=tuple(pop.get("salience_range", defaults.salience_range)),
        learning_rate_range=tuple(
            pop.get("learning_rate_range", defaults.learning_rate_range)
        ),
        env_susceptibility_range=tuple(
            pop.get("env_susceptibility_range", defaults.env_susceptibility_range)
        ),
        churn_threshold_range=tuple(
            pop.get("churn_threshold_range", defaults.churn_threshold_range)
        ),
        regions=tuple(pop.get("regions", defaults.regions)),
    )


def _arch_from_config(config: dict) -> ArchConfig:
    arch = config["models"]["arch"]
    return ArchConfig(
        hidden_width=int(arch.get("hidden_width", 64)),
        d_z=int(arch.get("d_z", 32)),
        layers=int(arch.get("layers", 1)),
        emb_dim=int(arch.get("emb_dim", 8)),
    )


def _train_config(config: dict, kind: str) -> TrainConfig:
    section = config["models"][kind]
    return TrainConfig(
        epochs=int(section.get("epochs", 30)),
        batch_size=int(section.get("batch_size", 32)),
        lr=float(section.get("lr", 3e-3)),
        patience=int(section.get("patience", 8)),
        seed=int(config["seed"]),
        loss_weights=tuple(section.get("loss_weights", (0.25, 0.25, 0.25, 0.25))),
        val_fraction=float(section.get("val_fraction", 0.15)),
    )


def _need(path: Path, hint: str) -> Path:
    if not path.exists():
        raise CliError(f"missing input {path} (run `{hint}` first)")
    return path


def _load_split(out: Path) -> DatasetSplit:
    _need(out / "features" / "manifest.json", "featurize")
    return load_dataset(out / "features")


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt_float(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# Commands


def cmd_simulate(config: dict, out: Path) -> None:
    games = _games_from_config(config)
    for game in games:
        game.validate()
    traces = telemetry.simulate_population(
        games,
        players_per_game=config["simulate"]["players_per_game"],
        calendar_start=config["simulate"]["calendar_start"],
        horizon_days=config["simulate"]["horizon_days"],
        seed=config["seed"],
        population=_population_from_config(config),
        workers=_worker_cap(),
    )
    out.mkdir(parents=True, exist_ok=True)
    telemetry.write_csv(traces, out / "telemetry.csv")
    telemetry.write_latent_csv(traces, out / "telemetry.latent.csv")
    print(f"simulate: {len(traces)} traces -> {out / 'telemetry.csv'}")


def cmd_featurize(config: dict, out: Path) -> None:
    path = _need(out / "telemetry.csv", "simulate")
    traces = telemetry.ingest_csv(path)
    split = build_dataset(
        traces,
        ratio=float(config["featurize"]["ratio"]),
        seed=config["seed"],
        observation_end=config["featurize"].get("observation_end"),
    )
    save_dataset(split, out / "features")
    print(
        f"featurize: {len(split.train)} train / {len(split.test)} test users -> "
        f"{out / 'features'}"
    )


def _build_and_train(config: dict, split: DatasetSplit, kind: str):
    arch = _arch_from_config(config)
    seed = int(config["seed"])
    if kind == "td_enet":
        section = config["models"]["td_enet"]
        model = models.TdEnet(
            split.vocabs,
            lam=float(section.get("lam", 1e-2)),
            l1_ratio=float(section.get("l1_ratio", 0.5)),
            seed=seed,
            max_iter=int(section.get("max_iter", 1200)),
        )
        model.fit(split.train)
        history = []
    else:
        model = models.build_model(kind, split.vocabs, arch, seed=seed)
        history = models.train(model, split, _train_config(config, kind))
    return model, history


def cmd_train(config: dict, out: Path, kind: str) -> None:
    if kind not in MODEL_KINDS:
        raise CliError(f"--model must be one of {MODEL_KINDS}, got '{kind}'")
    split = _load_split(out)
    model, history = _build_and_train(config, split, kind)
    model_dir = out / "models"
    model_dir.mkdir(parents=True, exist_ok=True)
    models.save_model(model, model_dir / f"{kind}.json")
    _write_csv(
        model_dir / f"{kind}_history.csv",
        ["epoch", "train_loss", "val_loss"],
        [[row["epoch"], _fmt_float(row["train"]), _fmt_float(row["val"])] for row in history],
    )
    print(f"train: {kind} -> {model_dir / (kind + '.json')}")


def cmd_tune(config: dict, out: Path) -> None:
    split = _load_split(out)
    section = config["tune"]
    space_cfg = section.get("space", {})
    space = tuning.SearchSpace(
        hidden_width=tuple(space_cfg.get("hidden_width", (16, 128))),
        d_z=tuple(space_cfg.get("d_z", (8, 64))),
        layers=tuple(space_cfg.get("layers", (1, 3))),
        lr=tuple(space_cfg.get("lr", (1e-4, 1e-2))),
        emb_dim=tuple(space_cfg.get("emb_dim", (4, 32))),
    )
    schedule = tuning.make_schedule(int(section.get("R", 27)), int(section.get("eta", 3)))
    objective = tuning.default_objective(
        split,
        model_kind=section.get("model", "melchior"),
        batch_size=int(section.get("batch_size", 32)),
    )
    result = tuning.hyperband_run(space, schedule, split, seed=int(config["seed"]),
                                  objective=objective)
    tune_dir = out / "tune"
    tune_dir.mkdir(parents=True, exist_ok=True)
    result.write_log(tune_dir / "trials.csv")
    (tune_dir / "best_config.json").write_text(
        json.dumps(
            {"best_config": result.best_config, "val_loss": result.best_loss},
            sort_keys=True,
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"tune: best {result.best_config} (val loss {result.best_loss:.4f})")


def cmd_evaluate(config: dict, out: Path) -> None:
    split = _load_split(out)
    if not split.test:
        raise CliError("evaluate: the test split is empty")
    model_dir = out / "models"
    rows = []
    cell_rows = []
    found = []
    for kind in MODEL_KINDS:
        path = model_dir / f"{kind}.json"
        if not path.exists():
            continue
        model = models.load_model(path, split.vocabs)
        report = models.evaluate(model, split.test)
        found.append((kind, report))
        for target in models.TARGET_NAMES:
            rows.append([kind, target, _fmt_float(report.overall[target])])
        for game, idx, target, loss, count in report.cell_rows():
            cell_rows.append([kind, game, idx, target, _fmt_float(loss), count])
    if not found:
        raise CliError(f"evaluate: no trained models under {model_dir}")
    eval_dir = out / "eval"
    _write_csv(eval_dir / "losses.csv", ["model", "target", "loss"], rows)
    _write_csv(
        eval_dir / "cells.csv",
        ["model", "game", "session_index", "target", "loss", "count"],
        cell_rows,
    )
    payload = {kind: report.overall for kind, report in found}
    (eval_dir / "report.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"evaluate: {len(found)} models -> {eval_dir / 'losses.csv'}")


def _embedding_inputs(config: dict, out: Path):
    split = _load_split(out)
    path = _need(out / "models" / "melchior.json", "train --model melchior")
    model = models.load_model(path, split.vocabs)
    scope = config["analysis"].get("scope", "test")
    traces = split.test if scope == "test" else split.train + split.test
    if not traces:
        raise CliError("embed: no traces in the selected scope")
    return split, model, traces


def cmd_embed(config: dict, out: Path) -> None:
    split, model, traces = _embedding_inputs(config, out)
    z = models.extract_embedding(model, traces)
    users, z_final = analysis.final_embeddings(z)
    projection = analysis.pca_fit(z_final)
    coords = analysis.pca_transform(projection, z_final)

    by_user = {t.user_id: t for t in traces}
    embed_dir = out / "embed"
    d_z = z_final.shape[1]
    _write_csv(
        embed_dir / "embeddings.csv",
        ["user_id"] + [f"z{i}" for i in range(d_z)],
        [[u] + [_fmt_float(v) for v in z_final[i]] for i, u in enumerate(users)],
    )
    rows = []
    for i, user in enumerate(users):
        ft = by_user[user]
        med_st = float(np.median(features.invert_scaler(split.scaler, "st", ft.survival_time)))
        med_ss = float(np.median(features.invert_scaler(split.scaler, "ss", ft.survival_sessions)))
        observed = ft.ab_mask > 0
        med_ab = (
            float(np.median(features.invert_scaler(split.scaler, "ab", ft.absence[observed])))
            if observed.any()
            else 0.0
        )
        rows.append(
            [
                user,
                _fmt_float(coords[i, 0]),
                _fmt_float(coords[i, 1]),
                ft.game_id,
                _fmt_float(ft.churn[0]),
                _fmt_float(med_st),
                _fmt_float(med_ss),
                _fmt_float(med_ab),
            ]
        )
    _write_csv(
        embed_dir / "embedding_2d.csv",
        ["user_id", "x", "y", "game", "ch", "median_st", "median_ss", "median_ab"],
        rows,
    )
    print(f"embed: {len(users)} users -> {embed_dir / 'embedding_2d.csv'}")


def cmd_cluster(config: dict, out: Path) -> None:
    split, model, traces = _embedding_inputs(config, out)
    z = models.extract_embedding(model, traces)
    users, z_final = analysis.final_embeddings(z)
    section = config["analysis"]
    k_lo, k_hi = section.get("k_range", [2, 6])
    seed = int(config["seed"])
    elbow = analysis.elbow_select(z_final, range(int(k_lo), int(k_hi) + 1), seed=seed)
    km = analysis.minibatch_kmeans(
        z_final,
        elbow.chosen_k,
        batch_size=int(section.get("batch_size", 64)),
        iterations=int(section.get("iterations", 250)),
        seed=seed,
    )
    labels = km.assign(z_final)
    assignments = {u: int(c) for u, c in zip(users, labels)}
    profile = analysis.profile_partitions(assignments, traces, split.scaler)

    cluster_dir = out / "cluster"
    _write_csv(
        cluster_dir / "clusters.csv",
        ["user_id", "cluster"],
        [[u, assignments[u]] for u in users],
    )
    (cluster_dir / "profiles.json").write_text(profile.to_json(), encoding="utf-8")
    (cluster_dir / "elbow.json").write_text(elbow.to_json(), encoding="utf-8")
    print(f"cluster: k={elbow.chosen_k} over {len(users)} users -> {cluster_dir}")


def cmd_report(config: dict, out: Path) -> None:
    eval_path = _need(out / "eval" / "losses.csv", "evaluate")
    embed_path = _need(out / "embed" / "embedding_2d.csv", "embed")
    profiles_path = _need(out / "cluster" / "profiles.json", "cluster")
    report_dir = out / "report"
    report_dir.mkdir(parents=True, exist_ok=True)

    # model comparison table (loss per model/target)
    with eval_path.open(newline="", encoding="utf-8") as fh:
        losses = list(csv.DictReader(fh))
    by_target: dict[str, list] = {}
    for row in losses:
        by_target.setdefault(row["target"], []).append((row["model"], float(row["loss"])))
    rows = []
    for target in models.TARGET_NAMES:
        entries = dict(by_target.get(target, []))
        rows.append(
            [target]
            + [(_fmt_float(entries[k]) if k in entries else "") for k in MODEL_KINDS]
        )
    _write_csv(report_dir / "comparison.csv", ["target", *MODEL_KINDS], rows)

    # 2-D embedding scatter per game
    with embed_path.open(newline="", encoding="utf-8") as fh:
        points = list(csv.DictReader(fh))
    by_game: dict[str, list] = {}
    for row in points:
        by_game.setdefault(row["game"], []).append((float(row["x"]), float(row["y"])))
    svg.scatter_plot(by_game, "final-session embedding (2-D projection)").save(
        report_dir / "embedding.svg"
    )

    # per-cluster behaviour curves
    profile = json.loads(profiles_path.read_text(encoding="utf-8"))
    for metric in ("session_time", "delta_session"):
        curves = {}
        for cid, entry in sorted(profile.items()):
            if not entry.get("curves"):
                continue
            rows = entry["curves"][metric]
            curves[f"cluster {cid} (n={entry['count']})"] = [
                (r["session"], r["mean"], r["ci"]) for r in rows if r["mean"] is not None
            ]
        svg.curve_plot(curves, f"{metric} by session index", "session index").save(
            report_dir / f"profile_{metric}.svg"
        )
    print(f"report: -> {report_dir}")


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="salience-lab",
        description="Engagement telemetry simulation, estimators, and embedding analysis.",
    )
    parser.add_argument("--config", help="run-config JSON (bundled default if omitted)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", default="out", help="output directory (default ./out)")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="K=V",
        help="override a config field by dotted path (repeatable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", help="generate synthetic telemetry")
    sub.add_parser("featurize", help="build the featurized train/test dataset")
    train_p = sub.add_parser("train", help="fit one model")
    train_p.add_argument("--model", required=True, choices=MODEL_KINDS)
    sub.add_parser(
        "tune",
        help="Hyperband search for the recurrent model; tune/best_config.json is advisory "
        "(nothing reads it; apply it with --set models.arch.*=... --set models.melchior.lr=...)",
    )
    sub.add_parser("evaluate", help="score all trained models on the test split")
    sub.add_parser("embed", help="extract and project salience embeddings")
    sub.add_parser("cluster", help="partition the embedding space and profile clusters")
    sub.add_parser("report", help="emit the comparison table and plots")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, args.overrides, args.seed)
        out = Path(args.out)
        if args.command == "simulate":
            cmd_simulate(config, out)
        elif args.command == "featurize":
            cmd_featurize(config, out)
        elif args.command == "train":
            cmd_train(config, out, args.model)
        elif args.command == "tune":
            cmd_tune(config, out)
        elif args.command == "evaluate":
            cmd_evaluate(config, out)
        elif args.command == "embed":
            cmd_embed(config, out)
        elif args.command == "cluster":
            cmd_cluster(config, out)
        elif args.command == "report":
            cmd_report(config, out)
        else:  # pragma: no cover
            parser.error(f"unknown command {args.command}")
    except (CliError, telemetry.TelemetryError, features.FeatureError, models.ModelError,
            tuning.TuningError, analysis.AnalysisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
