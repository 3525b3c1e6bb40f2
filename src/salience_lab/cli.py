"""End-to-end pipeline orchestration.

Every command reads a JSON run configuration, is idempotent for a fixed
(config, seed) pair, and writes only under the configured output directory.
A rerun with identical inputs produces byte-identical CSV/JSON/SVG files.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import sys
import types
import typing
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import analysis, csvio, features, models, neural, svg, telemetry, tuning
from .features import TARGETS, DatasetSplit, build_dataset, load_dataset, save_dataset
from .models import ArchConfig, TrainConfig

MODEL_KINDS = ("td_enet", "td_mlp", "melchior")

#: Columns of the CSVs that report reads back, in order, with the type each is read as.
_LOSSES_COLUMNS = {"model": str, "target": str, "loss": float}
_EMBEDDING_2D_COLUMNS = {"user_id": str, "x": float, "y": float, "game": str, "ch": float,
                         "median_st": float, "median_ss": float, "median_ab": float}


class CliError(ValueError):
    """Configuration or input-file problems; message names the file/field."""


# ---------------------------------------------------------------------------
# Configuration


def bundled_config(name: str) -> dict:
    return csvio.read_json(resources.files("salience_lab.configs") / f"{name}.json", CliError,
                           dict)


def _known(section: dict, prefix: str, keys) -> None:
    for key in section:
        if key not in keys:
            raise CliError(f"unknown config field '{prefix}{key}'")


def _section(config: dict, path: str) -> dict:
    """The object at a dotted path of config; an absent one is empty."""
    node = config
    for part in path.split("."):
        node = node.get(part, {})
        if not isinstance(node, dict):
            raise CliError(f"config field '{path}' must be an object")
    return node


def _typed(value, kind, path: str):
    """value checked against the annotation kind and converted to it.

    An int takes a finite whole number and a float any finite number (neither a
    bool, nor JSON's Infinity or NaN), a str a string, an Optional None or its
    type, a tuple[...] a list checked element by element (and by length unless
    it ends in ...), and a dataclass its own section.  No str may hold NUL.
    Under any other annotation a list becomes a tuple.
    """
    args = typing.get_args(kind)
    if typing.get_origin(kind) in (typing.Union, types.UnionType) and type(None) in args:
        if value is None:
            return None
        (kind,) = [arg for arg in args if arg is not type(None)]
        return _typed(value, kind, path)
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise CliError(f"config field '{path}' must be a list, got {value!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise CliError(f"config field '{path}' must list {len(args)} values, "
                           f"got {value!r}")
        return tuple(_typed(v, k, f"{path}[{i}]") for i, (v, k) in enumerate(zip(value, args)))
    if kind in (int, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value) or kind(value) != value:
            raise CliError(f"config field '{path}' must be a finite {kind.__name__}, "
                           f"got {value!r}")
        return kind(value)
    if kind is str:
        if not isinstance(value, str):
            raise CliError(f"config field '{path}' must be str, got {value!r}")
        if "\x00" in value:
            raise CliError(f"config field '{path}' must not hold NUL, got {value!r}")
        return value
    if dataclasses.is_dataclass(kind):
        return kind(**_settings(kind, value, path))
    return tuple(value) if isinstance(value, list) else value


def _settings(factory, section: dict, path: str, reserved: Sequence[str] = ()) -> dict:
    """The keyword arguments of factory that the config section at path holds.

    Each key must name a parameter of factory outside `reserved` (the ones
    the CLI passes itself or that no run sets), and a parameter without a
    default must be present; every other default is factory's own.  Each
    value is read by its parameter's annotation (see _typed).
    """
    if not isinstance(section, dict):
        raise CliError(f"config field '{path}' must be an object")
    params = {name: p for name, p in inspect.signature(factory, eval_str=True).parameters.items()
              if name not in reserved}
    _known(section, f"{path}.", params)
    missing = [f"'{path}.{n}'" for n, p in params.items()
               if p.default is p.empty and n not in section]
    if missing:
        raise CliError(f"config is missing required field(s) {', '.join(missing)}")
    return {key: _typed(value, params[key].annotation, f"{path}.{key}")
            for key, value in section.items()}


@dataclasses.dataclass(frozen=True)
class TuneConfig:
    """The `tune` section: Hyperband's budget R and ratio eta, and the search space."""

    R: int = 27
    eta: int = 3
    space: tuning.SearchSpace = tuning.SearchSpace()


@dataclasses.dataclass(frozen=True)
class AnalysisConfig:
    """The `analysis` section: the users `embed` and `cluster` take, and the k range."""

    k_range: tuple[int, int] = (2, 6)  # inclusive
    scope: str = "test"  # "test": the test split; "all": train and test

    def __post_init__(self):
        if self.scope not in ("test", "all"):
            raise CliError(f"config field 'analysis.scope' must be 'test' or 'all', "
                           f"got {self.scope!r}")


def _simulation(config: dict) -> dict:
    """Keyword arguments of telemetry.simulate_population."""
    kwargs = _settings(telemetry.simulate_population, _section(config, "simulate"),
                       "simulate", ("seed",))
    if not isinstance(kwargs["games"], tuple) or not kwargs["games"]:
        raise CliError("config field 'simulate.games' must list at least one game")
    kwargs["games"] = [
        telemetry.GameSpec(**_settings(telemetry.GameSpec, game, f"simulate.games[{i}]"))
        for i, game in enumerate(kwargs["games"])
    ]
    for game in kwargs["games"]:
        game.validate()
    return {**kwargs, "seed": config["seed"]}


def _featurization(config: dict) -> dict:
    """Keyword arguments of features.build_dataset after its traces."""
    kwargs = _settings(build_dataset, _section(config, "featurize"), "featurize",
                       ("traces", "seed"))
    if "ratio" in kwargs and not 0.0 < kwargs["ratio"] < 1.0:
        raise CliError("config field 'featurize.ratio' must lie in (0, 1)")
    return {**kwargs, "seed": config["seed"]}


def _arch_config(config: dict) -> ArchConfig:
    return ArchConfig(**_settings(ArchConfig, _section(config, "models.arch"), "models.arch"))


def _enet_settings(config: dict) -> dict:
    """Keyword arguments of models.TdEnet after its vocabularies."""
    kwargs = _settings(models.TdEnet, _section(config, "models.td_enet"), "models.td_enet",
                       ("vocabs", "seed"))
    return {**kwargs, "seed": config["seed"]}


def _train_config(config: dict, kind: str) -> TrainConfig:
    path = f"models.{kind}"
    return TrainConfig(seed=config["seed"], **_settings(
        TrainConfig, _section(config, path), path, ("seed", "clip_norm")))


def _tune_config(config: dict) -> TuneConfig:
    return TuneConfig(**_settings(TuneConfig, _section(config, "tune"), "tune"))


def _analysis_config(config: dict) -> AnalysisConfig:
    return AnalysisConfig(**_settings(AnalysisConfig, _section(config, "analysis"), "analysis"))


def validate_config(config: dict) -> dict:
    """Read every section as its command will, so that a bad field fails at load."""
    _known(config, "", ("seed", "simulate", "featurize", "models", "tune", "analysis"))
    _known(_section(config, "models"), "models.", ("arch", *MODEL_KINDS))
    seed = config.get("seed")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise CliError(f"config field 'seed' must be int, got {seed!r}")
    _simulation(config)
    _featurization(config)
    _arch_config(config)
    _enet_settings(config)
    for kind in ("td_mlp", "melchior"):
        _train_config(config, kind)
    _tune_config(config)
    _analysis_config(config)
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
        config = bundled_config("default")
    else:
        file = Path(path)
        if not file.exists():
            raise CliError(f"config file not found: {file}")
        config = csvio.read_json(file, CliError, dict)
    config = apply_overrides(config, overrides)
    if seed is not None:
        config["seed"] = seed
    return validate_config(config)


# ---------------------------------------------------------------------------
# Helpers


def _need(path: Path, hint: str) -> Path:
    if not path.exists():
        raise CliError(f"missing input {path} (run `{hint}` first)")
    return path


def _load_split(out: Path) -> DatasetSplit:
    _need(out / "features" / "manifest.json", "featurize")
    return load_dataset(out / "features")


def _write_csv(path: Path, header: Sequence[str], columns: Sequence) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    csvio.write_columns(path, header, columns)


def _columns(rows: Sequence[Sequence]) -> list[list]:
    """The columns of rows of equal length (none for no rows)."""
    return [list(column) for column in zip(*rows)]


# ---------------------------------------------------------------------------
# Commands


def cmd_simulate(config: dict, out: Path) -> None:
    traces = telemetry.simulate_population(**_simulation(config))
    out.mkdir(parents=True, exist_ok=True)
    telemetry.write_csv(traces, out / "telemetry.csv")
    telemetry.write_latent_csv(traces, out / "telemetry.latent.csv")
    print(f"simulate: {len(traces)} traces -> {out / 'telemetry.csv'}")


def cmd_featurize(config: dict, out: Path) -> None:
    path = _need(out / "telemetry.csv", "simulate")
    traces = telemetry.ingest_csv(path)
    split = build_dataset(traces, **_featurization(config))
    save_dataset(split, out / "features")
    print(
        f"featurize: {len(split.train)} train / {len(split.test)} test traces -> "
        f"{out / 'features'}"
    )


def _build_and_train(config: dict, split: DatasetSplit, kind: str):
    if kind == "td_enet":
        model = models.TdEnet(split.vocabs, **_enet_settings(config))
        model.fit(split.train)
        for target, (iterations, converged) in model.convergence.items():
            ending = "met tol" if converged else f"stopped at max_iter={model.max_iter}"
            print(f"train: td_enet {target}: {iterations} iterations, {ending}")
        history = []
    else:
        model = models.build_model(kind, split.vocabs, _arch_config(config), seed=config["seed"])
        history = models.train(model, split, _train_config(config, kind))
    return model, history


def cmd_train(config: dict, out: Path, kind: str) -> None:
    split = _load_split(out)
    model, history = _build_and_train(config, split, kind)
    model_dir = out / "models"
    model_dir.mkdir(parents=True, exist_ok=True)
    models.save_model(model, model_dir / f"{kind}.json")
    _write_csv(
        model_dir / f"{kind}_history.csv",
        ["epoch", "train_loss", "val_loss"],
        _columns([row["epoch"], row["train"], row["val"]] for row in history),
    )
    print(f"train: {kind} -> {model_dir / (kind + '.json')}")


def cmd_tune(config: dict, out: Path) -> None:
    split = _load_split(out)
    tune = _tune_config(config)
    result = tuning.hyperband_run(
        tune.space, tuning.make_schedule(tune.R, tune.eta), split, seed=config["seed"],
        objective=tuning.default_objective(
            split, batch_size=_train_config(config, "melchior").batch_size))
    tune_dir = out / "tune"
    tune_dir.mkdir(parents=True, exist_ok=True)
    result.write_log(tune_dir / "trials.csv")
    csvio.write_json(tune_dir / "best_config.json",
                     {"best_config": result.best_config, "val_loss": result.best_loss})
    print(f"tune: best {result.best_config} (val loss {result.best_loss:.4f})")


def cmd_evaluate(config: dict, out: Path) -> None:
    split = _load_split(out)
    if not split.test:
        raise CliError("evaluate: the test split is empty")
    model_dir = out / "models"
    cell_columns = ("game", "session_index", "target", "loss", "count")
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
        for target in TARGETS:
            rows.append([kind, target, report.overall[target]])
        cell_rows.extend([kind, *(cell[name] for name in cell_columns)] for cell in report.cells)
    if not found:
        raise CliError(f"evaluate: no trained models under {model_dir}")
    eval_dir = out / "eval"
    _write_csv(eval_dir / "losses.csv", tuple(_LOSSES_COLUMNS), _columns(rows))
    _write_csv(eval_dir / "cells.csv", ["model", *cell_columns], _columns(cell_rows))
    csvio.write_json(eval_dir / "report.json", {kind: report.overall for kind, report in found})
    print(f"evaluate: {len(found)} models -> {eval_dir / 'losses.csv'}")


def _embedding_inputs(config: dict, out: Path):
    split = _load_split(out)
    path = _need(out / "models" / "melchior.json", "train --model melchior")
    model = models.load_model(path, split.vocabs)
    scope = _analysis_config(config).scope
    traces = split.test if scope == "test" else split.traces
    if not traces:
        raise CliError("embed: no traces in the selected scope")
    return split, model, traces


def cmd_embed(config: dict, out: Path) -> None:
    split, model, traces = _embedding_inputs(config, out)
    users, z_final = models.extract_embedding(model, traces)
    projection = analysis.pca_fit(z_final)
    coords = analysis.pca_transform(projection, z_final)

    embed_dir = out / "embed"
    d_z = z_final.shape[1]
    _write_csv(
        embed_dir / "embeddings.csv",
        ["user_id"] + [f"z{i}" for i in range(d_z)],
        [users, *z_final.T],
    )
    by_user = np.argsort(traces.user_id, kind="stable")  # the traces in the order of users
    medians = features.target_medians(traces, split.scaler)[by_user]
    medians[np.isnan(medians)] = 0.0  # absence never observed
    _write_csv(
        embed_dir / "embedding_2d.csv",
        tuple(_EMBEDDING_2D_COLUMNS),
        [users, *coords[:, :2].T, traces.game_id[by_user], *medians.T],
    )
    print(f"embed: {len(users)} users -> {embed_dir / 'embedding_2d.csv'}")


def cmd_cluster(config: dict, out: Path) -> None:
    split, model, traces = _embedding_inputs(config, out)
    users, z_final = models.extract_embedding(model, traces)
    k_lo, k_hi = _analysis_config(config).k_range
    elbow = analysis.elbow_select(z_final, range(k_lo, k_hi + 1), seed=config["seed"])
    assignments = {u: int(c) for u, c in zip(users, elbow.model.assign(z_final))}
    profile = analysis.profile_partitions(assignments, traces, split.scaler)

    cluster_dir = out / "cluster"
    _write_csv(
        cluster_dir / "clusters.csv",
        ["user_id", "cluster"],
        [users, [assignments[u] for u in users]],
    )
    csvio.write_json(cluster_dir / "profiles.json",
                     {str(cid): entry for cid, entry in profile.clusters.items()})
    csvio.write_json(cluster_dir / "elbow.json", {"k": elbow.k_values, "inertia": elbow.inertias,
                     "marginal_gain": elbow.marginal_gains, "chosen_k": elbow.chosen_k})
    print(f"cluster: k={elbow.chosen_k} over {len(users)} users -> {cluster_dir}")


def _profile_curves(profile: dict) -> dict[str, dict[str, list]]:
    """metric -> {cluster label: [(session, mean, ci or None)]}, from cluster/profiles.json."""
    curves: dict[str, dict[str, list]] = {"session_time": {}, "delta_session": {}}
    for cid, entry in sorted(profile.items()):
        for metric, by_cluster in curves.items():
            by_cluster[f"cluster {cid} (n={int(entry['count'])})"] = [
                (int(r["session"]), float(r["mean"]), None if r["ci"] is None else float(r["ci"]))
                for r in entry["curves"][metric]]
    return curves


def cmd_report(config: dict, out: Path) -> None:
    losses = csvio.read_columns(_need(out / "eval" / "losses.csv", "evaluate"), _LOSSES_COLUMNS,
                                CliError)
    points = csvio.read_columns(_need(out / "embed" / "embedding_2d.csv", "embed"),
                                _EMBEDDING_2D_COLUMNS, CliError)
    curves = csvio.read_json(_need(out / "cluster" / "profiles.json", "cluster"), CliError,
                             _profile_curves)
    report_dir = out / "report"
    report_dir.mkdir(parents=True, exist_ok=True)

    # model comparison table (loss per model/target)
    loss = {(model, target): value for model, target, value in zip(
        losses["model"].tolist(), losses["target"].tolist(), losses["loss"].tolist())}
    rows = [[target, *(repr(loss[k, target]) if (k, target) in loss else "" for k in MODEL_KINDS)]
            for target in TARGETS]
    _write_csv(report_dir / "comparison.csv", ["target", *MODEL_KINDS], _columns(rows))

    # 2-D embedding scatter per game
    by_game: dict[str, list] = {}
    for game, x, y in zip(points["game"].tolist(), points["x"].tolist(), points["y"].tolist()):
        by_game.setdefault(game, []).append((x, y))
    svg.scatter_plot(by_game, "final-session embedding (2-D projection)").save(
        report_dir / "embedding.svg"
    )

    # per-cluster behaviour curves
    for metric, by_cluster in curves.items():
        svg.curve_plot(by_cluster, f"{metric} by session index", "session index").save(
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
    except (CliError, telemetry.TelemetryError, features.FeatureError, neural.NeuralError,
            models.ModelError, tuning.TuningError, analysis.AnalysisError,
            OSError) as exc:  # an OSError's message names its path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
