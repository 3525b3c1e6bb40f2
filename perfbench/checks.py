"""Checks of salience-lab's output files against the benchmark's own computations.

Each check reads what the CLI wrote and recomputes, apart from the program,
either the quantity the file claims or a property the method must have.  A
check raises :class:`CheckFailed` naming the file and the first violation.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

BEHAVIOUR = ("session_time", "play_time", "delta_session", "activity_index",
             "activity_diversity")
CONTEXT = ("hour", "weekday", "yearday", "region")  # one-hot blocks, then the game block
TARGETS = ("ch", "st", "ss", "ab")
BCE_CLIP = 1e-7
SMAPE_EPS = 1e-12

#: KKT residual allowed, as a share of max|X^T y|.  The benchmark config's fits
#: (1200 iterations) reach 3e-6 to 7e-6 on seeds 0-2.
KKT_TOLERANCE = 1e-4
#: The clusters.csv partition (mini-batch k-means) may have at most this many times
#: the inertia of the elbow's full-batch Lloyd partition at the chosen k.
CLUSTER_INERTIA_FACTOR = 1.25
#: Relative agreement required of quantities the program and the check compute
#: by different floating-point routes.
RTOL = 1e-6


class CheckFailed(AssertionError):
    """An output file disagrees with what the benchmark computed."""


def _rows(path: Path) -> list[dict]:
    with Path(path).open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# Telemetry and features


def check_telemetry(path: Path, config: dict) -> dict[tuple[str, str], int]:
    """Session invariants and the trace count; returns sessions per (user, game)."""
    lengths: dict[tuple[str, str], int] = {}
    last_start: dict[tuple[str, str], int] = {}
    for line, row in enumerate(_rows(path), start=2):
        key = (row["user_id"], row["game_id"])
        start = int(row["start_utc"])
        if float(row["play_time"]) > float(row["session_time"]):
            raise CheckFailed(f"{path}:{line}: play_time exceeds session_time")
        if int(row["activity_diversity"]) > int(row["activity_index"]):
            raise CheckFailed(f"{path}:{line}: activity_diversity exceeds activity_index")
        if key in last_start and start <= last_start[key]:
            raise CheckFailed(f"{path}:{line}: session starts of {key} not strictly increasing")
        last_start[key] = start
        lengths[key] = lengths.get(key, 0) + 1
    sim = config["simulate"]
    expected = len(sim["games"]) * sim["players_per_game"]
    if len(lengths) != expected:
        raise CheckFailed(f"{path}: {len(lengths)} traces, expected games x players = {expected}")
    return lengths


def completed_traces(lengths: dict[tuple[str, str], int], config: dict) -> set:
    """Traces that reached their game's completion_sessions, hence ended by completion.

    The simulator tests completion before churn and the horizon, so a trace
    of exactly completion_sessions sessions is a completed one.
    """
    goal = {g["game_id"]: g.get("completion_sessions") for g in config["simulate"]["games"]}
    return {key for key, n in lengths.items() if goal.get(key[1]) == n}


def read_split(path: Path) -> dict[str, np.ndarray]:
    """One features CSV as columns: ids as strings, everything else as float."""
    rows = _rows(path)
    if not rows:
        raise CheckFailed(f"{path}: no rows")
    columns = {}
    for name in rows[0]:
        values = [r[name] for r in rows]
        columns[name] = (np.asarray(values) if name in ("user_id", "game_id")
                         else np.asarray(values, dtype=np.float64))
    return columns


def trace_rows(split: dict[str, np.ndarray]) -> dict[tuple[str, str], np.ndarray]:
    """Row indices of each (user, game) trace, in session order."""
    groups: dict[tuple[str, str], list[int]] = {}
    for i, key in enumerate(zip(split["user_id"].tolist(), split["game_id"].tolist())):
        groups.setdefault(key, []).append(i)
    order = split["session_index"]
    return {k: np.asarray(sorted(v, key=lambda i: order[i])) for k, v in groups.items()}


def load_features(directory: Path) -> dict:
    directory = Path(directory)
    return {
        "manifest": json.loads((directory / "manifest.json").read_text(encoding="utf-8")),
        "train": read_split(directory / "train.csv"),
        "test": read_split(directory / "test.csv"),
    }


def check_features(feats: dict, telemetry_rows: int) -> None:
    """Row conservation, and remaining time/sessions non-increasing to zero."""
    n = len(feats["train"]["ch"]) + len(feats["test"]["ch"])
    if n != telemetry_rows:
        raise CheckFailed(f"features: {n} train+test rows, telemetry has {telemetry_rows}")
    for part in ("train", "test"):
        split = feats[part]
        for key, idx in trace_rows(split).items():
            for target in ("st", "ss"):
                v = split[target][idx]
                if np.any(np.diff(v) > 0.0):
                    raise CheckFailed(f"features/{part}.csv: {target} of {key} increases")
                if v[-1] != 0.0:
                    raise CheckFailed(f"features/{part}.csv: {target} of {key} is {v[-1]} "
                                      "at the last session, expected 0")


def mislabelled_completions(feats: dict, completed: set) -> int:
    """Completed traces whose churn label is not 0."""
    bad = 0
    for part in ("train", "test"):
        split = feats[part]
        for key, idx in trace_rows(split).items():
            if key in completed and np.any(split["ch"][idx] != 0.0):
                bad += 1
    return bad


# ---------------------------------------------------------------------------
# Estimators


def read_checkpoint(path: Path) -> tuple[dict[str, np.ndarray], dict]:
    """The checkpoint format: JSON manifest plus little-endian float64 sidecar."""
    path = Path(path)
    manifest = json.loads(path.read_text(encoding="utf-8"))
    blob = np.fromfile(path.with_suffix(".bin"), dtype="<f8")
    arrays, offset = {}, 0
    for entry in manifest["arrays"]:
        size = int(np.prod(entry["shape"])) if entry["shape"] else 1
        arrays[entry["name"]] = blob[offset:offset + size].reshape(entry["shape"])
        offset += size
    return arrays, manifest.get("meta", {})


def check_enet_kkt(feats: dict, model_path: Path, lam: float, l1_ratio: float) -> float:
    """Elastic-net optimality of every target's weights on the one-hot train design.

    The design is behaviour, one-hot hour/weekday/yearday/region, one-hot game
    and an unpenalised intercept, built here from index arrays.  Returns the
    worst KKT residual as a share of max|X^T y|.
    """
    weights, _ = read_checkpoint(model_path)
    split = feats["train"]
    vocabs = feats["manifest"]["vocabularies"]
    beh = np.stack([split[name] for name in BEHAVIOUR], axis=1)
    blocks = [(split[f"{name}_idx"].astype(np.int64), len(vocabs[name]) + 1)
              for name in CONTEXT]
    blocks.append((split["game_idx"].astype(np.int64), len(vocabs["game"]) + 1))
    width = beh.shape[1] + sum(size for _, size in blocks) + 1
    penalised = np.ones(width)
    penalised[-1] = 0.0
    worst = 0.0
    for target in TARGETS:
        w = weights[f"enet.{target}"]
        if w.shape != (width,):
            raise CheckFailed(f"{model_path}: enet.{target} has shape {w.shape}, "
                              f"design width is {width}")
        rows = split["ab_mask"] > 0 if target == "ab" else np.ones(len(split["ch"]), bool)
        y = split[target][rows]

        def xt(r):
            parts = [beh[rows].T @ r]
            parts += [np.bincount(idx[rows], weights=r, minlength=size) for idx, size in blocks]
            return np.concatenate(parts + [[r.sum()]])

        eta = beh[rows] @ w[:beh.shape[1]] + w[-1]
        offset = beh.shape[1]
        for idx, size in blocks:
            eta = eta + w[offset:offset + size][idx[rows]]
            offset += size
        pred = 1.0 / (1.0 + np.exp(-eta)) if target == "ch" else eta
        grad = xt(pred - y) + lam * (1.0 - l1_ratio) * penalised * w
        l1 = lam * l1_ratio * penalised
        residual = np.where(w != 0.0, np.abs(grad + l1 * np.sign(w)),
                            np.maximum(np.abs(grad) - l1, 0.0))
        share = float(residual.max() / np.abs(xt(y)).max())
        if share > KKT_TOLERANCE:
            j = int(residual.argmax())
            raise CheckFailed(f"{model_path}: enet.{target} violates the KKT conditions at "
                              f"coordinate {j} by {share:.3g} of max|X^T y| "
                              f"(allowed {KKT_TOLERANCE})")
        worst = max(worst, share)
    return worst


def read_losses(path: Path) -> dict[tuple[str, str], float]:
    return {(r["model"], r["target"]): float(r["loss"]) for r in _rows(path)}


def constant_losses(feats: dict) -> dict[str, float]:
    """Test loss of the best-fitting constant on the train split, per target.

    The train mean under cross entropy for ch; the train median under SMAPE
    for the others.  ab counts only its observed steps.
    """
    out = {}
    for target in TARGETS:
        tr, te = feats["train"], feats["test"]
        y_tr = tr[target][tr["ab_mask"] > 0] if target == "ab" else tr[target]
        y_te = te[target][te["ab_mask"] > 0] if target == "ab" else te[target]
        if target == "ch":
            p = min(max(float(y_tr.mean()), BCE_CLIP), 1.0 - BCE_CLIP)
            terms = -(y_te * math.log(p) + (1.0 - y_te) * math.log(1.0 - p))
        else:
            c = float(np.median(y_tr))
            terms = np.abs(c - y_te) / (abs(c) + np.abs(y_te) + SMAPE_EPS)
        out[target] = float(terms.mean())
    return out


def check_beats_constant(feats: dict, losses_path: Path, kinds) -> None:
    losses = read_losses(losses_path)
    for target, baseline in constant_losses(feats).items():
        for kind in kinds:
            loss = losses[(kind, target)]
            if not loss < baseline:
                raise CheckFailed(f"{losses_path}: {kind} {target} test loss {loss:.6g} does "
                                  f"not beat the constant predictor's {baseline:.6g}")


def check_cells(eval_dir: Path) -> None:
    """Count-weighted means of cells.csv reproduce losses.csv."""
    eval_dir = Path(eval_dir)
    losses = read_losses(eval_dir / "losses.csv")
    sums: dict[tuple[str, str], list[float]] = {}
    for row in _rows(eval_dir / "cells.csv"):
        acc = sums.setdefault((row["model"], row["target"]), [0.0, 0.0])
        acc[0] += float(row["loss"]) * int(row["count"])
        acc[1] += int(row["count"])
    for key, loss in losses.items():
        total, count = sums.get(key, (0.0, 0))
        if count == 0:
            raise CheckFailed(f"{eval_dir}/cells.csv: no cells for {key}")
        if abs(total / count - loss) > 1e-9 * abs(loss):
            raise CheckFailed(f"{eval_dir}/cells.csv: weighted mean {total / count!r} for {key} "
                              f"!= losses.csv {loss!r}")


# ---------------------------------------------------------------------------
# Embedding analysis


def read_embeddings(path: Path) -> tuple[list[str], np.ndarray]:
    rows = _rows(path)
    dims = [k for k in rows[0] if k != "user_id"]
    return [r["user_id"] for r in rows], np.asarray([[float(r[k]) for k in dims] for r in rows])


def check_pca(embed_dir: Path) -> None:
    """Column variances of embedding_2d.csv are the top two covariance eigenvalues."""
    embed_dir = Path(embed_dir)
    users, z = read_embeddings(embed_dir / "embeddings.csv")
    rows = _rows(embed_dir / "embedding_2d.csv")
    if [r["user_id"] for r in rows] != users:
        raise CheckFailed(f"{embed_dir}: embedding_2d.csv users differ from embeddings.csv")
    eig = np.sort(np.linalg.eigvalsh(np.cov(z, rowvar=False)))[::-1]
    for axis, lam in (("x", eig[0]), ("y", eig[1])):
        var = float(np.var([float(r[axis]) for r in rows], ddof=1))
        if abs(var - lam) > RTOL * eig[0]:
            raise CheckFailed(f"{embed_dir}/embedding_2d.csv: variance of {axis} is {var!r}, "
                              f"the covariance eigenvalue is {lam!r}")


def check_clusters(embed_dir: Path, cluster_dir: Path) -> float:
    """Elbow inertias never rise with k; the partition is near the elbow optimum.

    Returns the partition's inertia over the elbow inertia at the chosen k.
    """
    cluster_dir = Path(cluster_dir)
    elbow = json.loads((cluster_dir / "elbow.json").read_text(encoding="utf-8"))
    inertia = elbow["inertia"]
    for k_lo, k_hi, a, b in zip(elbow["k"], elbow["k"][1:], inertia, inertia[1:]):
        if b > a * (1.0 + 1e-12):
            raise CheckFailed(f"{cluster_dir}/elbow.json: inertia rises from k={k_lo} ({a!r}) "
                              f"to k={k_hi} ({b!r})")
    users, z = read_embeddings(Path(embed_dir) / "embeddings.csv")
    label_of = {r["user_id"]: int(r["cluster"]) for r in _rows(cluster_dir / "clusters.csv")}
    if set(label_of) != set(users):
        raise CheckFailed(f"{cluster_dir}/clusters.csv: users differ from embeddings.csv")
    k = elbow["chosen_k"]
    labels = np.asarray([label_of[u] for u in users])
    if labels.min() < 0 or labels.max() >= k:
        raise CheckFailed(f"{cluster_dir}/clusters.csv: labels outside 0..{k - 1}")
    partition = sum(float(((z[labels == c] - z[labels == c].mean(axis=0)) ** 2).sum())
                    for c in np.unique(labels))
    ratio = partition / inertia[elbow["k"].index(k)]
    if ratio > CLUSTER_INERTIA_FACTOR:
        raise CheckFailed(f"{cluster_dir}/clusters.csv: partition inertia is {ratio:.3f} x the "
                          f"elbow inertia at k={k} (allowed {CLUSTER_INERTIA_FACTOR})")
    return ratio


# ---------------------------------------------------------------------------
# Hyperband


def bracket_table(R: int, eta: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """[(s, [(configs, epochs) per round])] for s = s_max .. 0, in integer arithmetic."""
    s_max = 0
    while eta ** (s_max + 1) <= R:
        s_max += 1
    table = []
    for s in range(s_max, -1, -1):
        n = -(-(s_max + 1) * eta ** s // (s + 1))
        rounds = []
        for i in range(s + 1):
            rounds.append((n, max(1, R * eta ** i // eta ** s)))
            n = max(1, n // eta)
        table.append((s, rounds))
    return table


def check_hyperband(tune_dir: Path, R: int, eta: int) -> None:
    """trials.csv follows the bracket table, promotes each round's best, and names the winner."""
    tune_dir = Path(tune_dir)
    trials = [
        {"bracket": int(r["bracket"]), "round": int(r["round"]), "trial": int(r["trial"]),
         "config": json.loads(r["config_json"]), "epochs": int(r["epochs"]),
         "loss": float(r["val_loss"])}
        for r in _rows(tune_dir / "trials.csv")
    ]
    where = f"{tune_dir}/trials.csv"
    table = bracket_table(R, eta)
    brackets = list(dict.fromkeys(t["bracket"] for t in trials))
    if brackets != [s for s, _ in table]:
        raise CheckFailed(f"{where}: brackets {brackets}, expected {[s for s, _ in table]}")
    finals = []
    for s, rounds in table:
        previous = None
        for i, (n_configs, epochs) in enumerate(rounds):
            rnd = [t for t in trials if t["bracket"] == s and t["round"] == i]
            if len(rnd) != n_configs or any(t["epochs"] != epochs for t in rnd):
                raise CheckFailed(f"{where}: bracket {s} round {i} has {len(rnd)} trials at "
                                  f"epochs {sorted({t['epochs'] for t in rnd})}, expected "
                                  f"{n_configs} at {epochs}")
            if previous is not None:
                ranked = sorted(previous, key=lambda t: (t["loss"], t["trial"]))
                best = {t["trial"] for t in ranked[:max(1, len(previous) // eta)]}
                if {t["trial"] for t in rnd} != best:
                    raise CheckFailed(f"{where}: bracket {s} round {i} runs trials "
                                      f"{sorted(t['trial'] for t in rnd)}, the top of round "
                                      f"{i - 1} is {sorted(best)}")
            previous = rnd
        finals.extend(previous)
    winner = min(finals, key=lambda t: (t["loss"], t["trial"]))
    best = json.loads((tune_dir / "best_config.json").read_text(encoding="utf-8"))
    if best["best_config"] != winner["config"] or best["val_loss"] != winner["loss"]:
        raise CheckFailed(f"{tune_dir}/best_config.json: names {best}, the lowest final-round "
                          f"loss is trial {winner['trial']} at {winner['loss']!r}")
