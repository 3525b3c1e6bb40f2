"""Three estimators of future-interaction intensity over featurized traces.

* TdEnet    -- per-target elastic-net linear model on one-hot context,
               order-1 (each step predicted from that step alone).
* TdMlp     -- per-step multilayer perceptron over embedded context,
               also order-1.
* MelchiorModel -- multitask recurrent network: separate behaviour /
               environment / game branches, fused and fed through a gated
               recurrent salience layer whose state is the embedding z,
               with four per-step output heads.

All three share the Batch layout, the masked loss definitions, the training
loop (for the gradient models), and the evaluation report.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from . import neural
from .features import DatasetSplit, FeaturizedTrace, Vocabularies, split_users
from .neural import AdamState, Dense, Embedding, GruLayer, bce_loss, smape_loss

TARGET_NAMES = ("ch", "st", "ss", "ab")
#: Output head per target, in TARGET_NAMES order (the order heads draw from the RNG).
HEAD_ACTIVATIONS = {"ch": "sigmoid", "st": "softplus", "ss": "softplus", "ab": "softplus"}


class ModelError(ValueError):
    """Invalid model configuration, divergence, or evaluation misuse."""


# ---------------------------------------------------------------------------
# Batching


@dataclass
class Batch:
    """Padded variable-length sequences with a validity mask."""

    behaviour: np.ndarray  # (B, T, 5) float64
    env_idx: np.ndarray  # (B, T, 4) int64
    game_idx: np.ndarray  # (B,) int64
    mask: np.ndarray  # (B, T) 1.0 on valid steps
    targets: dict[str, np.ndarray]  # name -> (B, T)
    ab_mask: np.ndarray  # (B, T), observed-absence flags (already 0 on padding)
    user_ids: list[str]
    game_ids: list[str]
    lengths: np.ndarray  # (B,) int64


def make_batches(traces: Sequence[FeaturizedTrace], batch_size: int) -> list[Batch]:
    """Deterministic batches, bucketed by length to limit padding."""
    if batch_size < 1:
        raise ModelError(f"batch_size must be >= 1, got {batch_size}")
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
        targets = {name: np.zeros((B, T)) for name in TARGET_NAMES}
        for i, ft in enumerate(chunk):
            L = ft.length
            behaviour[i, :L] = ft.behaviour
            env_idx[i, :L] = ft.env_idx
            mask[i, :L] = 1.0
            ab_mask[i, :L] = ft.ab_mask
            targets["ch"][i, :L] = ft.churn
            targets["st"][i, :L] = ft.survival_time
            targets["ss"][i, :L] = ft.survival_sessions
            targets["ab"][i, :L] = ft.absence
        batches.append(
            Batch(
                behaviour=behaviour,
                env_idx=env_idx,
                game_idx=np.asarray([t.game_idx for t in chunk], dtype=np.int64),
                mask=mask,
                targets=targets,
                ab_mask=ab_mask,
                user_ids=[t.user_id for t in chunk],
                game_ids=[t.game_id for t in chunk],
                lengths=np.asarray([t.length for t in chunk], dtype=np.int64),
            )
        )
    return batches


def _loss_masks(batch: Batch) -> dict[str, np.ndarray]:
    return {
        "ch": batch.mask,
        "st": batch.mask,
        "ss": batch.mask,
        "ab": batch.mask * batch.ab_mask,
    }


def _loss_fn(name: str):
    return bce_loss if name == "ch" else smape_loss


def _terms_fn(name: str):
    return neural.bce_terms if name == "ch" else neural.smape_terms


def masked_loss(
    outputs: Mapping[str, np.ndarray], batch: Batch, weights: Sequence[float]
) -> tuple[float, dict[str, float], dict[str, np.ndarray]]:
    """Weighted multitask loss, per-target losses and d loss / d outputs.

    A target whose mask is empty in this batch (e.g. no observed absence
    among length-1 traces) contributes zero loss and zero gradient.
    """
    masks = _loss_masks(batch)
    douts = {}
    per_target = {}
    total = 0.0
    for w, name in zip(weights, TARGET_NAMES):
        if masks[name].sum() == 0.0:
            per_target[name] = 0.0
            douts[name] = np.zeros_like(outputs[name])
            continue
        loss, dpred = _loss_fn(name)(outputs[name], batch.targets[name], masks[name])
        per_target[name] = loss
        total += w * loss
        douts[name] = w * dpred
    return total, per_target, douts


# ---------------------------------------------------------------------------
# Architecture shared by the two neural estimators


@dataclass(frozen=True)
class ArchConfig:
    """Width knobs; embeddings for the day-of-year get twice the base width."""

    hidden_width: int = 64
    d_z: int = 32
    layers: int = 1
    emb_dim: int = 8

    def validate(self) -> None:
        if min(self.hidden_width, self.d_z, self.layers, self.emb_dim) < 1:
            raise ModelError(f"all architecture knobs must be >= 1: {self}")


class _EmbeddingBank:
    """Hour/weekday/yearday/region/game embeddings used by both networks."""

    def __init__(self, vocabs: Vocabularies, emb_dim: int, rng: np.random.Generator):
        self.tables = {
            "hour": Embedding(vocabs.hour.size, emb_dim, rng, "emb_hour"),
            "weekday": Embedding(vocabs.weekday.size, emb_dim, rng, "emb_weekday"),
            "yearday": Embedding(vocabs.yearday.size, 2 * emb_dim, rng, "emb_yearday"),
            "region": Embedding(vocabs.region.size, emb_dim, rng, "emb_region"),
        }
        self.game = Embedding(vocabs.game.size, emb_dim, rng, "emb_game")
        self.env_width = 5 * emb_dim
        self.game_width = emb_dim

    def env_forward(self, env_idx: np.ndarray) -> np.ndarray:
        parts = [
            self.tables["hour"].forward(env_idx[..., 0]),
            self.tables["weekday"].forward(env_idx[..., 1]),
            self.tables["yearday"].forward(env_idx[..., 2]),
            self.tables["region"].forward(env_idx[..., 3]),
        ]
        return np.concatenate(parts, axis=-1)

    def env_backward(self, dout: np.ndarray, emb_dim: int) -> None:
        dh, dw, dy, dr = np.split(dout, [emb_dim, 2 * emb_dim, 4 * emb_dim], axis=-1)
        self.tables["hour"].backward(dh)
        self.tables["weekday"].backward(dw)
        self.tables["yearday"].backward(dy)
        self.tables["region"].backward(dr)

    def layers(self) -> list:
        return list(self.tables.values()) + [self.game]


class _GradientModel:
    """Shared parameter bookkeeping for the backprop-trained estimators."""

    kind = "abstract"

    def __init__(self):
        self._layers: list = []

    def params(self) -> dict[str, np.ndarray]:
        merged: dict[str, np.ndarray] = {}
        for layer in self._layers:
            for k, v in layer.params.items():
                if k in merged:
                    raise ModelError(f"duplicate parameter name {k}")
                merged[k] = v
        return merged

    def _build_heads(self, width: int, rng: np.random.Generator) -> list[Dense]:
        self.heads = {
            name: Dense(width, 1, activation, rng, f"head_{name}")
            for name, activation in HEAD_ACTIVATIONS.items()
        }
        return list(self.heads.values())

    def _heads_forward(self, x: np.ndarray) -> dict[str, np.ndarray]:
        return {name: head.forward(x)[..., 0] for name, head in self.heads.items()}

    def _heads_backward(self, douts: Mapping[str, np.ndarray]) -> np.ndarray:
        dx = None
        for name, head in self.heads.items():
            d = head.backward(douts[name][..., None])
            dx = d if dx is None else dx + d
        return dx

    def grads(self) -> dict[str, np.ndarray]:
        merged: dict[str, np.ndarray] = {}
        for layer in self._layers:
            merged.update(layer.grads)
        return merged

    def zero_grads(self) -> None:
        for layer in self._layers:
            layer.zero_grads()

    def set_params(self, values: Mapping[str, np.ndarray]) -> None:
        own = self.params()
        for k, v in values.items():
            if k not in own:
                raise ModelError(f"unknown parameter {k}")
            if own[k].shape != np.shape(v):
                raise ModelError(f"parameter {k}: shape {np.shape(v)} != {own[k].shape}")
            own[k][...] = v

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params().items()}

    def loss_and_grads(self, batch: Batch, weights: Sequence[float]) -> tuple[float, dict]:
        """masked_loss of a forward pass; accumulates parameter gradients in place."""
        total, per_target, douts = masked_loss(self.forward(batch), batch, weights)
        self.backward(douts)
        return total, per_target


class TdMlp(_GradientModel):
    """Per-step perceptron; strictly Markovian (no state across steps)."""

    kind = "td_mlp"

    def __init__(self, vocabs: Vocabularies, arch: ArchConfig = ArchConfig(), seed: int = 0):
        super().__init__()
        arch.validate()
        self.arch = arch
        self.vocabs = vocabs
        self.seed = seed
        rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        self.bank = _EmbeddingBank(vocabs, arch.emb_dim, rng)
        in_dim = 5 + self.bank.env_width + self.bank.game_width
        self.hidden = []
        width = arch.hidden_width
        for i in range(arch.layers):
            self.hidden.append(Dense(in_dim if i == 0 else width, width, "tanh", rng, f"mlp{i}"))
        self._layers = self.bank.layers() + self.hidden + self._build_heads(width, rng)

    def forward(self, batch: Batch) -> dict[str, np.ndarray]:
        B, T, _ = batch.behaviour.shape
        env = self.bank.env_forward(batch.env_idx)
        game = self.bank.game.forward(batch.game_idx)  # (B, emb)
        game_t = np.broadcast_to(game[:, None, :], (B, T, game.shape[-1])).copy()
        x = np.concatenate([batch.behaviour, env, game_t], axis=-1)
        for layer in self.hidden:
            x = layer.forward(x)
        return self._heads_forward(x)

    def backward(self, douts: Mapping[str, np.ndarray]) -> None:
        dx = self._heads_backward(douts)
        for layer in reversed(self.hidden):
            dx = layer.backward(dx)
        d_beh = dx[..., :5]
        d_env = dx[..., 5 : 5 + self.bank.env_width]
        d_game = dx[..., 5 + self.bank.env_width :]
        self.bank.env_backward(d_env, self.arch.emb_dim)
        self.bank.game.backward(d_game.sum(axis=1))
        del d_beh  # inputs are data, not parameters


class MelchiorModel(_GradientModel):
    """Multitask recurrent estimator; the recurrent state is the embedding z."""

    kind = "melchior"

    def __init__(self, vocabs: Vocabularies, arch: ArchConfig = ArchConfig(), seed: int = 0):
        super().__init__()
        arch.validate()
        self.arch = arch
        self.vocabs = vocabs
        self.seed = seed
        rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
        self.bank = _EmbeddingBank(vocabs, arch.emb_dim, rng)
        branch = max(8, arch.hidden_width // 2)
        self.branch_width = branch

        def stack(in_dim: int, prefix: str) -> list[Dense]:
            layers = []
            for i in range(arch.layers):
                layers.append(
                    Dense(in_dim if i == 0 else branch, branch, "tanh", rng, f"{prefix}{i}")
                )
            return layers

        self.beh_branch = stack(5, "beh")
        self.env_branch = stack(self.bank.env_width, "env")
        self.fusion = Dense(2 * branch + self.bank.game_width, arch.hidden_width, "tanh",
                            rng, "fusion")
        self.gru = GruLayer(arch.hidden_width, arch.d_z, rng, "salience")
        self._layers = (
            self.bank.layers()
            + self.beh_branch
            + self.env_branch
            + [self.fusion, self.gru]
            + self._build_heads(arch.d_z, rng)
        )
        self._hidden = None

    def forward(self, batch: Batch) -> dict[str, np.ndarray]:
        B, T, _ = batch.behaviour.shape
        beh = batch.behaviour
        for layer in self.beh_branch:
            beh = layer.forward(beh)
        env = self.bank.env_forward(batch.env_idx)
        for layer in self.env_branch:
            env = layer.forward(env)
        game = self.bank.game.forward(batch.game_idx)
        game_t = np.broadcast_to(game[:, None, :], (B, T, game.shape[-1])).copy()
        fused = self.fusion.forward(np.concatenate([beh, env, game_t], axis=-1))
        z = self.gru.forward(fused, mask=batch.mask)
        self._hidden = z
        return self._heads_forward(z)

    @property
    def hidden_states(self) -> np.ndarray:
        """Salience-layer activations (B, T, d_z) from the last forward pass."""
        if self._hidden is None:
            raise ModelError("no forward pass has been run")
        return self._hidden

    def backward(self, douts: Mapping[str, np.ndarray]) -> None:
        dfused = self.gru.backward(self._heads_backward(douts))
        dcat = self.fusion.backward(dfused)
        b = self.branch_width
        d_beh = dcat[..., :b]
        d_env = dcat[..., b : 2 * b]
        d_game = dcat[..., 2 * b :]
        for layer in reversed(self.beh_branch):
            d_beh = layer.backward(d_beh)
        for layer in reversed(self.env_branch):
            d_env = layer.backward(d_env)
        self.bank.env_backward(d_env, self.arch.emb_dim)
        self.bank.game.backward(d_game.sum(axis=1))


# ---------------------------------------------------------------------------
# Elastic net baseline


def soft_threshold(x: np.ndarray, tau: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


def _spectral_norm_sq(X: np.ndarray, iters: int = 60) -> float:
    # Power iteration on X^T X with a deterministic start vector.
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


def enet_solve(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    l1_ratio: float,
    loss: str = "squared",
    fit_intercept: bool = True,
    tol: float = 1e-8,
    max_iter: int = 5000,
) -> np.ndarray:
    """Accelerated proximal gradient for the elastic-net problem.

    Minimises 0.5 * ||X w - y||^2 (or the summed logistic cross entropy of
    sigmoid(X w) for loss='bce') plus lam * (l1_ratio * ||w||_1
    + 0.5 * (1 - l1_ratio) * ||w||^2).  The intercept, when fitted, is an
    extra unpenalised coordinate.  Returns the weight vector (intercept
    last when fitted).
    """
    if lam < 0:
        raise ModelError(f"penalty lam must be >= 0, got {lam}")
    if not 0.0 <= l1_ratio <= 1.0:
        raise ModelError(f"l1_ratio must lie in [0, 1], got {l1_ratio}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if fit_intercept:
        X = np.concatenate([X, np.ones((X.shape[0], 1))], axis=1)
    n, d = X.shape
    penalised = np.ones(d)
    if fit_intercept:
        penalised[-1] = 0.0

    sq_norm = _spectral_norm_sq(X) * 1.02 + 1e-12
    L = sq_norm if loss == "squared" else sq_norm / 4.0
    L += lam * (1.0 - l1_ratio)
    l1 = lam * l1_ratio

    def smooth_grad(w: np.ndarray) -> np.ndarray:
        if loss == "squared":
            resid = X @ w - y
        elif loss == "bce":
            resid = neural.sigmoid(X @ w) - y
        else:
            raise ModelError(f"unknown enet loss {loss!r}")
        return X.T @ resid + lam * (1.0 - l1_ratio) * penalised * w

    w = np.zeros(d)
    z = w.copy()
    t_acc = 1.0
    for _ in range(max_iter):
        step = z - smooth_grad(z) / L
        w_new = np.where(penalised > 0, soft_threshold(step, l1 / L), step)
        if not np.all(np.isfinite(w_new)):
            raise ModelError("elastic-net iteration produced a non-finite loss")
        t_new = (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc)) / 2.0
        z = w_new + ((t_acc - 1.0) / t_new) * (w_new - w)
        change = float(np.max(np.abs(w_new - w)))
        w = w_new
        t_acc = t_new
        if change < tol:
            break
    return w


class TdEnet:
    """Per-target elastic-net linear model on one-hot context; order 1."""

    kind = "td_enet"

    def __init__(self, vocabs: Vocabularies, lam: float = 1e-3, l1_ratio: float = 0.5,
                 seed: int = 0, max_iter: int = 3000):
        self.vocabs = vocabs
        self.lam = float(lam)
        self.l1_ratio = float(l1_ratio)
        self.seed = seed
        self.max_iter = max_iter
        self.weights: dict[str, np.ndarray] = {}
        self._onehot_sizes = (
            vocabs.hour.size,
            vocabs.weekday.size,
            vocabs.yearday.size,
            vocabs.region.size,
            vocabs.game.size,
        )

    @property
    def feature_width(self) -> int:
        return 5 + sum(self._onehot_sizes)

    def _design_rows(self, batch: Batch) -> np.ndarray:
        B, T, _ = batch.behaviour.shape
        blocks = [batch.behaviour]
        for j, size in enumerate(self._onehot_sizes[:4]):
            eye = np.eye(size)
            blocks.append(eye[batch.env_idx[..., j]])
        eye_game = np.eye(self._onehot_sizes[4])
        game = eye_game[batch.game_idx]  # (B, size)
        blocks.append(np.broadcast_to(game[:, None, :], (B, T, game.shape[-1])).copy())
        return np.concatenate(blocks, axis=-1)

    def fit(self, traces: Sequence[FeaturizedTrace], batch_size: int = 256) -> "TdEnet":
        batches = make_batches(traces, batch_size)
        rows = []
        targs = {name: [] for name in TARGET_NAMES}
        for batch in batches:
            design = self._design_rows(batch)
            masks = _loss_masks(batch)
            valid = batch.mask > 0
            rows.append(design[valid])
            for name in TARGET_NAMES:
                targs[name].append((batch.targets[name][valid], masks[name][valid]))
        X = np.concatenate(rows, axis=0)
        for name in TARGET_NAMES:
            y = np.concatenate([t for t, _ in targs[name]])
            m = np.concatenate([m for _, m in targs[name]])
            X_t = X[m > 0]
            y_t = y[m > 0]
            if X_t.shape[0] == 0:
                self.weights[name] = np.zeros(self.feature_width + 1)
                continue
            self.weights[name] = enet_solve(
                X_t,
                y_t,
                self.lam,
                self.l1_ratio,
                loss="bce" if name == "ch" else "squared",
                fit_intercept=True,
                max_iter=self.max_iter,
            )
        return self

    def forward(self, batch: Batch) -> dict[str, np.ndarray]:
        if not self.weights:
            raise ModelError("TdEnet.forward before fit")
        design = self._design_rows(batch)
        out = {}
        for name in TARGET_NAMES:
            w = self.weights[name]
            pred = design @ w[:-1] + w[-1]
            if name == "ch":
                out[name] = neural.sigmoid(pred)
            else:
                out[name] = np.maximum(pred, 0.0)  # SMAPE operands must be >= 0
        return out

    def params(self) -> dict[str, np.ndarray]:
        return {f"enet.{name}": w for name, w in self.weights.items()}

    def set_params(self, values: Mapping[str, np.ndarray]) -> None:
        for name in TARGET_NAMES:
            self.weights[name] = np.asarray(values[f"enet.{name}"], dtype=np.float64).copy()


# ---------------------------------------------------------------------------
# Training loop (gradient models)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    lr: float = 3e-3
    patience: int = 8
    seed: int = 0
    loss_weights: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    val_fraction: float = 0.15
    clip_norm: float = 5.0

    def validate(self) -> None:
        if min(self.epochs, self.batch_size, self.patience) < 1:
            raise ModelError(f"epochs, batch_size, patience must be >= 1: {self}")
        if self.lr <= 0 or self.clip_norm <= 0:
            raise ModelError("lr and clip_norm must be positive")
        if not 0.0 < self.val_fraction < 1.0:
            raise ModelError(f"val_fraction must lie in (0, 1), got {self.val_fraction}")
        if any(w < 0 for w in self.loss_weights) or abs(sum(self.loss_weights) - 1.0) > 1e-9:
            raise ModelError(f"loss weights must be >= 0 and sum to 1: {self.loss_weights}")


def _epoch_loss(model, batches: Sequence[Batch], weights: Sequence[float]) -> float:
    total = 0.0
    count = 0.0
    for batch in batches:
        loss, _, _ = masked_loss(model.forward(batch), batch, weights)
        n = float(batch.mask.sum())
        total += loss * n
        count += n
    if count == 0:
        raise ModelError("no valid steps to evaluate")
    return total / count


def train(
    model,
    split: DatasetSplit,
    config: TrainConfig,
    train_traces: Optional[Sequence[FeaturizedTrace]] = None,
    val_traces: Optional[Sequence[FeaturizedTrace]] = None,
) -> list[dict]:
    """Train a gradient model with early stopping on a held-out user subset.

    By default a validation fraction is carved from the training split by
    user; the test split is never touched.  Returns the per-epoch history
    and leaves the model holding its best-validation parameters.
    """
    config.validate()
    if train_traces is None or val_traces is None:
        ids = [t.user_id for t in split.train]
        fit_users, val_users = split_users(ids, 1.0 - config.val_fraction, config.seed)
        train_traces = [t for t in split.train if t.user_id in fit_users]
        val_traces = [t for t in split.train if t.user_id in val_users]
    if not train_traces or not val_traces:
        raise ModelError("training requires non-empty fit and validation subsets")

    train_batches = make_batches(train_traces, config.batch_size)
    val_batches = make_batches(val_traces, config.batch_size)
    adam = AdamState(lr=config.lr, clip_norm=config.clip_norm)
    params = model.params()

    history: list[dict] = []
    best_val = math.inf
    best_params = model.snapshot()
    stale = 0
    for epoch in range(config.epochs):
        order = np.random.default_rng(
            np.random.SeedSequence((config.seed, epoch))
        ).permutation(len(train_batches))
        running = 0.0
        running_n = 0.0
        for b in order:
            batch = train_batches[b]
            model.zero_grads()
            loss, _ = model.loss_and_grads(batch, config.loss_weights)
            if not math.isfinite(loss):
                raise ModelError(f"training diverged at epoch {epoch} (non-finite loss)")
            adam.step(params, model.grads())
            n = float(batch.mask.sum())
            running += loss * n
            running_n += n
        val = _epoch_loss(model, val_batches, config.loss_weights)
        history.append({"epoch": epoch, "train": running / running_n, "val": val})
        if val < best_val - 1e-12:
            best_val = val
            best_params = model.snapshot()
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    model.set_params(best_params)
    return history


# ---------------------------------------------------------------------------
# Evaluation


@dataclass
class EvalReport:
    """Masked per-target test losses, overall and per (game, session index)."""

    overall: dict[str, float]
    cells: list[dict]

    def to_json(self) -> str:
        return json.dumps(
            {"overall": self.overall, "cells": self.cells}, sort_keys=True, indent=2
        ) + "\n"

    def cell_rows(self) -> list[tuple]:
        return [
            (c["game"], c["session_index"], c["target"], c["loss"], c["count"])
            for c in self.cells
        ]


def evaluate_outputs(
    batches: Sequence[Batch],
    outputs_per_batch: Sequence[Mapping[str, np.ndarray]],
) -> EvalReport:
    """Aggregate per-target losses from precomputed outputs.

    Each cell (game, session index) sums its terms with one bincount per
    target over the valid steps of all batches, taken batch by batch and row
    by row, so every cell adds its terms in trace and step order.
    """
    games = sorted({g for batch in batches for g in batch.game_ids})
    game_code = {g: i for i, g in enumerate(games)}
    width = max((batch.mask.shape[1] for batch in batches), default=0)
    overall_sum = {name: 0.0 for name in TARGET_NAMES}
    overall_cnt = {name: 0.0 for name in TARGET_NAMES}
    cell_keys: dict[str, list[np.ndarray]] = {name: [] for name in TARGET_NAMES}
    cell_terms: dict[str, list[np.ndarray]] = {name: [] for name in TARGET_NAMES}
    for batch, outputs in zip(batches, outputs_per_batch):
        masks = _loss_masks(batch)
        codes = np.asarray([game_code[g] for g in batch.game_ids], dtype=np.int64)
        keys = codes[:, None] * width + np.arange(batch.mask.shape[1])
        for name in TARGET_NAMES:
            terms = _terms_fn(name)(outputs[name], batch.targets[name])
            m = masks[name]
            overall_sum[name] += float((terms * m).sum())
            overall_cnt[name] += float(m.sum())
            valid = m != 0.0
            cell_keys[name].append(keys[valid])
            cell_terms[name].append(terms[valid])
    if any(c == 0.0 for name, c in overall_cnt.items() if name != "ab"):
        raise ModelError("evaluation saw no valid steps")
    overall = {
        name: (overall_sum[name] / overall_cnt[name]) if overall_cnt[name] else 0.0
        for name in TARGET_NAMES
    }
    cells = []
    for name in TARGET_NAMES:
        keys = np.concatenate(cell_keys[name])
        sums = np.bincount(keys, weights=np.concatenate(cell_terms[name]))
        counts = np.bincount(keys)
        for key in np.flatnonzero(counts):
            game, step = divmod(int(key), width)
            count = int(counts[key])
            cells.append({"game": games[game], "session_index": step + 1, "target": name,
                          "loss": float(sums[key]) / count, "count": count})
    cells.sort(key=lambda c: (c["game"], c["session_index"], c["target"]))
    return EvalReport(overall=overall, cells=cells)


def evaluate(model, traces: Sequence[FeaturizedTrace], batch_size: int = 64) -> EvalReport:
    """Masked per-target losses of a trained model on held-out traces."""
    if not traces:
        raise ModelError("evaluate requires a non-empty test split")
    batches = make_batches(traces, batch_size)
    outputs = [model.forward(batch) for batch in batches]
    return evaluate_outputs(batches, outputs)


# ---------------------------------------------------------------------------
# Embedding extraction


def extract_embedding(
    model: MelchiorModel, traces: Sequence[FeaturizedTrace], batch_size: int = 64
) -> dict[str, np.ndarray]:
    """Salience-layer activations per (user, step) from a plain forward pass.

    The result is keyed by user, so a user with traces in several games is
    rejected rather than keeping only one of them.
    """
    out: dict[str, np.ndarray] = {}
    for batch in make_batches(traces, batch_size):
        model.forward(batch)
        z = model.hidden_states
        for i, user in enumerate(batch.user_ids):
            if user in out:
                raise ModelError(
                    f"user {user} has more than one trace; embeddings are keyed by user"
                )
            L = int(batch.lengths[i])
            out[user] = z[i, :L].copy()
    return out


# ---------------------------------------------------------------------------
# Persistence


def save_model(model, path: str | Path) -> None:
    meta: dict = {"kind": model.kind, "seed": model.seed}
    if isinstance(model, TdEnet):
        meta["enet"] = {"lam": model.lam, "l1_ratio": model.l1_ratio, "seed": model.seed,
                        "max_iter": model.max_iter}
    else:
        meta["arch"] = asdict(model.arch)
    neural.save_checkpoint(path, model.params(), meta)


def load_model(path: str | Path, vocabs: Vocabularies):
    params, meta = neural.load_checkpoint(path)
    kind = meta.get("kind")
    if kind == "td_enet":
        model = TdEnet(vocabs, **meta["enet"])
    elif kind == "td_mlp":
        model = TdMlp(vocabs, ArchConfig(**meta["arch"]), meta["seed"])
    elif kind == "melchior":
        model = MelchiorModel(vocabs, ArchConfig(**meta["arch"]), meta["seed"])
    else:
        raise ModelError(f"unknown model kind {kind!r} in checkpoint")
    model.set_params(params)
    return model


def build_model(kind: str, vocabs: Vocabularies, arch: ArchConfig = ArchConfig(),
                seed: int = 0, lam: float = 1e-3, l1_ratio: float = 0.5):
    if kind == "td_enet":
        return TdEnet(vocabs, lam=lam, l1_ratio=l1_ratio, seed=seed)
    if kind == "td_mlp":
        return TdMlp(vocabs, arch, seed)
    if kind == "melchior":
        return MelchiorModel(vocabs, arch, seed)
    raise ModelError(f"unknown model kind {kind!r}")
