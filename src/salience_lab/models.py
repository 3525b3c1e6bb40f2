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

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from . import neural
from .features import (ENV_FIELDS, TARGETS, DatasetSplit, FeatureTable, Vocabularies,
                       carve_validation)
from .neural import (AdamState, Dense, Embedding, GruLayer, Heads, bce_loss, bce_terms,
                     smape_loss, smape_terms)

#: Per target, in TARGETS order (the order heads draw from the RNG): the output
#: head's activation, the masked loss and its per-element terms.
HEADS = {
    "ch": ("sigmoid", bce_loss, bce_terms),
    "st": ("softplus", smape_loss, smape_terms),
    "ss": ("softplus", smape_loss, smape_terms),
    "ab": ("softplus", smape_loss, smape_terms),
}


class ModelError(ValueError):
    """Invalid model configuration, divergence, or evaluation misuse."""


# ---------------------------------------------------------------------------
# Batching


@dataclass
class Batch:
    """Padded variable-length sequences with a validity mask."""

    behaviour: np.ndarray  # (B, T, 5) float64
    env_idx: np.ndarray  # (B, T, len(ENV_FIELDS)) int64
    game_idx: np.ndarray  # (B,) int64
    mask: np.ndarray  # (B, T) 1.0 on valid steps
    targets: dict[str, np.ndarray]  # name -> (B, T)
    ab_mask: np.ndarray  # (B, T), observed-absence flags (already 0 on padding)
    index: np.ndarray  # (B,) int64, each trace's position in the batched table
    lengths: np.ndarray  # (B,) int64


def make_batches(traces: FeatureTable, batch_size: int) -> list[Batch]:
    """Deterministic batches, bucketed by length to limit padding.

    The traces are ordered by (length, user_id), ties kept in table order, and
    each batch takes its traces' rows at once and pads them with zeros.
    """
    if batch_size < 1:
        raise ModelError(f"batch_size must be >= 1, got {batch_size}")
    order = np.lexsort((traces.user_id, traces.lengths))
    batches = []
    for lo in range(0, len(order), batch_size):
        index = order[lo : lo + batch_size]
        chunk = traces.take(index)
        lengths = chunk.lengths
        valid = np.arange(lengths.max()) < lengths[:, None]  # (B, T)

        def padded(rows: np.ndarray) -> np.ndarray:
            out = np.zeros(valid.shape + rows.shape[1:], dtype=rows.dtype)
            out[valid] = rows
            return out

        batches.append(
            Batch(
                behaviour=padded(chunk.behaviour),
                env_idx=padded(chunk.env_idx),
                game_idx=chunk.game_idx,
                mask=valid.astype(np.float64),
                targets={name: padded(getattr(chunk, field)) for name, field in TARGETS.items()},
                ab_mask=padded(chunk.ab_mask),
                index=index,
                lengths=lengths,
            )
        )
    return batches


def _loss_masks(batch: Batch) -> dict[str, np.ndarray]:
    return {name: batch.mask * batch.ab_mask if name == "ab" else batch.mask
            for name in TARGETS}


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
    for w, (name, (_, loss_fn, _)) in zip(weights, HEADS.items()):
        if masks[name].sum() == 0.0:
            per_target[name] = 0.0
            douts[name] = np.zeros_like(outputs[name])
            continue
        loss, dpred = loss_fn(outputs[name], batch.targets[name], masks[name])
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
    """Embeddings of the context fields (features.ENV_FIELDS) and of the game.

    The day-of-year table gets twice the base width.
    """

    def __init__(self, vocabs: Vocabularies, emb_dim: int, rng: np.random.Generator):
        widths = [2 * emb_dim if name == "yearday" else emb_dim for name in ENV_FIELDS]
        self.tables = [Embedding(getattr(vocabs, name).size, width, rng, f"emb_{name}")
                       for name, width in zip(ENV_FIELDS, widths)]
        self.game = Embedding(vocabs.game.size, emb_dim, rng, "emb_game")
        self.splits = np.cumsum(widths)[:-1]
        self.env_width = sum(widths)
        self.game_width = emb_dim

    def forward(self, batch: Batch) -> tuple[np.ndarray, np.ndarray]:
        """Context embeddings (B, T, env_width) and the game's, per step (B, T, game_width)."""
        env = np.concatenate([table.forward(batch.env_idx[..., j])
                              for j, table in enumerate(self.tables)], axis=-1)
        game = self.game.forward(batch.game_idx)
        return env, np.broadcast_to(game[:, None, :], (*env.shape[:-1], self.game_width))

    def backward(self, d_env: np.ndarray, d_game: np.ndarray) -> None:
        for table, d in zip(self.tables, np.split(d_env, self.splits, axis=-1)):
            table.backward(d)
        self.game.backward(d_game.sum(axis=1))

    def layers(self) -> list:
        return self.tables + [self.game]


def _check_params(values: Mapping[str, np.ndarray], shapes: Mapping[str, tuple]) -> None:
    """Raise ModelError unless values holds exactly the named arrays, each of its shape."""
    missing = [k for k in shapes if k not in values]
    if missing:
        raise ModelError(f"missing parameter {', '.join(missing)}")
    for k, v in values.items():
        if k not in shapes:
            raise ModelError(f"unknown parameter {k}")
        if shapes[k] != np.shape(v):
            raise ModelError(f"parameter {k}: shape {np.shape(v)} != {shapes[k]}")


def _tanh_stack(in_dim: int, width: int, depth: int, rng: np.random.Generator,
                prefix: str) -> list[Dense]:
    """depth tanh Dense layers of the given width, named prefix0, prefix1, ..."""
    return [Dense(in_dim if i == 0 else width, width, "tanh", rng, f"{prefix}{i}")
            for i in range(depth)]


class _GradientModel:
    """Construction and parameter bookkeeping of the backprop-trained estimators.

    A model draws from its own stream (seed, cls.stream): the embedding bank,
    then the layers its _build(rng) returns, then the four output heads.  All
    parameters live in one flat vector theta and their gradients in one
    vector grad; the layers' arrays and the params()/grads() entries are views.
    """

    kind = "abstract"

    def __init__(self, vocabs: Vocabularies, arch: ArchConfig = ArchConfig(), seed: int = 0):
        arch.validate()
        self.arch = arch
        self.vocabs = vocabs
        self.seed = seed
        rng = np.random.default_rng(np.random.SeedSequence((seed, self.stream)))
        self.bank = _EmbeddingBank(vocabs, arch.emb_dim, rng)
        own, width = self._build(rng)
        self.heads = Heads(width, [f"head_{name}" for name in HEADS],
                           [activation for activation, _, _ in HEADS.values()], rng)
        self._own(self.bank.layers() + own + [self.heads])

    def _build(self, rng: np.random.Generator) -> tuple[list, int]:
        """Draw the model's own layers; return them and the width the heads read."""
        raise NotImplementedError

    def _own(self, layers: list) -> None:
        """Move every layer's arrays into theta and grad; build the name dicts."""
        self.theta = np.empty(sum(p.size for layer in layers for p in layer.params.values()))
        self.grad = np.zeros_like(self.theta)
        self._params, self._grads = {}, {}
        offset = 0
        for layer in layers:
            offset = layer.move_into(self.theta, self.grad, offset)
            for k in layer.params:
                if k in self._params:
                    raise ModelError(f"duplicate parameter name {k}")
            self._params.update(layer.params)
            self._grads.update(layer.grads)

    def params(self) -> dict[str, np.ndarray]:
        return self._params

    def grads(self) -> dict[str, np.ndarray]:
        return self._grads

    def _heads_forward(self, x: np.ndarray) -> dict[str, np.ndarray]:
        return dict(zip(HEADS, self.heads.forward(x)))

    def _heads_backward(self, douts: Mapping[str, np.ndarray]) -> np.ndarray:
        return self.heads.backward([douts[name] for name in HEADS])

    def zero_grads(self) -> None:
        self.grad[...] = 0.0

    def set_params(self, values: Mapping[str, np.ndarray]) -> None:
        own = self.params()
        _check_params(values, {k: p.shape for k, p in own.items()})
        for k, v in values.items():
            own[k][...] = v

    def loss_and_grads(self, batch: Batch, weights: Sequence[float]) -> tuple[float, dict]:
        """masked_loss of a forward pass; accumulates parameter gradients in place."""
        total, per_target, douts = masked_loss(self.forward(batch), batch, weights)
        self.backward(douts)
        return total, per_target


class TdMlp(_GradientModel):
    """Per-step perceptron; strictly Markovian (no state across steps)."""

    kind = "td_mlp"
    stream = 1

    def _build(self, rng: np.random.Generator) -> tuple[list, int]:
        in_dim = 5 + self.bank.env_width + self.bank.game_width
        self.hidden = _tanh_stack(in_dim, self.arch.hidden_width, self.arch.layers, rng, "mlp")
        return self.hidden, self.arch.hidden_width

    def forward(self, batch: Batch) -> dict[str, np.ndarray]:
        x = np.concatenate([batch.behaviour, *self.bank.forward(batch)], axis=-1)
        for layer in self.hidden:
            x = layer.forward(x)
        return self._heads_forward(x)

    def backward(self, douts: Mapping[str, np.ndarray]) -> None:
        dx = self._heads_backward(douts)
        for layer in reversed(self.hidden):
            dx = layer.backward(dx)
        _, d_env, d_game = np.split(dx, [5, 5 + self.bank.env_width], axis=-1)
        self.bank.backward(d_env, d_game)


class MelchiorModel(_GradientModel):
    """Multitask recurrent estimator; the recurrent state is the embedding z."""

    kind = "melchior"
    stream = 2
    _hidden: Optional[np.ndarray] = None

    def _build(self, rng: np.random.Generator) -> tuple[list, int]:
        arch = self.arch
        self.branch_width = branch = max(8, arch.hidden_width // 2)
        self.beh_branch = _tanh_stack(5, branch, arch.layers, rng, "beh")
        self.env_branch = _tanh_stack(self.bank.env_width, branch, arch.layers, rng, "env")
        self.fusion = Dense(2 * branch + self.bank.game_width, arch.hidden_width, "tanh",
                            rng, "fusion")
        self.gru = GruLayer(arch.hidden_width, arch.d_z, rng, "salience")
        return self.beh_branch + self.env_branch + [self.fusion, self.gru], arch.d_z

    def forward(self, batch: Batch) -> dict[str, np.ndarray]:
        beh = batch.behaviour
        for layer in self.beh_branch:
            beh = layer.forward(beh)
        env, game = self.bank.forward(batch)
        for layer in self.env_branch:
            env = layer.forward(env)
        fused = self.fusion.forward(np.concatenate([beh, env, game], axis=-1))
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
        b = self.branch_width
        d_beh, d_env, d_game = np.split(self.fusion.backward(dfused), [b, 2 * b], axis=-1)
        for layer in reversed(self.beh_branch):
            d_beh = layer.backward(d_beh)
        for layer in reversed(self.env_branch):
            d_env = layer.backward(d_env)
        self.bank.backward(d_env, d_game)


# ---------------------------------------------------------------------------
# Elastic net baseline


def soft_threshold(x: np.ndarray, tau: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


def _spectral_norm_sq(gram: np.ndarray, iters: int = 60) -> float:
    # Power iteration on the Gram matrix X^T X with a deterministic start vector.
    v = np.ones(gram.shape[1]) / math.sqrt(gram.shape[1])
    est = 0.0
    for _ in range(iters):
        w = gram @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        v = w / norm
        est = norm
    return est


@dataclass(frozen=True)
class EnetFit:
    """Weights of one elastic-net solve and how its iteration ended."""

    weights: np.ndarray
    iterations: int
    converged: bool  # the last iteration moved no weight by tol or more


def enet_solve(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    l1_ratio: float,
    loss: str = "squared",
    fit_intercept: bool = True,
    tol: float = 1e-8,
    max_iter: int = 5000,
) -> EnetFit:
    """Accelerated proximal gradient for the elastic-net problem.

    Minimises 0.5 * ||X w - y||^2 (or the summed logistic cross entropy of
    sigmoid(X w) for loss='bce') plus lam * (l1_ratio * ||w||_1
    + 0.5 * (1 - l1_ratio) * ||w||^2).  The intercept, when fitted, is an
    extra unpenalised coordinate.  The weights have one entry per column of
    X, intercept last when fitted.

    Only the columns of X with a non-zero entry are solved for.  An all-zero
    column has zero gradient, so its weight stays at 0 under the penalty and
    the live columns reach the same fixed point as the full problem.  For the
    squared loss the gradient is X^T X w - X^T y, with both products formed
    once (the covariance updates of Friedman, Hastie & Tibshirani 2010).
    """
    if loss not in ("squared", "bce"):
        raise ModelError(f"unknown enet loss {loss!r}, expected 'squared' or 'bce'")
    if lam < 0:
        raise ModelError(f"penalty lam must be >= 0, got {lam}")
    if not 0.0 <= l1_ratio <= 1.0:
        raise ModelError(f"l1_ratio must lie in [0, 1], got {l1_ratio}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, width = X.shape
    live = np.flatnonzero(X.any(axis=0))
    X = X[:, live]
    if fit_intercept:
        X = np.concatenate([X, np.ones((n, 1))], axis=1)
        live = np.append(live, width)
    d = X.shape[1]
    penalised = np.ones(d)
    if fit_intercept:
        penalised[-1] = 0.0
    ridge = lam * (1.0 - l1_ratio) * penalised

    gram = X.T @ X
    sq_norm = _spectral_norm_sq(gram) * 1.02 + 1e-12
    L = sq_norm if loss == "squared" else sq_norm / 4.0
    L += lam * (1.0 - l1_ratio)
    l1 = lam * l1_ratio
    xty = X.T @ y

    def smooth_grad(w: np.ndarray) -> np.ndarray:
        if loss == "squared":
            data = gram @ w - xty
        else:
            data = X.T @ (neural.sigmoid(X @ w) - y)
        return data + ridge * w

    w = np.zeros(d)
    z = w.copy()
    t_acc = 1.0
    iterations, converged = 0, False
    while iterations < max_iter and not converged:
        step = z - smooth_grad(z) / L
        w_new = np.where(penalised > 0, soft_threshold(step, l1 / L), step)
        if not np.all(np.isfinite(w_new)):
            raise ModelError("elastic-net iteration produced non-finite weights")
        t_new = (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc)) / 2.0
        z = w_new + ((t_acc - 1.0) / t_new) * (w_new - w)
        converged = float(np.max(np.abs(w_new - w), initial=0.0)) < tol
        w = w_new
        t_acc = t_new
        iterations += 1
    weights = np.zeros(width + int(fit_intercept))
    weights[live] = w
    return EnetFit(weights, iterations, converged)


class TdEnet:
    """Per-target elastic-net linear model on one-hot context; order 1.

    The design row of a step is its 5 behaviour features, then one one-hot
    block each for the context fields (features.ENV_FIELDS) and the game.
    """

    kind = "td_enet"

    def __init__(self, vocabs: Vocabularies, lam: float = 1e-2, l1_ratio: float = 0.5,
                 seed: int = 0, max_iter: int = 1200):
        self.vocabs = vocabs
        self.lam = float(lam)
        self.l1_ratio = float(l1_ratio)
        self.seed = seed
        self.max_iter = max_iter
        self.weights: dict[str, np.ndarray] = {}
        #: target -> (iterations run, whether tol was met) of the last fit
        self.convergence: dict[str, tuple[int, bool]] = {}
        self._onehot_sizes = tuple(getattr(vocabs, name).size for name in (*ENV_FIELDS, "game"))
        self._block_starts = 5 + np.cumsum((0,) + self._onehot_sizes[:-1])

    @property
    def feature_width(self) -> int:
        return 5 + sum(self._onehot_sizes)

    def _hot_columns(self, env_idx: np.ndarray, game_idx: np.ndarray) -> np.ndarray:
        """Design column of each one-hot block's 1 per step: (..., 5) int64.

        env_idx is (..., len(ENV_FIELDS)) and game_idx has the same leading shape.
        """
        return np.concatenate([env_idx, game_idx[..., None]], axis=-1) + self._block_starts

    def _design(self, behaviour: np.ndarray, hot: np.ndarray) -> np.ndarray:
        """Design matrix of the rows with behaviour (n, 5) and hot columns (n, 5).

        Column-major, so the pages of the one-hot columns that no row uses are
        never written and take no memory.
        """
        X = np.zeros((len(behaviour), self.feature_width), order="F")
        X[:, :5] = behaviour
        X[np.arange(len(X))[:, None], hot] = 1.0
        return X

    def fit(self, traces: FeatureTable) -> "TdEnet":
        if not traces:
            raise ModelError("TdEnet.fit requires at least one trace")
        behaviour = traces.behaviour
        hot = self._hot_columns(traces.env_idx, np.repeat(traces.game_idx, traces.lengths))
        # Absence is fitted where it is observed only; with no such row its weights are 0.
        observed = traces.ab_mask > 0
        X_all = self._design(behaviour, hot)
        X_observed = self._design(behaviour[observed], hot[observed])
        for name, field in TARGETS.items():
            y = getattr(traces, field)
            X, y = (X_observed, y[observed]) if name == "ab" else (X_all, y)
            fit = enet_solve(
                X,
                y,
                self.lam,
                self.l1_ratio,
                loss="bce" if name == "ch" else "squared",
                fit_intercept=True,
                max_iter=self.max_iter,
            )
            self.weights[name] = fit.weights
            self.convergence[name] = (fit.iterations, fit.converged)
        return self

    def forward(self, batch: Batch) -> dict[str, np.ndarray]:
        if not self.weights:
            raise ModelError("TdEnet.forward before fit")
        game_idx = np.broadcast_to(batch.game_idx[:, None], batch.mask.shape)
        hot = self._hot_columns(batch.env_idx, game_idx)
        out = {}
        for name in TARGETS:
            w = self.weights[name]
            pred = batch.behaviour @ w[:5] + w[hot].sum(axis=-1) + w[-1]
            if name == "ch":
                out[name] = neural.sigmoid(pred)
            else:
                out[name] = np.maximum(pred, 0.0)  # SMAPE operands must be >= 0
        return out

    def params(self) -> dict[str, np.ndarray]:
        return {f"enet.{name}": w for name, w in self.weights.items()}

    def set_params(self, values: Mapping[str, np.ndarray]) -> None:
        _check_params(values, {f"enet.{name}": (self.feature_width + 1,) for name in TARGETS})
        for name in TARGETS:
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
    train_traces: Optional[FeatureTable] = None,
    val_traces: Optional[FeatureTable] = None,
) -> list[dict]:
    """Train a gradient model with early stopping on a held-out user subset.

    By default a validation fraction is carved from the training split by
    user; the test split is never touched.  Returns the per-epoch history
    and leaves the model holding its best-validation parameters; the row of
    the epoch they come from carries "best": True.
    """
    config.validate()
    if train_traces is None or val_traces is None:
        train_traces, val_traces = carve_validation(split.train, config.val_fraction,
                                                    config.seed)
    if not train_traces or not val_traces:
        raise ModelError("training requires non-empty fit and validation subsets")

    train_batches = make_batches(train_traces, config.batch_size)
    val_batches = make_batches(val_traces, config.batch_size)
    adam = AdamState(lr=config.lr)

    history: list[dict] = []
    best_val, best_row = math.inf, None
    best_theta = model.theta.copy()
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
            neural.clip_gradients(model.grads(), config.clip_norm)
            adam.step(model.theta, model.grad)
            n = float(batch.mask.sum())
            running += loss * n
            running_n += n
        val = _epoch_loss(model, val_batches, config.loss_weights)
        history.append({"epoch": epoch, "train": running / running_n, "val": val})
        if val < best_val - 1e-12:
            best_val, best_row = val, history[-1]
            best_theta = model.theta.copy()
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    model.theta[...] = best_theta
    if best_row is not None:
        best_row["best"] = True
    return history


# ---------------------------------------------------------------------------
# Evaluation


@dataclass
class EvalReport:
    """Masked per-target test losses, overall and per (game, session index)."""

    overall: dict[str, float]
    cells: list[dict]


def evaluate_outputs(
    traces: FeatureTable,
    batches: Sequence[Batch],
    outputs_per_batch: Sequence[Mapping[str, np.ndarray]],
) -> EvalReport:
    """Aggregate per-target losses from precomputed outputs on batches of traces.

    Each cell (game, session index) sums its terms with one bincount per
    target over the valid steps of all batches, taken batch by batch and row
    by row, so every cell adds its terms in trace and step order.
    """
    games, game_codes = np.unique(traces.game_id, return_inverse=True)
    width = max((batch.mask.shape[1] for batch in batches), default=0)
    overall_sum = {name: 0.0 for name in TARGETS}
    overall_cnt = {name: 0.0 for name in TARGETS}
    cell_keys: dict[str, list[np.ndarray]] = {name: [] for name in TARGETS}
    cell_terms: dict[str, list[np.ndarray]] = {name: [] for name in TARGETS}
    for batch, outputs in zip(batches, outputs_per_batch):
        masks = _loss_masks(batch)
        keys = game_codes[batch.index][:, None] * width + np.arange(batch.mask.shape[1])
        for name, (_, _, terms_fn) in HEADS.items():
            terms = terms_fn(outputs[name], batch.targets[name])
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
        for name in TARGETS
    }
    cells = []
    for name in TARGETS:
        keys = np.concatenate(cell_keys[name])
        sums = np.bincount(keys, weights=np.concatenate(cell_terms[name]))
        counts = np.bincount(keys)
        for key in np.flatnonzero(counts):
            game, step = divmod(int(key), width)
            count = int(counts[key])
            cells.append({"game": str(games[game]), "session_index": step + 1, "target": name,
                          "loss": float(sums[key]) / count, "count": count})
    cells.sort(key=lambda c: (c["game"], c["session_index"], c["target"]))
    return EvalReport(overall=overall, cells=cells)


def evaluate(model, traces: FeatureTable, batch_size: int = 64) -> EvalReport:
    """Masked per-target losses of a trained model on held-out traces."""
    if not traces:
        raise ModelError("evaluate requires a non-empty test split")
    batches = make_batches(traces, batch_size)
    outputs = [model.forward(batch) for batch in batches]
    return evaluate_outputs(traces, batches, outputs)


# ---------------------------------------------------------------------------
# Embedding extraction


def extract_embedding(model: MelchiorModel, traces: FeatureTable,
                      batch_size: int = 64) -> np.ndarray:
    """Each trace's salience state after its final session, from a plain forward pass.

    Row i of the (len(traces), d_z) result is trace i's state.
    """
    z = np.empty((len(traces), model.arch.d_z))
    for batch in make_batches(traces, batch_size):
        model.forward(batch)
        z[batch.index] = model.hidden_states[np.arange(len(batch.index)), batch.lengths - 1]
    return z


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
    """The model that save_model wrote; a checkpoint whose meta lacks a field or holds
    a wrong one, or whose arrays are not the model's parameters, raises ModelError
    naming it."""
    def unfitted(meta: dict):
        kind = meta.get("kind")
        try:
            if kind == "td_enet":
                return TdEnet(vocabs, **meta["enet"])
            if kind in ("td_mlp", "melchior"):
                return build_model(kind, vocabs, ArchConfig(**meta["arch"]), meta["seed"])
            raise ModelError(f"unknown model kind {kind!r}")
        except ModelError as exc:
            raise ModelError(f"{path}: {exc}") from exc

    params, model = neural.load_checkpoint(path, unfitted, ModelError)
    try:
        model.set_params(params)
    except ModelError as exc:
        raise ModelError(f"{path}: {exc}") from exc
    return model


def build_model(kind: str, vocabs: Vocabularies, arch: ArchConfig = ArchConfig(),
                seed: int = 0):
    if kind == "td_enet":
        return TdEnet(vocabs, seed=seed)
    if kind == "td_mlp":
        return TdMlp(vocabs, arch, seed)
    if kind == "melchior":
        return MelchiorModel(vocabs, arch, seed)
    raise ModelError(f"unknown model kind {kind!r}")
