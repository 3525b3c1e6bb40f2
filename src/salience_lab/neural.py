"""Deterministic float64 numeric core with exact backpropagation.

Everything here is plain numpy: dense and gated-recurrent layers, embedding
tables, the two masked losses (binary cross entropy and symmetric mean
absolute percentage error), a bias-corrected Adam with global-norm gradient
clipping, central-difference gradient checking, and a binary checkpoint
format.  Parameters live in flat name -> ndarray dictionaries so optimizer
state, checkpoints, and gradient checks all traverse the same structure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Optional

import numpy as np

CHECKPOINT_VERSION = 1
BCE_CLIP = 1e-7
SMAPE_EPS = 1e-12


class NeuralError(ValueError):
    """Shape mismatches, invalid indices, or non-finite training state."""


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


_ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    # name -> (f, f' expressed in terms of (pre, post))
    "linear": (lambda a: a, lambda a, y: np.ones_like(a)),
    "tanh": (np.tanh, lambda a, y: 1.0 - y * y),
    "sigmoid": (sigmoid, lambda a, y: y * (1.0 - y)),
    "softplus": (softplus, lambda a, y: sigmoid(a)),
}


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


class Dense:
    """Affine map plus pointwise activation: y = act(x W^T + b)."""

    def __init__(self, in_dim: int, out_dim: int, activation: str = "linear",
                 rng: Optional[np.random.Generator] = None, name: str = "dense"):
        if activation not in _ACTIVATIONS:
            raise NeuralError(f"unknown activation {activation!r}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.name = name
        self.activation = activation
        self.params = {
            f"{name}.W": glorot(rng, in_dim, out_dim),
            f"{name}.b": np.zeros(out_dim),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._cache = None

    @property
    def in_dim(self) -> int:
        return self.params[f"{self.name}.W"].shape[1]

    @property
    def out_dim(self) -> int:
        return self.params[f"{self.name}.W"].shape[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        W = self.params[f"{self.name}.W"]
        b = self.params[f"{self.name}.b"]
        if x.shape[-1] != W.shape[1]:
            raise NeuralError(
                f"{self.name}: input width {x.shape} incompatible with weight {W.shape}"
            )
        pre = x @ W.T + b
        f, _ = _ACTIVATIONS[self.activation]
        out = f(pre)
        self._cache = (x, pre, out)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        x, pre, out = self._cache
        _, dact = _ACTIVATIONS[self.activation]
        da = dout * dact(pre, out)
        flat_x = x.reshape(-1, x.shape[-1])
        flat_da = da.reshape(-1, da.shape[-1])
        self.grads[f"{self.name}.W"] += flat_da.T @ flat_x
        self.grads[f"{self.name}.b"] += flat_da.sum(axis=0)
        return da @ self.params[f"{self.name}.W"]

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0


class Embedding:
    """Row-lookup table; gradient accumulates only into looked-up rows."""

    def __init__(self, rows: int, dim: int, rng: Optional[np.random.Generator] = None,
                 name: str = "emb"):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.name = name
        self.rows = rows
        self.dim = dim
        self.params = {f"{name}.W": rng.normal(0.0, 0.1, size=(rows, dim))}
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._cache = None

    def forward(self, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx)
        if idx.size and (idx.min() < 0 or idx.max() >= self.rows):
            raise NeuralError(
                f"{self.name}: index out of range 0..{self.rows - 1} "
                f"(got min {idx.min()}, max {idx.max()})"
            )
        self._cache = idx
        return self.params[f"{self.name}.W"][idx]

    def backward(self, dout: np.ndarray) -> None:
        idx = self._cache
        np.add.at(self.grads[f"{self.name}.W"], idx, dout)

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0


class GruLayer:
    """Gated recurrent layer over (batch, time, features) with a step mask.

    Update rule per step (update gate z, reset gate r, candidate n):

        z = sigmoid(x Wz^T + h Uz^T + bz)
        r = sigmoid(x Wr^T + h Ur^T + br)
        n = tanh(x Wn^T + (r * h) Un^T + bn)
        h' = z * h + (1 - z) * n

    Masked steps hold the previous hidden state, so the hidden state at the
    last step equals the state at each sequence's final valid step and padded
    steps have exactly zero influence on gradients.
    """

    def __init__(self, in_dim: int, hidden: int, rng: Optional[np.random.Generator] = None,
                 name: str = "gru"):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.name = name
        self.in_dim = in_dim
        self.hidden = hidden
        p = {}
        for gate in ("z", "r", "n"):
            p[f"{name}.W{gate}"] = glorot(rng, in_dim, hidden)
            p[f"{name}.U{gate}"] = glorot(rng, hidden, hidden)
            p[f"{name}.b{gate}"] = np.zeros(hidden)
        self.params = p
        self.grads = {k: np.zeros_like(v) for k, v in p.items()}
        self._cache = None

    def forward(self, x: np.ndarray, mask: Optional[np.ndarray] = None,
                h0: Optional[np.ndarray] = None) -> np.ndarray:
        if x.ndim != 3 or x.shape[-1] != self.in_dim:
            raise NeuralError(
                f"{self.name}: expected (batch, time, {self.in_dim}), got {x.shape}"
            )
        B, T, _ = x.shape
        h = np.zeros((B, self.hidden)) if h0 is None else h0.copy()
        if mask is None:
            mask = np.ones((B, T))
        p = self.params
        steps = []
        out = np.empty((B, T, self.hidden))
        for t in range(T):
            xt = x[:, t, :]
            m = mask[:, t][:, None]
            z = sigmoid(xt @ p[f"{self.name}.Wz"].T + h @ p[f"{self.name}.Uz"].T
                        + p[f"{self.name}.bz"])
            r = sigmoid(xt @ p[f"{self.name}.Wr"].T + h @ p[f"{self.name}.Ur"].T
                        + p[f"{self.name}.br"])
            rh = r * h
            n = np.tanh(xt @ p[f"{self.name}.Wn"].T + rh @ p[f"{self.name}.Un"].T
                        + p[f"{self.name}.bn"])
            h_cand = z * h + (1.0 - z) * n
            h_new = m * h_cand + (1.0 - m) * h
            steps.append((xt, h.copy(), z, r, rh, n, m))
            h = h_new
            out[:, t, :] = h
        self._cache = (steps, x.shape)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        steps, x_shape = self._cache
        B, T, _ = x_shape
        p = self.params
        g = self.grads
        dx = np.zeros(x_shape)
        dh = np.zeros((B, self.hidden))
        for t in range(T - 1, -1, -1):
            xt, h_prev, z, r, rh, n, m = steps[t]
            dh = dh + dout[:, t, :]
            dcand = m * dh
            dh_prev = (1.0 - m) * dh
            # h' = z * h_prev + (1 - z) * n
            dz = dcand * (h_prev - n)
            dn = dcand * (1.0 - z)
            dh_prev += dcand * z
            # candidate path
            dan = dn * (1.0 - n * n)
            g[f"{self.name}.Wn"] += dan.T @ xt
            g[f"{self.name}.Un"] += dan.T @ rh
            g[f"{self.name}.bn"] += dan.sum(axis=0)
            dx[:, t, :] += dan @ p[f"{self.name}.Wn"]
            drh = dan @ p[f"{self.name}.Un"]
            dr = drh * h_prev
            dh_prev += drh * r
            # gates
            daz = dz * z * (1.0 - z)
            g[f"{self.name}.Wz"] += daz.T @ xt
            g[f"{self.name}.Uz"] += daz.T @ h_prev
            g[f"{self.name}.bz"] += daz.sum(axis=0)
            dx[:, t, :] += daz @ p[f"{self.name}.Wz"]
            dh_prev += daz @ p[f"{self.name}.Uz"]
            dar = dr * r * (1.0 - r)
            g[f"{self.name}.Wr"] += dar.T @ xt
            g[f"{self.name}.Ur"] += dar.T @ h_prev
            g[f"{self.name}.br"] += dar.sum(axis=0)
            dx[:, t, :] += dar @ p[f"{self.name}.Wr"]
            dh_prev += dar @ p[f"{self.name}.Ur"]
            dh = dh_prev
        return dx

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0


def _masked_mean_setup(pred: np.ndarray, target: np.ndarray,
                       mask: Optional[np.ndarray]) -> tuple[np.ndarray, float]:
    if mask is None:
        mask = np.ones_like(np.asarray(pred, dtype=np.float64))
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != np.shape(pred) or np.shape(pred) != np.shape(target):
        raise NeuralError(
            f"loss shapes disagree: pred {np.shape(pred)}, target {np.shape(target)}, "
            f"mask {mask.shape}"
        )
    count = float(mask.sum())
    if count == 0.0:
        raise NeuralError("loss over an all-masked batch is undefined")
    return mask, count


def bce_terms(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per-element binary cross entropy on predictions clipped to [1e-7, 1-1e-7]."""
    p = np.clip(pred, BCE_CLIP, 1.0 - BCE_CLIP)
    return -(target * np.log(p) + (1.0 - target) * np.log(1.0 - p))


def smape_terms(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per-element |p - t| / (|p| + |t| + 1e-12); the regulariser sends 0/0 to 0."""
    return np.abs(pred - target) / (np.abs(pred) + np.abs(target) + SMAPE_EPS)


def bce_loss(pred: np.ndarray, target: np.ndarray,
             mask: Optional[np.ndarray] = None) -> tuple[float, np.ndarray]:
    """Masked binary cross entropy; predictions are clipped to [1e-7, 1-1e-7].

    Returns (loss, d loss / d pred).
    """
    mask, count = _masked_mean_setup(pred, target, mask)
    p = np.clip(pred, BCE_CLIP, 1.0 - BCE_CLIP)
    loss = float((bce_terms(pred, target) * mask).sum() / count)
    inside = ((pred > BCE_CLIP) & (pred < 1.0 - BCE_CLIP)).astype(np.float64)
    dpred = mask * inside * (p - target) / (p * (1.0 - p)) / count
    return loss, dpred


def smape_loss(pred: np.ndarray, target: np.ndarray,
               mask: Optional[np.ndarray] = None) -> tuple[float, np.ndarray]:
    """Masked symmetric mean absolute percentage error, bounded in [0, 1].

    Per-step term as in smape_terms.  Returns (loss, d loss / d pred).
    """
    mask, count = _masked_mean_setup(pred, target, mask)
    diff = pred - target
    denom = np.abs(pred) + np.abs(target) + SMAPE_EPS
    terms = smape_terms(pred, target)
    loss = float((terms * mask).sum() / count)
    dpred = mask * (np.sign(diff) * denom - terms * denom * np.sign(pred)) / (denom * denom)
    dpred /= count
    return loss, dpred


def global_norm(grads: Mapping[str, np.ndarray]) -> float:
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    return float(np.sqrt(total))


def clip_gradients(grads: Mapping[str, np.ndarray], max_norm: float = 5.0) -> float:
    """Scale all gradients in place so their global norm is at most max_norm."""
    norm = global_norm(grads)
    if not np.isfinite(norm):
        raise NeuralError("non-finite gradient norm")
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


@dataclass
class AdamState:
    """Bias-corrected Adam with a global-norm clip applied before the update."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 5.0
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def step(self, params: Mapping[str, np.ndarray], grads: Mapping[str, np.ndarray]) -> None:
        clip_gradients(grads, self.clip_norm)
        for name, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise NeuralError(f"non-finite gradient for parameter {name}")
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        correct1 = 1.0 - b1**self.step_count
        correct2 = 1.0 - b2**self.step_count
        for name, p in params.items():
            g = grads[name]
            if p.shape != g.shape:
                raise NeuralError(f"parameter {name}: shape {p.shape} vs grad {g.shape}")
            m = self.m.setdefault(name, np.zeros_like(p))
            v = self.v.setdefault(name, np.zeros_like(p))
            m += (1.0 - b1) * (g - m)
            v += (1.0 - b2) * (g * g - v)
            p -= self.lr * (m / correct1) / (np.sqrt(v / correct2) + self.eps)


def grad_check(loss_fn: Callable[[], float], params: Mapping[str, np.ndarray],
               analytic: Mapping[str, np.ndarray], h: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central differences.

    loss_fn must recompute the loss from the current (mutated in place)
    parameter values.  The relative error denominator is floored so that
    vanishing components do not dominate.
    """
    worst = 0.0
    for name, p in params.items():
        a = analytic[name]
        flat = p.ravel()
        aflat = a.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            denom = max(abs(aflat[i]) + abs(numeric), 1e-4)
            worst = max(worst, abs(aflat[i] - numeric) / denom)
    return worst


def save_checkpoint(path: str | Path, params: Mapping[str, np.ndarray],
                    meta: Optional[dict] = None) -> None:
    """Write a JSON manifest plus a little-endian float64 sidecar (.bin)."""
    path = Path(path)
    names = sorted(params)
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "dtype": "<f8",
        "arrays": [{"name": n, "shape": list(params[n].shape)} for n in names],
        "meta": meta or {},
    }
    blob = b"".join(np.ascontiguousarray(params[n], dtype="<f8").tobytes() for n in names)
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    path.with_suffix(".bin").write_bytes(blob)


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    path = Path(path)
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if manifest.get("format_version") != CHECKPOINT_VERSION:
        raise NeuralError(f"unsupported checkpoint version {manifest.get('format_version')}")
    blob = path.with_suffix(".bin").read_bytes()
    params = {}
    offset = 0
    for entry in manifest["arrays"]:
        shape = tuple(entry["shape"])
        size = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(blob, dtype="<f8", count=size, offset=offset).reshape(shape)
        params[entry["name"]] = arr.astype(np.float64).copy()
        offset += size * 8
    return params, manifest.get("meta", {})
