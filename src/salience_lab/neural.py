"""Deterministic float64 numeric core with exact backpropagation.

Everything here is plain numpy: dense and gated-recurrent layers, one layer
of several one-wide output heads, embedding tables, the two masked losses
(binary cross entropy and symmetric mean absolute percentage error), a
bias-corrected Adam with global-norm gradient clipping, central-difference
gradient checking, and a binary checkpoint format.  A model's parameters
and gradients are two flat float64 vectors: each layer's base arrays (W, b,
U, Wb) and gradients (gW, gb, gU, gWb), and their name -> ndarray views used
by checkpoints and clipping ({name}.W, ...; the GRU's per-gate row blocks
{name}.Wz ... {name}.bn; each head's row {head}.W, {head}.b), are views into
them.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional

import numpy as np

CHECKPOINT_VERSION = 1
BCE_CLIP = 1e-7
SMAPE_EPS = 1e-12


class NeuralError(ValueError):
    """Shape mismatches, invalid indices, or non-finite training state."""


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function in one pass; exp(-|x|) never overflows.

    With e = exp(-|x|) this is 1 / (1 + e) for x >= 0 and e / (1 + e) below:
    the same arithmetic as evaluating each sign's stable form separately, so
    ±inf map to 1 and 0 and nan stays nan.
    """
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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


class _Layer:
    """Named base arrays, each with its gradient in attribute "g" + name, and their views."""

    def __init__(self, name: str, **arrays: np.ndarray):
        self.name = name
        self.arrays = tuple(arrays)
        for a, arr in arrays.items():
            setattr(self, a, arr)
            setattr(self, "g" + a, np.zeros_like(arr))
        self._bind()
        self._cache = None

    def _views(self, *arrays: np.ndarray) -> dict[str, np.ndarray]:
        return {f"{self.name}.{a}": arr for a, arr in zip(self.arrays, arrays)}

    def _bind(self) -> None:
        self.params = self._views(*(getattr(self, a) for a in self.arrays))
        self.grads = self._views(*(getattr(self, "g" + a) for a in self.arrays))

    def move_into(self, theta: np.ndarray, grad: np.ndarray, offset: int) -> int:
        """Copy the base arrays into theta and their gradients into grad from
        offset on, keep views of them instead, and return the offset past them."""
        for a in self.arrays:
            for attr, flat in ((a, theta), ("g" + a, grad)):
                old = getattr(self, attr)
                view = flat[offset : offset + old.size].reshape(old.shape)
                view[...] = old
                setattr(self, attr, view)
            offset += old.size
        self._bind()
        return offset


class Dense(_Layer):
    """Affine map plus pointwise activation: y = act(x W^T + b)."""

    def __init__(self, in_dim: int, out_dim: int, activation: str = "linear",
                 rng: Optional[np.random.Generator] = None, name: str = "dense"):
        if activation not in _ACTIVATIONS:
            raise NeuralError(f"unknown activation {activation!r}")
        rng = rng if rng is not None else np.random.default_rng(0)
        super().__init__(name, W=glorot(rng, in_dim, out_dim), b=np.zeros(out_dim))
        self.activation = activation

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.W.shape[1]:
            raise NeuralError(
                f"{self.name}: input width {x.shape} incompatible with weight {self.W.shape}"
            )
        # Products on the (rows, width) reshape: one 2-D gemm, not one per leading index.
        flat_x = x.reshape(-1, x.shape[-1])
        pre = flat_x @ self.W.T + self.b
        f, _ = _ACTIVATIONS[self.activation]
        out = f(pre)
        self._cache = (x.shape, flat_x, pre, out)
        return out.reshape(*x.shape[:-1], out.shape[-1])

    def backward(self, dout: np.ndarray) -> np.ndarray:
        shape, flat_x, pre, out = self._cache
        _, dact = _ACTIVATIONS[self.activation]
        da = dout.reshape(pre.shape) * dact(pre, out)
        self.gW += da.T @ flat_x
        self.gb += da.sum(axis=0)
        return (da @ self.W).reshape(shape)


class Heads(_Layer):
    """Several one-wide Dense heads over one input, as one (k, in + 1) array Wb.

    Row j holds head j's weights and then its bias; params and grads expose
    them as the views {names[j]}.W (1, in) and {names[j]}.b (1,), so the
    layout and the initial draws equal those of k Dense(in, 1) layers built
    in turn.  forward is one product to a (k, rows) block whose consecutive
    rows of one activation are activated together; backward is one product
    each for the weight gradients and dx.
    """

    def __init__(self, in_dim: int, names: list[str], activations: list[str],
                 rng: np.random.Generator):
        self.in_dim = in_dim
        self.names = names  # before the base array: _views reads both
        Wb = np.zeros((len(names), in_dim + 1))
        for row in Wb:
            row[:in_dim] = glorot(rng, in_dim, 1)[0]
        super().__init__("heads", Wb=Wb)
        self.runs = []  # (activation, row slice) per run of equal activations
        start = 0
        for act, run in itertools.groupby(activations):
            stop = start + len(list(run))
            self.runs.append((act, slice(start, stop)))
            start = stop

    def _views(self, Wb: np.ndarray) -> dict[str, np.ndarray]:
        views = {}
        for j, name in enumerate(self.names):
            views[f"{name}.W"] = Wb[j : j + 1, : self.in_dim]
            views[f"{name}.b"] = Wb[j, self.in_dim :]
        return views

    def forward(self, x: np.ndarray) -> list[np.ndarray]:
        """One output of x's leading shape per head."""
        d = self.in_dim
        if x.shape[-1] != d:
            raise NeuralError(f"heads: input width {x.shape} incompatible with {d}")
        flat_x = x.reshape(-1, d)
        pre = self.Wb[:, :d] @ flat_x.T + self.Wb[:, d:]
        out = np.empty_like(pre)
        for act, rows in self.runs:
            out[rows] = _ACTIVATIONS[act][0](pre[rows])
        self._cache = (x.shape, flat_x, pre, out)
        return [row.reshape(x.shape[:-1]) for row in out]

    def backward(self, douts: list[np.ndarray]) -> np.ndarray:
        shape, flat_x, pre, out = self._cache
        da = np.stack([d.reshape(-1) for d in douts])
        for act, rows in self.runs:
            da[rows] *= _ACTIVATIONS[act][1](pre[rows], out[rows])
        d = self.in_dim
        self.gWb[:, :d] += da @ flat_x
        self.gWb[:, d] += da.sum(axis=1)
        return (da.T @ self.Wb[:, :d]).reshape(shape)


class Embedding(_Layer):
    """Row-lookup table; gradient accumulates only into looked-up rows."""

    def __init__(self, rows: int, dim: int, rng: Optional[np.random.Generator] = None,
                 name: str = "emb"):
        rng = rng if rng is not None else np.random.default_rng(0)
        super().__init__(name, W=rng.normal(0.0, 0.1, size=(rows, dim)))
        self.rows = rows
        self.dim = dim

    def forward(self, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx)
        if idx.size and (idx.min() < 0 or idx.max() >= self.rows):
            raise NeuralError(
                f"{self.name}: index out of range 0..{self.rows - 1} "
                f"(got min {idx.min()}, max {idx.max()})"
            )
        self._cache = idx
        return self.W[idx]

    def backward(self, dout: np.ndarray) -> None:
        # One bincount over flat (row, column) cells; it adds each cell's
        # terms in lookup order, as np.add.at would.
        cells = self._cache[..., None] * self.dim + np.arange(self.dim)
        sums = np.bincount(cells.ravel(), weights=np.ravel(dout),
                           minlength=self.rows * self.dim)
        self.gW += sums.reshape(self.rows, self.dim)


class GruLayer(_Layer):
    """Gated recurrent layer over (batch, time, features) with a step mask.

    Update rule per step (update gate z, reset gate r, candidate n):

        z = sigmoid(x Wz^T + h Uz^T + bz)
        r = sigmoid(x Wr^T + h Ur^T + br)
        n = tanh(x Wn^T + (r * h) Un^T + bn)
        h' = z * h + (1 - z) * n

    Masked steps hold the previous hidden state, so the hidden state at the
    last step equals the state at each sequence's final valid step and padded
    steps have exactly zero influence on gradients.

    The gate parameters are row blocks, in gate order z, r, n, of three fused
    arrays W (3H, in), U (3H, H) and b (3H,), with gradients gW, gU and gb.
    params and grads expose the blocks as views under the names
    {name}.Wz ... {name}.bn, so a write through either side is seen by the
    other.  forward projects every step's input with one product before the
    time loop and writes each step's values into preallocated arrays; the
    gates are evaluated as 0.5 + 0.5 tanh(a / 2).  backward keeps each step's
    pre-activation gradients and forms the weight gradients and dx after the
    loop, with four products and a sum.
    """

    def __init__(self, in_dim: int, hidden: int, rng: Optional[np.random.Generator] = None,
                 name: str = "gru"):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_dim = in_dim
        self.hidden = hidden  # before the base arrays: _views reads it
        super().__init__(name, W=np.empty((3 * hidden, in_dim)),
                         U=np.empty((3 * hidden, hidden)), b=np.zeros(3 * hidden))
        for gate in "zrn":
            self.params[f"{name}.W{gate}"][...] = glorot(rng, in_dim, hidden)
            self.params[f"{name}.U{gate}"][...] = glorot(rng, hidden, hidden)

    def _views(self, W: np.ndarray, U: np.ndarray, b: np.ndarray) -> dict[str, np.ndarray]:
        H = self.hidden
        views = {}
        for i, gate in enumerate("zrn"):
            rows = slice(i * H, (i + 1) * H)
            views[f"{self.name}.W{gate}"] = W[rows]
            views[f"{self.name}.U{gate}"] = U[rows]
            views[f"{self.name}.b{gate}"] = b[rows]
        return views

    def forward(self, x: np.ndarray, mask: Optional[np.ndarray] = None,
                h0: Optional[np.ndarray] = None) -> np.ndarray:
        if x.ndim != 3 or x.shape[-1] != self.in_dim:
            raise NeuralError(
                f"{self.name}: expected (batch, time, {self.in_dim}), got {x.shape}"
            )
        B, T, _ = x.shape
        H = self.hidden
        m = np.ones((T, B, 1)) if mask is None else np.ascontiguousarray(mask.T)[..., None]
        # On steps where every row is valid the blend is skipped: exact up to the sign of zero.
        full = m.min(axis=(1, 2)) == 1.0
        # Input projections of every step in one product, time-major so ax[t] is contiguous.
        x_tb = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(T * B, self.in_dim)
        ax = (x_tb @ self.W.T + self.b).reshape(T, B, 3 * H)
        # Gates as sigmoid(a) = 0.5 + 0.5 tanh(a / 2).  Halving is exact, so it is
        # folded into the z, r input projections and recurrent weights once.  The
        # per-step products run faster on C-ordered copies than on transposed views.
        ax[..., : 2 * H] *= 0.5
        U_zr = np.ascontiguousarray(0.5 * self.U[: 2 * H].T)
        U_n = np.ascontiguousarray(self.U[2 * H :].T)
        hs = np.empty((T + 1, B, H))  # hs[t] is the state entering step t
        hs[0] = 0.0 if h0 is None else h0
        zr = np.empty((T, B, 2 * H))
        n = np.empty((T, B, H))
        rh = np.empty((T, B, H))
        hmn = np.empty((T, B, H))  # h - n, reused by backward
        for t in range(T):
            h, g, h_new = hs[t], zr[t], hs[t + 1]
            np.matmul(h, U_zr, out=g)
            g += ax[t, :, : 2 * H]
            np.tanh(g, out=g)
            g *= 0.5
            g += 0.5
            np.multiply(g[:, H:], h, out=rh[t])
            np.matmul(rh[t], U_n, out=n[t])
            n[t] += ax[t, :, 2 * H :]
            np.tanh(n[t], out=n[t])
            np.subtract(h, n[t], out=hmn[t])
            # h' = z * h + (1 - z) * n, written as z * (h - n) + n
            np.multiply(g[:, :H], hmn[t], out=h_new)
            h_new += n[t]
            if not full[t]:
                np.add(m[t] * h_new, (1.0 - m[t]) * h, out=h_new)
        self._cache = (x, m, full, hs, zr, n, rh, hmn)
        return np.ascontiguousarray(hs[1:].transpose(1, 0, 2))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        x, m, full, hs, zr, n, rh, hmn = self._cache
        B, T, _ = x.shape
        H = self.hidden
        U_zr, U_n = self.U[: 2 * H], self.U[2 * H :]
        z, r = zr[..., :H], zr[..., H:]
        # Per step, d a_z = dcand * dz_pre, d a_r = drh * dr_pre and d a_n = dcand * dn_pre.
        dz_pre = hmn * (z * (1.0 - z))
        dr_pre = hs[:T] * (r * (1.0 - r))
        dn_pre = (1.0 - z) * (1.0 - n * n)
        da = np.empty((T, B, 3 * H))  # pre-activation gradients, gate order z, r, n
        dh = np.zeros((B, H))
        for t in range(T - 1, -1, -1):
            dh = dh + dout[:, t, :]
            dcand = dh if full[t] else m[t] * dh
            np.multiply(dcand, dn_pre[t], out=da[t, :, 2 * H :])
            drh = da[t, :, 2 * H :] @ U_n
            np.multiply(dcand, dz_pre[t], out=da[t, :, :H])
            np.multiply(drh, dr_pre[t], out=da[t, :, H : 2 * H])
            dh_prev = dcand * z[t] + drh * r[t]
            if not full[t]:
                dh_prev += (1.0 - m[t]) * dh
            dh_prev += da[t, :, : 2 * H] @ U_zr
            dh = dh_prev
        flat = da.reshape(T * B, 3 * H)
        self.gU[: 2 * H] += flat[:, : 2 * H].T @ hs[:T].reshape(T * B, H)
        self.gU[2 * H :] += flat[:, 2 * H :].T @ rh.reshape(T * B, H)
        self.gb += flat.sum(axis=0)
        # The input side in x's (B, T) order.
        da_bt = da.transpose(1, 0, 2).reshape(B * T, 3 * H)
        self.gW += da_bt.T @ x.reshape(B * T, self.in_dim)
        return (da_bt @ self.W).reshape(B, T, self.in_dim)


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
    """Norm of all gradients; rescaled by the largest entry only if the squares overflow."""
    total = 0.0
    with np.errstate(over="ignore"):
        for g in grads.values():
            total += float((g * g).sum())
    if total == math.inf and all(np.all(np.isfinite(g)) for g in grads.values()):
        peak = max(float(np.max(np.abs(g), initial=0.0)) for g in grads.values())
        return peak * math.sqrt(sum(float(((g / peak) ** 2).sum()) for g in grads.values()))
    return float(np.sqrt(total))


def clip_gradients(grads: Mapping[str, np.ndarray], max_norm: float = 5.0) -> float:
    """Scale all gradients in place so their global norm is at most max_norm."""
    norm = global_norm(grads)
    if not np.isfinite(norm):
        bad = [name for name, g in grads.items() if not np.all(np.isfinite(g))]
        where = f" in {', '.join(bad)}" if bad else " (the norm overflows)"
        raise NeuralError("non-finite gradient norm" + where)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


@dataclass
class AdamState:
    """Bias-corrected Adam over one flat parameter vector and its gradient."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        if self.m is None:
            self.m, self.v = np.zeros_like(theta), np.zeros_like(theta)
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        correct1 = 1.0 - b1**self.step_count
        correct2 = 1.0 - b2**self.step_count
        self.m += (1.0 - b1) * (grad - self.m)
        self.v += (1.0 - b2) * (grad * grad - self.v)
        theta -= self.lr * (self.m / correct1) / (np.sqrt(self.v / correct2) + self.eps)


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
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise NeuralError(f"checkpoint manifest {path} is not valid JSON: {exc}") from exc
    if manifest.get("format_version") != CHECKPOINT_VERSION:
        raise NeuralError(f"unsupported checkpoint version {manifest.get('format_version')}")
    bin_path = path.with_suffix(".bin")
    blob = bin_path.read_bytes()
    sizes = [math.prod(entry["shape"]) for entry in manifest["arrays"]]
    if len(blob) != 8 * sum(sizes):
        raise NeuralError(f"checkpoint {bin_path} holds {len(blob)} bytes, but its manifest "
                          f"{path.name} describes {8 * sum(sizes)}")
    params = {}
    offset = 0
    for entry, size in zip(manifest["arrays"], sizes):
        arr = np.frombuffer(blob, dtype="<f8", count=size, offset=offset)
        params[entry["name"]] = arr.reshape(entry["shape"]).astype(np.float64)
        offset += size * 8
    return params, manifest.get("meta", {})
