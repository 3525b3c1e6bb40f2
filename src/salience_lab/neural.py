"""Deterministic float64 numeric core with exact backpropagation.

Everything here is plain numpy: dense and gated-recurrent layers, one layer
of several one-wide output heads, embedding tables, the two masked losses
(binary cross entropy and symmetric mean absolute percentage error), a
bias-corrected Adam with global-norm gradient clipping, and a binary
checkpoint format.  A model's parameters and gradients are two flat float64
vectors: each layer's base arrays (W, b, U, Wb) and gradients (gW, gb, gU,
gWb), and their name -> ndarray views used by checkpoints and clipping
({name}.W, ...; the GRU's per-gate row blocks {name}.Wz ... {name}.bn; each
head's row {head}.W, {head}.b), are views into them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional

import numpy as np

from . import csvio

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
    # name -> (f, f' expressed in terms of (pre, post) as a fresh array).  linear and
    # tanh return pre itself, written over, which their f' does not read.
    "linear": (lambda a: a, lambda a, y: np.ones_like(a)),
    "tanh": (lambda a: np.tanh(a, out=a), lambda a, y: np.subtract(1.0, d := y * y, out=d)),
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
        pre = flat_x @ self.W.T
        pre += self.b
        f, _ = _ACTIVATIONS[self.activation]
        out = f(pre)
        self._cache = (x.shape, flat_x, pre, out)
        return out.reshape(*x.shape[:-1], out.shape[-1])

    def backward(self, dout: np.ndarray) -> np.ndarray:
        shape, flat_x, pre, out = self._cache
        _, dact = _ACTIVATIONS[self.activation]
        da = dact(pre, out)
        da *= dout.reshape(pre.shape)
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
    other.

    forward and backward take and return (B, T, features) arrays, but each
    step runs feature-major: the states hs (T + 1, H, B), the gates zr
    (T, 2H, B), and the input projections and pre-activation gradients
    (T, 3H, B).  So z, r and n are contiguous row blocks of one step and every
    elementwise call in the time loops runs on contiguous memory.  The input
    projection, the weight gradients and dx stay one product each over all
    (batch, step) cells.  The gates are evaluated as 0.5 + 0.5 tanh(a / 2).
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
        m = np.ones((T, 1, B)) if mask is None else np.ascontiguousarray(mask.T)[:, None, :]
        # On steps where every row is valid the blend is skipped: exact up to the sign of zero.
        full = m.min(axis=(1, 2)) == 1.0
        # Gates as sigmoid(a) = 0.5 + 0.5 tanh(a / 2).  Halving is exact, so it is
        # folded into the z, r input projections and recurrent weights once.
        pre = x.reshape(B * T, self.in_dim) @ self.W.T
        pre += self.b
        pre[:, : 2 * H] *= 0.5
        ax = np.ascontiguousarray(pre.reshape(B, T, 3 * H).transpose(1, 2, 0))
        U_zr, U_n = 0.5 * self.U[: 2 * H], self.U[2 * H :]
        hs = np.empty((T + 1, H, B))  # hs[t] is the state entering step t
        hs[0] = 0.0 if h0 is None else h0.T
        zr = np.empty((T, 2 * H, B))
        n = np.empty((T, H, B))
        rh, hmn = np.empty((H, B)), np.empty((H, B))  # r * h and h - n of the current step
        steps = zip(hs[:-1], hs[1:], zr, zr[:, :H], zr[:, H:], ax[:, : 2 * H], ax[:, 2 * H :],
                    n, m, 1.0 - m, full)
        for h, h_new, g, z, r, ax_zr, ax_n, n_t, m_t, keep_t, full_t in steps:
            np.matmul(U_zr, h, out=g)
            g += ax_zr
            np.tanh(g, out=g)
            g *= 0.5
            g += 0.5
            np.multiply(r, h, out=rh)
            np.matmul(U_n, rh, out=n_t)
            n_t += ax_n
            np.tanh(n_t, out=n_t)
            np.subtract(h, n_t, out=hmn)
            # h' = z * h + (1 - z) * n, written as z * (h - n) + n
            np.multiply(z, hmn, out=h_new)
            h_new += n_t
            if not full_t:
                np.add(m_t * h_new, keep_t * h, out=h_new)
        self._cache = (x, m, full, hs, zr, n)
        return np.ascontiguousarray(hs[1:].transpose(2, 0, 1))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        x, _, _, hs, zr, _ = self._cache
        B, T, _ = x.shape
        H = self.hidden
        # The weight gradients and dx over every (batch, step) cell in x's (B, T) order;
        # r * h is formed here, not kept from forward.
        da = np.ascontiguousarray(self._step_gradients(dout).transpose(1, 2, 0))
        da = da.reshape(3 * H, B * T)
        h = np.ascontiguousarray(hs[:T].transpose(1, 2, 0))
        rh = h * zr[:, H:].transpose(1, 2, 0)
        self.gU[: 2 * H] += da[: 2 * H] @ h.reshape(H, B * T).T
        self.gU[2 * H :] += da[2 * H :] @ rh.reshape(H, B * T).T
        self.gb += da.sum(axis=1)
        self.gW += da @ x.reshape(B * T, self.in_dim)
        return (da.T @ self.W).reshape(B, T, self.in_dim)

    def _step_gradients(self, dout: np.ndarray) -> np.ndarray:
        """The pre-activation gradients (T, 3H, B) of every step, gate order z, r, n.

        A method of its own so that its temporaries are freed before backward's
        copies are made: on benchmark melchior training the lower peak spares
        glibc's heap a trim and a re-fault every batch (about 300k page faults).
        """
        _, m, full, hs, zr, n = self._cache
        T, H, B = n.shape
        z, r, h = zr[:, :H], zr[:, H:], hs[:T]
        # Per step, d a_z = dcand * dz_pre, d a_r = drh * dr_pre and d a_n = dcand * dn_pre.
        dz_pre = (h - n) * (z * (1.0 - z))
        dr_pre = h * (r * (1.0 - r))
        dn_pre = (1.0 - z) * (1.0 - n * n)
        U_zr_T = np.ascontiguousarray(self.U[: 2 * H].T)
        U_n_T = np.ascontiguousarray(self.U[2 * H :].T)
        da = np.empty((T, 3 * H, B))
        dh = np.zeros((H, B))  # the gradient of the state leaving the step, last step first
        steps = zip(np.ascontiguousarray(dout.transpose(1, 2, 0))[::-1], da[::-1, : 2 * H],
                    da[::-1, :H], da[::-1, H : 2 * H], da[::-1, 2 * H :], z[::-1], r[::-1],
                    dz_pre[::-1], dr_pre[::-1], dn_pre[::-1], m[::-1], (1.0 - m)[::-1],
                    full[::-1])
        for (dout_t, da_zr, da_z, da_r, da_n, z_t, r_t, dz_t, dr_t, dn_t, m_t, keep_t,
             full_t) in steps:
            dh += dout_t
            dcand = dh if full_t else m_t * dh
            np.multiply(dcand, dn_t, out=da_n)
            drh = U_n_T @ da_n
            np.multiply(dcand, dz_t, out=da_z)
            np.multiply(drh, dr_t, out=da_r)
            dh_prev = dcand * z_t
            drh *= r_t
            dh_prev += drh
            if not full_t:
                dh_prev += keep_t * dh
            dh_prev += U_zr_T @ da_zr
            dh = dh_prev
        return da


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
        # m += (1 - b1) (grad - m), v += (1 - b2) (grad^2 - v) and
        # theta -= lr (m / correct1) / (sqrt(v / correct2) + eps), each rounded as written,
        # through one scratch vector s and the step.
        s = np.subtract(grad, self.m)
        s *= 1.0 - b1
        self.m += s
        np.multiply(grad, grad, out=s)
        s -= self.v
        s *= 1.0 - b2
        self.v += s
        np.divide(self.v, correct2, out=s)
        np.sqrt(s, out=s)
        s += self.eps
        step = self.m / correct1
        step *= self.lr
        step /= s
        theta -= step


def save_checkpoint(path: str | Path, params: Mapping[str, np.ndarray],
                    meta: Optional[dict] = None) -> None:
    """Write a JSON manifest plus a little-endian float64 sidecar (.bin)."""
    path = Path(path)
    names = sorted(params)
    blob = b"".join(np.ascontiguousarray(params[n], dtype="<f8").tobytes() for n in names)
    csvio.write_json(path, {
        "format_version": CHECKPOINT_VERSION,
        "dtype": "<f8",
        "arrays": [{"name": n, "shape": list(params[n].shape)} for n in names],
        "meta": meta or {},
    })
    path.with_suffix(".bin").write_bytes(blob)


def load_checkpoint(path: str | Path, meta: Callable[[dict], object] = dict,
                    error: type[Exception] = NeuralError) -> tuple[dict[str, np.ndarray], object]:
    """The arrays of a checkpoint that save_checkpoint wrote, and meta(its meta).

    A manifest of another layout, or a meta that `meta` cannot read, raises `error` naming
    it; an unknown version, or a .bin that is missing or of the wrong length, NeuralError."""
    path = Path(path)

    def layout(manifest: dict):
        if manifest.get("format_version") != CHECKPOINT_VERSION:
            raise NeuralError(f"unsupported checkpoint version {manifest.get('format_version')} "
                              f"in {path}")
        arrays = [(str(entry["name"]), entry["shape"]) for entry in manifest["arrays"]]
        for name, shape in arrays:
            if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
                raise error(f"{path}: array {name} has shape {shape!r}, not a list of sizes")
        return arrays, meta(manifest["meta"])

    arrays, meta_value = csvio.read_json(path, error, layout)
    bin_path = path.with_suffix(".bin")
    if not bin_path.is_file():
        raise NeuralError(f"checkpoint {bin_path} is missing; it holds the arrays of {path.name}")
    blob = bin_path.read_bytes()
    sizes = [math.prod(shape) for _, shape in arrays]
    if len(blob) != 8 * sum(sizes):
        raise NeuralError(f"checkpoint {bin_path} holds {len(blob)} bytes, but its manifest "
                          f"{path.name} describes {8 * sum(sizes)}")
    params = {}
    offset = 0
    for (name, shape), size in zip(arrays, sizes):
        arr = np.frombuffer(blob, dtype="<f8", count=size, offset=offset)
        params[name] = arr.reshape(shape).astype(np.float64)
        offset += size * 8
    return params, meta_value
