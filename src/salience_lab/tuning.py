"""Hyperband search over architecture and optimizer knobs.

Brackets trade breadth for depth: bracket s starts ceil((s_max+1)/(s+1) *
eta^s) configurations at R * eta^-s epochs and keeps the top floor(n / eta)
after each round.  A fifth of the training users is carved out once as the
validation subset; no trial ever trains on them.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .features import DatasetSplit, carve_validation
from .models import ArchConfig, MelchiorModel, ModelError, TrainConfig, _epoch_loss
from .models import make_batches, train as train_model


#: Share of the training users carved out as the validation subset.
VAL_FRACTION = 0.2


class TuningError(ValueError):
    """Invalid schedule parameters or a fully-diverged round."""


@dataclass(frozen=True)
class SearchSpace:
    """Uniform ranges per knob; learning rate is log-uniform."""

    hidden_width: tuple[int, int] = (16, 128)
    d_z: tuple[int, int] = (8, 64)
    layers: tuple[int, int] = (1, 3)
    lr: tuple[float, float] = (1e-4, 1e-2)
    emb_dim: tuple[int, int] = (4, 32)

    def validate(self) -> None:
        for name in ("hidden_width", "d_z", "layers", "emb_dim"):
            lo, hi = getattr(self, name)
            if lo > hi or lo < 1:
                raise TuningError(f"search range {name} is empty or invalid: {(lo, hi)}")
        if self.lr[0] > self.lr[1] or self.lr[0] <= 0:
            raise TuningError(f"learning-rate range invalid: {self.lr}")

    def sample(self, rng: np.random.Generator) -> dict:
        self.validate()
        if self.lr[0] == self.lr[1]:
            lr = float(self.lr[0])
        else:
            lr = float(math.exp(rng.uniform(math.log(self.lr[0]), math.log(self.lr[1]))))
        return {
            "hidden_width": int(rng.integers(self.hidden_width[0], self.hidden_width[1] + 1)),
            "d_z": int(rng.integers(self.d_z[0], self.d_z[1] + 1)),
            "layers": int(rng.integers(self.layers[0], self.layers[1] + 1)),
            "lr": lr,
            "emb_dim": int(rng.integers(self.emb_dim[0], self.emb_dim[1] + 1)),
        }


@dataclass(frozen=True)
class Round:
    n_configs: int
    epochs: int


@dataclass(frozen=True)
class Bracket:
    s: int
    rounds: tuple[Round, ...]


@dataclass(frozen=True)
class BracketSchedule:
    R: int
    eta: int
    s_max: int
    brackets: tuple[Bracket, ...]

    def budget_bound(self) -> int:
        return (self.s_max + 1) * self.R


def make_schedule(R: int, eta: int) -> BracketSchedule:
    """Successive-halving brackets for a maximum per-trial budget of R epochs."""
    if eta < 2:
        raise TuningError(f"eta must be >= 2, got {eta}")
    if R < eta:
        raise TuningError(f"R must be >= eta, got R={R}, eta={eta}")
    s_max = int(math.floor(math.log(R) / math.log(eta)))
    brackets = []
    for s in range(s_max, -1, -1):
        n = math.ceil(((s_max + 1) / (s + 1)) * eta**s)
        r = R * eta ** (-s)
        rounds = []
        n_i, r_i = n, r
        for _ in range(s + 1):
            rounds.append(Round(n_configs=n_i, epochs=max(1, int(math.floor(r_i)))))
            n_i = max(1, n_i // eta)
            r_i *= eta
        brackets.append(Bracket(s=s, rounds=tuple(rounds)))
    return BracketSchedule(R=R, eta=eta, s_max=s_max, brackets=tuple(brackets))


@dataclass
class TrialResult:
    bracket: int
    round: int
    trial: int
    config: dict
    epochs: int
    val_loss: float
    seed: int


@dataclass
class HyperbandResult:
    best_config: dict
    best_loss: float
    trials: list[TrialResult]

    def write_log(self, path: str | Path) -> None:
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bracket", "round", "trial", "config_json", "epochs", "val_loss"])
            for t in self.trials:
                writer.writerow(
                    [
                        t.bracket,
                        t.round,
                        t.trial,
                        json.dumps(t.config, sort_keys=True),
                        t.epochs,
                        repr(float(t.val_loss)),
                    ]
                )


def default_objective(split: DatasetSplit, batch_size: int = 32):
    """Objective that trains a melchior model on the carved subsets for r epochs."""

    def objective(config: dict, epochs: int, trial_seed: int, fit_traces, val_traces) -> float:
        arch = ArchConfig(
            hidden_width=config["hidden_width"],
            d_z=config["d_z"],
            layers=config["layers"],
            emb_dim=config["emb_dim"],
        )
        model = MelchiorModel(split.vocabs, arch, seed=trial_seed)
        cfg = TrainConfig(
            epochs=epochs,
            batch_size=batch_size,
            lr=config["lr"],
            patience=max(2, epochs),
            seed=trial_seed,
        )
        train_model(model, split, cfg, train_traces=fit_traces, val_traces=val_traces)
        return _epoch_loss(model, make_batches(val_traces, batch_size), cfg.loss_weights)

    return objective


def hyperband_run(
    space: SearchSpace,
    schedule: BracketSchedule,
    split: DatasetSplit,
    seed: int,
    objective: Callable,
) -> HyperbandResult:
    """Run every bracket; promote the top 1/eta per round by validation loss.

    The validation subset is carved from the training split by user before
    any trial runs, so validation users never appear in a trial's training
    data.  Deterministic for a fixed seed: configs are sampled in trial
    order and each trial's RNG stream derives from (seed, trial index).
    objective(config, epochs, trial_seed, fit_traces, val_traces) returns a
    trial's validation loss; default_objective trains a melchior model.
    """
    space.validate()
    fit_traces, val_traces = carve_validation(split.train, VAL_FRACTION, seed)
    if not fit_traces or not val_traces:
        raise TuningError("training split too small to carve a validation subset")

    sampler = np.random.default_rng(np.random.SeedSequence((seed, 0xBEEF)))
    trials: list[TrialResult] = []
    finalists: list[tuple[float, int, dict]] = []
    trial_counter = 0

    for b_idx, bracket in enumerate(schedule.brackets):
        first = bracket.rounds[0]
        entrants = []
        for _ in range(first.n_configs):
            config = space.sample(sampler)
            trial_seed = int(
                np.random.SeedSequence((seed, trial_counter)).generate_state(1)[0]
            )
            entrants.append({"trial": trial_counter, "config": config, "seed": trial_seed})
            trial_counter += 1

        for r_idx, rnd in enumerate(bracket.rounds):
            entrants = entrants[: rnd.n_configs]
            scored = []
            for ent in entrants:
                try:
                    loss = float(
                        objective(ent["config"], rnd.epochs, ent["seed"], fit_traces,
                                  val_traces)
                    )
                except (ModelError, FloatingPointError, OverflowError):
                    loss = math.inf
                if not math.isfinite(loss):
                    loss = math.inf
                trials.append(
                    TrialResult(
                        bracket=bracket.s,
                        round=r_idx,
                        trial=ent["trial"],
                        config=ent["config"],
                        epochs=rnd.epochs,
                        val_loss=loss,
                        seed=ent["seed"],
                    )
                )
                scored.append((loss, ent))
            if all(math.isinf(loss) for loss, _ in scored):
                seeds = sorted(ent["seed"] for _, ent in scored)
                raise TuningError(f"all trials diverged in bracket {bracket.s}: seeds {seeds}")
            scored.sort(key=lambda pair: (pair[0], pair[1]["trial"]))
            if r_idx + 1 < len(bracket.rounds):
                keep = max(1, len(scored) // schedule.eta)
                entrants = [ent for _, ent in scored[:keep]]
            else:
                best_loss, best_ent = scored[0]
                finalists.append((best_loss, best_ent["trial"], best_ent["config"]))

    finalists.sort(key=lambda item: (item[0], item[1]))
    best_loss, _, best_config = finalists[0]
    return HyperbandResult(best_config=best_config, best_loss=best_loss, trials=trials)
