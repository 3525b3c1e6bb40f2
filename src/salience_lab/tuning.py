"""Hyperband search over architecture and optimizer knobs.

Brackets trade breadth for depth: bracket s starts ceil((s_max+1)/(s+1) *
eta^s) configurations at R * eta^-s epochs and keeps the top floor(n / eta)
after each round.  A fifth of the training users is carved out once as the
validation subset; no trial ever trains on them.  Trials run in forked worker
processes, one per usable core, each pinned to one BLAS thread.
"""

from __future__ import annotations

import csv
import ctypes
import json
import math
import multiprocessing
import os
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait
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


def _usable_cores() -> int:
    """Cores this process may run on; hyperband_run starts one worker per core."""
    return len(os.sched_getaffinity(0))


def _openblas_function(name: str):
    """Entry point `name` (e.g. "set_num_threads") of the OpenBLAS numpy loaded, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return fn
    return None


def _pin_one_blas_thread() -> None:
    """Run this process's BLAS calls on one thread; a no-op under a BLAS other than OpenBLAS.

    One worker per core already keeps every core busy, and a second BLAS
    thread per worker would only contend with the other workers.  One thread
    also makes a trial's loss independent of the parent's thread count.
    """
    fn = _openblas_function("set_num_threads")
    if fn is not None:
        fn.argtypes = [ctypes.c_int]
        fn.restype = None
        fn(1)


def _trial_loss(objective: Callable, config: dict, epochs: int, seed: int, fit_traces,
                val_traces) -> float:
    """The objective's validation loss; inf for a trial that diverged."""
    try:
        loss = float(objective(config, epochs, seed, fit_traces, val_traces))
    except (ModelError, FloatingPointError, OverflowError):
        return math.inf
    return loss if math.isfinite(loss) else math.inf


def _trial_worker(conn, objective: Callable, fit_traces, val_traces) -> None:
    """Body of a forked worker: answer each (config, epochs, seed) on conn.

    The objective and the traces are inherited through fork, not sent.  The
    reply is (loss, None), or (None, (error, formatted traceback)) when the
    objective raised an error other than divergence.
    """
    _pin_one_blas_thread()
    while True:
        try:
            config, epochs, seed = conn.recv()
        except EOFError:  # the parent closed its end
            return
        try:
            reply = (_trial_loss(objective, config, epochs, seed, fit_traces, val_traces), None)
        except Exception as exc:  # re-raised by the parent, which then stops every worker
            reply = (None, (exc, traceback.format_exc()))
        conn.send(reply)


class _RemoteTraceback(Exception):
    """The traceback of an error raised in a worker, chained as that error's cause."""


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
    data.  Every bracket's configs are sampled up front, in trial order, and
    each trial's RNG stream derives from (seed, trial index).

    objective(config, epochs, trial_seed, fit_traces, val_traces) returns a
    trial's validation loss; default_objective trains a melchior model.  It
    runs in forked worker processes, one per usable core and each at one
    OpenBLAS thread, so it must be a pure function of its arguments: what it
    changes outside its return value is lost.  All brackets' first rounds are
    queued at once; a bracket's next round is queued when its current round
    has fully returned.  The result, and the order of `trials`, equal those
    of running every trial in turn in one process, whatever the core count.
    A worker that dies raises TuningError naming its trial; any other error
    the objective raises, apart from divergence, is raised here.
    """
    space.validate()
    fit_traces, val_traces = carve_validation(split.train, VAL_FRACTION, seed)
    if not fit_traces or not val_traces:
        raise TuningError("training split too small to carve a validation subset")

    sampler = np.random.default_rng(np.random.SeedSequence((seed, 0xBEEF)))
    # lineups[b][r]: the entrants of bracket b's round r, in the order they are logged
    lineups: list[list[list[dict]]] = []
    trial_counter = 0
    for bracket in schedule.brackets:
        entrants = []
        for _ in range(bracket.rounds[0].n_configs):
            config = space.sample(sampler)
            trial_seed = int(
                np.random.SeedSequence((seed, trial_counter)).generate_state(1)[0]
            )
            entrants.append({"trial": trial_counter, "config": config, "seed": trial_seed})
            trial_counter += 1
        lineups.append([entrants])

    losses: dict[tuple[int, int], float] = {}  # (round, trial) -> validation loss
    ready = deque((b, 0, ent) for b, rounds in enumerate(lineups) for ent in rounds[0])
    # Running every trial in turn would stop at the first bracket whose round fully
    # diverges, so no bracket after it counts.
    stop_at, failure = len(lineups), None
    ctx = multiprocessing.get_context("fork")
    workers = {}  # parent end of each worker's pipe -> its process
    running = {}  # parent end -> the (bracket, round, entrant) its worker runs
    try:
        for _ in range(min(_usable_cores(), trial_counter)):
            conn, child_end = ctx.Pipe()
            process = ctx.Process(target=_trial_worker, daemon=True,
                                  args=(child_end, objective, fit_traces, val_traces))
            process.start()
            workers[conn] = process
            child_end.close()  # so the parent reads EOF once the worker exits
        idle = list(workers)
        while ready or any(b <= stop_at for b, _, _ in running.values()):
            while ready and idle:
                conn = idle.pop()
                b, r, ent = running[conn] = ready.popleft()
                conn.send((ent["config"], schedule.brackets[b].rounds[r].epochs, ent["seed"]))
            conn = wait(list(running))[0]
            b, r, ent = running.pop(conn)
            try:
                loss, error = conn.recv()
            except EOFError:
                workers[conn].join()
                raise TuningError(
                    f"a tuning worker died (exit code {workers[conn].exitcode}) while running "
                    f"trial {ent['trial']} (seed {ent['seed']})") from None
            if error is not None:
                raise error[0] from _RemoteTraceback(error[1])
            idle.append(conn)
            if b > stop_at:
                continue
            losses[(r, ent["trial"])] = loss
            lineup = lineups[b][r]
            if any((r, e["trial"]) not in losses for e in lineup):
                continue
            scored = sorted(((losses[(r, e["trial"])], e) for e in lineup),
                            key=lambda pair: (pair[0], pair[1]["trial"]))
            rounds = schedule.brackets[b].rounds
            if all(math.isinf(loss) for loss, _ in scored):
                seeds = sorted(e["seed"] for e in lineup)
                stop_at = b
                failure = f"all trials diverged in bracket {schedule.brackets[b].s}: seeds {seeds}"
                ready = deque(job for job in ready if job[0] < b)
            elif r + 1 < len(rounds):
                keep = min(max(1, len(scored) // schedule.eta), rounds[r + 1].n_configs)
                lineups[b].append([e for _, e in scored[:keep]])
                ready.extend((b, r + 1, e) for e in lineups[b][-1])
    finally:
        for conn, process in workers.items():
            process.terminate()
            process.join()
            conn.close()
    if failure is not None:
        raise TuningError(failure)

    trials: list[TrialResult] = []
    finalists = []
    for bracket, rounds in zip(schedule.brackets, lineups):
        for r_idx, lineup in enumerate(rounds):
            trials.extend(
                TrialResult(bracket=bracket.s, round=r_idx, trial=ent["trial"],
                            config=ent["config"], epochs=bracket.rounds[r_idx].epochs,
                            val_loss=losses[(r_idx, ent["trial"])], seed=ent["seed"])
                for ent in lineup)
        finalists.append(min((losses[(len(rounds) - 1, e["trial"])], e["trial"], e["config"])
                             for e in rounds[-1]))
    best_loss, _, best_config = min(finalists)
    return HyperbandResult(best_config=best_config, best_loss=best_loss, trials=trials)
