from __future__ import annotations

import ctypes
import json
import math
import multiprocessing
import os

import numpy as np
import pytest

from helpers import benchmark_checks, deadline, feature_table
from salience_lab import models, tuning
from salience_lab.features import build_dataset, carve_validation
from salience_lab.models import ModelError, TrainConfig, make_batches
from salience_lab.tuning import (
    VAL_FRACTION,
    BracketSchedule,
    HyperbandResult,
    SearchSpace,
    TrialResult,
    TuningError,
    hyperband_run,
    make_schedule,
)


def test_default_objective_returns_the_restored_weights_validation_loss(small_population,
                                                                       monkeypatch):
    split = build_dataset(small_population, ratio=0.8, seed=7)
    fit, val = carve_validation(split.train, VAL_FRACTION, 0)
    trained = []

    def recording_train(model, *args, **kwargs):
        history = models.train(model, *args, **kwargs)
        trained.append((model, history))
        return history

    monkeypatch.setattr(tuning, "train_model", recording_train)
    objective = tuning.default_objective(split, batch_size=8)
    config = {"hidden_width": 16, "d_z": 8, "layers": 1, "lr": 0.1, "emb_dim": 4}
    loss = objective(config, 5, 3, fit, val)
    [(model, history)] = trained
    # At this rate the last epoch is worse than an earlier one, which train restores.
    assert [row["epoch"] for row in history if row.get("best")] == [3]
    assert len(history) == 5
    assert loss == models._epoch_loss(model, make_batches(val, 8), TrainConfig().loss_weights)


def test_schedule_r81_eta3_matches_reference_table():
    schedule = make_schedule(81, 3)
    starts = [(b.rounds[0].n_configs, b.rounds[0].epochs) for b in schedule.brackets]
    assert starts == [(81, 1), (34, 3), (15, 9), (8, 27), (5, 81)]
    assert schedule.s_max == 4
    # the widest bracket halves 81 -> 27 -> 9 -> 3 -> 1 across epochs 1,3,9,27,81
    widest = schedule.brackets[0]
    assert [(r.n_configs, r.epochs) for r in widest.rounds] == [
        (81, 1),
        (27, 3),
        (9, 9),
        (3, 27),
        (1, 81),
    ]


def test_schedule_equals_the_benchmark_integer_table():
    table = benchmark_checks().bracket_table
    for eta in range(2, 11):
        for R in range(eta, 3000):
            schedule = make_schedule(R, eta)
            ours = [(b.s, [(r.n_configs, r.epochs) for r in b.rounds])
                    for b in schedule.brackets]
            assert ours == table(R, eta), (R, eta)
            assert all(b.rounds[-1].epochs == R for b in schedule.brackets), (R, eta)
    # log(243) / log(3) is 4.999... in floats; the bracket s = 5 must not be lost
    assert make_schedule(243, 3).s_max == 5
    assert make_schedule(1000, 10).s_max == 3


def test_schedule_boundary_r_equals_eta():
    schedule = make_schedule(3, 3)
    starts = [(b.rounds[0].n_configs, b.rounds[0].epochs) for b in schedule.brackets]
    assert starts == [(3, 1), (2, 3)]


def test_schedule_budget_bound_on_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(50):
        eta = int(rng.integers(2, 6))
        R = int(rng.integers(eta, 220))
        schedule = make_schedule(R, eta)
        for bracket in schedule.brackets:
            spent = sum(r.n_configs * r.epochs for r in bracket.rounds)
            assert spent <= schedule.budget_bound()


def test_schedule_promotion_counts():
    schedule = make_schedule(81, 3)
    for bracket in schedule.brackets:
        for a, b in zip(bracket.rounds, bracket.rounds[1:]):
            assert b.n_configs == max(1, a.n_configs // 3)


def test_schedule_rejects_bad_parameters():
    with pytest.raises(TuningError):
        make_schedule(1, 3)
    with pytest.raises(TuningError):
        make_schedule(10, 1)


class _StubSplit:
    """Minimal stand-in: hyperband only touches .train user ids."""

    def __init__(self, n_users=50):
        self.train = feature_table([1] * n_users)


def _loss_from_config(config):
    # smooth deterministic landscape over the sampled knobs
    return (
        abs(config["hidden_width"] - 64) / 64
        + abs(config["d_z"] - 32) / 32
        + abs(math.log(config["lr"] / 1e-3))
    )


def test_hyperband_deterministic_and_logged(tmp_path):
    space = SearchSpace()
    schedule = make_schedule(9, 3)

    def objective(config, epochs, trial_seed, fit, val):
        return _loss_from_config(config) + 1.0 / epochs

    runs = [
        hyperband_run(space, schedule, _StubSplit(), seed=5, objective=objective)
        for _ in range(2)
    ]
    assert runs[0].best_config == runs[1].best_config
    assert [t.val_loss for t in runs[0].trials] == [t.val_loss for t in runs[1].trials]
    log = tmp_path / "trials.csv"
    runs[0].write_log(log)
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "bracket,round,trial,config_json,epochs,val_loss"
    assert len(lines) == len(runs[0].trials) + 1


def test_hyperband_single_config_space_returns_it():
    space = SearchSpace(hidden_width=(24, 24), d_z=(12, 12), layers=(2, 2),
                        lr=(1e-3, 1e-3), emb_dim=(6, 6))
    schedule = make_schedule(9, 3)

    def objective(config, epochs, trial_seed, fit, val):
        return 1.0 / epochs

    result = hyperband_run(space, schedule, _StubSplit(), seed=0, objective=objective)
    assert result.best_config == {
        "hidden_width": 24, "d_z": 12, "layers": 2, "lr": 1e-3, "emb_dim": 6,
    }
    assert all(t.val_loss == 1 / t.epochs for t in result.trials)
    # trained at the full budget in the last bracket
    assert max(t.epochs for t in result.trials) == 9


def test_hyperband_planted_winner_always_selected():
    space = SearchSpace()
    schedule = make_schedule(9, 3)

    def landscape(config, epochs, trial_seed, fit, val):
        return 1.0 + _loss_from_config(config)

    first = hyperband_run(space, schedule, _StubSplit(), seed=3, objective=landscape)
    widest = [t for t in first.trials if t.bracket == 2 and t.round == 0]
    loser = max(widest, key=lambda t: t.val_loss)
    assert not any(t.trial == loser.trial and t.round > 0 for t in first.trials)

    def planted(config, epochs, trial_seed, fit, val):
        return 0.0 if trial_seed == loser.seed else landscape(config, epochs, trial_seed,
                                                              fit, val)

    result = hyperband_run(space, schedule, _StubSplit(), seed=3, objective=planted)
    assert result.best_config == loser.config
    assert result.best_loss == 0.0


def test_hyperband_promotes_top_fraction():
    space = SearchSpace()
    schedule = make_schedule(9, 3)
    per_round: dict[tuple[int, int], int] = {}

    def objective(config, epochs, trial_seed, fit, val):
        return _loss_from_config(config)

    result = hyperband_run(space, schedule, _StubSplit(), seed=1, objective=objective)
    for t in result.trials:
        key = (t.bracket, t.round)
        per_round[key] = per_round.get(key, 0) + 1
    # bracket s=2 of R=9: 9 configs at 1 epoch -> 3 at 3 -> 1 at 9
    assert per_round[(2, 0)] == 9
    assert per_round[(2, 1)] == 3
    assert per_round[(2, 2)] == 1


def test_hyperband_validation_isolation():
    space = SearchSpace(hidden_width=(16, 16), d_z=(8, 8), layers=(1, 1),
                        lr=(1e-3, 1e-3), emb_dim=(4, 4))
    schedule = make_schedule(3, 3)
    split = _StubSplit(40)

    def objective(config, epochs, trial_seed, fit, val):
        fit_users = {t.user_id for t in fit}
        val_users = {t.user_id for t in val}
        return 1.0 if fit_users and val_users and not fit_users & val_users else 0.0

    result = hyperband_run(space, schedule, split, seed=2, objective=objective)
    assert result.trials and all(t.val_loss == 1.0 for t in result.trials)


def test_hyperband_all_divergent_raises():
    space = SearchSpace()
    schedule = make_schedule(3, 3)

    def objective(config, epochs, trial_seed, fit, val):
        return float("nan")

    with pytest.raises(TuningError, match="seeds"):
        hyperband_run(space, schedule, _StubSplit(), seed=0, objective=objective)


def _reference_hyperband(space, schedule, split, seed, objective):
    """Every trial in turn in this process: the loop hyperband_run's worker pool replaced."""
    space.validate()
    fit_traces, val_traces = carve_validation(split.train, VAL_FRACTION, seed)
    if not fit_traces or not val_traces:
        raise TuningError("training split too small to carve a validation subset")

    sampler = np.random.default_rng(np.random.SeedSequence((seed, 0xBEEF)))
    trials = []
    finalists = []
    trial_counter = 0

    for bracket in schedule.brackets:
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


def _landscape(config, epochs, trial_seed, fit, val):
    # distinct per trial and per budget, so every promotion is decided by the loss
    return _loss_from_config(config) + 1.0 / epochs + (trial_seed % 997) * 1e-6


@pytest.mark.parametrize("workers", [1, 2, 5])
@pytest.mark.parametrize("R", [9, 27])
def test_hyperband_pool_equals_reference(monkeypatch, R, workers):
    monkeypatch.setattr(tuning, "_usable_cores", lambda: workers)
    space, schedule = SearchSpace(), make_schedule(R, 3)
    expected = _reference_hyperband(space, schedule, _StubSplit(), 4, _landscape)
    with deadline(60):
        result = hyperband_run(space, schedule, _StubSplit(), seed=4, objective=_landscape)
    assert result.trials == expected.trials
    assert result.best_config == expected.best_config
    assert result.best_loss == expected.best_loss
    assert multiprocessing.active_children() == []


def _divergence_objectives():
    """(name, objective) pairs whose trials diverge in whole rounds or in part."""
    space, schedule = SearchSpace(), make_schedule(9, 3)
    plain = _reference_hyperband(space, schedule, _StubSplit(), 6, _landscape)
    middle = frozenset(t.seed for t in plain.trials if t.bracket == 1)
    odd = frozenset(t.seed for t in plain.trials if t.trial % 2)

    def everywhere(config, epochs, trial_seed, fit, val):
        return float("nan")

    def at_three_epochs(config, epochs, trial_seed, fit, val):
        # bracket 2's second round and bracket 1's first both run 3 epochs
        if epochs == 3:
            raise ModelError("diverged")
        return _landscape(config, epochs, trial_seed, fit, val)

    def middle_bracket(config, epochs, trial_seed, fit, val):
        return math.inf if trial_seed in middle else _landscape(config, epochs, trial_seed,
                                                               fit, val)

    def odd_trials(config, epochs, trial_seed, fit, val):
        if trial_seed in odd:
            raise FloatingPointError("overflow")
        return _landscape(config, epochs, trial_seed, fit, val)

    return [("everywhere", everywhere), ("at_three_epochs", at_three_epochs),
            ("middle_bracket", middle_bracket), ("odd_trials", odd_trials)]


@pytest.mark.parametrize("workers", [1, 5])
@pytest.mark.parametrize("case", range(4))
def test_hyperband_pool_divergence_equals_reference(monkeypatch, case, workers):
    monkeypatch.setattr(tuning, "_usable_cores", lambda: workers)
    name, objective = _divergence_objectives()[case]
    space, schedule = SearchSpace(), make_schedule(9, 3)
    try:
        expected = _reference_hyperband(space, schedule, _StubSplit(), 6, objective)
    except TuningError as exc:
        with deadline(60), pytest.raises(TuningError) as raised:
            hyperband_run(space, schedule, _StubSplit(), seed=6, objective=objective)
        assert str(raised.value) == str(exc), name
    else:
        with deadline(60):
            result = hyperband_run(space, schedule, _StubSplit(), seed=6, objective=objective)
        assert result.trials == expected.trials, name
        assert (result.best_config, result.best_loss) == (expected.best_config,
                                                          expected.best_loss), name
    assert multiprocessing.active_children() == []


def _trial_of_bracket_one():
    plain = _reference_hyperband(SearchSpace(), make_schedule(9, 3), _StubSplit(), 8,
                                 _landscape)
    return next(t for t in plain.trials if t.bracket == 1)


def test_hyperband_objective_error_surfaces_unchanged(monkeypatch):
    monkeypatch.setattr(tuning, "_usable_cores", lambda: 2)
    victim = _trial_of_bracket_one()

    def objective(config, epochs, trial_seed, fit, val):
        if trial_seed == victim.seed:
            raise KeyError(f"no column for seed {trial_seed}")
        return _landscape(config, epochs, trial_seed, fit, val)

    with deadline(60), pytest.raises(KeyError) as raised:
        hyperband_run(SearchSpace(), make_schedule(9, 3), _StubSplit(), seed=8,
                      objective=objective)
    assert type(raised.value) is KeyError
    assert raised.value.args == (f"no column for seed {victim.seed}",)
    assert multiprocessing.active_children() == []


def test_hyperband_dead_worker_names_its_trial(monkeypatch):
    monkeypatch.setattr(tuning, "_usable_cores", lambda: 2)
    victim = _trial_of_bracket_one()

    def objective(config, epochs, trial_seed, fit, val):
        if trial_seed == victim.seed:
            os._exit(3)
        return _landscape(config, epochs, trial_seed, fit, val)

    with deadline(60), pytest.raises(TuningError) as raised:
        hyperband_run(SearchSpace(), make_schedule(9, 3), _StubSplit(), seed=8,
                      objective=objective)
    message = str(raised.value)
    assert f"trial {victim.trial} (seed {victim.seed})" in message
    assert "exit code 3" in message
    assert multiprocessing.active_children() == []


def test_hyperband_workers_run_one_blas_thread(monkeypatch):
    get_threads = tuning._openblas_function("get_num_threads")
    if get_threads is None:
        pytest.skip("numpy's BLAS is not OpenBLAS, whose thread count the workers pin")
    get_threads.restype = ctypes.c_int
    set_threads = tuning._openblas_function("set_num_threads")
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    monkeypatch.setattr(tuning, "_usable_cores", lambda: 2)

    def objective(config, epochs, trial_seed, fit, val):
        return float(get_threads())

    before = get_threads()
    set_threads(2)  # the workers inherit two threads unless they pin one
    try:
        result = hyperband_run(SearchSpace(), make_schedule(3, 3), _StubSplit(), seed=0,
                               objective=objective)
    finally:
        set_threads(before)
    assert result.trials and all(t.val_loss == 1.0 for t in result.trials)
