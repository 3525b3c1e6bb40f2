from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salience_lab.features import (
    BEHAVIOUR_FIELDS,
    FeatureError,
    build_dataset,
    build_vocab,
    churn_probability,
    compute_targets,
    fit_scaler,
    apply_scaler,
    inactivity_threshold,
    invert_scaler,
    load_dataset,
    save_dataset,
    split_users,
)
from helpers import make_trace, random_trace


# -- inactivity threshold ----------------------------------------------------


def test_threshold_zero_iqr():
    assert inactivity_threshold([2, 2, 2, 2]) == 2.0


def test_threshold_hand_computed():
    assert inactivity_threshold([1, 2, 3, 4]) == pytest.approx(5.5, abs=1e-12)


def test_threshold_single_element():
    assert inactivity_threshold([10]) == 10.0


def test_threshold_empty_errors():
    with pytest.raises(FeatureError):
        inactivity_threshold([])


def test_threshold_matches_reference_quantiles():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        gaps = rng.uniform(0.0, 5000.0, size=n)
        q1, q3 = np.quantile(gaps, [0.25, 0.75])  # type-7 linear interpolation
        expected = q3 + 1.5 * (q3 - q1)
        assert inactivity_threshold(gaps) == pytest.approx(expected, abs=1e-9)


# -- churn encoding ----------------------------------------------------------


def test_churn_completed_is_zero():
    assert churn_probability(True, 123456.0, 5000.0) == 0.0


def test_churn_long_inactive_is_one():
    assert churn_probability(False, 9000.0, 5000.0) == 1.0


def test_churn_uncertain_is_half():
    assert churn_probability(False, 100.0, 5000.0) == 0.5


# -- targets -----------------------------------------------------------------


def test_targets_remaining_play_time():
    trace = make_trace("u", "g", [0, 100, 300], [10.0, 20.0, 5.0], [10.0, 15.0, 35.0])
    targets = compute_targets(trace, threshold=1e9, observation_end=1e6)
    assert targets[0].survival_time == pytest.approx(50.0)  # 60 total - 10 played
    assert targets[1].survival_time == pytest.approx(35.0)
    assert targets[2].survival_time == 0.0


def test_targets_final_session_is_zero():
    rng = np.random.default_rng(0)
    for i in range(50):
        trace = random_trace(rng, f"u{i}")
        targets = compute_targets(trace, 100.0, 10**8)
        assert targets[-1].survival_time == 0.0
        assert targets[-1].survival_sessions == 0
        assert targets[-1].absence_masked


def test_targets_session_countdown():
    trace = make_trace("u", "g", [0, 100, 300, 500, 900], [10.0] * 5)
    targets = compute_targets(trace, 1e9, 1e6)
    assert targets[1].survival_sessions == 3  # Ps = 5, t = 2
    assert [tv.survival_sessions for tv in targets] == [4, 3, 2, 1, 0]


def test_targets_absence_is_next_gap():
    trace = make_trace("u", "g", [0, 100, 300], [10.0, 20.0, 5.0])
    targets = compute_targets(trace, 1e9, 1e6)
    assert targets[0].absence == pytest.approx(90.0)  # 100 - (0 + 10)
    assert targets[1].absence == pytest.approx(180.0)  # 300 - (100 + 20)
    assert targets[2].absence == 0.0 and targets[2].absence_masked


def test_targets_brute_force_oracle():
    rng = np.random.default_rng(7)
    for i in range(1000):
        trace = random_trace(rng, f"u{i}")
        gaps = [s.delta_session for s in trace.sessions[1:]] or [1.0]
        q1, q3 = np.quantile(gaps, [0.25, 0.75])
        threshold = q3 + 1.5 * (q3 - q1)
        observation_end = trace.sessions[-1].start_utc + trace.sessions[-1].session_time + float(
            rng.uniform(0.0, 3 * threshold + 10.0)
        )
        targets = compute_targets(trace, threshold, observation_end)

        total = sum(s.play_time for s in trace.sessions)
        inactive = observation_end - (
            trace.sessions[-1].start_utc + trace.sessions[-1].session_time
        )
        if trace.completed:
            expected_ch = 0.0
        elif inactive >= threshold:
            expected_ch = 1.0
        else:
            expected_ch = 0.5
        for t, tv in enumerate(targets, start=1):
            played = sum(s.play_time for s in trace.sessions[:t])
            assert tv.survival_time == pytest.approx(total - played, abs=1e-9)
            assert tv.survival_sessions == trace.total_sessions - t
            assert tv.churn == expected_ch


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_targets_monotone_property(seed):
    trace = random_trace(np.random.default_rng(seed), "u")
    targets = compute_targets(trace, 100.0, 10**8)
    st_series = [tv.survival_time for tv in targets]
    ss_series = [tv.survival_sessions for tv in targets]
    assert all(a >= b for a, b in zip(st_series, st_series[1:]))
    assert all(a >= b for a, b in zip(ss_series, ss_series[1:]))
    assert st_series[-1] == 0.0 and ss_series[-1] == 0
    assert len({tv.churn for tv in targets}) == 1
    assert targets[0].churn in (0.0, 0.5, 1.0)


# -- scaler ------------------------------------------------------------------


def test_scaler_basic():
    stats = fit_scaler({"x": np.array([0.0, 5.0, 10.0])})
    assert np.allclose(apply_scaler(stats, "x", np.array([0.0, 5.0, 10.0])), [0, 0.5, 1])


def test_scaler_extrapolates():
    stats = fit_scaler({"x": np.array([0.0, 10.0])})
    assert apply_scaler(stats, "x", np.array([12.0]))[0] == pytest.approx(1.2)


def test_scaler_degenerate_feature():
    stats = fit_scaler({"x": np.array([3.0, 3.0, 3.0])})
    assert np.all(apply_scaler(stats, "x", np.array([3.0, 99.0])) == 0.0)


def test_scaler_inverse():
    stats = fit_scaler({"x": np.array([2.0, 12.0])})
    values = np.array([2.0, 7.0, 12.0, 20.0])
    assert np.allclose(invert_scaler(stats, "x", apply_scaler(stats, "x", values)), values)


# -- vocabularies ------------------------------------------------------------


def test_vocab_sorted_with_oov():
    vocab = build_vocab(["na", "eu", "na"])
    assert vocab.as_mapping() == {"OOV": 0, "eu": 1, "na": 2}
    assert vocab.encode("na") == 2
    assert vocab.encode("jp") == 0


def test_hour_vocab_size():
    from salience_lab.features import HOUR_VOCAB

    assert HOUR_VOCAB.size == 25


# -- split -------------------------------------------------------------------


def test_split_exact_counts():
    users = [f"u{i}" for i in range(10)]
    train, test = split_users(users, 0.8, seed=1)
    assert len(train) == 8 and len(test) == 2
    assert train | test == set(users) and not train & test


def test_split_deterministic():
    users = [f"u{i}" for i in range(50)]
    assert split_users(users, 0.8, 9) == split_users(users, 0.8, 9)
    assert split_users(users, 0.8, 9) != split_users(users, 0.8, 10)


def test_split_fraction_large_population():
    users = [f"user-{i:05d}" for i in range(10_000)]
    train, _ = split_users(users, 0.8, seed=3)
    assert abs(len(train) / 10_000 - 0.8) <= 0.02


def test_split_rejects_bad_ratio():
    with pytest.raises(FeatureError):
        split_users(["a"], 1.0, 0)


# -- dataset assembly --------------------------------------------------------


@pytest.fixture(scope="module")
def dataset(small_population_module):
    return build_dataset(small_population_module, ratio=0.8, seed=5)


@pytest.fixture(scope="module")
def small_population_module():
    from salience_lab.telemetry import GameSpec, simulate_population

    games = [
        GameSpec("alpha", base_quality=0.85, quality_drift=-0.004, completion_sessions=30),
        GameSpec("beta", base_quality=0.55, quality_drift=-0.004, completion_sessions=35),
        GameSpec("gamma", base_quality=0.4, quality_drift=-0.003, noise_sd=0.12),
    ]
    return simulate_population(games, players_per_game=20, calendar_start=10_000,
                               horizon_days=30, seed=7)


def test_no_leakage_in_scaler_and_vocabs(small_population_module):
    full = build_dataset(small_population_module, ratio=0.8, seed=5)
    train_users = {t.user_id for t in full.train}
    train_only = [t for t in small_population_module if t.user_id in train_users]
    # Rebuild with the test users absent entirely; fitted statistics must not move.
    reduced = build_dataset(train_only, ratio=0.999999, seed=5,
                            observation_end=full.observation_end)
    assert reduced.scaler == full.scaler
    assert reduced.vocabs == full.vocabs


def test_dataset_split_is_by_user(dataset):
    train_users = {t.user_id for t in dataset.train}
    test_users = {t.user_id for t in dataset.test}
    assert not train_users & test_users


def test_dataset_env_indices_in_range(dataset):
    for ft in dataset.train + dataset.test:
        assert ft.env_idx[:, 0].max() < dataset.vocabs.hour.size
        assert ft.env_idx[:, 1].max() < dataset.vocabs.weekday.size
        assert ft.env_idx[:, 2].max() < dataset.vocabs.yearday.size
        assert ft.env_idx[:, 3].max() < dataset.vocabs.region.size
        assert ft.game_idx < dataset.vocabs.game.size
        assert ft.env_idx.min() >= 0


def test_dataset_churn_constant_and_encoded(dataset):
    for ft in dataset.train + dataset.test:
        assert len(set(ft.churn.tolist())) == 1
        assert ft.churn[0] in (0.0, 0.5, 1.0)


def test_dataset_round_trip(tmp_path, dataset):
    save_dataset(dataset, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    assert loaded.scaler == dataset.scaler
    assert loaded.vocabs == dataset.vocabs
    assert loaded.thresholds == dataset.thresholds
    assert len(loaded.train) == len(dataset.train)
    for a, b in zip(loaded.train, dataset.train):
        assert a.user_id == b.user_id
        assert np.array_equal(a.behaviour, b.behaviour)
        assert np.array_equal(a.env_idx, b.env_idx)
        assert np.array_equal(a.survival_time, b.survival_time)
        assert np.array_equal(a.ab_mask, b.ab_mask)


def test_dataset_requires_traces():
    with pytest.raises(FeatureError):
        build_dataset([])
