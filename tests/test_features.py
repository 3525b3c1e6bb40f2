from __future__ import annotations

import csv
import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salience_lab import csvio
from salience_lab.features import (
    BEHAVIOUR_FIELDS,
    TARGETS,
    FeatureError,
    FeaturizedTrace,
    ScalerStats,
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
    target_medians,
)
from helpers import ODD_IDS, make_trace, random_trace


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
    assert targets["survival_time"][0] == pytest.approx(50.0)  # 60 total - 10 played
    assert targets["survival_time"][1] == pytest.approx(35.0)
    assert targets["survival_time"][2] == 0.0


def test_targets_final_session_is_zero():
    rng = np.random.default_rng(0)
    for i in range(50):
        trace = random_trace(rng, f"u{i}")
        targets = compute_targets(trace, 100.0, 10**8)
        assert targets["survival_time"][-1] == 0.0
        assert targets["survival_sessions"][-1] == 0
        assert targets["ab_mask"][-1] == 0.0


def test_targets_session_countdown():
    trace = make_trace("u", "g", [0, 100, 300, 500, 900], [10.0] * 5)
    targets = compute_targets(trace, 1e9, 1e6)
    assert targets["survival_sessions"][1] == 3  # Ps = 5, t = 2
    assert targets["survival_sessions"].tolist() == [4, 3, 2, 1, 0]


def test_targets_absence_is_next_gap():
    trace = make_trace("u", "g", [0, 100, 300], [10.0, 20.0, 5.0])
    targets = compute_targets(trace, 1e9, 1e6)
    assert targets["absence"][0] == pytest.approx(90.0)  # 100 - (0 + 10)
    assert targets["absence"][1] == pytest.approx(180.0)  # 300 - (100 + 20)
    assert targets["absence"][2] == 0.0 and targets["ab_mask"][2] == 0.0
    assert targets["ab_mask"][:2].tolist() == [1.0, 1.0]


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
        for t in range(1, trace.total_sessions + 1):
            played = sum(s.play_time for s in trace.sessions[:t])
            assert targets["survival_time"][t - 1] == pytest.approx(total - played, abs=1e-9)
            assert targets["survival_sessions"][t - 1] == trace.total_sessions - t
            assert targets["churn"][t - 1] == expected_ch


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_targets_monotone_property(seed):
    trace = random_trace(np.random.default_rng(seed), "u")
    targets = compute_targets(trace, 100.0, 10**8)
    st_series = targets["survival_time"].tolist()
    ss_series = targets["survival_sessions"].tolist()
    assert all(a >= b for a, b in zip(st_series, st_series[1:]))
    assert all(a >= b for a, b in zip(ss_series, ss_series[1:]))
    assert st_series[-1] == 0.0 and ss_series[-1] == 0
    assert len(set(targets["churn"].tolist())) == 1
    assert targets["churn"][0] in (0.0, 0.5, 1.0)


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
    assert vocab.tokens == ("eu", "na")
    assert [vocab.encode(t) for t in vocab.tokens] == [1, 2]
    assert vocab.size == 3
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
    for part in ("train", "test"):
        ours, theirs = getattr(loaded, part), getattr(dataset, part)
        assert ours and len(ours) == len(theirs)
        for a, b in zip(ours, theirs):
            assert (a.user_id, a.game_id, a.game_idx) == (b.user_id, b.game_id, b.game_idx)
            for field in ("behaviour", "env_idx", "ab_mask", *TARGETS.values()):
                assert np.array_equal(getattr(a, field), getattr(b, field)), (part, field)


def _assert_same_traces(ours, theirs):
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert (a.user_id, a.game_id, a.game_idx) == (b.user_id, b.game_id, b.game_idx)
        for field in ("behaviour", "env_idx", "ab_mask", *TARGETS.values()):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
            assert getattr(a, field).dtype == getattr(b, field).dtype, field



def test_ids_that_need_quoting_round_trip(tmp_path, dataset):
    def renamed(ft, i):
        return dataclasses.replace(ft, user_id=ODD_IDS[i % len(ODD_IDS)] + str(i),
                                   game_id=ODD_IDS[(i + 3) % len(ODD_IDS)])

    odd = dataclasses.replace(
        dataset,
        train=sorted((renamed(ft, i) for i, ft in enumerate(dataset.train)),
                     key=lambda t: (t.user_id, t.game_id)),
        test=sorted((renamed(ft, -1 - i) for i, ft in enumerate(dataset.test)),
                    key=lambda t: (t.user_id, t.game_id)))
    save_dataset(odd, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    _assert_same_traces(loaded.train, odd.train)
    _assert_same_traces(loaded.test, odd.test)


def test_round_trip_across_write_chunks(tmp_path, dataset):
    # copies under new user ids, so the train split spans several write chunks
    many = [dataclasses.replace(ft, user_id=f"{ft.user_id}-{k}")
            for ft in dataset.train for k in range(6)]
    assert sum(ft.length for ft in many) > 2 * 4096
    save_dataset(dataclasses.replace(dataset, train=many), tmp_path / "ds")
    _assert_same_traces(load_dataset(tmp_path / "ds").train, many)


@pytest.mark.parametrize("limit", [1, 5, 7, 1000])
def test_chunks_cover_the_items_in_order_and_close_at_the_limit(limit):
    lengths = [3, 1, 4, 1, 5, 9, 2, 6]
    chunks = list(csvio.chunks(lengths, lambda n: n, limit))
    assert [n for chunk in chunks for n in chunk] == lengths
    for chunk in chunks[:-1]:
        assert sum(chunk) >= limit > sum(chunk[:-1])
    assert sum(chunks[-1][:-1]) < limit


def test_header_only_split_loads_empty_without_warning(tmp_path, dataset):
    save_dataset(dataclasses.replace(dataset, test=[]), tmp_path / "ds")
    assert (tmp_path / "ds" / "test.csv").read_text(encoding="utf-8").count("\n") == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = load_dataset(tmp_path / "ds")
    assert loaded.test == []
    _assert_same_traces(loaded.train, dataset.train)


def test_shuffled_rows_load_to_the_same_traces(tmp_path, dataset):
    save_dataset(dataset, tmp_path / "ds")
    path = tmp_path / "ds" / "train.csv"
    header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    np.random.default_rng(0).shuffle(rows)
    path.write_text(header + "".join(rows), encoding="utf-8", newline="")
    _assert_same_traces(load_dataset(tmp_path / "ds").train, dataset.train)


def test_wrong_header_names_the_file(tmp_path, dataset):
    save_dataset(dataset, tmp_path / "ds")
    path = tmp_path / "ds" / "test.csv"
    text = path.read_text(encoding="utf-8")
    swapped = text.replace("session_time,play_time", "play_time,session_time", 1)
    assert swapped != text
    path.write_text(swapped, encoding="utf-8", newline="")
    with pytest.raises(FeatureError, match=re.escape(str(path))):
        load_dataset(tmp_path / "ds")


@pytest.mark.parametrize("column, value", [("play_time", "1.2.3"), ("hour_idx", "1.5"),
                                           ("game_idx", ""), ("ab", "x")])
def test_malformed_number_names_its_line(tmp_path, dataset, column, value):
    save_dataset(dataset, tmp_path / "ds")
    path = tmp_path / "ds" / "train.csv"
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[3][rows[0].index(column)] = value
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(FeatureError, match="^line 4: malformed row"):
        load_dataset(tmp_path / "ds")


def _featurized(churn, st, ss, ab, ab_mask):
    n = len(churn)
    return FeaturizedTrace(
        user_id="u", game_id="g", game_idx=1, behaviour=np.zeros((n, 5)),
        env_idx=np.zeros((n, 4), dtype=np.int64), churn=np.asarray(churn, dtype=float),
        survival_time=np.asarray(st, dtype=float), survival_sessions=np.asarray(ss, dtype=float),
        absence=np.asarray(ab, dtype=float), ab_mask=np.asarray(ab_mask, dtype=float),
    )


def test_target_medians_unscale_each_target_and_skip_masked_absence():
    scaler = ScalerStats(names=("st", "ss", "ab"), mins=(10.0, 0.0, 2.0),
                         maxs=(30.0, 4.0, 6.0))
    trace = _featurized(churn=[0.5] * 4, st=[1.0, 0.5, 0.25, 0.0], ss=[0.75, 0.5, 0.25, 0.0],
                        ab=[0.0, 1.0, 0.5, 0.0], ab_mask=[1, 1, 1, 0])
    # unscaled: st 30, 20, 15, 10; ss 3, 2, 1, 0; observed ab 2, 6, 4
    assert target_medians([trace], scaler).tolist() == [[0.5, 17.5, 1.5, 4.0]]


def test_target_medians_of_a_length_one_trace_has_no_absence():
    scaler = ScalerStats(names=("st", "ss", "ab"), mins=(0.0, 0.0, 0.0), maxs=(1.0, 1.0, 1.0))
    medians = target_medians([_featurized([1.0], [0.0], [0.0], [0.0], [0.0])], scaler)
    assert medians.shape == (1, 4)
    assert medians[0, :3].tolist() == [1.0, 0.0, 0.0]
    assert np.isnan(medians[0, 3])


def _reference_target_medians(trace, scaler):
    # one trace at a time through np.median; None where absence is never observed
    medians = []
    for name, field in TARGETS.items():
        values = getattr(trace, field)
        if name == "ab":
            values = values[trace.ab_mask > 0]
            if not values.size:
                medians.append(None)
                continue
        if name != "ch":
            values = invert_scaler(scaler, name, values)
        medians.append(float(np.median(values)))
    return medians


def test_target_medians_equal_np_median_per_trace():
    rng = np.random.default_rng(11)
    scaler = ScalerStats(names=("st", "ss", "ab"), mins=(3.0, 0.0, -1.5),
                         maxs=(2000.0, 21.0, 7.0e4))
    traces = []
    for n in [1, 2, 3, 4] + rng.integers(1, 23, size=300).tolist():
        ab_mask = (rng.random(n) < 0.7).astype(float)
        # ties and repeated values, as remaining-session counts and churn have
        traces.append(_featurized(
            churn=[rng.choice([0.0, 0.5, 1.0])] * n, st=rng.random(n),
            ss=np.round(rng.random(n), 1), ab=rng.random(n) * ab_mask, ab_mask=ab_mask))
    for trace in traces[5:7]:  # a nan anywhere in a trace makes its median nan
        trace.survival_time[0] = np.nan
    table = target_medians(traces, scaler)
    assert table.shape == (len(traces), 4)
    for trace, row in zip(traces, table):
        expected = _reference_target_medians(trace, scaler)
        np.testing.assert_array_equal(row, [np.nan if m is None else m for m in expected])
    assert np.isnan(table[:, 3]).any() and np.isnan(table[5:7, 1]).all()
    assert target_medians([], scaler).shape == (0, 4)


def test_dataset_requires_traces():
    with pytest.raises(FeatureError):
        build_dataset([])
