from __future__ import annotations

import csv
import dataclasses
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salience_lab import csvio
from salience_lab.features import (
    BEHAVIOUR_FIELDS,
    HOUR_VOCAB,
    TARGETS,
    WEEKDAY_VOCAB,
    YEARDAY_VOCAB,
    FeatureError,
    FeaturizedTrace,
    ScalerStats,
    Vocabularies,
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
from helpers import ODD_IDS, join, make_trace, random_trace


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
    targets = compute_targets(trace, thresholds=1e9, observation_end=1e6)
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
        table = random_trace(rng, f"u{i}")
        (trace,) = table
        gaps = trace.delta_session[1:].tolist() or [1.0]
        q1, q3 = np.quantile(gaps, [0.25, 0.75])
        threshold = q3 + 1.5 * (q3 - q1)
        observation_end = int(trace.start_utc[-1]) + trace.session_time[-1] + float(
            rng.uniform(0.0, 3 * threshold + 10.0)
        )
        targets = compute_targets(table, threshold, observation_end)

        total = sum(trace.play_time.tolist())
        inactive = observation_end - (int(trace.start_utc[-1]) + trace.session_time[-1])
        if trace.completed:
            expected_ch = 0.0
        elif inactive >= threshold:
            expected_ch = 1.0
        else:
            expected_ch = 0.5
        for t in range(1, trace.total_sessions + 1):
            played = sum(trace.play_time[:t].tolist())
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
    train_only = small_population_module.take(
        [i for i, t in enumerate(small_population_module) if t.user_id in train_users])
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
def test_chunks_cover_the_items_in_order_and_close_at_the_limit(tmp_path, monkeypatch, limit):
    # write_columns formats and writes BLOCK_ROWS rows at a time; whatever the block,
    # the file holds the bytes csv.writer writes for the same rows
    monkeypatch.setattr(csvio, "BLOCK_ROWS", limit)
    rng = np.random.default_rng(limit)
    n = 23
    columns = [[ODD_IDS[i % len(ODD_IDS)] for i in range(n)], rng.integers(-9, 10**12, n),
               rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n), [""] * n,
               np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e16, 2**53 + 1.0] * 4)[:n]]
    header = ["id", "count", "x", "empty", "special"]
    csvio.write_columns(tmp_path / "ours.csv", header, columns)
    with (tmp_path / "theirs.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*(np.asarray(c).tolist() for c in columns)))
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "theirs.csv").read_bytes()
    csvio.write_columns(tmp_path / "one.csv", ["id"], [["a", "", "b,c"]])
    assert (tmp_path / "one.csv").read_bytes() == b'id\r\na\r\n""\r\n"b,c"\r\n'


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
        build_dataset(make_trace("u", "g", [0], [1.0]).take([]))


# -- columnar featurization against the per-trace reference ---------------------


def _reference_build_dataset(traces, ratio, seed, observation_end=None):
    """build_dataset one trace at a time, as it was before the columnar version.

    Each trace's arrays come from its own sessions; the calendar comes from
    time.gmtime; thresholds sort a Python list per game.
    """
    traces = list(traces)
    if observation_end is None:
        observation_end = max(int(t.start_utc[-1]) + float(t.session_time[-1]) for t in traces)
    pools = {}
    for t in traces:
        pools.setdefault(t.game_id, []).extend(t.delta_session[1:].tolist())
    thresholds = {game: inactivity_threshold(sorted(pools[game])) for game in sorted(pools)}
    train_users, test_users = split_users([t.user_id for t in traces], ratio, seed)
    train_raw = sorted((t for t in traces if t.user_id in train_users),
                       key=lambda t: (t.user_id, t.game_id))
    test_raw = sorted((t for t in traces if t.user_id in test_users),
                      key=lambda t: (t.user_id, t.game_id))
    vocabs = Vocabularies(
        hour=HOUR_VOCAB, weekday=WEEKDAY_VOCAB, yearday=YEARDAY_VOCAB,
        region=build_vocab(r for t in train_raw for r in t.region.tolist()),
        game=build_vocab(t.game_id for t in train_raw))

    def raw_arrays(t):
        n = t.total_sessions
        behaviour = np.asarray(list(zip(*(getattr(t, name).tolist()
                                          for name in BEHAVIOUR_FIELDS))), dtype=np.float64)
        play = np.asarray(t.play_time.tolist())
        ab_mask = np.ones(n)
        ab_mask[-1] = 0.0
        inactive_for = max(0.0, observation_end - (int(t.start_utc[-1])
                                                   + float(t.session_time[-1])))
        return behaviour, {
            "churn": np.full(n, churn_probability(t.completed, inactive_for,
                                                  thresholds[t.game_id])),
            "survival_time": np.append(np.cumsum(play[:0:-1])[::-1], 0.0),
            "survival_sessions": np.arange(n - 1, -1, -1, dtype=np.float64),
            "absence": np.asarray(t.delta_session[1:].tolist() + [0.0]),
            "ab_mask": ab_mask,
        }

    train_arrays = [raw_arrays(t) for t in train_raw]
    stacked = np.concatenate([b for b, _ in train_arrays])
    columns = {name: stacked[:, j] for j, name in enumerate(BEHAVIOUR_FIELDS)}
    for name, field in TARGETS.items():
        if name != "ch":
            values = np.concatenate([
                tg[field][tg["ab_mask"] > 0] if name == "ab" else tg[field]
                for _, tg in train_arrays])
            columns[name] = values if values.size else np.zeros(1)
    scaler = fit_scaler(columns)

    def featurize(t, behaviour, targets):
        for j, name in enumerate(BEHAVIOUR_FIELDS):
            behaviour[:, j] = apply_scaler(scaler, name, behaviour[:, j])
        env_idx = []
        for start, region in zip(t.start_utc.tolist(), t.region.tolist()):
            moment = time.gmtime(60 * (start % (146097 * 1440)))
            env_idx.append((vocabs.hour.encode(moment.tm_hour),
                            vocabs.weekday.encode(moment.tm_wday),
                            vocabs.yearday.encode(moment.tm_yday), vocabs.region.encode(region)))
        for name, field in TARGETS.items():
            if name != "ch":
                targets[field] = apply_scaler(scaler, name, targets[field])
        targets["absence"] *= targets["ab_mask"]
        return FeaturizedTrace(user_id=t.user_id, game_id=t.game_id,
                               game_idx=vocabs.game.encode(t.game_id), behaviour=behaviour,
                               env_idx=np.asarray(env_idx, dtype=np.int64), **targets)

    return (
        [featurize(t, *arrays) for t, arrays in zip(train_raw, train_arrays)],
        [featurize(t, *raw_arrays(t)) for t in test_raw],
        vocabs, scaler, thresholds, float(observation_end),
    )


def _assert_same_split(split, reference):
    train, test, vocabs, scaler, thresholds, observation_end = reference
    assert (split.vocabs, split.scaler, split.thresholds, split.observation_end) == (
        vocabs, scaler, thresholds, observation_end)
    for ours, theirs in ((split.train, train), (split.test, test)):
        assert len(ours) == len(theirs)
        for a, b in zip(ours, theirs):
            assert (a.user_id, a.game_id, a.game_idx) == (b.user_id, b.game_id, b.game_idx)
            for field in ("behaviour", "env_idx", "ab_mask", *TARGETS.values()):
                x, y = getattr(a, field), getattr(b, field)
                assert x.dtype == y.dtype and x.shape == y.shape, field
                assert np.array_equal(x, y) and x.tobytes() == y.tobytes(), field


def _awkward_table():
    """Length-1 traces, a user in two games, tied gaps and play times, odd ids and big
    starts, joined out of (user, game) order."""
    rng = np.random.default_rng(3)
    tables = [
        make_trace("u9", "beta", [5000], [12.0]),
        make_trace("u1", "beta", [0, 100, 200, 300], [10.0] * 4, [8.0] * 4, completed=True),
        make_trace("u1", "alpha", [50, 150, 250], [10.0] * 3, [8.0] * 3, region="na"),
        make_trace("u0", "alpha", [7], [3.0], region="jp"),
        make_trace("u5", "alpha", [2**53 + 1, 2**53 + 500, 2**60], [30.0, 1.0, 9.5]),
        make_trace(ODD_IDS[0], ODD_IDS[1], [10, 90, 90 + 1440 * 200], [20.0, 5.0, 7.0],
                   region=ODD_IDS[2]),
        make_trace("u1", ODD_IDS[1], [1_000_000, 1_000_060], [50.0, 10.0]),
    ]
    tables += [random_trace(rng, f"r{i}", game_id=("alpha", "beta", ODD_IDS[1])[i % 3])
               for i in range(60)]
    return join(tables[::-1])


@pytest.mark.parametrize("ratio, seed", [(0.8, 0), (0.5, 3), (0.3, 11)])
def test_columnar_build_dataset_equals_the_per_trace_reference(ratio, seed):
    table = _awkward_table()
    _assert_same_split(build_dataset(table, ratio=ratio, seed=seed),
                       _reference_build_dataset(table, ratio, seed))
    _assert_same_split(build_dataset(table, ratio=ratio, seed=seed, observation_end=3e18),
                       _reference_build_dataset(table, ratio, seed, observation_end=3e18))


def test_columnar_build_dataset_equals_the_per_trace_reference_on_a_population(
        small_population_module):
    _assert_same_split(build_dataset(small_population_module, ratio=0.8, seed=5),
                       _reference_build_dataset(small_population_module, 0.8, 5))
