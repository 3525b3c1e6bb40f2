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
from helpers import ODD_IDS, awkward_table, feature_table, make_trace, random_trace


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
    assert vocab.codes(np.array(vocab.tokens)).tolist() == [1, 2]
    assert vocab.size == 3
    assert vocab.codes(np.array(["jp"])).tolist() == [0]


def test_vocab_codes_equal_a_token_lookup():
    rng = np.random.default_rng(2)
    for tokens, values in ((range(0, 40, 3), rng.integers(-5, 45, 200)),
                           (["eu", "na", "sa"], np.array(["na", "", "eu", "zz", "sa", "a"])),
                           ([], np.array([1, 2]))):
        vocab = build_vocab(tokens)
        lookup = {token: i for i, token in enumerate(vocab.tokens, start=1)}
        codes = vocab.codes(values)
        assert codes.dtype == np.int64
        assert codes.tolist() == [lookup.get(value, 0) for value in values.tolist()]


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
    def renamed(traces, ids):  # trace k under odd ids from ids[k], in (user, game) order
        users = np.array([ODD_IDS[i % len(ODD_IDS)] + str(i) for i in ids])
        games = np.array([ODD_IDS[(i + 3) % len(ODD_IDS)] for i in ids])
        return dataclasses.replace(traces, user_id=users, game_id=games).take(
            np.lexsort((games, users)))

    train = renamed(dataset.train, range(len(dataset.train)))
    test = renamed(dataset.test, [-1 - i for i in range(len(dataset.test))])
    odd = dataclasses.replace(dataset, traces=train + test, n_train=len(train))
    save_dataset(odd, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    _assert_same_traces(loaded.train, odd.train)
    _assert_same_traces(loaded.test, odd.test)


def test_round_trip_across_write_chunks(tmp_path, dataset):
    # copies under new user ids, so the train split spans several write chunks
    train = dataset.train
    many = dataclasses.replace(
        train.take(np.repeat(np.arange(len(train)), 6)),
        user_id=np.array([f"{user}-{k}" for user in train.user_id.tolist() for k in range(6)]))
    assert sum(ft.length for ft in many) > 2 * 4096
    save_dataset(dataclasses.replace(dataset, traces=many + dataset.test, n_train=len(many)),
                 tmp_path / "ds")
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
    save_dataset(dataclasses.replace(dataset, traces=dataset.train, n_train=len(dataset.train)),
                 tmp_path / "ds")
    assert (tmp_path / "ds" / "test.csv").read_text(encoding="utf-8").count("\n") == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = load_dataset(tmp_path / "ds")
    assert len(loaded.test) == 0
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
    with pytest.raises(FeatureError, match=f"^{re.escape(str(path))}: line 4: malformed row"):
        load_dataset(tmp_path / "ds")


def _featurized(churn, st, ss, ab, ab_mask):
    return feature_table([len(churn)], user_id="u", churn=churn, survival_time=st,
                         survival_sessions=ss, absence=ab, ab_mask=ab_mask)


def test_target_medians_unscale_each_target_and_skip_masked_absence():
    scaler = ScalerStats(names=("st", "ss", "ab"), mins=(10.0, 0.0, 2.0),
                         maxs=(30.0, 4.0, 6.0))
    trace = _featurized(churn=[0.5] * 4, st=[1.0, 0.5, 0.25, 0.0], ss=[0.75, 0.5, 0.25, 0.0],
                        ab=[0.0, 1.0, 0.5, 0.0], ab_mask=[1, 1, 1, 0])
    # unscaled: st 30, 20, 15, 10; ss 3, 2, 1, 0; observed ab 2, 6, 4
    assert target_medians(trace, scaler).tolist() == [[0.5, 17.5, 1.5, 4.0]]


def test_target_medians_of_a_length_one_trace_has_no_absence():
    scaler = ScalerStats(names=("st", "ss", "ab"), mins=(0.0, 0.0, 0.0), maxs=(1.0, 1.0, 1.0))
    medians = target_medians(_featurized([1.0], [0.0], [0.0], [0.0], [0.0]), scaler)
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
    lengths = [1, 2, 3, 4] + rng.integers(1, 23, size=300).tolist()
    parts = []
    for n in lengths:
        ab_mask = (rng.random(n) < 0.7).astype(float)
        # ties and repeated values, as remaining-session counts and churn have
        parts.append({"churn": [rng.choice([0.0, 0.5, 1.0])] * n,
                      "survival_time": rng.random(n),
                      "survival_sessions": np.round(rng.random(n), 1),
                      "absence": rng.random(n) * ab_mask, "ab_mask": ab_mask})
    for part in parts[5:7]:  # a nan anywhere in a trace makes its median nan
        part["survival_time"][0] = np.nan
    traces = feature_table(lengths, **{name: np.concatenate([part[name] for part in parts])
                                       for name in parts[0]})
    table = target_medians(traces, scaler)
    assert table.shape == (len(traces), 4)
    for trace, row in zip(traces, table):
        expected = _reference_target_medians(trace, scaler)
        np.testing.assert_array_equal(row, [np.nan if m is None else m for m in expected])
    assert np.isnan(table[:, 3]).any() and np.isnan(table[5:7, 1]).all()
    assert target_medians(traces[:0], scaler).shape == (0, 4)


def test_dataset_requires_traces():
    with pytest.raises(FeatureError):
        build_dataset(make_trace("u", "g", [0], [1.0]).take([]))


# -- columnar featurization against the per-trace reference ---------------------


@dataclasses.dataclass
class _Featurized:
    """One trace of the per-trace reference build."""

    user_id: str
    game_id: str
    game_idx: int
    behaviour: np.ndarray
    env_idx: np.ndarray
    churn: np.ndarray
    survival_time: np.ndarray
    survival_sessions: np.ndarray
    absence: np.ndarray
    ab_mask: np.ndarray


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
    # each token's sorted position from 1; 0 out of vocabulary
    lookup = {name: {token: i for i, token in enumerate(getattr(vocabs, name).tokens, start=1)}
              for name in ("hour", "weekday", "yearday", "region", "game")}

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
            env_idx.append((lookup["hour"].get(moment.tm_hour, 0),
                            lookup["weekday"].get(moment.tm_wday, 0),
                            lookup["yearday"].get(moment.tm_yday, 0),
                            lookup["region"].get(region, 0)))
        for name, field in TARGETS.items():
            if name != "ch":
                targets[field] = apply_scaler(scaler, name, targets[field])
        targets["absence"] *= targets["ab_mask"]
        return _Featurized(user_id=t.user_id, game_id=t.game_id,
                           game_idx=lookup["game"].get(t.game_id, 0), behaviour=behaviour,
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


@pytest.mark.parametrize("ratio, seed", [(0.8, 0), (0.5, 3), (0.3, 11)])
def test_columnar_build_dataset_equals_the_per_trace_reference(ratio, seed):
    table = awkward_table()
    _assert_same_split(build_dataset(table, ratio=ratio, seed=seed),
                       _reference_build_dataset(table, ratio, seed))
    _assert_same_split(build_dataset(table, ratio=ratio, seed=seed, observation_end=3e18),
                       _reference_build_dataset(table, ratio, seed, observation_end=3e18))


def test_columnar_build_dataset_equals_the_per_trace_reference_on_a_population(
        small_population_module):
    _assert_same_split(build_dataset(small_population_module, ratio=0.8, seed=5),
                       _reference_build_dataset(small_population_module, 0.8, 5))


@pytest.mark.parametrize("kind", ["sessions", "features"])
def test_table_slices_take_and_int_indices_wrap_or_raise(kind):
    table = awkward_table()
    if kind == "features":
        table = build_dataset(table, ratio=0.5, seed=3).traces
    n = len(table)
    assert table[1:3] == table.take(range(1, 3)) == table.take([1, 2])
    assert table[-4:] == table.take(range(n - 4, n)) == table.take(list(range(n - 4, n)))
    assert table[::-2] == table.take(range(n - 1, -1, -2))
    assert len(table[5:2]) == 0 and len(table[n:]) == 0
    sliced = table[1:3]
    for a, b in zip(sliced, (table[1], table[2])):
        assert (a.user_id, a.game_id, a.length) == (b.user_id, b.game_id, b.length)
        assert isinstance(a.user_id, str) and a.rows.stop - a.rows.start == b.length
    for name in table.ROW_COLUMNS:  # a step-1 slice views the table's rows
        if getattr(table, name) is not None:
            assert np.shares_memory(getattr(sliced, name), getattr(table, name)), name
    last = table[-1]
    assert last.index == n - 1 and last.length == table.lengths[-1]
    assert table[-n].index == 0
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            table[index]
