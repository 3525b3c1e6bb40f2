from __future__ import annotations

import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ODD_IDS, join, make_trace, simulate_player
from salience_lab.telemetry import (
    CSV_COLUMNS,
    GameSpec,
    LatentPlayerState,
    PopulationSpec,
    TelemetryError,
    env_stamp,
    ingest_csv,
    read_latent_csv,
    simulate_population,
    write_csv,
    write_latent_csv,
)


def _civil_from_days(z: int) -> tuple[int, int, int]:
    # Independent proleptic-Gregorian oracle (era decomposition).
    z += 719468
    era = (z if z >= 0 else z - 146096) // 146097
    doe = z - era * 146097
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    y = yoe + era * 400
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    d = doy - (153 * mp + 2) // 5 + 1
    m = mp + 3 if mp < 10 else mp - 9
    return y + (1 if m <= 2 else 0), m, d


_CUM_DAYS = [0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334]
_CYCLE = 146097 * 1440  # minutes in 400 Gregorian years


def _oracle_stamp(minute: int) -> tuple[int, int, int]:
    days, rem = divmod(minute, 1440)
    hour = rem // 60
    weekday = (days + 3) % 7  # 1970-01-01 was a Thursday
    y, m, d = _civil_from_days(days)
    leap = (y % 4 == 0 and y % 100 != 0) or y % 400 == 0
    doy = _CUM_DAYS[m - 1] + d + (1 if leap and m > 2 else 0)
    return hour, weekday, doy


def _stamp(minute: int) -> tuple[int, int, int]:
    """(hour, weekday, day of year) of one minute, through the vector calendar."""
    return tuple(int(field[0]) for field in env_stamp(np.array([minute])))


def test_env_stamp_epoch_origin():
    hour, weekday, yearday = _stamp(0)
    assert hour == 0
    assert weekday == 3  # Thursday
    assert yearday == 1


def test_env_stamp_one_day_later():
    hour, _, yearday = _stamp(1440)
    assert yearday == 2
    assert hour == 0


def test_env_stamp_one_hour_later():
    hour, _, yearday = _stamp(60)
    assert hour == 1
    assert yearday == 1


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=300, deadline=None)
def test_env_stamp_matches_civil_calendar_oracle(minute):
    hour, weekday, yearday = _stamp(minute)
    assert (hour, weekday, yearday) == _oracle_stamp(minute)
    assert 0 <= hour <= 23
    assert 0 <= weekday <= 6
    assert 1 <= yearday <= 366


def test_env_stamp_equals_gmtime_on_random_int64_minutes():
    rng = np.random.default_rng(16)
    minutes = np.concatenate([
        rng.integers(0, 10**9, size=100_000),
        rng.integers(0, 2**63 - 1, size=90_000, dtype=np.int64),
        rng.integers(2**53 - 10**6, 2**53 + 10**6, size=10_000),
        [0, 2**53 - 1, 2**53, 2**53 + 1, 2**63 - 1, _CYCLE - 1, _CYCLE],
    ])
    hour, weekday, yearday = env_stamp(minutes)
    expected = []
    for minute in minutes.tolist():
        # gmtime covers years to about 2**31 only; the calendar repeats every 400 years
        moment = time.gmtime(60 * (minute % _CYCLE))
        expected.append((moment.tm_hour, moment.tm_wday, moment.tm_yday))
    assert np.array_equal(np.stack([hour, weekday, yearday], axis=1), np.array(expected))


def test_env_stamp_rejects_negative():
    with pytest.raises(TelemetryError):
        env_stamp(np.array([5, -1]))


def _spec(**kw) -> GameSpec:
    base = dict(game_id="g", base_quality=0.7, quality_drift=0.0, noise_sd=0.1)
    base.update(kw)
    return GameSpec(**base)


def _init(**kw) -> LatentPlayerState:
    base = dict(salience=0.6, learning_rate=0.3, env_susceptibility=0.4,
                churn_threshold=0.2, rng_seed=11)
    base.update(kw)
    return LatentPlayerState(**base)


def test_simulate_deterministic_for_seed():
    a = simulate_player(_spec(), _init(), 50_000, 20)
    b = simulate_player(_spec(), _init(), 50_000, 20)
    assert a == b


def test_simulate_zero_reward_at_threshold_ends_immediately():
    trace = simulate_player(
        _spec(base_quality=0.0, noise_sd=0.0),
        _init(salience=0.2, churn_threshold=0.2),
        0,
        10,
    )
    assert trace.total_sessions == 1
    assert not trace.completed


def test_simulate_invariants_and_latent_present(small_population):
    small_population.validate()
    for trace in small_population:
        assert trace.salience is not None and trace.reward is not None
        assert len(trace.salience) == len(trace.reward) == trace.total_sessions
        assert trace.delta_session[0] == 0.0
        for salience, reward in zip(trace.salience, trace.reward):
            assert salience >= 0.0
            assert 0.0 <= reward <= 1.0


def test_simulate_completion_cap():
    trace = simulate_player(_spec(completion_sessions=5, base_quality=0.95),
                            _init(salience=0.9), 0, 365)
    assert trace.total_sessions <= 5
    if trace.total_sessions == 5:
        assert trace.completed


def test_quality_drives_session_counts():
    high = [
        simulate_player(_spec(base_quality=0.9), _init(rng_seed=s), 0, 7, user_id=f"h{s}")
        for s in range(500)
    ]
    low = [
        simulate_player(_spec(base_quality=0.2), _init(rng_seed=s), 0, 7, user_id=f"l{s}")
        for s in range(500)
    ]
    assert np.mean([t.total_sessions for t in high]) > np.mean(
        [t.total_sessions for t in low]
    )


def _spearman(x, y):
    rx = np.argsort(np.argsort(x)).astype(float)
    ry = np.argsort(np.argsort(y)).astype(float)
    return float(np.corrcoef(rx, ry)[0, 1])


def test_monotone_engagement_across_quality():
    qualities = np.linspace(0.1, 0.95, 240)
    counts = []
    for i, q in enumerate(qualities):
        trace = simulate_player(
            _spec(base_quality=float(q), completion_sessions=40),
            _init(rng_seed=1000 + i),
            0,
            14,
            user_id=f"u{i}",
        )
        counts.append(trace.total_sessions)
    assert _spearman(qualities, counts) > 0.3


def test_validation_errors_name_fields():
    with pytest.raises(TelemetryError, match="base_quality"):
        simulate_player(_spec(base_quality=1.5), _init(), 0, 10)
    with pytest.raises(TelemetryError, match="learning_rate"):
        simulate_player(_spec(), _init(learning_rate=0.0), 0, 10)
    with pytest.raises(TelemetryError, match="horizon"):
        simulate_player(_spec(), _init(), 0, 0)


def test_csv_round_trip(tmp_path, small_population):
    path = tmp_path / "telemetry.csv"
    write_csv(small_population, path)
    recovered = ingest_csv(path)
    by_user = {t.user_id: t for t in recovered}
    assert len(recovered) == len(small_population)
    for original in small_population:
        for name in CSV_COLUMNS:
            assert np.array_equal(getattr(by_user[original.user_id], name),
                                  getattr(original, name)), name
        assert by_user[original.user_id].salience is None


def test_a_file_without_the_completed_column_marks_no_trace_completed(tmp_path,
                                                                      small_population):
    path = tmp_path / "telemetry.csv"
    write_csv(small_population, path)
    assert small_population.completed.any()
    assert np.array_equal(ingest_csv(path).completed, small_population.completed)
    lines = path.read_text(encoding="utf-8").splitlines()
    real = tmp_path / "real.csv"
    real.write_text("".join(line.rsplit(",", 1)[0] + "\r\n" for line in lines),
                    encoding="utf-8", newline="")
    assert lines[0].rsplit(",", 1) == [",".join(CSV_COLUMNS), "completed"]
    recovered = ingest_csv(real)
    assert not recovered.completed.any()
    for name in CSV_COLUMNS:
        assert np.array_equal(getattr(recovered, name), getattr(small_population, name)), name


_NINE = ",".join(CSV_COLUMNS)


@pytest.mark.parametrize("last, flags, message", [
    ("completed", ("0", "2"), "line 3: completed must be 0 or 1"),
    ("completed", ("0", "1"), "user u1: rows of one trace disagree on completed"),
    ("completd", ("0", "0"),
     f"header must be {_NINE},completed or {_NINE}, got {[*CSV_COLUMNS, 'completd']}"),
], ids=["value-2", "disagreeing-rows", "misspelled-header"])
def test_ingest_rejects_a_bad_completed_column_naming_it(tmp_path, last, flags, message):
    path = tmp_path / "telemetry.csv"
    lines = [f"{_NINE},{last}", f"u1,g,0,30.0,20.0,0.0,3,2,eu,{flags[0]}",
             f"u1,g,100,10.0,5.0,0.0,3,1,eu,{flags[1]}"]
    path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8", newline="")
    with pytest.raises(TelemetryError, match=f"^{re.escape(f'{path}: {message}')}$"):
        ingest_csv(path)


def test_latent_sidecar_round_trip(tmp_path, small_population):
    path = tmp_path / "telemetry.latent.csv"
    write_latent_csv(small_population, path)
    latent = read_latent_csv(path)
    sample = small_population[0]
    assert latent[sample.user_id] == list(zip(sample.salience.tolist(), sample.reward.tolist()))


def test_latent_sidecar_with_a_wrong_header_fails_naming_the_file(tmp_path):
    path = tmp_path / "telemetry.latent.csv"
    path.write_text("user_id,salience,reward\r\nu1,0.5,1.0\r\n", encoding="utf-8")
    with pytest.raises(TelemetryError, match=r"telemetry\.latent\.csv: header must be "
                                             r"user_id,session_index,salience,reward"):
        read_latent_csv(path)


def test_ingest_gap_is_end_to_start(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text(
        "user_id,game_id,start_utc,session_time,play_time,delta_session,"
        "activity_index,activity_diversity,region\n"
        "u1,g,0,30.0,20.0,0.0,3,2,eu\n"
        "u1,g,100,10.0,5.0,999.0,3,1,eu\n",
        encoding="utf-8",
    )
    (trace,) = ingest_csv(path)
    assert trace.delta_session[1] == 70.0  # 100 - (0 + 30)


def test_ingest_empty_file_with_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(
        "user_id,game_id,start_utc,session_time,play_time,delta_session,"
        "activity_index,activity_diversity,region\n",
        encoding="utf-8",
    )
    assert len(ingest_csv(path)) == 0


def test_ingest_rejects_play_over_session(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "user_id,game_id,start_utc,session_time,play_time,delta_session,"
        "activity_index,activity_diversity,region\n"
        "u1,g,0,10.0,20.0,0.0,3,2,eu\n",
        encoding="utf-8",
    )
    with pytest.raises(TelemetryError, match="line 2"):
        ingest_csv(path)


def test_ingest_rejects_duplicate_timestamps(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(
        "user_id,game_id,start_utc,session_time,play_time,delta_session,"
        "activity_index,activity_diversity,region\n"
        "u1,g,50,10.0,5.0,0.0,3,2,eu\n"
        "u1,g,50,10.0,5.0,0.0,3,2,eu\n",
        encoding="utf-8",
    )
    with pytest.raises(TelemetryError, match="u1"):
        ingest_csv(path)


def test_ingest_rejects_malformed_row(tmp_path):
    path = tmp_path / "malformed.csv"
    path.write_text(
        "user_id,game_id,start_utc,session_time,play_time,delta_session,"
        "activity_index,activity_diversity,region\n"
        "u1,g,not_a_number,10.0,5.0,0.0,3,2,eu\n",
        encoding="utf-8",
    )
    with pytest.raises(TelemetryError, match="line 2"):
        ingest_csv(path)


def test_population_deterministic():
    games = [GameSpec("a", 0.8, completion_sessions=10), GameSpec("b", 0.4)]
    one = simulate_population(games, 5, 0, 10, seed=3)
    two = simulate_population(games, 5, 0, 10, seed=3)
    assert one == two
    other = simulate_population(games, 5, 0, 10, seed=4)
    assert one != other



def test_csv_round_trip_of_ids_that_need_quoting(tmp_path):
    traces = join(
        make_trace(user, ODD_IDS[(i + 3) % len(ODD_IDS)], [100 * i, 100 * i + 50],
                   [10.0 + i, 20.0], region=ODD_IDS[(i + 5) % len(ODD_IDS)])
        for i, user in enumerate(ODD_IDS)
    )
    path = tmp_path / "telemetry.csv"
    write_csv(traces, path)
    recovered = ingest_csv(path)
    expected = sorted(traces, key=lambda t: (t.user_id, t.game_id))
    assert [(t.user_id, t.game_id) for t in recovered] == [
        (t.user_id, t.game_id) for t in expected]
    for ours, theirs in zip(recovered, expected):
        for name in CSV_COLUMNS:
            assert np.array_equal(getattr(ours, name), getattr(theirs, name)), name


def test_ingest_header_only_without_warning(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(make_trace("u", "g", [0], [1.0]).take([]), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(ingest_csv(path)) == 0


def test_ingest_shuffled_rows_gives_the_same_traces(tmp_path, small_population):
    path = tmp_path / "telemetry.csv"
    write_csv(small_population, path)
    header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    np.random.default_rng(1).shuffle(rows)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text(header + "".join(rows), encoding="utf-8", newline="")
    assert ingest_csv(shuffled) == ingest_csv(path)


@pytest.mark.parametrize("field, value", [("start_utc", "1.5"), ("start_utc", "1e3"),
                                          ("session_time", "ten"), ("activity_index", "2.0"),
                                          ("region", None)])
def test_ingest_malformed_value_names_its_line(tmp_path, field, value):
    rows = [["u1", "g", "0", "30.0", "20.0", "0.0", "3", "2", "eu"],
            ["u1", "g", "100", "10.0", "5.0", "0.0", "3", "1", "eu"]]
    column = CSV_COLUMNS.index(field)
    if value is None:
        del rows[1][column:]  # a short row
    else:
        rows[1][column] = value
    path = tmp_path / "bad.csv"
    path.write_text("".join(",".join(r) + "\r\n" for r in [CSV_COLUMNS, *rows]),
                    encoding="utf-8", newline="")
    with pytest.raises(TelemetryError, match=f"^{re.escape(str(path))}: line 3: malformed row"):
        ingest_csv(path)


@pytest.mark.parametrize("rows, message", [
    # u1's second session starts half a minute before its first one ends
    ([("u1", "g", 0, "10.5"), ("u1", "g", 10, "5.0")], "user u1: overlapping sessions"),
    # the first (user, game) pair in sorted order is reported, whatever the row order
    ([("u2", "g", 50, "5.0"), ("u2", "g", 50, "5.0"), ("u1", "g", 0, "10.5"),
      ("u1", "g", 10, "5.0")], "user u1: overlapping sessions"),
    ([("u1", "h", 0, "10.5"), ("u1", "h", 10, "5.0"), ("u1", "g", 7, "5.0"),
      ("u1", "g", 7, "5.0")], "user u1: non-monotone session timestamps"),
    # within one pair a repeated start is reported before an overlap
    ([("u1", "g", 0, "10.5"), ("u1", "g", 10, "5.0"), ("u1", "g", 10, "5.0")],
     "user u1: non-monotone session timestamps"),
])
def test_ingest_names_the_first_pair_with_bad_timestamps(tmp_path, rows, message):
    path = tmp_path / "bad.csv"
    lines = [",".join(CSV_COLUMNS)] + [f"{u},{g},{start},{length},1.0,0.0,3,2,eu"
                                       for u, g, start, length in rows]
    path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8", newline="")
    with pytest.raises(TelemetryError, match=f"^{re.escape(str(path))}: {message}$"):
        ingest_csv(path)


def test_start_utc_above_2_to_53_round_trips_exactly(tmp_path):
    big = 2**53 + 1  # not a float64: a reader that parsed through float would give 2**53
    starts = [big, big + 101, big + 2**40]
    trace = make_trace("u1", "g", starts, [30.0, 10.0, 5.0])
    path = tmp_path / "telemetry.csv"
    write_csv(trace, path)
    recovered = ingest_csv(path)
    assert recovered.start_utc.tolist() == starts
    assert recovered == trace
    for start, stamp in zip(starts, zip(*env_stamp(recovered.start_utc))):
        assert tuple(int(field) for field in stamp) == _oracle_stamp(start)


def test_env_stamp_repeats_every_400_gregorian_years():
    minutes = np.array([0, 59, 1440 * 59 + 17, 10**9, _CYCLE - 1])
    for ours, shifted in zip(env_stamp(minutes), env_stamp(minutes + 7 * _CYCLE)):
        assert np.array_equal(ours, shifted)


def _csv_of(tmp_path, rows) -> str:
    path = tmp_path / "telemetry.csv"
    lines = [",".join(CSV_COLUMNS)] + [",".join(map(str, row)) for row in rows]
    path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8", newline="")
    return path


@pytest.mark.parametrize("field, value", [("session_time", "nan"), ("play_time", "nan"),
                                          ("session_time", "inf"), ("play_time", "-inf"),
                                          ("delta_session", "nan")])
def test_ingest_rejects_a_non_finite_duration_naming_its_line(tmp_path, field, value):
    rows = [["u1", "g", 0, "30.0", "20.0", "0.0", 3, 2, "eu"],
            ["u1", "g", 100, "10.0", "5.0", "0.0", 3, 1, "eu"]]
    rows[1][CSV_COLUMNS.index(field)] = value
    path = _csv_of(tmp_path, rows)
    with pytest.raises(TelemetryError,
                       match=f"^{re.escape(str(path))}: line 3: non-finite duration$"):
        ingest_csv(path)


def test_ingest_rejects_a_negative_start_naming_its_line(tmp_path):
    rows = [["u1", "g", 0, "30.0", "20.0", "0.0", 3, 2, "eu"],
            ["u2", "g", -5, "10.0", "5.0", "0.0", 3, 1, "eu"]]
    path = _csv_of(tmp_path, rows)
    with pytest.raises(TelemetryError,
                       match=f"^{re.escape(str(path))}: line 3: negative start_utc$"):
        ingest_csv(path)


@pytest.mark.parametrize("field, value", [("user_id", "u1\x00"), ("game_id", "\x00g"),
                                          ("region", "e\x00u")])
def test_ingest_rejects_nul_in_an_id_naming_its_line(tmp_path, field, value):
    # a trailing NUL would vanish in a str array, merging u1\x00 into u1's trace
    rows = [["u1", "g", 0, "30.0", "20.0", "0.0", 3, 2, "eu"],
            ["u1", "g", 100, "10.0", "5.0", "0.0", 3, 1, "eu"]]
    rows[1][CSV_COLUMNS.index(field)] = value
    path = _csv_of(tmp_path, rows)
    with pytest.raises(TelemetryError, match=f"^{re.escape(str(path))}: line 3: NUL in {field}$"):
        ingest_csv(path)


def test_nul_in_a_game_id_or_region_is_rejected():
    with pytest.raises(TelemetryError, match="game_id must not hold NUL"):
        _spec(game_id="g\x00").validate()
    population = PopulationSpec(regions=("eu", "na\x00"))
    with pytest.raises(TelemetryError, match="regions must not hold NUL"):
        simulate_population([_spec()], 1, 0, 1, seed=0, population=population)
