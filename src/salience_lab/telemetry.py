"""Synthetic player telemetry from an incentive-salience process, plus CSV ingest.

A player carries a latent salience level for the game they interact with.
Each session yields a reward signal driven by game quality and environmental
interference; salience tracks rewards through exponential smoothing and in
turn controls session intensity and the gap until the next session.  A trace
ends on game completion, on salience dropping below the player's churn
threshold, or at the observation horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import csvio
from .ragged import RaggedTable, TraceView

MINUTES_PER_DAY = 1440

#: Columns of the telemetry CSV interchange format, in order, with the type each is read as.
_CSV_KINDS = {
    "user_id": str,
    "game_id": str,
    "start_utc": int,
    "session_time": float,
    "play_time": float,
    "delta_session": float,
    "activity_index": int,
    "activity_diversity": int,
    "region": str,
}
CSV_COLUMNS = tuple(_CSV_KINDS)
#: The layout write_csv writes: the session columns, then whether the row's trace ended by
#: completing its game (0 or 1, the same on every row of a trace).  Ingest also accepts
#: CSV_COLUMNS alone, real telemetry, in which no trace is completed.
_WRITTEN_KINDS = {**_CSV_KINDS, "completed": int}
_INT_COLUMNS = tuple(name for name, kind in _CSV_KINDS.items() if kind is int)

#: Columns of the latent sidecar, in order, with the type each is read as.
_LATENT_KINDS = {"user_id": str, "session_index": int, "salience": float, "reward": float}

#: The Gregorian calendar repeats every 400 years, 146097 days, a whole number of weeks.
_MINUTES_PER_400_YEARS = 146097 * MINUTES_PER_DAY


class TelemetryError(ValueError):
    """Invalid telemetry inputs: bad spec/state fields or malformed CSV rows."""


@dataclass(frozen=True)
class GameSpec:
    """A game and its reward-generating capacity."""

    game_id: str
    base_quality: float
    quality_drift: float = 0.0
    completion_sessions: Optional[int] = None
    noise_sd: float = 0.1

    def validate(self) -> None:
        if not self.game_id:
            raise TelemetryError("GameSpec.game_id must be non-empty")
        if "\x00" in self.game_id:
            raise TelemetryError(f"GameSpec.game_id must not hold NUL, got {self.game_id!r}")
        if not 0.0 <= self.base_quality <= 1.0:
            raise TelemetryError(
                f"GameSpec.base_quality must lie in [0, 1], got {self.base_quality}"
            )
        if self.noise_sd < 0.0:
            raise TelemetryError(f"GameSpec.noise_sd must be >= 0, got {self.noise_sd}")
        if self.completion_sessions is not None and self.completion_sessions < 1:
            raise TelemetryError(
                f"GameSpec.completion_sessions must be >= 1, got {self.completion_sessions}"
            )


@dataclass(frozen=True)
class LatentPlayerState:
    """Latent per-player state: attributed salience and its update dynamics."""

    salience: float
    learning_rate: float
    env_susceptibility: float
    churn_threshold: float
    rng_seed: int

    def validate(self) -> None:
        if self.salience < 0.0:
            raise TelemetryError(f"LatentPlayerState.salience must be >= 0, got {self.salience}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise TelemetryError(
                f"LatentPlayerState.learning_rate must lie in (0, 1], got {self.learning_rate}"
            )
        if self.env_susceptibility < 0.0:
            raise TelemetryError(
                f"LatentPlayerState.env_susceptibility must be >= 0, got {self.env_susceptibility}"
            )
        if self.churn_threshold < 0.0:
            raise TelemetryError(
                f"LatentPlayerState.churn_threshold must be >= 0, got {self.churn_threshold}"
            )


#: Row columns a SessionTable may hold beside the CSV's: the simulator's latent
#: salience after each session and the reward that moved it there.
LATENT_COLUMNS = ("salience", "reward")


@dataclass(frozen=True)
class PlayerTrace(TraceView):
    """One (user, game) trace of a SessionTable, viewed in place (see TraceView)."""

    @property
    def user_id(self) -> str:
        return str(self.table.user_id[self.table.offsets[self.index]])

    @property
    def game_id(self) -> str:
        return str(self.table.game_id[self.table.offsets[self.index]])

    total_sessions = TraceView.length


@dataclass(frozen=True, eq=False)
class SessionTable(RaggedTable):
    """The sessions of many (user, game) traces, held as columns.

    The row columns are those of the telemetry CSV (CSV_COLUMNS), with
    start_utc as int64 epoch-minutes, and optionally the LATENT_COLUMNS (None
    for ingested telemetry).  Trace i is rows offsets[i]:offsets[i + 1], in
    start order; completed[i] says whether it ended by completing its game.
    Iterating the table, or an int index, gives PlayerTrace views.
    """

    ROW_COLUMNS = CSV_COLUMNS + LATENT_COLUMNS
    TRACE_COLUMNS = ("completed",)
    VIEW = PlayerTrace

    user_id: np.ndarray
    game_id: np.ndarray
    start_utc: np.ndarray
    session_time: np.ndarray
    play_time: np.ndarray
    delta_session: np.ndarray
    activity_index: np.ndarray
    activity_diversity: np.ndarray
    region: np.ndarray
    offsets: np.ndarray
    completed: np.ndarray
    salience: Optional[np.ndarray] = None
    reward: Optional[np.ndarray] = None

    def validate(self) -> None:
        """Check the table's shape and each session's invariants, with array operations."""
        n = len(self.user_id)
        lengths = self.lengths
        if self.offsets[0] != 0 or self.offsets[-1] != n or (lengths < 1).any():
            raise TelemetryError("SessionTable offsets must run from 0 to the row count "
                                 "and give every trace a session")
        latent = [name for name in LATENT_COLUMNS if getattr(self, name) is not None]
        if any(len(getattr(self, name)) != n for name in CSV_COLUMNS + tuple(latent)) \
                or len(self.completed) != len(self):
            raise TelemetryError("SessionTable columns must have one entry per row "
                                 "and completed one per trace")
        first = np.repeat(self.first_rows, lengths)
        later = np.arange(n) != first  # rows after their trace's first
        for bad, problem in (
            ((self.user_id != self.user_id[first]) | (self.game_id != self.game_id[first]),
             "rows of one trace name another user or game"),
            (later & (self.start_utc <= np.r_[self.start_utc[:1], self.start_utc[:-1]]),
             "session starts not strictly increasing"),
            (self.play_time > self.session_time, "play_time exceeds session_time"),
            (self.activity_diversity > self.activity_index, "diversity exceeds activity count"),
        ):
            if bad.any():
                raise TelemetryError(f"trace {self.user_id[first[np.argmax(bad)]]}: {problem}")


def env_stamp(start_utc: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hour (0-23), weekday (0 = Monday) and day of the year (1-366) of epoch-minutes.

    The calendar is the proleptic Gregorian one, in UTC, computed with int64
    arithmetic.  Each minute is first reduced to one 400-year cycle (146097
    days, a whole number of weeks), so any non-negative int64 minute has a
    stamp; the day is then split into year of era and day of year by the era
    arithmetic of H. Hinnant's civil_from_days.
    """
    start = np.asarray(start_utc, dtype=np.int64)
    if (start < 0).any():
        raise TelemetryError(f"start_utc must be >= 0, got {start[np.argmax(start < 0)]}")
    minute = start % _MINUTES_PER_400_YEARS
    day = minute // MINUTES_PER_DAY  # days after 1970-01-01, within the cycle
    hour = minute % MINUTES_PER_DAY // 60
    weekday = (day + 3) % 7  # 1970-01-01 was a Thursday
    # Eras of 400 years start on 0000-03-01, 719468 days before 1970-01-01, so that
    # the leap day ends each year of era.
    day_of_era = (day + 719468) % 146097
    year_of_era = (day_of_era - day_of_era // 1460 + day_of_era // 36524
                   - day_of_era // 146096) // 365
    from_march = day_of_era - (365 * year_of_era + year_of_era // 4 - year_of_era // 100)
    # March to December follow the January and February of the civil year year_of_era;
    # January and February (from_march >= 306) open the next civil year.
    leap = (year_of_era % 4 == 0) & ((year_of_era % 100 != 0) | (year_of_era == 0))
    yearday = np.where(from_march >= 306, from_march - 305, from_march + 60 + leap)
    return hour, weekday, yearday


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _env_penalty(start_utc: int, susceptibility: float) -> float:
    # Weekday working hours interfere with play; weekends do not.  1970-01-01 was a Thursday.
    weekday = (start_utc // MINUTES_PER_DAY + 3) % 7
    hour = start_utc % MINUTES_PER_DAY // 60
    if weekday <= 4 and 9 <= hour <= 17:
        return 0.5 * susceptibility
    return 0.0


#: The row columns the simulator draws, in SessionTable field names.
_SIMULATED = ("start_utc", "session_time", "play_time", "delta_session", "activity_index",
              "activity_diversity") + LATENT_COLUMNS


def _simulate_sessions(spec: GameSpec, init: LatentPlayerState, calendar_start: int,
                       horizon_days: int, rows: dict[str, list]) -> bool:
    """Append one player's sessions to the lists in rows; True if the game was completed.

    Session intensity grows with the salience attributed so far; the gap to
    the next session shrinks with it.  After each session the reward
    r = clip(quality - env_penalty + noise, 0, 1) is folded into salience via
    salience <- (1 - lr) * salience + lr * r.  Deterministic per rng_seed.
    """
    spec.validate()
    init.validate()
    if horizon_days < 1:
        raise TelemetryError(f"horizon_days must be >= 1, got {horizon_days}")
    if calendar_start < 0:
        raise TelemetryError(f"calendar_start must be >= 0, got {calendar_start}")

    rng = np.random.default_rng(init.rng_seed)
    horizon_end = calendar_start + horizon_days * MINUTES_PER_DAY
    salience = float(init.salience)
    (starts, session_times, play_times, deltas, counts, diversities, saliences,
     rewards) = (rows[name] for name in _SIMULATED)
    start = int(calendar_start)
    prev_end: Optional[float] = None
    t = 0
    while True:
        t += 1
        # Intensity is driven by the salience attributed before this session.
        session_time = (10.0 + 110.0 * _sigmoid(4.0 * (salience - 0.5))) * float(
            np.exp(rng.normal(0.0, 0.25))
        )
        play_time = session_time * float(rng.uniform(0.55, 0.95))
        activity_index = 1 + int(rng.poisson(0.2 * play_time * (0.5 + salience)))
        activity_diversity = 1 + int(rng.binomial(activity_index - 1, 0.3))
        starts.append(start)
        session_times.append(session_time)
        play_times.append(play_time)
        deltas.append(0.0 if prev_end is None else float(start - prev_end))
        counts.append(activity_index)
        diversities.append(activity_diversity)

        quality = min(1.0, max(0.0, spec.base_quality + spec.quality_drift * (t - 1)))
        reward = quality - _env_penalty(start, init.env_susceptibility)
        if spec.noise_sd > 0.0:
            reward += float(rng.normal(0.0, spec.noise_sd))
        reward = min(1.0, max(0.0, reward))
        salience = (1.0 - init.learning_rate) * salience + init.learning_rate * reward
        saliences.append(salience)
        rewards.append(reward)

        end = start + session_time
        if spec.completion_sessions is not None and t >= spec.completion_sessions:
            return True
        if salience < init.churn_threshold:
            return False
        gap = 30.0 * math.exp(3.0 * (1.0 - salience)) * float(np.exp(rng.normal(0.0, 0.3)))
        nxt = int(math.ceil(end + gap))
        if nxt >= horizon_end:
            return False
        prev_end = end
        start = nxt


def _simulated_table(users: list[str], games: list[str], regions: list[str],
                     lengths: list[int], completed: list[bool],
                     rows: dict[str, list]) -> SessionTable:
    """The table of simulated traces: per-trace ids and flags, and the drawn row lists."""
    table = SessionTable(
        user_id=np.repeat(np.array(users, dtype=str), lengths),
        game_id=np.repeat(np.array(games, dtype=str), lengths),
        region=np.repeat(np.array(regions, dtype=str), lengths),
        offsets=np.concatenate(([0], np.cumsum(lengths))).astype(np.int64),
        completed=np.array(completed, dtype=bool),
        **{name: np.array(rows[name], dtype=np.int64 if name in _INT_COLUMNS else np.float64)
           for name in _SIMULATED},
    )
    table.validate()
    return table


@dataclass(frozen=True)
class PopulationSpec:
    """How to draw the latent state of a simulated player population."""

    salience_range: tuple[float, float] = (0.3, 0.9)
    learning_rate_range: tuple[float, float] = (0.15, 0.5)
    env_susceptibility_range: tuple[float, float] = (0.0, 0.8)
    churn_threshold_range: tuple[float, float] = (0.15, 0.35)
    regions: tuple[str, ...] = ("eu", "na", "jp", "sa")


def simulate_population(
    games: Sequence[GameSpec],
    players_per_game: int,
    calendar_start: int,
    horizon_days: int,
    seed: int,
    population: PopulationSpec = PopulationSpec(),
) -> SessionTable:
    """Simulate `players_per_game` players for every game, deterministically.

    Player draws derive from (seed, player index), so no player's trace
    depends on another's; the table holds the traces in player order, which
    is user order for fewer than a million players.  All players share one
    calendar start so the observation window ends at the same moment for
    everyone (the gaps decorrelate session phases quickly).
    """
    for region in population.regions:
        if "\x00" in region:
            raise TelemetryError(f"PopulationSpec.regions must not hold NUL, got {region!r}")
    rows: dict[str, list] = {name: [] for name in _SIMULATED}
    users, game_ids, regions, lengths, completed = [], [], [], [], []
    for idx, spec in enumerate(spec for spec in games for _ in range(players_per_game)):
        draw = np.random.default_rng(np.random.SeedSequence((seed, idx)))
        init = LatentPlayerState(
            salience=float(draw.uniform(*population.salience_range)),
            learning_rate=float(draw.uniform(*population.learning_rate_range)),
            env_susceptibility=float(draw.uniform(*population.env_susceptibility_range)),
            churn_threshold=float(draw.uniform(*population.churn_threshold_range)),
            rng_seed=int(draw.integers(0, 2**31 - 1)),
        )
        regions.append(population.regions[int(draw.integers(0, len(population.regions)))])
        before = len(rows["start_utc"])
        completed.append(_simulate_sessions(spec, init, calendar_start, horizon_days, rows))
        lengths.append(len(rows["start_utc"]) - before)
        users.append(f"u{idx:06d}")
        game_ids.append(spec.game_id)
    return _simulated_table(users, game_ids, regions, lengths, completed, rows)


def write_csv(traces: SessionTable, path: str | Path) -> None:
    """Write a table's sessions to the telemetry CSV format, each row with its trace's
    completion (latent columns excluded)."""
    completed = np.repeat(traces.completed.astype(np.int64), traces.lengths)
    csvio.write_columns(Path(path), tuple(_WRITTEN_KINDS),
                        [getattr(traces, name) for name in CSV_COLUMNS] + [completed])


def write_latent_csv(traces: SessionTable, path: str | Path) -> None:
    """Write the latent sidecar: user_id,session_index,salience,reward (header only without)."""
    columns = [] if traces.salience is None else [
        traces.user_id, traces.session_index, traces.salience, traces.reward]
    csvio.write_columns(Path(path), tuple(_LATENT_KINDS), columns)


def read_latent_csv(path: str | Path) -> dict[str, list[tuple[float, float]]]:
    """Read a latent sidecar back into user_id -> [(salience, reward)]."""
    columns = csvio.read_columns(Path(path), _LATENT_KINDS, TelemetryError)
    out: dict[str, list[tuple[float, float]]] = {}
    for user, salience, reward in zip(columns["user_id"].tolist(), columns["salience"].tolist(),
                                      columns["reward"].tolist()):
        out.setdefault(user, []).append((salience, reward))
    return out


def ingest_csv(path: str | Path) -> SessionTable:
    """Ingest telemetry CSV into a table of traces, one per (user_id, game_id).

    Rows are sorted by (user_id, game_id, start_utc) and delta_session is
    recomputed end-to-start from the timestamps.  A trace is completed as its
    rows' `completed` column says; a file without that column (CSV_COLUMNS
    alone, as real telemetry comes) marks no trace completed.  An error names
    the file and then the first bad data line, or the first (user, game) pair
    whose sessions repeat a start or overlap, or whose rows disagree on
    `completed`.
    """
    path = Path(path)
    columns = csvio.read_columns(path, (_WRITTEN_KINDS, _CSV_KINDS), TelemetryError)
    user, game, start = columns["user_id"], columns["game_id"], columns["start_utc"]
    session, play, delta = columns["session_time"], columns["play_time"], columns["delta_session"]
    count, diversity = columns["activity_index"], columns["activity_diversity"]
    completed = columns.pop("completed", np.zeros(len(user), dtype=np.int64))
    row_checks = (  # in the order each row is checked
        ((user == "") | (game == ""), "empty user_id or game_id"),
        (~(np.isfinite(session) & np.isfinite(play) & np.isfinite(delta)),
         "non-finite duration"),
        ((session < 0) | (play < 0) | (delta < 0), "negative duration"),
        (start < 0, "negative start_utc"),
        (play > session, "play_time exceeds session_time"),
        ((count < 0) | (diversity < 0) | (diversity > count), "inconsistent activity counts"),
        ((completed != 0) & (completed != 1), "completed must be 0 or 1"),
    )
    bad = np.logical_or.reduce([mask for mask, _ in row_checks])
    if bad.any():
        row = int(np.argmax(bad))
        reason = next(reason for mask, reason in row_checks if mask[row])
        raise TelemetryError(f"{path}: line {row + 2}: {reason}")

    n = len(user)
    order = np.lexsort((start, game, user))
    columns = {name: column[order] for name, column in columns.items()}
    user, game, start, session = (columns[name] for name in
                                  ("user_id", "game_id", "start_utc", "session_time"))
    completed = completed[order]
    same = (user[1:] == user[:-1]) & (game[1:] == game[:-1])  # row i + 1 continues row i's pair
    gap = start[1:] - (start[:-1] + session[:-1])
    pair = np.cumsum(np.r_[0, ~same])
    pair_checks = (  # within one pair, in the order each is reported
        (start[1:] == start[:-1], "non-monotone session timestamps"),
        (gap < 0, "overlapping sessions"),
        (completed[1:] != completed[:-1], "rows of one trace disagree on completed"),
    )
    firsts = [pair[1:][same & mask].min(initial=n) for mask, _ in pair_checks]
    first = min(firsts)
    if first < n:
        problem = pair_checks[firsts.index(first)][1]
        raise TelemetryError(f"{path}: user {user[np.searchsorted(pair, first)]}: {problem}")

    columns["delta_session"] = np.r_[0.0, np.where(same, gap, 0.0)][:n]
    first_rows = np.flatnonzero(np.r_[True, ~same])[:n]
    return SessionTable(**columns, offsets=np.append(first_rows, n).astype(np.int64),
                        completed=completed[first_rows] == 1)
