"""Synthetic player telemetry from an incentive-salience process, plus CSV ingest.

A player carries a latent salience level for the game they interact with.
Each session yields a reward signal driven by game quality and environmental
interference; salience tracks rewards through exponential smoothing and in
turn controls session intensity and the gap until the next session.  A trace
ends on game completion, on salience dropping below the player's churn
threshold, or at the observation horizon.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from . import csvio

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


@dataclass(frozen=True)
class EnvStamp:
    """Calendar context of a session start (UTC, proleptic Gregorian)."""

    hour_of_day: int
    day_of_week: int  # 0 = Monday
    day_of_year: int  # 1..366
    region: str


@dataclass(frozen=True)
class SessionRecord:
    user_id: str
    game_id: str
    start_utc: int  # epoch-minutes
    session_time: float  # minutes
    play_time: float  # minutes
    delta_session: float  # minutes since previous session end; 0 for the first
    activity_index: int
    activity_diversity: int
    env: EnvStamp


@dataclass
class PlayerTrace:
    """Ordered session history for one (user, game) pair."""

    user_id: str
    game_id: str
    sessions: list[SessionRecord]
    total_play_time: float
    total_sessions: int
    completed: bool
    latent_trace: Optional[list[tuple[float, float]]] = None  # (salience, reward) per session

    def validate(self) -> None:
        if self.total_sessions != len(self.sessions):
            raise TelemetryError(
                f"trace {self.user_id}: total_sessions {self.total_sessions} "
                f"!= session count {len(self.sessions)}"
            )
        starts = [s.start_utc for s in self.sessions]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise TelemetryError(f"trace {self.user_id}: session starts not strictly increasing")
        played = sum(s.play_time for s in self.sessions)
        if abs(played - self.total_play_time) > 1e-6:
            raise TelemetryError(
                f"trace {self.user_id}: total_play_time {self.total_play_time} != sum {played}"
            )
        for s in self.sessions:
            if s.play_time > s.session_time:
                raise TelemetryError(f"trace {self.user_id}: play_time exceeds session_time")
            if s.activity_diversity > s.activity_index:
                raise TelemetryError(f"trace {self.user_id}: diversity exceeds activity count")


def env_stamp(start_utc: int, region: str) -> EnvStamp:
    """Calendar stamp for an epoch-minute timestamp (UTC civil calendar)."""
    if start_utc < 0:
        raise TelemetryError(f"start_utc must be >= 0, got {start_utc}")
    # reduced to one 400-year cycle, so that any int64 minute has a time_t stamp
    moment = time.gmtime(60 * (start_utc % _MINUTES_PER_400_YEARS))
    return EnvStamp(hour_of_day=moment.tm_hour, day_of_week=moment.tm_wday,
                    day_of_year=moment.tm_yday, region=region)


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _env_penalty(env: EnvStamp, susceptibility: float) -> float:
    # Weekday working hours interfere with play; weekends do not.
    if env.day_of_week <= 4 and 9 <= env.hour_of_day <= 17:
        return 0.5 * susceptibility
    return 0.0


def simulate_player(
    spec: GameSpec,
    init: LatentPlayerState,
    calendar_start: int,
    horizon_days: int,
    user_id: str = "u0",
    region: str = "eu",
) -> PlayerTrace:
    """Simulate one player's trace under the salience delta rule.

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

    sessions: list[SessionRecord] = []
    latent: list[tuple[float, float]] = []
    start = int(calendar_start)
    prev_end: Optional[float] = None
    completed = False
    t = 0
    while True:
        t += 1
        env = env_stamp(start, region)

        # Intensity is driven by the salience attributed before this session.
        session_time = (10.0 + 110.0 * _sigmoid(4.0 * (salience - 0.5))) * float(
            np.exp(rng.normal(0.0, 0.25))
        )
        play_time = session_time * float(rng.uniform(0.55, 0.95))
        activity_index = 1 + int(rng.poisson(0.2 * play_time * (0.5 + salience)))
        activity_diversity = 1 + int(rng.binomial(activity_index - 1, 0.3))
        delta = 0.0 if prev_end is None else float(start - prev_end)
        sessions.append(
            SessionRecord(
                user_id=user_id,
                game_id=spec.game_id,
                start_utc=start,
                session_time=session_time,
                play_time=play_time,
                delta_session=delta,
                activity_index=activity_index,
                activity_diversity=activity_diversity,
                env=env,
            )
        )

        quality = min(1.0, max(0.0, spec.base_quality + spec.quality_drift * (t - 1)))
        reward = quality - _env_penalty(env, init.env_susceptibility)
        if spec.noise_sd > 0.0:
            reward += float(rng.normal(0.0, spec.noise_sd))
        reward = min(1.0, max(0.0, reward))
        salience = (1.0 - init.learning_rate) * salience + init.learning_rate * reward
        latent.append((salience, reward))

        end = start + session_time
        if spec.completion_sessions is not None and t >= spec.completion_sessions:
            completed = True
            break
        if salience < init.churn_threshold:
            break
        gap = 30.0 * math.exp(3.0 * (1.0 - salience)) * float(np.exp(rng.normal(0.0, 0.3)))
        nxt = int(math.ceil(end + gap))
        if nxt >= horizon_end:
            break
        prev_end = end
        start = nxt

    trace = PlayerTrace(
        user_id=user_id,
        game_id=spec.game_id,
        sessions=sessions,
        total_play_time=sum(s.play_time for s in sessions),
        total_sessions=len(sessions),
        completed=completed,
        latent_trace=latent,
    )
    trace.validate()
    return trace


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
) -> list[PlayerTrace]:
    """Simulate `players_per_game` players for every game, deterministically.

    Player draws derive from (seed, player index), so no player's trace
    depends on another's; the result list is ordered by player index.  All
    players share one calendar start so the observation window ends at the
    same moment for everyone (the gaps decorrelate session phases quickly).
    """

    def one_player(idx: int, spec: GameSpec) -> PlayerTrace:
        draw = np.random.default_rng(np.random.SeedSequence((seed, idx)))
        init = LatentPlayerState(
            salience=float(draw.uniform(*population.salience_range)),
            learning_rate=float(draw.uniform(*population.learning_rate_range)),
            env_susceptibility=float(draw.uniform(*population.env_susceptibility_range)),
            churn_threshold=float(draw.uniform(*population.churn_threshold_range)),
            rng_seed=int(draw.integers(0, 2**31 - 1)),
        )
        region = population.regions[int(draw.integers(0, len(population.regions)))]
        return simulate_player(
            spec, init, calendar_start, horizon_days, user_id=f"u{idx:06d}", region=region
        )

    return [
        one_player(idx, spec)
        for idx, spec in enumerate(spec for spec in games for _ in range(players_per_game))
    ]


def write_csv(traces: Iterable[PlayerTrace], path: str | Path) -> None:
    """Write traces to the telemetry CSV format (latent trace excluded)."""
    rows = (  # minutes as floats, so that csv.writer writes their repr
        (s.user_id, s.game_id, s.start_utc, float(s.session_time), float(s.play_time),
         float(s.delta_session), s.activity_index, s.activity_diversity, s.env.region)
        for trace in traces for s in trace.sessions
    )
    csvio.write_rows(Path(path), CSV_COLUMNS, rows)


def write_latent_csv(traces: Iterable[PlayerTrace], path: str | Path) -> None:
    """Write the optional latent sidecar: user_id,session_index,salience,reward."""
    rows = (
        (trace.user_id, i, float(salience), float(reward))
        for trace in traces if trace.latent_trace is not None
        for i, (salience, reward) in enumerate(trace.latent_trace, start=1)
    )
    csvio.write_rows(Path(path), ("user_id", "session_index", "salience", "reward"), rows)


def read_latent_csv(path: str | Path) -> dict[str, list[tuple[float, float]]]:
    """Read a latent sidecar back into user_id -> [(salience, reward)]."""
    out: dict[str, list[tuple[float, float]]] = {}
    with Path(path).open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            out.setdefault(row["user_id"], []).append(
                (float(row["salience"]), float(row["reward"]))
            )
    return out


def ingest_csv(path: str | Path) -> list[PlayerTrace]:
    """Ingest telemetry CSV into traces grouped by (user_id, game_id).

    Rows are sorted by start_utc within each pair and delta_session is
    recomputed end-to-start from the timestamps.  Traces come back ordered by
    (user_id, game_id).  An error names the first bad data line, or the first
    (user, game) pair whose sessions repeat a start or overlap.
    """
    path = Path(path)
    columns = csvio.read_columns(path, _CSV_KINDS, TelemetryError)
    user, game, start = columns["user_id"], columns["game_id"], columns["start_utc"]
    session, play = columns["session_time"], columns["play_time"]
    count, diversity = columns["activity_index"], columns["activity_diversity"]
    row_checks = (  # in the order each row is checked
        ((user == "") | (game == ""), "empty user_id or game_id"),
        ((session < 0) | (play < 0) | (columns["delta_session"] < 0), "negative duration"),
        (play > session, "play_time exceeds session_time"),
        ((count < 0) | (diversity < 0) | (diversity > count), "inconsistent activity counts"),
    )
    bad = np.logical_or.reduce([mask for mask, _ in row_checks])
    if bad.any():
        row = int(np.argmax(bad))
        reason = next(reason for mask, reason in row_checks if mask[row])
        raise TelemetryError(f"line {row + 2}: {reason}")

    if not user.size:
        return []
    order = np.lexsort((start, game, user))
    user, game, start, session = user[order], game[order], start[order], session[order]
    same = (user[1:] == user[:-1]) & (game[1:] == game[:-1])  # row i + 1 continues row i's pair
    gap = start[1:] - (start[:-1] + session[:-1])
    pair = np.cumsum(np.r_[0, ~same])
    repeated, overlapping = pair[1:][same & (start[1:] == start[:-1])], pair[1:][same & (gap < 0)]
    if repeated.size or overlapping.size:
        first = min(repeated.min(initial=len(order)), overlapping.min(initial=len(order)))
        problem = ("non-monotone session timestamps" if first in repeated
                   else "overlapping sessions")
        raise TelemetryError(f"user {user[np.searchsorted(pair, first)]}: {problem}")

    delta = np.r_[0.0, np.where(same, gap, 0.0)]
    play_list = play[order].tolist()
    sessions = [
        SessionRecord(user_id=u, game_id=g, start_utc=t, session_time=st, play_time=pt,
                      delta_session=d, activity_index=ai, activity_diversity=ad,
                      env=env_stamp(t, region))
        for u, g, t, st, pt, d, ai, ad, region in zip(
            user.tolist(), game.tolist(), start.tolist(), session.tolist(), play_list,
            delta.tolist(), count[order].tolist(), diversity[order].tolist(),
            columns["region"][order].tolist())
    ]
    bounds = np.append(np.flatnonzero(np.r_[True, ~same]), len(order)).tolist()
    return [
        PlayerTrace(
            user_id=sessions[a].user_id,
            game_id=sessions[a].game_id,
            sessions=sessions[a:b],
            total_play_time=sum(play_list[a:b]),
            total_sessions=b - a,
            completed=False,
            latent_trace=None,
        )
        for a, b in zip(bounds, bounds[1:])
    ]
