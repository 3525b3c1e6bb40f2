"""Trace builders, ids that need CSV quoting, a deadline, a relative error and the
acceptance verdict log shared by the test modules.

Test modules import these by name; conftest.py keeps only pytest hooks and
fixtures, so two conftest.py files on the import path never shadow each other.
"""

from __future__ import annotations

import contextlib
import signal

import numpy as np

from salience_lab.telemetry import PlayerTrace, SessionRecord, env_stamp

#: Verdict lines recorded by the acceptance suite; conftest.py echoes them
#: after the run so they stay visible without -s.
ACCEPTANCE_LINES: list[str] = []

#: Ids that need csv quoting or that a reader splitting on ',' or cutting at '#' would
#: break: a comment character, a delimiter, quotes, spaces, line breaks, non-ASCII text.
ODD_IDS = ["u#1", "a,b", 'q"t"', "sp ace", " lead", "trail ", "new\nline", "cr\r\nlf",
           "cr\ronly", "ünï☃", "日本語"]


def make_trace(
    user_id: str,
    game_id: str,
    starts: list[int],
    session_times: list[float],
    play_times: list[float] | None = None,
    completed: bool = False,
    region: str = "eu",
) -> PlayerTrace:
    """Hand-built trace with deltas derived end-to-start from the timestamps."""
    play_times = play_times or [s * 0.8 for s in session_times]
    sessions = []
    prev_end = None
    for i, (start, st, pt) in enumerate(zip(starts, session_times, play_times)):
        delta = 0.0 if prev_end is None else float(start - prev_end)
        sessions.append(
            SessionRecord(
                user_id=user_id,
                game_id=game_id,
                start_utc=start,
                session_time=st,
                play_time=pt,
                delta_session=delta,
                activity_index=5 + i,
                activity_diversity=2,
                env=env_stamp(start, region),
            )
        )
        prev_end = start + st
    return PlayerTrace(
        user_id=user_id,
        game_id=game_id,
        sessions=sessions,
        total_play_time=sum(play_times),
        total_sessions=len(sessions),
        completed=completed,
        latent_trace=None,
    )


def random_trace(rng: np.random.Generator, user_id: str, game_id: str = "g") -> PlayerTrace:
    """Random but invariant-respecting trace for oracle sweeps."""
    n = int(rng.integers(1, 12))
    starts = []
    session_times = []
    play_times = []
    t = int(rng.integers(0, 10_000))
    for _ in range(n):
        starts.append(t)
        st = float(rng.uniform(1.0, 200.0))
        session_times.append(st)
        play_times.append(st * float(rng.uniform(0.0, 1.0)))
        t += int(np.ceil(st + rng.uniform(1.0, 5000.0)))
    return make_trace(
        user_id,
        game_id,
        starts,
        session_times,
        play_times,
        completed=bool(rng.integers(0, 2)),
    )


@contextlib.contextmanager
def deadline(seconds: int):
    """Fail, rather than hang, when the block runs longer than `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def max_rel(actual, expected) -> float:
    """Largest absolute difference relative to the largest reference magnitude."""
    return float(np.max(np.abs(actual - expected)) / np.max(np.abs(expected)))
