"""Trace builders and a table joiner, ids that need CSV quoting, a deadline, a
relative error and the acceptance verdict log shared by the test modules.

Test modules import these by name; conftest.py keeps only pytest hooks and
fixtures, so two conftest.py files on the import path never shadow each other.
"""

from __future__ import annotations

import contextlib
import signal

import numpy as np

from salience_lab.telemetry import CSV_COLUMNS, LATENT_COLUMNS, SessionTable

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
) -> SessionTable:
    """Hand-built one-trace table with deltas derived end-to-start from the timestamps."""
    play_times = play_times or [s * 0.8 for s in session_times]
    n = len(starts)
    deltas = [0.0] + [float(start - (prev + st))
                      for prev, st, start in zip(starts, session_times, starts[1:])]
    return SessionTable(
        user_id=np.full(n, user_id),
        game_id=np.full(n, game_id),
        start_utc=np.asarray(starts, dtype=np.int64),
        session_time=np.asarray(session_times, dtype=np.float64),
        play_time=np.asarray(play_times, dtype=np.float64),
        delta_session=np.asarray(deltas),
        activity_index=np.arange(5, 5 + n),
        activity_diversity=np.full(n, 2),
        region=np.full(n, region),
        offsets=np.array([0, n]),
        completed=np.array([completed]),
    )


def join(tables) -> SessionTable:
    """One table holding the traces of the given tables, in order."""
    tables = list(tables)
    lengths = np.concatenate([np.diff(t.offsets) for t in tables])
    latent = {name: None if any(getattr(t, name) is None for t in tables)
              else np.concatenate([getattr(t, name) for t in tables]) for name in LATENT_COLUMNS}
    return SessionTable(
        **{name: np.concatenate([getattr(t, name) for t in tables]) for name in CSV_COLUMNS},
        **latent,
        offsets=np.concatenate(([0], np.cumsum(lengths))),
        completed=np.concatenate([t.completed for t in tables]),
    )


def random_trace(rng: np.random.Generator, user_id: str, game_id: str = "g") -> SessionTable:
    """Random but invariant-respecting one-trace table for oracle sweeps."""
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
