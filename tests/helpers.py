"""Trace and feature-table builders, a one-player simulator and a table joiner, ids that
need CSV quoting, a deadline, a relative error, a gradient check, the benchmark's checks
and the acceptance verdict log shared by the test modules.

Test modules import these by name; conftest.py keeps only pytest hooks and
fixtures, so two conftest.py files on the import path never shadow each other.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import operator
import signal
import sys
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from salience_lab.features import FeatureTable
from salience_lab.telemetry import (_SIMULATED, GameSpec, LatentPlayerState, PlayerTrace,
                                    SessionTable, _simulate_sessions, _simulated_table)

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
    return functools.reduce(operator.add, tables)


def simulate_player(
    spec: GameSpec,
    init: LatentPlayerState,
    calendar_start: int,
    horizon_days: int,
    user_id: str = "u0",
    region: str = "eu",
) -> PlayerTrace:
    """Simulate one player's trace under the salience delta rule.

    See telemetry._simulate_sessions.  The trace is the only one of its table, so
    trace.table holds just its sessions.
    """
    rows: dict[str, list] = {name: [] for name in _SIMULATED}
    completed = _simulate_sessions(spec, init, calendar_start, horizon_days, rows)
    table = _simulated_table([user_id], [spec.game_id], [region], [len(rows["start_utc"])],
                             [completed], rows)
    return table[0]


def feature_table(lengths, **columns) -> FeatureTable:
    """A FeatureTable of traces of the given lengths, from whole-table arrays.

    columns gives any column of the table by name: a row column with one entry
    per row, user_id, game_id or game_idx with one entry per trace or one for
    all.  An absent row column is zeros; users are u0, u1, ..., the game "g" of
    index 1.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    n = int(lengths.sum())
    kinds = {**dict.fromkeys(FeatureTable.ROW_COLUMNS, np.float64), "env_idx": np.int64}
    table = {
        **{name: np.zeros(n) for name in kinds},
        "behaviour": np.zeros((n, 5)),
        "env_idx": np.zeros((n, 4)),
        "user_id": [f"u{i}" for i in range(len(lengths))],
        "game_id": "g",
        "game_idx": 1,
        **columns,
    }
    for name, kind in kinds.items():
        table[name] = np.asarray(table[name], dtype=kind)
    for name, kind in (("user_id", str), ("game_id", str), ("game_idx", np.int64)):
        table[name] = np.broadcast_to(np.asarray(table[name], dtype=kind), lengths.shape).copy()
    return FeatureTable(**table, offsets=np.concatenate(([0], np.cumsum(lengths))))


def awkward_table() -> SessionTable:
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


def grad_check(loss_fn: Callable[[], float], params: Mapping[str, np.ndarray],
               analytic: Mapping[str, np.ndarray], h: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central differences.

    loss_fn must recompute the loss from the current (mutated in place)
    parameter values.  The relative error denominator is floored so that
    vanishing components do not dominate.
    """
    worst = 0.0
    for name, p in params.items():
        a = analytic[name]
        flat = p.ravel()
        aflat = a.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            denom = max(abs(aflat[i]) + abs(numeric), 1e-4)
            worst = max(worst, abs(aflat[i] - numeric) / denom)
    return worst


def benchmark_checks():
    """perfbench/checks.py, which recomputes what the CLI writes apart from the package."""
    path = str(Path(__file__).resolve().parents[1] / "perfbench")
    if path not in sys.path:
        sys.path.append(path)
    return importlib.import_module("checks")
