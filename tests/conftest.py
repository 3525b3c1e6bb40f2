from __future__ import annotations

import pytest

from helpers import ACCEPTANCE_LINES
from salience_lab.telemetry import GameSpec, PlayerTrace, simulate_population


def pytest_sessionfinish(session, exitstatus):
    if ACCEPTANCE_LINES:
        print("\n\nacceptance criteria:")
        for line in ACCEPTANCE_LINES:
            print(f"  {line}")


@pytest.fixture(scope="session")
def small_population() -> list[PlayerTrace]:
    games = [
        GameSpec("alpha", base_quality=0.85, quality_drift=-0.004, completion_sessions=30),
        GameSpec("beta", base_quality=0.55, quality_drift=-0.004, completion_sessions=35),
        GameSpec("gamma", base_quality=0.4, quality_drift=-0.003, noise_sd=0.12),
    ]
    return simulate_population(games, players_per_game=20, calendar_start=10_000,
                               horizon_days=30, seed=7)
