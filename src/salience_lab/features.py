"""Model-ready inputs and targets from player traces.

Behaviour metrics are min-max scaled with statistics fit on the training
split only; categorical context is index-encoded against vocabularies; the
four targets are churn probability, remaining play time, remaining sessions,
and the absence gap to the next session.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .telemetry import PlayerTrace

BEHAVIOUR_FIELDS = (
    "session_time",
    "play_time",
    "delta_session",
    "activity_index",
    "activity_diversity",
)
ENV_FIELDS = ("hour", "weekday", "yearday", "region")
TARGET_FIELDS = ("ch", "st", "ss", "ab")
SCALED_TARGETS = ("st", "ss", "ab")  # churn stays unscaled

_DATASET_COLUMNS = (
    ("user_id", "game_id", "session_index")
    + BEHAVIOUR_FIELDS
    + tuple(f"{name}_idx" for name in ENV_FIELDS)
    + ("game_idx",)
    + TARGET_FIELDS
    + ("ab_mask",)
)


class FeatureError(ValueError):
    """Invalid feature-construction inputs."""


def _quantile_type7(ordered: Sequence[float], q: float) -> float:
    # Linear interpolation between order statistics at h = (n - 1) * q.
    n = len(ordered)
    if n == 1:
        return float(ordered[0])
    h = (n - 1) * q
    lo = int(math.floor(h))
    hi = min(lo + 1, n - 1)
    frac = h - lo
    return float(ordered[lo]) * (1.0 - frac) + float(ordered[hi]) * frac


def inactivity_threshold(gaps: Sequence[float]) -> float:
    """Inactivity cutoff Q3 + 1.5 * IQR over a game's inter-session gaps."""
    if len(gaps) == 0:
        raise FeatureError("inactivity_threshold needs a non-empty gap vector")
    ordered = sorted(float(g) for g in gaps)
    q1 = _quantile_type7(ordered, 0.25)
    q3 = _quantile_type7(ordered, 0.75)
    return q3 + 1.5 * (q3 - q1)


def churn_probability(completed: bool, inactive_for: float, threshold: float) -> float:
    """Probability-encoded churn state: 0 completed, 1 long-inactive, 0.5 otherwise."""
    if completed:
        return 0.0
    if inactive_for >= threshold:
        return 1.0
    return 0.5


@dataclass(frozen=True)
class TargetVector:
    churn: float
    survival_time: float
    survival_sessions: int
    absence: float
    absence_masked: bool


def compute_targets(
    trace: PlayerTrace, threshold: float, observation_end: float
) -> list[TargetVector]:
    """Per-session targets: remaining play time/sessions, next-session gap, churn.

    Remaining play time at session t is the suffix sum of play_time after t,
    so it is exactly zero at the final session.  The absence gap of the final
    session is unobservable and flagged masked.
    """
    n = trace.total_sessions
    play = [s.play_time for s in trace.sessions]
    suffix = [0.0] * n
    for i in range(n - 2, -1, -1):
        suffix[i] = suffix[i + 1] + play[i + 1]

    last = trace.sessions[-1]
    inactive_for = max(0.0, observation_end - (last.start_utc + last.session_time))
    ch = churn_probability(trace.completed, inactive_for, threshold)

    targets = []
    for t in range(n):
        if t + 1 < n:
            absence = trace.sessions[t + 1].delta_session
            masked = False
        else:
            absence = 0.0
            masked = True
        targets.append(
            TargetVector(
                churn=ch,
                survival_time=suffix[t],
                survival_sessions=n - (t + 1),
                absence=absence,
                absence_masked=masked,
            )
        )
    return targets


@dataclass(frozen=True)
class ScalerStats:
    """Per-feature min/max fit on the training split only."""

    names: tuple[str, ...]
    mins: tuple[float, ...]
    maxs: tuple[float, ...]

    def __post_init__(self):
        for name, lo, hi in zip(self.names, self.mins, self.maxs):
            if lo > hi:
                raise FeatureError(f"scaler feature {name}: min {lo} > max {hi}")

    def to_dict(self) -> list[dict]:
        return [
            {"name": name, "min": lo, "max": hi}
            for name, lo, hi in zip(self.names, self.mins, self.maxs)
        ]

    @classmethod
    def from_dict(cls, entries: Sequence[Mapping]) -> "ScalerStats":
        return cls(
            names=tuple(e["name"] for e in entries),
            mins=tuple(float(e["min"]) for e in entries),
            maxs=tuple(float(e["max"]) for e in entries),
        )


def fit_scaler(columns: Mapping[str, np.ndarray]) -> ScalerStats:
    """Fit min/max per named feature column (training data only)."""
    names = tuple(columns.keys())
    mins, maxs = [], []
    for name in names:
        values = np.asarray(columns[name], dtype=np.float64)
        if values.size == 0:
            raise FeatureError(f"scaler feature {name}: no values to fit")
        mins.append(float(values.min()))
        maxs.append(float(values.max()))
    return ScalerStats(names=names, mins=tuple(mins), maxs=tuple(maxs))


def apply_scaler(stats: ScalerStats, name: str, x: np.ndarray) -> np.ndarray:
    """Scale x to (x - min) / (max - min); a degenerate feature maps to 0."""
    i = stats.names.index(name)
    lo, hi = stats.mins[i], stats.maxs[i]
    x = np.asarray(x, dtype=np.float64)
    if hi == lo:
        return np.zeros_like(x)
    return (x - lo) / (hi - lo)


def invert_scaler(stats: ScalerStats, name: str, x: np.ndarray) -> np.ndarray:
    i = stats.names.index(name)
    lo, hi = stats.mins[i], stats.maxs[i]
    x = np.asarray(x, dtype=np.float64)
    if hi == lo:
        return np.full_like(x, lo)
    return x * (hi - lo) + lo


@dataclass(frozen=True)
class Vocab:
    """Sorted-order token index with a reserved out-of-vocabulary slot 0."""

    tokens: tuple

    @property
    def size(self) -> int:
        return len(self.tokens) + 1

    @cached_property
    def _index(self) -> dict:
        return {token: i for i, token in enumerate(self.tokens, start=1)}

    def encode(self, value) -> int:
        return self._index.get(value, 0)

    def as_mapping(self) -> dict:
        return {"OOV": 0, **self._index}


def build_vocab(values: Iterable) -> Vocab:
    """Vocabulary over the unique values, in sorted order (fit on train only)."""
    return Vocab(tokens=tuple(sorted(set(values))))


#: Calendar fields have a closed domain, so their vocabularies enumerate it
#: outright (the hour vocabulary always has 24 tokens + OOV).
HOUR_VOCAB = build_vocab(range(24))
WEEKDAY_VOCAB = build_vocab(range(7))
YEARDAY_VOCAB = build_vocab(range(1, 367))


@dataclass(frozen=True)
class Vocabularies:
    hour: Vocab
    weekday: Vocab
    yearday: Vocab
    region: Vocab
    game: Vocab

    def to_dict(self) -> dict:
        return {
            "hour": list(self.hour.tokens),
            "weekday": list(self.weekday.tokens),
            "yearday": list(self.yearday.tokens),
            "region": list(self.region.tokens),
            "game": list(self.game.tokens),
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "Vocabularies":
        return cls(
            hour=Vocab(tuple(d["hour"])),
            weekday=Vocab(tuple(d["weekday"])),
            yearday=Vocab(tuple(d["yearday"])),
            region=Vocab(tuple(d["region"])),
            game=Vocab(tuple(d["game"])),
        )


def _user_rank(seed: int, user_id: str) -> int:
    digest = hashlib.sha256(f"{seed}:{user_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def split_users(user_ids: Sequence[str], ratio: float, seed: int) -> tuple[set[str], set[str]]:
    """Deterministic per-user train/test assignment by seeded hash order."""
    if not 0.0 < ratio < 1.0:
        raise FeatureError(f"split ratio must lie in (0, 1), got {ratio}")
    unique = sorted(set(user_ids))
    ordered = sorted(unique, key=lambda uid: (_user_rank(seed, uid), uid))
    n_train = int(round(ratio * len(ordered)))
    return set(ordered[:n_train]), set(ordered[n_train:])


@dataclass
class FeaturizedTrace:
    """One trace as scaled inputs, encoded context, and (scaled) targets."""

    user_id: str
    game_id: str
    game_idx: int
    behaviour: np.ndarray  # (T, 5) scaled floats
    env_idx: np.ndarray  # (T, 4) int64: hour, weekday, yearday, region
    churn: np.ndarray  # (T,) constant within the trace
    survival_time: np.ndarray  # (T,) scaled
    survival_sessions: np.ndarray  # (T,) scaled
    absence: np.ndarray  # (T,) scaled, final element masked
    ab_mask: np.ndarray  # (T,) 1.0 where absence is observed

    @property
    def length(self) -> int:
        return int(self.behaviour.shape[0])


@dataclass
class DatasetSplit:
    """Featurized train/test collections plus the statistics that built them."""

    train: list[FeaturizedTrace]
    test: list[FeaturizedTrace]
    vocabs: Vocabularies
    scaler: ScalerStats
    split_seed: int
    ratio: float
    thresholds: dict[str, float]
    observation_end: float


def _behaviour_matrix(trace: PlayerTrace) -> np.ndarray:
    rows = [
        (s.session_time, s.play_time, s.delta_session, s.activity_index, s.activity_diversity)
        for s in trace.sessions
    ]
    return np.asarray(rows, dtype=np.float64)


def game_gap_pool(traces: Sequence[PlayerTrace]) -> dict[str, list[float]]:
    """All inter-session gaps per game (first-session zeros excluded)."""
    pools: dict[str, list[float]] = {}
    for trace in traces:
        pool = pools.setdefault(trace.game_id, [])
        pool.extend(s.delta_session for s in trace.sessions[1:])
    return pools


def build_dataset(
    traces: Sequence[PlayerTrace],
    ratio: float = 0.8,
    seed: int = 0,
    observation_end: float | None = None,
) -> DatasetSplit:
    """Full featurization: thresholds, split, vocabularies, scaling, targets.

    Inactivity thresholds are computed per game over every provided trace;
    vocabularies for region/game and all scaler statistics are fit on the
    training split only, so they are identical whether or not the test split
    exists.
    """
    if not traces:
        raise FeatureError("build_dataset needs at least one trace")
    if observation_end is None:
        observation_end = max(
            t.sessions[-1].start_utc + t.sessions[-1].session_time for t in traces
        )

    pools = game_gap_pool(traces)
    thresholds = {}
    for game_id in sorted(pools):
        if not pools[game_id]:
            raise FeatureError(f"game {game_id}: no inter-session gaps to fit a threshold")
        thresholds[game_id] = inactivity_threshold(pools[game_id])

    train_users, test_users = split_users([t.user_id for t in traces], ratio, seed)
    train_raw = [t for t in traces if t.user_id in train_users]
    test_raw = [t for t in traces if t.user_id in test_users]
    train_raw.sort(key=lambda t: (t.user_id, t.game_id))
    test_raw.sort(key=lambda t: (t.user_id, t.game_id))

    vocabs = Vocabularies(
        hour=HOUR_VOCAB,
        weekday=WEEKDAY_VOCAB,
        yearday=YEARDAY_VOCAB,
        region=build_vocab(s.env.region for t in train_raw for s in t.sessions),
        game=build_vocab(t.game_id for t in train_raw),
    )

    train_targets = [
        compute_targets(t, thresholds[t.game_id], observation_end) for t in train_raw
    ]
    columns: dict[str, np.ndarray] = {}
    behaviour_train = np.concatenate([_behaviour_matrix(t) for t in train_raw], axis=0)
    for j, name in enumerate(BEHAVIOUR_FIELDS):
        columns[name] = behaviour_train[:, j]
    columns["st"] = np.asarray(
        [tv.survival_time for tvs in train_targets for tv in tvs], dtype=np.float64
    )
    columns["ss"] = np.asarray(
        [tv.survival_sessions for tvs in train_targets for tv in tvs], dtype=np.float64
    )
    columns["ab"] = np.asarray(
        [tv.absence for tvs in train_targets for tv in tvs if not tv.absence_masked]
        or [0.0],
        dtype=np.float64,
    )
    scaler = fit_scaler(columns)

    def featurize(trace: PlayerTrace, targets: list[TargetVector]) -> FeaturizedTrace:
        raw = _behaviour_matrix(trace)
        behaviour = np.stack(
            [apply_scaler(scaler, name, raw[:, j]) for j, name in enumerate(BEHAVIOUR_FIELDS)],
            axis=1,
        )
        env_idx = np.asarray(
            [
                (
                    vocabs.hour.encode(s.env.hour_of_day),
                    vocabs.weekday.encode(s.env.day_of_week),
                    vocabs.yearday.encode(s.env.day_of_year),
                    vocabs.region.encode(s.env.region),
                )
                for s in trace.sessions
            ],
            dtype=np.int64,
        )
        st = apply_scaler(scaler, "st", np.asarray([tv.survival_time for tv in targets]))
        ss = apply_scaler(
            scaler, "ss", np.asarray([float(tv.survival_sessions) for tv in targets])
        )
        ab = apply_scaler(scaler, "ab", np.asarray([tv.absence for tv in targets]))
        ab_mask = np.asarray(
            [0.0 if tv.absence_masked else 1.0 for tv in targets], dtype=np.float64
        )
        ab = ab * ab_mask  # masked entries carry no information
        return FeaturizedTrace(
            user_id=trace.user_id,
            game_id=trace.game_id,
            game_idx=vocabs.game.encode(trace.game_id),
            behaviour=behaviour,
            env_idx=env_idx,
            churn=np.full(len(targets), targets[0].churn, dtype=np.float64),
            survival_time=st,
            survival_sessions=ss,
            absence=ab,
            ab_mask=ab_mask,
        )

    train = [featurize(t, tvs) for t, tvs in zip(train_raw, train_targets)]
    test = [
        featurize(t, compute_targets(t, thresholds[t.game_id], observation_end))
        for t in test_raw
    ]
    return DatasetSplit(
        train=train,
        test=test,
        vocabs=vocabs,
        scaler=scaler,
        split_seed=seed,
        ratio=ratio,
        thresholds=thresholds,
        observation_end=float(observation_end),
    )


def save_dataset(split: DatasetSplit, directory: str | Path) -> None:
    """Persist a split as manifest.json plus one CSV per split."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "split_seed": split.split_seed,
        "ratio": split.ratio,
        "observation_end": split.observation_end,
        "thresholds": split.thresholds,
        "vocabularies": split.vocabs.to_dict(),
        "scaler": split.scaler.to_dict(),
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    for name, traces in (("train", split.train), ("test", split.test)):
        with (directory / f"{name}.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(_DATASET_COLUMNS)
            for ft in traces:
                for t in range(ft.length):
                    writer.writerow(
                        [ft.user_id, ft.game_id, t + 1]
                        + [repr(float(v)) for v in ft.behaviour[t]]
                        + [int(v) for v in ft.env_idx[t]]
                        + [ft.game_idx]
                        + [
                            repr(float(ft.churn[t])),
                            repr(float(ft.survival_time[t])),
                            repr(float(ft.survival_sessions[t])),
                            repr(float(ft.absence[t])),
                        ]
                        + [repr(float(ft.ab_mask[t]))]
                    )


def _traces_from_rows(rows: list[dict]) -> list[FeaturizedTrace]:
    by_trace: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        by_trace.setdefault((row["user_id"], row["game_id"]), []).append(row)
    traces = []
    for (user_id, game_id), chunk in sorted(by_trace.items()):
        chunk.sort(key=lambda r: int(r["session_index"]))
        traces.append(
            FeaturizedTrace(
                user_id=user_id,
                game_id=game_id,
                game_idx=int(chunk[0]["game_idx"]),
                behaviour=np.asarray(
                    [[float(r[name]) for name in BEHAVIOUR_FIELDS] for r in chunk]
                ),
                env_idx=np.asarray(
                    [[int(r[f"{name}_idx"]) for name in ENV_FIELDS] for r in chunk],
                    dtype=np.int64,
                ),
                churn=np.asarray([float(r["ch"]) for r in chunk]),
                survival_time=np.asarray([float(r["st"]) for r in chunk]),
                survival_sessions=np.asarray([float(r["ss"]) for r in chunk]),
                absence=np.asarray([float(r["ab"]) for r in chunk]),
                ab_mask=np.asarray([float(r["ab_mask"]) for r in chunk]),
            )
        )
    return traces


def load_dataset(directory: str | Path) -> DatasetSplit:
    """Load a split written by save_dataset."""
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    parts = {}
    for name in ("train", "test"):
        with (directory / f"{name}.csv").open(newline="", encoding="utf-8") as fh:
            parts[name] = _traces_from_rows(list(csv.DictReader(fh)))
    return DatasetSplit(
        train=parts["train"],
        test=parts["test"],
        vocabs=Vocabularies.from_dict(manifest["vocabularies"]),
        scaler=ScalerStats.from_dict(manifest["scaler"]),
        split_seed=int(manifest["split_seed"]),
        ratio=float(manifest["ratio"]),
        thresholds={k: float(v) for k, v in manifest["thresholds"].items()},
        observation_end=float(manifest["observation_end"]),
    )
