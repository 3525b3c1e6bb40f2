"""Model-ready inputs and targets from player traces.

Behaviour metrics are min-max scaled with statistics fit on the training
split only; categorical context is index-encoded against vocabularies; the
four targets are churn probability, remaining play time, remaining sessions,
and the absence gap to the next session.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import csvio
from .telemetry import PlayerTrace

BEHAVIOUR_FIELDS = (
    "session_time",
    "play_time",
    "delta_session",
    "activity_index",
    "activity_diversity",
)
ENV_FIELDS = ("hour", "weekday", "yearday", "region")
#: The four targets in model order: name -> the FeaturizedTrace field (and
#: compute_targets key) that holds it.  Churn is a probability and stays
#: unscaled; the other three are min-max scaled under their names.
TARGETS = {"ch": "churn", "st": "survival_time", "ss": "survival_sessions", "ab": "absence"}

#: The featurized split CSV: each column, in file order, with the type it is read as.
_DATASET_COLUMNS = {
    "user_id": str,
    "game_id": str,
    "session_index": int,
    **dict.fromkeys(BEHAVIOUR_FIELDS, float),
    **{f"{name}_idx": int for name in ENV_FIELDS},
    "game_idx": int,
    **dict.fromkeys(TARGETS, float),
    "ab_mask": float,
}


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


def compute_targets(
    trace: PlayerTrace, threshold: float, observation_end: float
) -> dict[str, np.ndarray]:
    """Per-session targets, unscaled, under their FeaturizedTrace field names, plus ab_mask.

    Remaining play time at session t is the suffix sum of play_time after t,
    so it is exactly zero at the final session.  The absence gap of the final
    session is unobservable: it is 0 there, and ab_mask is 0.0 there and 1.0
    elsewhere.
    """
    n = trace.total_sessions
    play = np.asarray([s.play_time for s in trace.sessions], dtype=np.float64)
    absence = np.asarray([s.delta_session for s in trace.sessions[1:]] + [0.0])
    ab_mask = np.ones(n)
    ab_mask[-1] = 0.0

    last = trace.sessions[-1]
    inactive_for = max(0.0, observation_end - (last.start_utc + last.session_time))
    return {
        "churn": np.full(n, churn_probability(trace.completed, inactive_for, threshold)),
        # added from the last session backwards, one session at a time
        "survival_time": np.append(np.cumsum(play[:0:-1])[::-1], 0.0),
        "survival_sessions": np.arange(n - 1, -1, -1, dtype=np.float64),
        "absence": absence,
        "ab_mask": ab_mask,
    }


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
        return {f.name: list(getattr(self, f.name).tokens) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: Mapping) -> "Vocabularies":
        return cls(**{f.name: Vocab(tuple(d[f.name])) for f in fields(cls)})


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


def carve_validation(traces: Sequence, fraction: float, seed: int) -> tuple[list, list]:
    """Split traces by user into (fit, validation), about `fraction` of the users validating."""
    fit_users, _ = split_users([t.user_id for t in traces], 1.0 - fraction, seed)
    return ([t for t in traces if t.user_id in fit_users],
            [t for t in traces if t.user_id not in fit_users])


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


def target_medians(traces: Sequence[FeaturizedTrace], scaler: ScalerStats) -> np.ndarray:
    """Median of each target over each trace's steps, in unscaled units.

    Row i holds traces[i]'s medians, in TARGETS order.  Absence is taken over its
    observed steps only, and is nan for a trace with none.  Each median is the
    middle value, or the two middle values added and halved, as np.median does.
    """
    table = np.full((len(traces), len(TARGETS)), np.nan)
    if not traces:
        return table
    step_owner = np.repeat(np.arange(len(traces)), [t.length for t in traces])
    observed = np.concatenate([t.ab_mask for t in traces]) > 0
    for j, (name, field) in enumerate(TARGETS.items()):
        values = np.concatenate([getattr(t, field) for t in traces])
        owner = step_owner
        if name == "ab":
            values, owner = values[observed], owner[observed]
        if name != "ch":
            values = invert_scaler(scaler, name, values)
        values = values[np.lexsort((values, owner))]  # owner stays in order; nan sorts last
        counts = np.bincount(owner, minlength=len(traces))
        first = np.cumsum(counts) - counts
        has = counts > 0
        first, counts = first[has], counts[has]
        lo = values[first + (counts - 1) // 2]
        hi = values[first + counts // 2]
        medians = np.where(counts % 2 == 1, lo, (lo + hi) / 2)
        medians[np.isnan(values[first + counts - 1])] = np.nan
        table[has, j] = medians
    return table


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

    def raw_arrays(trace: PlayerTrace) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        return (_behaviour_matrix(trace),
                compute_targets(trace, thresholds[trace.game_id], observation_end))

    train_arrays = [raw_arrays(t) for t in train_raw]
    behaviour_train = np.concatenate([raw for raw, _ in train_arrays], axis=0)
    columns = {name: behaviour_train[:, j] for j, name in enumerate(BEHAVIOUR_FIELDS)}
    for name, field in TARGETS.items():
        if name != "ch":  # churn stays unscaled; absence is fitted where it is observed
            values = np.concatenate([
                targets[field][targets["ab_mask"] > 0] if name == "ab" else targets[field]
                for _, targets in train_arrays
            ])
            columns[name] = values if values.size else np.zeros(1)
    scaler = fit_scaler(columns)
    del behaviour_train, columns  # not kept while the featurized traces are built

    def featurize(trace: PlayerTrace, behaviour: np.ndarray,
                  targets: dict[str, np.ndarray]) -> FeaturizedTrace:
        # behaviour is scaled in place and each target replaced in its dict, so no trace
        # keeps its unscaled arrays beside the scaled ones
        for j, name in enumerate(BEHAVIOUR_FIELDS):
            behaviour[:, j] = apply_scaler(scaler, name, behaviour[:, j])
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
        for name, field in TARGETS.items():
            if name != "ch":  # churn is a probability and stays unscaled
                targets[field] = apply_scaler(scaler, name, targets[field])
        targets["absence"] *= targets["ab_mask"]  # masked entries carry no information
        return FeaturizedTrace(
            user_id=trace.user_id,
            game_id=trace.game_id,
            game_idx=vocabs.game.encode(trace.game_id),
            behaviour=behaviour,
            env_idx=env_idx,
            **targets,
        )

    train = [featurize(t, *arrays) for t, arrays in zip(train_raw, train_arrays)]
    test = [featurize(t, *raw_arrays(t)) for t in test_raw]
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
        rows = (row for chunk in csvio.chunks(traces, lambda ft: ft.length)
                for row in _split_rows(chunk))
        csvio.write_rows(directory / f"{name}.csv", _DATASET_COLUMNS, rows)


def _split_rows(chunk: Sequence[FeaturizedTrace]) -> Iterator[tuple]:
    """The CSV rows of some traces, built a column at a time."""
    lengths = [ft.length for ft in chunk]

    def per_step(values: Iterable) -> list:  # each trace's value, once per step
        return np.repeat(np.array(list(values), dtype=object), lengths).tolist()

    def stacked(field: str) -> list:  # the columns of the traces' arrays, end to end
        return np.concatenate([getattr(ft, field) for ft in chunk]).T.tolist()

    return zip(
        per_step(ft.user_id for ft in chunk),
        per_step(ft.game_id for ft in chunk),
        [t for n in lengths for t in range(1, n + 1)],
        *stacked("behaviour"),
        *stacked("env_idx"),
        per_step(ft.game_idx for ft in chunk),
        *(stacked(field) for field in (*TARGETS.values(), "ab_mask")),
    )


def _load_traces(path: Path) -> list[FeaturizedTrace]:
    """The traces of one split CSV, ordered by (user, game), each a slice of the columns."""
    columns = csvio.read_columns(path, _DATASET_COLUMNS, FeatureError)
    users, games = columns["user_id"], columns["game_id"]
    if not users.size:
        return []
    order = np.lexsort((columns["session_index"], games, users))
    users, games = users[order], games[order]
    behaviour = np.stack([columns[name][order] for name in BEHAVIOUR_FIELDS], axis=1)
    env_idx = np.stack([columns[f"{name}_idx"][order] for name in ENV_FIELDS], axis=1)
    targets = {field: columns[name][order] for name, field in TARGETS.items()}
    ab_mask = columns["ab_mask"][order]
    first = np.flatnonzero(np.r_[True, (users[1:] != users[:-1]) | (games[1:] != games[:-1])])
    bounds = np.append(first, len(order)).tolist()
    return [
        FeaturizedTrace(
            user_id=user,
            game_id=game,
            game_idx=game_idx,
            behaviour=behaviour[a:b],
            env_idx=env_idx[a:b],
            ab_mask=ab_mask[a:b],
            **{field: values[a:b] for field, values in targets.items()},
        )
        for user, game, game_idx, a, b in zip(
            users[first].tolist(), games[first].tolist(),
            columns["game_idx"][order][first].tolist(), bounds, bounds[1:])
    ]


def load_dataset(directory: str | Path) -> DatasetSplit:
    """Load a split written by save_dataset."""
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    return DatasetSplit(
        train=_load_traces(directory / "train.csv"),
        test=_load_traces(directory / "test.csv"),
        vocabs=Vocabularies.from_dict(manifest["vocabularies"]),
        scaler=ScalerStats.from_dict(manifest["scaler"]),
        split_seed=int(manifest["split_seed"]),
        ratio=float(manifest["ratio"]),
        thresholds={k: float(v) for k, v in manifest["thresholds"].items()},
        observation_end=float(manifest["observation_end"]),
    )
