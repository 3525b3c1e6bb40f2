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
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import csvio
from .telemetry import SessionTable, env_stamp

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
    return _sorted_threshold(np.sort(np.asarray(gaps, dtype=np.float64)))


def _sorted_threshold(ordered: np.ndarray) -> float:
    q1 = _quantile_type7(ordered, 0.25)
    q3 = _quantile_type7(ordered, 0.75)
    return q3 + 1.5 * (q3 - q1)


def _game_thresholds(traces: SessionTable) -> dict[str, float]:
    """Each game's inactivity threshold over the gaps of all its traces, by game id.

    The gaps are every session's delta_session but each trace's first (its zero).
    """
    later = np.ones(len(traces.user_id), dtype=bool)
    later[traces.first_rows] = False
    games, owner = np.unique(traces.game_id, return_inverse=True)
    gaps, owner = traces.delta_session[later], owner[later]
    gaps = gaps[np.lexsort((gaps, owner))]  # by game, then ascending
    counts = np.bincount(owner, minlength=len(games))
    starts = np.cumsum(counts) - counts
    thresholds = {}
    for game_id, start, count in zip(games.tolist(), starts.tolist(), counts.tolist()):
        if not count:
            raise FeatureError(f"game {game_id}: no inter-session gaps to fit a threshold")
        thresholds[game_id] = _sorted_threshold(gaps[start:start + count])
    return thresholds


def churn_probability(completed: bool, inactive_for: float, threshold: float) -> float:
    """Probability-encoded churn state: 0 completed, 1 long-inactive, 0.5 otherwise."""
    if completed:
        return 0.0
    if inactive_for >= threshold:
        return 1.0
    return 0.5


def _sessions_after(offsets: np.ndarray) -> np.ndarray:
    """Per row, how many sessions of its trace follow it (0 at each trace's last)."""
    lengths = np.diff(offsets)
    return np.repeat(offsets[1:], lengths) - 1 - np.arange(offsets[-1])


def _suffix_sums(values: np.ndarray, after: np.ndarray) -> np.ndarray:
    """Per row, the sum of the values of the rows after it in its trace.

    Each trace's sums are added from its last row backwards, one row at a time,
    as np.cumsum adds the trace's values reversed: all rows k sessions before
    their trace's end are summed at once, for k = 1, 2, ...  A row with none
    after it gets 0.0.
    """
    out = np.zeros(len(values))
    order = np.argsort(after, kind="stable")
    bounds = np.searchsorted(after[order], np.arange(after.max(initial=0) + 2))
    for k in range(1, len(bounds) - 1):
        rows = order[bounds[k]:bounds[k + 1]]
        out[rows] = values[rows + 1] if k == 1 else out[rows + 1] + values[rows + 1]
    return out


def compute_targets(
    traces: SessionTable, thresholds: float | np.ndarray, observation_end: float
) -> dict[str, np.ndarray]:
    """Per-session targets of every trace, unscaled, under their FeaturizedTrace field
    names, plus ab_mask; each array has one entry per row of the table.

    thresholds is each trace's inactivity threshold, or one for all.  Remaining
    play time at session t is the suffix sum of play_time after t, so it is
    exactly zero at the final session.  The absence gap of the final session is
    unobservable: it is 0 there, and ab_mask is 0.0 there and 1.0 elsewhere.
    """
    offsets, last = traces.offsets, traces.last_rows
    after = _sessions_after(offsets)
    ab_mask = np.ones(len(after))
    ab_mask[last] = 0.0
    absence = np.zeros(len(after))  # each session's next gap
    absence[:-1] = traces.delta_session[1:]
    absence[last] = 0.0

    inactive_for = np.maximum(
        0.0, observation_end - (traces.start_utc[last] + traces.session_time[last]))
    thresholds = np.broadcast_to(np.asarray(thresholds, dtype=np.float64), last.shape)
    churn = [churn_probability(*state) for state in zip(
        traces.completed.tolist(), inactive_for.tolist(), thresholds.tolist())]
    return {
        "churn": np.repeat(np.asarray(churn, dtype=np.float64), np.diff(offsets)),
        "survival_time": _suffix_sums(traces.play_time, after),
        "survival_sessions": after.astype(np.float64),
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

    def codes(self, values: np.ndarray) -> np.ndarray:
        """encode of each value, as int64: its sorted position from 1, or 0 out of vocabulary."""
        values = np.asarray(values)
        if not self.tokens:
            return np.zeros(values.shape, dtype=np.int64)
        tokens = np.asarray(self.tokens)
        at = np.minimum(np.searchsorted(tokens, values), len(tokens) - 1)
        return np.where(tokens[at] == values, at + 1, 0).astype(np.int64)


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


def build_dataset(
    traces: SessionTable,
    ratio: float = 0.8,
    seed: int = 0,
    observation_end: float | None = None,
) -> DatasetSplit:
    """Full featurization: thresholds, split, vocabularies, scaling, targets.

    Inactivity thresholds are computed per game over every provided trace;
    vocabularies for region/game and all scaler statistics are fit on the
    training split only, so they are identical whether or not the test split
    exists.  Each split lists its traces in (user_id, game_id) order, each a
    slice of arrays built once for the whole split.
    """
    if not len(traces):
        raise FeatureError("build_dataset needs at least one trace")
    if observation_end is None:
        last = traces.last_rows
        observation_end = np.max(traces.start_utc[last] + traces.session_time[last])
    observation_end = float(observation_end)
    thresholds = _game_thresholds(traces)

    users = traces.user_id[traces.first_rows]
    train_users, _ = split_users(users.tolist(), ratio, seed)
    in_train = np.array([user in train_users for user in users.tolist()], dtype=bool)
    order = np.lexsort((traces.game_id[traces.first_rows], users))  # stable, as sorted() is
    train_raw, test_raw = traces.take(order[in_train[order]]), traces.take(order[~in_train[order]])

    vocabs = Vocabularies(
        hour=HOUR_VOCAB,
        weekday=WEEKDAY_VOCAB,
        yearday=YEARDAY_VOCAB,
        region=build_vocab(np.unique(train_raw.region).tolist()),
        game=build_vocab(np.unique(train_raw.game_id).tolist()),
    )

    def raw_arrays(table: SessionTable) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        behaviour = np.stack([np.asarray(getattr(table, name), dtype=np.float64)
                              for name in BEHAVIOUR_FIELDS], axis=1)
        games = table.game_id[table.first_rows].tolist()
        return behaviour, compute_targets(table, [thresholds[g] for g in games], observation_end)

    behaviour_train, targets_train = raw_arrays(train_raw)
    columns = {name: behaviour_train[:, j] for j, name in enumerate(BEHAVIOUR_FIELDS)}
    for name, field in TARGETS.items():
        if name != "ch":  # churn stays unscaled; absence is fitted where it is observed
            values = targets_train[field]
            if name == "ab":
                values = values[targets_train["ab_mask"] > 0]
            columns[name] = values if values.size else np.zeros(1)
    scaler = fit_scaler(columns)

    def featurize(table: SessionTable, behaviour: np.ndarray,
                  targets: dict[str, np.ndarray]) -> list[FeaturizedTrace]:
        # behaviour is scaled in place and each target replaced in its dict, so that
        # no unscaled array is kept beside the scaled one
        for j, name in enumerate(BEHAVIOUR_FIELDS):
            behaviour[:, j] = apply_scaler(scaler, name, behaviour[:, j])
        context = dict(zip(ENV_FIELDS, (*env_stamp(table.start_utc), table.region)))
        env_idx = np.stack([getattr(vocabs, field).codes(context[field])
                            for field in ENV_FIELDS], axis=1)
        for name, field in TARGETS.items():
            if name != "ch":  # churn is a probability and stays unscaled
                targets[field] = apply_scaler(scaler, name, targets[field])
        targets["absence"] *= targets["ab_mask"]  # masked entries carry no information
        first = table.first_rows
        bounds = table.offsets.tolist()
        return [
            FeaturizedTrace(
                user_id=user, game_id=game, game_idx=game_idx,
                behaviour=behaviour[a:b], env_idx=env_idx[a:b],
                **{field: values[a:b] for field, values in targets.items()},
            )
            for user, game, game_idx, a, b in zip(
                table.user_id[first].tolist(), table.game_id[first].tolist(),
                vocabs.game.codes(table.game_id[first]).tolist(), bounds, bounds[1:])
        ]

    train = featurize(train_raw, behaviour_train, targets_train)
    test = featurize(test_raw, *raw_arrays(test_raw))
    return DatasetSplit(
        train=train,
        test=test,
        vocabs=vocabs,
        scaler=scaler,
        split_seed=seed,
        ratio=ratio,
        thresholds=thresholds,
        observation_end=observation_end,
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
        csvio.write_columns(directory / f"{name}.csv", _DATASET_COLUMNS, _split_columns(traces))


def _split_columns(traces: Sequence[FeaturizedTrace]) -> list:
    """The columns of a split CSV, in file order: each trace's arrays end to end."""
    if not traces:
        return [[]] * len(_DATASET_COLUMNS)
    lengths = [ft.length for ft in traces]

    def per_step(values: list) -> np.ndarray:  # each trace's value, once per step
        return np.repeat(np.asarray(values), lengths)

    def stacked(field: str) -> np.ndarray:
        return np.concatenate([getattr(ft, field) for ft in traces])

    first = np.cumsum(lengths) - lengths
    return [
        per_step([ft.user_id for ft in traces]),
        per_step([ft.game_id for ft in traces]),
        np.arange(sum(lengths)) + 1 - per_step(first),
        *stacked("behaviour").T,
        *stacked("env_idx").T,
        per_step([ft.game_idx for ft in traces]),
        *(stacked(field) for field in (*TARGETS.values(), "ab_mask")),
    ]


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
