"""Model-ready inputs and targets from player traces.

Behaviour metrics are min-max scaled with statistics fit on the training
split only; categorical context is index-encoded against vocabularies; the
four targets are churn probability, remaining play time, remaining sessions,
and the absence gap to the next session.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import csvio
from .ragged import RaggedTable, TraceView
from .telemetry import SessionTable, env_stamp

BEHAVIOUR_FIELDS = (
    "session_time",
    "play_time",
    "delta_session",
    "activity_index",
    "activity_diversity",
)
ENV_FIELDS = ("hour", "weekday", "yearday", "region")
#: The four targets in model order: name -> the FeatureTable column (and
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
    later = traces.session_index > 1
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
    """Per-session targets of every trace, unscaled, under their FeatureTable column
    names, plus ab_mask; each array has one entry per row of the table.

    thresholds is each trace's inactivity threshold, or one for all.  Remaining
    play time at session t is the suffix sum of play_time after t, so it is
    exactly zero at the final session.  The absence gap of the final session is
    unobservable: it is 0 there, and ab_mask is 0.0 there and 1.0 elsewhere.
    """
    last = traces.last_rows
    after = np.repeat(traces.lengths, traces.lengths) - traces.session_index  # sessions to come
    ab_mask = (after > 0).astype(np.float64)
    absence = np.where(after > 0, np.r_[traces.delta_session[1:], 0.0], 0.0)  # the next gap

    inactive_for = np.maximum(
        0.0, observation_end - (traces.start_utc[last] + traces.session_time[last]))
    thresholds = np.broadcast_to(np.asarray(thresholds, dtype=np.float64), last.shape)
    churn = [churn_probability(*state) for state in zip(
        traces.completed.tolist(), inactive_for.tolist(), thresholds.tolist())]
    return {
        "churn": np.repeat(np.asarray(churn, dtype=np.float64), traces.lengths),
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

    def codes(self, values: np.ndarray) -> np.ndarray:
        """Each value's code, as int64: its sorted position from 1, or 0 out of vocabulary."""
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


def carve_validation(traces: FeatureTable, fraction: float,
                     seed: int) -> tuple[FeatureTable, FeatureTable]:
    """Split traces by user into (fit, validation), about `fraction` of the users validating."""
    users = traces.user_id.tolist()
    fit_users, _ = split_users(users, 1.0 - fraction, seed)
    fit = np.array([user in fit_users for user in users], dtype=bool)
    return traces.take(np.flatnonzero(fit)), traces.take(np.flatnonzero(~fit))


@dataclass(frozen=True)
class FeaturizedTrace(TraceView):
    """One trace of a FeatureTable, viewed in place (see TraceView)."""


@dataclass(frozen=True, eq=False)
class FeatureTable(RaggedTable):
    """Featurized traces held as columns (see RaggedTable): scaled inputs, encoded
    context and (scaled) targets per session; user_id, game_id and game_idx per trace."""

    ROW_COLUMNS = ("behaviour", "env_idx", *TARGETS.values(), "ab_mask")
    TRACE_COLUMNS = ("user_id", "game_id", "game_idx")
    VIEW = FeaturizedTrace

    behaviour: np.ndarray  # (n, 5) scaled floats
    env_idx: np.ndarray  # (n, 4) int64: hour, weekday, yearday, region
    churn: np.ndarray  # (n,) constant within each trace
    survival_time: np.ndarray  # (n,) scaled
    survival_sessions: np.ndarray  # (n,) scaled
    absence: np.ndarray  # (n,) scaled, 0 at each trace's final session
    ab_mask: np.ndarray  # (n,) 1.0 where absence is observed
    user_id: np.ndarray
    game_id: np.ndarray
    game_idx: np.ndarray  # int64
    offsets: np.ndarray


def target_medians(traces: FeatureTable, scaler: ScalerStats) -> np.ndarray:
    """Median of each target over each trace's steps, in unscaled units.

    Row i holds trace i's medians, in TARGETS order.  Absence is taken over its
    observed steps only, and is nan for a trace with none.  Each median is the
    middle value, or the two middle values added and halved, as np.median does.
    """
    out = np.full((len(traces), len(TARGETS)), np.nan)
    step_owner = np.repeat(np.arange(len(traces)), traces.lengths)
    observed = traces.ab_mask > 0
    for j, (name, field) in enumerate(TARGETS.items()):
        values = getattr(traces, field)
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
        out[has, j] = medians
    return out


@dataclass
class DatasetSplit:
    """A featurized split's traces, train then test, plus the statistics that built them."""

    traces: FeatureTable  # the n_train training traces, then the test traces
    n_train: int
    vocabs: Vocabularies
    scaler: ScalerStats
    split_seed: int
    ratio: float
    thresholds: dict[str, float]
    observation_end: float

    @property
    def train(self) -> FeatureTable:
        return self.traces[:self.n_train]

    @property
    def test(self) -> FeatureTable:
        return self.traces[self.n_train:]


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
    exists.  The training traces come first, then the test traces, each part
    in (user_id, game_id) order.
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
    # train first; stable within each part, as sorted() is
    raw = traces.take(np.lexsort((traces.game_id[traces.first_rows], users, ~in_train)))
    n_train = int(in_train.sum())
    fitted = slice(0, raw.offsets[n_train])  # the training rows

    vocabs = Vocabularies(hour=HOUR_VOCAB, weekday=WEEKDAY_VOCAB, yearday=YEARDAY_VOCAB,
                          region=build_vocab(np.unique(raw.region[fitted]).tolist()),
                          game=build_vocab(np.unique(raw.game_id[fitted]).tolist()))

    behaviour = np.stack([np.asarray(getattr(raw, name), dtype=np.float64)
                          for name in BEHAVIOUR_FIELDS], axis=1)
    games = raw.game_id[raw.first_rows]
    targets = compute_targets(raw, [thresholds[g] for g in games.tolist()], observation_end)
    columns = {name: behaviour[fitted, j] for j, name in enumerate(BEHAVIOUR_FIELDS)}
    for name, field in TARGETS.items():
        if name != "ch":  # churn stays unscaled; absence is fitted where it is observed
            values = targets[field][fitted]
            if name == "ab":
                values = values[targets["ab_mask"][fitted] > 0]
            columns[name] = values if values.size else np.zeros(1)
    scaler = fit_scaler(columns)

    # behaviour is scaled in place and each target replaced in its dict, so that
    # no unscaled array is kept beside the scaled one
    for j, name in enumerate(BEHAVIOUR_FIELDS):
        behaviour[:, j] = apply_scaler(scaler, name, behaviour[:, j])
    context = dict(zip(ENV_FIELDS, (*env_stamp(raw.start_utc), raw.region)))
    env_idx = np.stack([getattr(vocabs, field).codes(context[field]) for field in ENV_FIELDS],
                       axis=1)
    for name, field in TARGETS.items():
        if name != "ch":  # churn is a probability and stays unscaled
            targets[field] = apply_scaler(scaler, name, targets[field])
    targets["absence"] *= targets["ab_mask"]  # masked entries carry no information
    return DatasetSplit(
        traces=FeatureTable(behaviour=behaviour, env_idx=env_idx, **targets,
                            user_id=raw.user_id[raw.first_rows], game_id=games,
                            game_idx=vocabs.game.codes(games), offsets=raw.offsets),
        n_train=n_train,
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
    parts = {"train": split.train, "test": split.test}
    csvio.write_json(directory / "manifest.json", {
        "split_seed": split.split_seed,
        "ratio": split.ratio,
        "observation_end": split.observation_end,
        "thresholds": split.thresholds,
        "vocabularies": split.vocabs.to_dict(),
        "scaler": split.scaler.to_dict(),
        "rows": {name: int(traces.lengths.sum()) for name, traces in parts.items()},
    })
    for name, traces in parts.items():
        lengths = traces.lengths
        csvio.write_columns(directory / f"{name}.csv", _DATASET_COLUMNS, [
            np.repeat(traces.user_id, lengths),
            np.repeat(traces.game_id, lengths),
            traces.session_index,
            *traces.behaviour.T,
            *traces.env_idx.T,
            np.repeat(traces.game_idx, lengths),
            *(getattr(traces, field) for field in (*TARGETS.values(), "ab_mask")),
        ])


def load_dataset(directory: str | Path) -> DatasetSplit:
    """Load a split written by save_dataset: the traces of train.csv and then of
    test.csv, each part in (user_id, game_id) order."""
    directory = Path(directory)
    manifest = directory / "manifest.json"

    def statistics(value: dict) -> dict:  # the DatasetSplit fields and each CSV's row count
        return {
            "vocabs": Vocabularies.from_dict(value["vocabularies"]),
            "scaler": ScalerStats.from_dict(value["scaler"]),
            "split_seed": int(value["split_seed"]),
            "ratio": float(value["ratio"]),
            "thresholds": {k: float(v) for k, v in value["thresholds"].items()},
            "observation_end": float(value["observation_end"]),
            "rows": {name: int(value["rows"][name]) for name in ("train", "test")},
        }

    stats = csvio.read_json(manifest, FeatureError, statistics)
    parts = []
    for name, rows in stats.pop("rows").items():
        path = directory / f"{name}.csv"
        columns = csvio.read_columns(path, _DATASET_COLUMNS, FeatureError)
        if len(columns["user_id"]) != rows:
            raise FeatureError(f"{path}: {len(columns['user_id'])} rows, but {manifest} "
                               f"records {rows} (is the file cut short?)")
        parts.append(columns)
    part = np.repeat([0, 1], [len(columns["user_id"]) for columns in parts])

    def column(name: str) -> np.ndarray:
        return np.concatenate([columns[name] for columns in parts])

    order = np.lexsort((column("session_index"), column("game_id"), column("user_id"), part))

    def ordered(name: str) -> np.ndarray:
        return column(name)[order]

    users, games, part = ordered("user_id"), ordered("game_id"), part[order]
    same = (users[1:] == users[:-1]) & (games[1:] == games[:-1]) & (part[1:] == part[:-1])
    first = np.flatnonzero(np.r_[True, ~same])[:len(order)]  # each trace's first row
    return DatasetSplit(
        traces=FeatureTable(
            behaviour=np.stack([ordered(name) for name in BEHAVIOUR_FIELDS], axis=1),
            env_idx=np.stack([ordered(f"{name}_idx") for name in ENV_FIELDS], axis=1),
            **{field: ordered(name) for name, field in TARGETS.items()},
            ab_mask=ordered("ab_mask"), user_id=users[first], game_id=games[first],
            game_idx=ordered("game_idx")[first], offsets=np.append(first, len(order))),
        n_train=int(np.count_nonzero(part[first] == 0)),
        **stats,
    )
