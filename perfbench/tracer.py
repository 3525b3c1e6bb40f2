"""Per-layer self times and counts, gathered by wrapping salience-lab's public functions.

Nothing inside ``src/`` changes: :func:`install` replaces each traced
function or method with a wrapper, from the outside, for the life of the
process.  A span's self time is its duration minus the time covered by the
spans it encloses, so ``sigmoid`` inside ``GruLayer.forward`` counts only
under ``neural.sigmoid_s`` and ``GruLayer.forward`` inside ``models.train``
counts only under ``neural.gru_forward_s``.  Spans are summed in memory per
metric name; nothing is written until the benchmark asks for the totals.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Optional


class Tracer:
    """Self time per span name and event counts, kept on an explicit stack."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._child_s: list[float] = []  # time covered by children of each open span

    def timed(self, name: str, fn: Callable, calls: Optional[str] = None,
              on_call: Optional[Callable] = None) -> Callable:
        """Wrap fn as a span named name.

        calls names a counter bumped once per call; on_call(counts, args,
        result) may add other counts after the call returns.
        """

        def wrapper(*args, **kwargs):
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[name] += elapsed - self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += elapsed
            if calls is not None:
                self.counts[calls] += 1
            if on_call is not None:
                on_call(self.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Count calls of fn without opening a span: its time stays with the caller."""

        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


def _sessions(counts, args, traces) -> None:
    counts["telemetry.sessions"] += sum(t.total_sessions for t in traces)


def _rows(counts, args, result) -> None:
    split = args[0]
    counts["features.rows"] += sum(t.length for t in split.train + split.test)


def _epochs(counts, args, history) -> None:
    counts["models.epochs"] += len(history)


def _trials(counts, args, result) -> None:
    trials = result.trials
    counts["tuning.trials"] += len(trials)
    counts["tuning.epochs_trained"] += sum(t.epochs for t in trials)
    # Bracket s runs rounds 0..s, so a trial in its bracket's final round has round == s.
    counts["tuning.final_round_epochs"] += sum(t.epochs for t in trials if t.round == t.bracket)


def _rebind(old: Callable, new: Callable) -> None:
    """Point every salience_lab module-level name that holds `old` at `new`.

    Modules that did ``from .neural import bce_loss`` hold their own name for
    the function, so replacing the attribute of the defining module alone
    would miss their calls.  The activation table of ``neural`` holds
    ``sigmoid`` by value and is patched the same way.
    """
    for mod_name, module in list(sys.modules.items()):
        if module is None or mod_name.split(".")[0] != "salience_lab":
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if isinstance(entry, tuple) and old in entry:
                        value[key] = tuple(new if e is old else e for e in entry)


def install(tracer: Tracer) -> None:
    """Wrap the traced salience-lab functions and methods (imports the package)."""
    from salience_lab import analysis, features, models, neural, telemetry, tuning

    spans = [
        (telemetry.simulate_population, "telemetry.simulate_population_s", None, _sessions),
        (telemetry.write_csv, "telemetry.write_csv_s", None, None),
        (telemetry.ingest_csv, "telemetry.ingest_csv_s", None, None),
        (features.build_dataset, "features.build_dataset_s", None, None),
        (features.save_dataset, "features.save_dataset_s", None, _rows),
        (features.load_dataset, "features.load_dataset_s", None, None),
        (neural.sigmoid, "neural.sigmoid_s", "neural.sigmoid_calls", None),
        (neural.bce_loss, "neural.loss_s", None, None),
        (neural.smape_loss, "neural.loss_s", None, None),
        (models.enet_solve, "models.enet_solve_s", None, None),
        (models.make_batches, "models.make_batches_s", None, None),
        (models.train, "models.train_s", None, _epochs),
        (models.evaluate, "models.evaluate_s", None, None),
        (models.extract_embedding, "models.extract_embedding_s", None, None),
        (tuning.hyperband_run, "tuning.hyperband_run_s", None, _trials),
        (analysis.pca_fit, "analysis.pca_fit_s", None, None),
    ]
    for fn, name, calls, on_call in spans:
        _rebind(fn, tracer.timed(name, fn, calls, on_call))

    # Counted only: its time belongs to enet_solve, which calls it once per iteration.
    _rebind(models.soft_threshold, tracer.counted("models.enet_iterations",
                                                  models.soft_threshold))

    methods = [
        (neural.GruLayer, "forward", "neural.gru_forward_s", "neural.gru_calls"),
        (neural.GruLayer, "backward", "neural.gru_backward_s", None),
        (neural.Dense, "forward", "neural.dense_forward_s", None),
        (neural.Dense, "backward", "neural.dense_backward_s", None),
        (neural.Embedding, "forward", "neural.embedding_forward_s", None),
        (neural.Embedding, "backward", "neural.embedding_backward_s", None),
        (neural.AdamState, "step", "neural.adam_step_s", None),
    ]
    for cls, attr, name, calls in methods:
        setattr(cls, attr, tracer.timed(name, getattr(cls, attr), calls))
