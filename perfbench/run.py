"""Benchmark of salience-lab: one workload per invocation, run from a checkout's root.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload is set up several times, each in a fresh process, and the median
set-up time is reported.  Then whole rounds of its CLI commands run, each
round in a fresh process, until S seconds have passed (at least one round).
Every round's outputs are checked.  With --trace 1 the run makes one untraced
round and one traced round instead and reports per-layer self times and
counts.  Every metric is printed with its unit; the last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
from workloads import ALL_COMMANDS, GRADIENT_COMMANDS, TUNE, WORKLOADS, Workload, label

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
PROCESS_TIMEOUT_S = 170
#: Validation carve-outs of models.train (default) and tuning.hyperband_run; the
#: steps of train_steps_per_s are the (user, session) rows of the fitted part only.
TRAIN_VAL_FRACTION = 0.15
TUNE_VAL_FRACTION = 0.2

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("train_steps_per_s", "steps/s"),
              ("peak_rss_mb", "MB"))
PER_LAYER = (
    [(f"cli.{label(c)}_s", "s") for c in ALL_COMMANDS]
    + [("telemetry.simulate_population_s", "s"), ("telemetry.write_csv_s", "s"),
       ("telemetry.ingest_csv_s", "s"), ("telemetry.sessions", "count"),
       ("features.build_dataset_s", "s"), ("features.save_dataset_s", "s"),
       ("features.load_dataset_s", "s"), ("features.rows", "count"),
       ("neural.gru_forward_s", "s"), ("neural.gru_backward_s", "s"),
       ("neural.gru_calls", "count"), ("neural.sigmoid_s", "s"),
       ("neural.sigmoid_calls", "count"), ("neural.dense_forward_s", "s"),
       ("neural.dense_backward_s", "s"), ("neural.embedding_forward_s", "s"),
       ("neural.embedding_backward_s", "s"), ("neural.loss_s", "s"),
       ("neural.adam_step_s", "s"),
       ("models.enet_solve_s", "s"), ("models.enet_iterations", "count"),
       ("models.make_batches_s", "s"), ("models.train_s", "s"), ("models.epochs", "count"),
       ("models.evaluate_s", "s"), ("models.extract_embedding_s", "s"),
       ("tuning.hyperband_run_s", "s"), ("tuning.trials", "count"),
       ("tuning.epochs_trained", "count"), ("tuning.final_round_epoch_share", "share"),
       ("analysis.pca_fit_s", "s"),
       ("trace.overhead_s", "s"), ("trace.overhead_share", "share")]
)


class BenchError(RuntimeError):
    """A worker process crashed or hung, so the run has no result."""


def spawn(root: Path, work: Path, spec: dict) -> tuple[float, dict]:
    """Run worker.py on spec in a fresh process; returns (wall seconds, its result)."""
    spec = dict(spec, result=str(work / "result.json"))
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    log_path = work / f"{spec['mode']}.log"
    with log_path.open("w", encoding="utf-8") as log:
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                                  cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{spec['mode']} of {spec['workload']} exceeded "
                             f"{PROCESS_TIMEOUT_S} s; log in {log_path}") from exc
        elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        tail = log_path.read_text(encoding="utf-8")[-2000:]
        raise BenchError(f"{spec['mode']} of {spec['workload']} exited with "
                         f"{proc.returncode}:\n{tail}")
    return elapsed, json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def fit_rows(feats: dict, fraction: float, seed: int) -> int:
    """Train-split rows of the users the program keeps for fitting (not validation)."""
    from salience_lab.features import split_users

    users = feats["train"]["user_id"].tolist()
    fit_users, _ = split_users(users, 1.0 - fraction, seed)
    return sum(1 for u in users if u in fit_users)


def training_steps(out: Path, feats: dict, stages: list[dict],
                   seed: int) -> tuple[int, float]:
    """(user, session) steps through forward and backward, and the seconds they took."""
    steps, seconds = 0, 0.0
    for stage in stages:
        command = tuple(stage["command"])
        if command not in GRADIENT_COMMANDS or stage["code"] != 0:
            continue
        if command == TUNE:
            rows = fit_rows(feats, TUNE_VAL_FRACTION, seed)
            with (out / "tune" / "trials.csv").open(encoding="utf-8") as fh:
                epochs = sum(int(r["epochs"]) for r in csv.DictReader(fh))
        else:
            rows = fit_rows(feats, TRAIN_VAL_FRACTION, seed)
            history = out / "models" / f"{command[-1]}_history.csv"
            epochs = len(history.read_text(encoding="utf-8").splitlines()) - 1
        steps += epochs * rows
        seconds += stage["seconds"]
    return steps, seconds


def verify_setup(workload: Workload, out: Path, config: dict) -> list[str]:
    """Checks of what set-up made: telemetry and features, where set-up makes them."""
    problems = []
    if workload.setup:
        try:
            lengths = checks.check_telemetry(out / "telemetry.csv", config)
            checks.check_features(checks.load_features(out / "features"),
                                  sum(lengths.values()))
        except checks.CheckFailed as exc:
            problems.append(str(exc))
    return problems


def verify_round(out: Path, feats: dict, config: dict, stages: list[dict],
                 commands) -> tuple[int, list[str]]:
    """Check each command's outputs; returns (failed operations, check failures).

    A command that exits non-zero fails, and so does every later command of the
    round, which never ran.  featurize fails, with its checks passing, when a
    completed trace is not labelled churn 0: the CSV path drops completion.
    """
    ran = {tuple(s["command"]) for s in stages if s["code"] == 0}
    failed = len(commands) - len(ran)
    problems: list[str] = []
    lengths = {}

    def attempt(fn, *args):
        try:
            return fn(*args)
        except checks.CheckFailed as exc:
            problems.append(str(exc))
            return None

    if ("simulate",) in ran:
        lengths = attempt(checks.check_telemetry, out / "telemetry.csv", config) or {}
    if ("featurize",) in ran:
        attempt(checks.check_features, feats, sum(lengths.values()))
        completed = checks.completed_traces(lengths, config)
        if checks.mislabelled_completions(feats, completed):
            failed += 1
    if ("train", "--model", "td_enet") in ran:
        section = config["models"]["td_enet"]
        attempt(checks.check_enet_kkt, feats, out / "models" / "td_enet.json",
                float(section["lam"]), float(section["l1_ratio"]))
    if ("evaluate",) in ran:
        kinds = [c[-1] for c in GRADIENT_COMMANDS if c in ran and c[0] == "train"]
        attempt(checks.check_beats_constant, feats, out / "eval" / "losses.csv", kinds)
        attempt(checks.check_cells, out / "eval")
    if ("embed",) in ran:
        attempt(checks.check_pca, out / "embed")
    if ("cluster",) in ran:
        attempt(checks.check_clusters, out / "embed", out / "cluster")
    if ("tune",) in ran:
        attempt(checks.check_hyperband, out / "tune", int(config["tune"]["R"]),
                int(config["tune"]["eta"]))
    return failed, problems


def run_round(root: Path, work: Path, workload: Workload, config: dict, trace: bool) -> dict:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    shutil.copytree(work / "inputs", out)
    _, result = spawn(root, work, {"mode": "run", "workload": workload.name,
                                   "out": str(out), "trace": trace})
    feats = checks.load_features(out / "features") if (out / "features").is_dir() else None
    result["failed"], result["problems"] = verify_round(out, feats, config, result["stages"],
                                                        workload.commands)
    result["steps"], result["train_s"] = training_steps(out, feats, result["stages"],
                                                        int(config["seed"]))
    return result


def per_layer(setup: dict, plain: dict, traced: dict) -> dict[str, float]:
    values = {name: 0.0 for name, _ in PER_LAYER}
    for stage in plain["stages"]:
        values[f"cli.{label(tuple(stage['command']))}_s"] = stage["seconds"]
    for source in (setup, traced):
        for key in ("self_s", "counts"):
            for name, value in source[key].items():
                if name in values:
                    values[name] += value
    final = traced["counts"].get("tuning.final_round_epochs", 0.0)
    if values["tuning.epochs_trained"]:
        values["tuning.final_round_epoch_share"] = final / values["tuning.epochs_trained"]
    values["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
    values["trace.overhead_share"] = values["trace.overhead_s"] / plain["run_s"]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "salience_lab" / "__init__.py").is_file():
        print(f"error: no salience-lab source under {root / 'src'}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workload = WORKLOADS[args.workload]
    runs = root / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=runs))
    try:
        return bench(root, work, workload, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(root: Path, work: Path, workload: Workload, args) -> int:
    inputs = work / "inputs"
    setup_times, setup = [], {}
    for _ in range(1 if args.trace else SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        elapsed, setup = spawn(root, work, {"mode": "setup", "workload": workload.name,
                                            "seed": args.seed, "out": str(inputs),
                                            "trace": bool(args.trace)})
        setup_times.append(elapsed)
    config = json.loads((inputs / "config.json").read_text(encoding="utf-8"))
    problems = verify_setup(workload, inputs, config)

    rounds = []
    if args.trace:
        rounds = [run_round(root, work, workload, config, trace)
                  for trace in (False, True)]
    else:
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(run_round(root, work, workload, config, False))
    for r in rounds:
        problems.extend(r["problems"])

    if args.trace:
        values = per_layer(setup, rounds[0], rounds[1])
        units = dict(PER_LAYER)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "run_s": statistics.median(r["run_s"] for r in rounds),
            "train_steps_per_s": statistics.median(r["steps"] / r["train_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        units = dict(END_TO_END)
    attempted = len(workload.commands) * len(rounds)
    failed = sum(r["failed"] for r in rounds)

    print(f"workload {workload.name}  seed {args.seed}  rounds {len(rounds)}  "
          f"set-ups {len(setup_times)}  blas_threads {rounds[0]['blas_threads']}  "
          f"nproc {os.cpu_count()}  numpy {np.__version__}")
    for name, value in values.items():
        print(f"  {name:34s} {value:14.6f} {units[name]}")
    print(f"  operations attempted {attempted}, failed {failed}")
    for problem in dict.fromkeys(problems):
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
