"""The benchmark's workloads: their inputs, their set-up and their timed CLI commands.

Every workload starts from the bundled ``configs/benchmark.json`` and
changes only what the comment beside each change explains.  The benchmark
seed becomes the config seed, which drives the simulator, the split and the
model initialisation; set-up commands also get it as ``--seed``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable

Command = tuple[str, ...]

SIMULATE: Command = ("simulate",)
FEATURIZE: Command = ("featurize",)
TRAIN_ENET: Command = ("train", "--model", "td_enet")
TRAIN_MLP: Command = ("train", "--model", "td_mlp")
TRAIN_MELCHIOR: Command = ("train", "--model", "melchior")
TUNE: Command = ("tune",)
EVALUATE: Command = ("evaluate",)
EMBED: Command = ("embed",)

#: Every command a workload times, in pipeline order; each has a cli.* metric.
#: No workload runs cluster, nor report, which needs cluster's profiles: the
#: partition that cluster writes fails the benchmark's inertia check on some
#: seeds only (1.26 to 1.29 x the elbow inertia on 3 of seeds 10-19 of
#: cli-pipeline, 2.96 and 3.25 x on 2 of seeds 0-6 of wide-population).
ALL_COMMANDS = (SIMULATE, FEATURIZE, TRAIN_ENET, TRAIN_MLP, TRAIN_MELCHIOR, TUNE,
                EVALUATE, EMBED)

#: Commands whose time counts as gradient-training time for train_steps_per_s.
GRADIENT_COMMANDS = (TRAIN_MLP, TRAIN_MELCHIOR, TUNE)


def label(command: Command) -> str:
    """'train --model td_enet' -> 'train_td_enet'."""
    return "_".join(part for part in command if not part.startswith("--"))


def _no_early_stop(config: dict, *kinds: str) -> None:
    # Early stopping ends training after a seed-dependent number of epochs (38 to 57
    # of 60 for melchior on seeds 0-2), which would make run_s measure the seed
    # rather than the code.  Patience equal to the epoch budget runs every epoch.
    for kind in kinds:
        section = config["models"][kind]
        section["patience"] = section["epochs"]


def pipeline_config(base: dict, seed: int) -> dict:
    config = copy.deepcopy(base)
    config["seed"] = seed
    _no_early_stop(config, "td_mlp", "melchior")
    return config


def hyperband_config(base: dict, seed: int) -> dict:
    config = copy.deepcopy(base)
    # The seed makes the featurized dataset during set-up.  The search itself keeps
    # seed 0, so every run samples the same 17 architectures: with the sampler
    # seeded too, run_s spread 23.5 to 28.1 s over seeds 0-2, as sampled widths
    # and depths differ in cost.
    config["seed"] = 0
    # R=27 takes over two minutes; R=9 keeps all three bracket shapes (s = 2, 1, 0).
    config["tune"]["R"] = 9
    return config


def wide_config(base: dict, seed: int) -> dict:
    config = copy.deepcopy(base)
    config["seed"] = seed
    config["simulate"]["players_per_game"] = 800
    config["simulate"]["horizon_days"] = 2
    for game in config["simulate"]["games"]:
        if game["completion_sessions"] is not None:
            # Reachable within two days, so completed traces (and the churn-label
            # fault they expose) occur here as they do in the 8-day pipeline.
            game["completion_sessions"] = 10
    config["models"]["melchior"]["epochs"] = 6
    _no_early_stop(config, "melchior")
    config["analysis"]["scope"] = "all"  # embed every user, train and test
    return config


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_config: Callable[[dict, int], dict]  # (bundled benchmark config, seed)
    setup: tuple[Command, ...]  # run once per set-up, after the config is written
    commands: tuple[Command, ...]  # the timed sequence of one round


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cli-pipeline",
            why="the paper's model comparison and salience-embedding projection as a "
                "user runs it; td_enet and melchior training dominate",
            make_config=pipeline_config,
            setup=(),
            commands=(SIMULATE, FEATURIZE, TRAIN_ENET, TRAIN_MLP, TRAIN_MELCHIOR,
                      EVALUATE, EMBED),
        ),
        Workload(
            name="hyperband-tune",
            why="many short melchior trainings over varied widths and depths; GRU, "
                "batching and per-trial overhead dominate",
            make_config=hyperband_config,
            setup=(SIMULATE, FEATURIZE),
            commands=(TUNE,),
        ),
        Workload(
            name="wide-population",
            why="thousands of short traces: per-session Python loops, CSV I/O and "
                "embedding over 4800 users; the GRU sees many short batches",
            make_config=wide_config,
            setup=(),
            commands=(SIMULATE, FEATURIZE, TRAIN_MELCHIOR, EVALUATE, EMBED),
        ),
    )
}
