"""The benchmark's named workloads.

Each workload is one FedL experiment configuration plus a fixed run
length in epochs.  The budget is set well above what the run length can
spend, so the run length, not the budget, ends every run and the work
per run stays fixed.  The configuration depends only on the seed.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.config import (
    AttackConfig,
    CheckpointConfig,
    DefenseConfig,
    ExperimentConfig,
    LiveConfig,
    ShardConfig,
    SimConfig,
)
from repro.experiments.scenarios import experiment_config, make_policy


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    epochs: int                         # fixed run length of one experiment
    rep_seconds: float                  # one epoch loop's wall time (2-core x86 VM)
    accuracy_floor: float               # final_test_accuracy must exceed this
    build: Callable[[int, int, Optional[str]], ExperimentConfig]
    # Engine of an untimed run whose final_w the run's first experiment
    # must equal byte for byte.
    reference_engine: Optional[str] = None

    def config(
        self, seed: int, epochs: Optional[int] = None, ckpt_dir: Optional[str] = None
    ) -> ExperimentConfig:
        return self.build(seed, self.epochs if epochs is None else epochs, ckpt_dir)


def make_fedl(config: ExperimentConfig):
    """The FedL policy exactly as ``repro bench``'s ``[fl]`` layer builds it."""
    return make_policy("FedL", config, np.random.default_rng(config.seed))


def _paper_k100(seed: int, epochs: int, ckpt_dir: Optional[str]) -> ExperimentConfig:
    # repro bench [fl]: fmnist IID, MLP, K=100, n=5, budget 9000, engine auto.
    return experiment_config(
        num_clients=100, budget=9000.0, max_epochs=epochs, seed=seed
    )


def _population_k5000(
    seed: int, epochs: int, ckpt_dir: Optional[str]
) -> ExperimentConfig:
    base = experiment_config(
        num_clients=5000,
        min_participants=10,
        budget=1000.0 * max(epochs, 1),
        max_epochs=epochs,
        seed=seed,
    )
    return base.replace(
        shard=ShardConfig(num_shards=10, assignment="contiguous", eval_sample=500)
    )


def _byzantine_des(seed: int, epochs: int, ckpt_dir: Optional[str]) -> ExperimentConfig:
    base = experiment_config(
        num_clients=60,
        min_participants=20,
        budget=400.0 * max(epochs, 1),
        max_epochs=epochs,
        seed=seed,
    )
    return base.replace(
        training=dataclasses.replace(base.training, engine="des"),
        sim=SimConfig(aggregation="sync", faults="none"),
        attack=AttackConfig(kind="sign-flip", fraction=0.2),
        defense=DefenseConfig(aggregator="median"),
        checkpoint=CheckpointConfig(directory=ckpt_dir, interval=10),
    )


def _live_fleet(seed: int, epochs: int, ckpt_dir: Optional[str]) -> ExperimentConfig:
    base = experiment_config(
        num_clients=24,
        min_participants=6,
        budget=200.0 * max(epochs, 1),
        max_epochs=epochs,
        seed=seed,
    )
    return base.replace(
        training=dataclasses.replace(base.training, engine="live"),
        # One worker per core, but no more workers than clients.
        live=LiveConfig(
            workers=min(base.population.num_clients, os.cpu_count() or 1),
            transport="unix",
            time_scale=0.01,
        ),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-k100",
            "paper-scale FedL run (fmnist IID, MLP, K=100, n=5, batched engine, "
            "repro bench [fl] config); local solve and data install dominate",
            epochs=30,
            rep_seconds=2.25,
            accuracy_floor=0.5,
            build=_paper_k100,
        ),
        Workload(
            "population-k5000",
            "scale axis (K=5000, n=10, 10 contiguous shards, 500-client eval "
            "panel); sharded selection and RDCS rounding dominate",
            epochs=5,
            rep_seconds=2.85,
            accuracy_floor=0.13,
            build=_population_k5000,
        ),
        Workload(
            "byzantine-des",
            "DES engine, 20% sign-flip attackers, median defense, snapshot "
            "every 10 epochs; loop-executor local solve and robust aggregation",
            epochs=10,
            rep_seconds=2.0,
            accuracy_floor=0.15,
            build=_byzantine_des,
        ),
        Workload(
            "live-fleet",
            "live engine: forked workers over unix sockets, time_scale 0.01; "
            "measures the repro.live runtime, final_w equal to the loop engine",
            epochs=20,
            rep_seconds=2.35,
            accuracy_floor=0.3,
            build=_live_fleet,
            reference_engine="loop",
        ),
    )
}
