"""Per-client RNG streams are created on first use.

``Simulation`` hands every :class:`~repro.fl.client.FLClient` and
:class:`~repro.datasets.streams.ClientDataStream` a
:class:`~repro.rng.StreamRef` instead of a generator, so building a
population creates no ``fl.client.<k>`` / ``data.client.<k>`` stream and an
epoch creates only the streams of the clients it touches.  A stream's seed
depends on its key alone, so every engine's output must be byte-equal to a
run whose streams were all forced up front, and snapshots must carry only
the streams that exist.
"""

import dataclasses
import json

import numpy as np
import pytest

import repro.checkpoint
from repro.checkpoint import resume_experiment
from repro.config import CheckpointConfig, LiveConfig, ShardConfig, SimConfig
from repro.datasets import build_client_streams, synthetic_fmnist
from repro.datasets.streams import ClientDataStream
from repro.experiments.runner import Simulation, run_experiment
from repro.experiments.scenarios import experiment_config, make_policy
from repro.fl.client import FLClient
from repro.live.worker import _Worker
from repro.nn import build_model
from repro.rng import RngFactory, StreamRef

PER_CLIENT = ("fl.client.", "data.client.")


def client_keys(states):
    return {key for key in states if key.startswith(PER_CLIENT)}


def population_config(num_clients, num_shards, eval_sample, epochs, **extra):
    cfg = experiment_config(
        num_clients=num_clients,
        min_participants=10,
        budget=1000.0 * epochs,
        max_epochs=epochs,
        seed=0,
        **extra,
    )
    cfg = cfg.replace(
        shard=ShardConfig(
            num_shards=num_shards, assignment="contiguous", eval_sample=eval_sample
        )
    )
    return cfg.replace(training=dataclasses.replace(cfg.training, engine="loop"))


def fedl(cfg):
    return make_policy("FedL", cfg, RngFactory(cfg.seed).get("cli.policy"))


@pytest.fixture
def touched(monkeypatch):
    """Record, in order, the per-client stream keys the run uses: every
    data draw and every loop-engine local solve."""
    log = []
    draw = ClientDataStream.draw
    solve = FLClient.train_iteration

    def spy_draw(self, num_samples):
        log.append(self._rng_ref.key)
        return draw(self, num_samples)

    def spy_solve(self, *args, **kwargs):
        log.append(f"fl.client.{self.client_id}")
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(ClientDataStream, "draw", spy_draw)
    monkeypatch.setattr(FLClient, "train_iteration", spy_solve)
    return log


def tiny_model():
    return build_model("logreg", 4, 3, np.random.default_rng(0))


def force_all_streams(sim):
    for client in sim.clients:
        client.rng
    for stream in sim.streams:
        stream.rng
    return sim


class TestStreamHolders:
    def test_plain_generator_is_kept(self):
        gen = np.random.default_rng(3)
        model = tiny_model()
        client = FLClient(0, model, gen)
        assert client.rng is gen and client.rng_created
        data = synthetic_fmnist(np.random.default_rng(0), downscale=4)
        stream = ClientDataStream(data, np.ones(10), gen)
        assert stream.rng is gen

    def test_ref_resolves_to_the_factory_object_after_load_state(self):
        factory = RngFactory(7)
        saved = RngFactory(7)
        saved.get("fl.client.4").random(5)
        model = tiny_model()
        client = FLClient(4, model, StreamRef(factory, "fl.client.4"))
        assert not client.rng_created
        assert "fl.client.4" not in factory.state_dict()
        factory.load_state(saved.state_dict())
        assert client.rng is factory.get("fl.client.4")
        assert client.rng_created
        assert client.rng.random() == saved.get("fl.client.4").random()

    def test_build_client_streams_matches_per_stream_normalization(self):
        gen = synthetic_fmnist(np.random.default_rng(0), downscale=4)
        dists = np.random.default_rng(1).dirichlet(np.full(10, 0.3), size=40) * 3.0
        factory = RngFactory(0)
        streams = build_client_streams(gen, np.asfortranarray(dists), factory)
        for k, stream in enumerate(streams):
            one = ClientDataStream(gen, dists[k], factory.get(f"data.client.{k}"))
            assert stream.class_probs.tobytes() == one.class_probs.tobytes()
            assert stream.rng is one.rng

    @pytest.mark.parametrize("row", [[-1.0] + [1.0] * 9, [0.0] * 10])
    def test_build_client_streams_rejects_bad_rows(self, row):
        gen = synthetic_fmnist(np.random.default_rng(0), downscale=4)
        dists = np.ones((3, 10))
        dists[1] = row
        with pytest.raises(ValueError, match="nonnegative distribution"):
            build_client_streams(gen, dists, RngFactory(0))


class TestPopulationSetup:
    def test_setup_creates_no_per_client_stream(self):
        sim = Simulation(population_config(5000, 10, 500, epochs=2))
        assert not client_keys(sim.rng.state_dict())
        assert not any(c.rng_created for c in sim.clients)

    def test_setup_get_calls_do_not_grow_with_k(self, monkeypatch):
        calls = []
        get = RngFactory.get

        def counting_get(self, key):
            calls.append(key)
            return get(self, key)

        monkeypatch.setattr(RngFactory, "get", counting_get)
        counts = []
        for k in (100, 5000):
            calls.clear()
            Simulation(population_config(k, 10, 50, epochs=2))
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_epochs_create_exactly_the_touched_streams(self, touched):
        cfg = population_config(5000, 10, 500, epochs=2)
        sim = Simulation(cfg)
        run_experiment(fedl(cfg), cfg, simulation=sim)
        assert touched, "the run drew no data"
        assert client_keys(sim.rng.state_dict()) == set(touched)
        assert len(set(touched)) < 5000


ENGINE_CASES = {
    "loop": dict(engine="loop"),
    "batched": dict(engine="batched"),
    "des": dict(engine="des", sim=SimConfig(aggregation="sync", faults="none")),
    "sharded-eval-sample": dict(engine="loop", num_shards=4, eval_sample=30),
    "live": dict(
        engine="live",
        live=LiveConfig(workers=2, time_scale=0.01, round_timeout_s=30.0),
    ),
}


def engine_config(case):
    params = dict(ENGINE_CASES[case])
    cfg = experiment_config(
        budget=200.0, seed=0, num_clients=60, min_participants=6, max_epochs=4
    )
    cfg = cfg.replace(
        training=dataclasses.replace(cfg.training, engine=params.pop("engine"))
    )
    if "num_shards" in params:
        cfg = cfg.replace(
            shard=ShardConfig(
                num_shards=params.pop("num_shards"),
                eval_sample=params.pop("eval_sample"),
            )
        )
    return cfg.replace(**params)


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_lazy_streams_match_forced_streams(case):
    cfg = engine_config(case)
    lazy = run_experiment(fedl(cfg), cfg)
    forced_sim = force_all_streams(Simulation(cfg))
    forced = run_experiment(fedl(cfg), cfg, simulation=forced_sim)
    assert lazy.final_w.tobytes() == forced.final_w.tobytes()
    assert [r.num_selected for r in lazy.trace.records] == [
        r.num_selected for r in forced.trace.records
    ]


class TestSnapshots:
    def test_sharded_resume_at_random_epoch(self, tmp_path, monkeypatch, touched):
        """K=2000, 8 shards, sampled eval panel, a snapshot every epoch:
        each ``rng.json`` lists exactly the per-client streams used before
        it, and resuming from a randomly chosen one is byte-identical."""
        epochs = 6
        cfg = population_config(2000, 8, 200, epochs=epochs).replace(
            checkpoint=CheckpointConfig(
                directory=str(tmp_path / "ck"), interval=1, keep=100
            )
        )
        used_at = {}
        write = repro.checkpoint.write_snapshot

        def recording_write(directory, **kwargs):
            used_at[kwargs["next_epoch"]] = set(touched)
            return write(directory, **kwargs)

        monkeypatch.setattr(repro.checkpoint, "write_snapshot", recording_write)
        reference = run_experiment(fedl(cfg), cfg)
        assert sorted(used_at) == list(range(1, epochs + 1))

        for next_epoch, used in used_at.items():
            snap = tmp_path / "ck" / f"epoch_{next_epoch:08d}"
            states = json.loads((snap / "rng.json").read_text())
            assert client_keys(states) == used

        pick = int(np.random.default_rng(2000).integers(1, epochs))
        resumed = resume_experiment(
            tmp_path / "ck" / f"epoch_{pick:08d}",
            checkpoint_override=CheckpointConfig(directory=None),
        )
        assert resumed.final_w.tobytes() == reference.final_w.tobytes()
        assert resumed.trace.equals(reference.trace)

    def test_live_snapshot_carries_the_loop_engine_streams(self, tmp_path):
        """Workers report only the client streams they created; with no
        faults those are the loop engine's, state for state."""
        snapshots = {}
        for case in ("loop", "live"):
            cfg = engine_config(case).replace(
                checkpoint=CheckpointConfig(
                    directory=str(tmp_path / case), interval=2, keep=100
                )
            )
            run_experiment(fedl(cfg), cfg)
            snap = tmp_path / case / "epoch_00000002"
            states = json.loads((snap / "rng.json").read_text())
            snapshots[case] = {k: states[k] for k in client_keys(states)}
        assert snapshots["live"] == snapshots["loop"]
        assert len(snapshots["loop"]) < 2 * 60


class _Outbox:
    def __init__(self):
        self.frames = []

    def send(self, meta, arrays=None):
        self.frames.append(meta)


def test_worker_reports_only_created_streams():
    factory = RngFactory(5)
    model = tiny_model()
    clients = {
        cid: FLClient(cid, model, StreamRef(factory, f"fl.client.{cid}"))
        for cid in (1, 3, 5)
    }
    clients[3].rng.random(4)
    outbox = _Outbox()
    worker = _Worker(outbox, clients, chunk_bytes=1024, heartbeat_s=0)
    worker.handle_rng_state()
    (reply,) = outbox.frames
    assert set(reply["states"]) == {"3"}
    assert not clients[1].rng_created and not clients[5].rng_created

    # A restarted worker restores the reported stream; the others are
    # created from their keys on first use.
    fresh = {
        cid: FLClient(cid, model, StreamRef(RngFactory(5), f"fl.client.{cid}"))
        for cid in (1, 3, 5)
    }
    restarted = _Worker(_Outbox(), fresh, chunk_bytes=1024, heartbeat_s=0)
    restarted.handle_set_rng(reply)
    assert fresh[3].rng.random() == clients[3].rng.random()
    assert fresh[1].rng.random() == clients[1].rng.random()
