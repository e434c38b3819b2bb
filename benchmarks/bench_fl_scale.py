"""FL scale bench: buffered aggregation speedup and rounds/sec vs fleet size.

Two measurements back the federation engine's scalability claims:

1. The engine packs every arriving update into a contiguous
   :class:`~repro.fl.RoundBuffer`, so end-of-round aggregation over 100
   clients is one vectorized reduction.  Against the seed's pure-Python
   per-key loop (``average_gradients``-style accumulation over dicts) the
   reduction must be at least 5x faster.  The parameter census mirrors a
   small ResNet: dozens of small-to-medium tensors, which is exactly where
   per-key Python overhead dominates.
2. End-to-end federation throughput (rounds/sec) is recorded at 8/32/100
   clients so regressions in the round loop show up as a number, not a
   feeling.
3. The event-driven engine over a lazy 100k-user fleet: rounds/sec with
   1k and 10k active clients per round under a time cutoff is gated (>= 15
   and >= 2 rounds/s) and the materialized-client count is gated to
   stay O(dispatched), never O(registered).
4. The same 1k-active round with real MLP clients training locally: a
   ``FederatedSimulation`` (every client trains on one scratch model) is
   gated at >= 1.5x over an owned-model fleet (every client builds its
   own), measured in the same process with equal global-model digests.

Results are recorded as a report and emitted to ``BENCH_fl_scale.json``
next to this file.  Each entry carries a ``"failed_gates"`` list: a run
that misses a gate still records what it measured, and then fails.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_fl_scale.py --benchmark-only
"""

from __future__ import annotations

import gc
import hashlib
import time
from pathlib import Path

import numpy as np

from common import below, bench_rng, best_of, record_report, write_bench_json
from repro.data import make_synthetic_dataset
from repro.fl import (
    Client,
    FederatedSimulation,
    FederationConfig,
    Fleet,
    GradientUpdate,
    RoundBuffer,
    Server,
    TimeCutoff,
    make_aggregator,
)
from repro.fl.engine import ticks
from repro.nn import MLP, CrossEntropyLoss
from repro.nn.module import Module
from repro.utils.rng import seed_sequence_for

JSON_PATH = Path(__file__).parent / "BENCH_fl_scale.json"

# A ResNet-ish parameter census: 20 conv blocks (kernel + two norm vectors)
# plus a classifier head — 62 tensors, ~17k parameters.
PARAM_SHAPES: dict[str, tuple[int, ...]] = {}
for _i in range(20):
    PARAM_SHAPES[f"block{_i}.conv.weight"] = (8, 8, 3, 3)
    PARAM_SHAPES[f"block{_i}.norm.gamma"] = (8,)
    PARAM_SHAPES[f"block{_i}.norm.beta"] = (8,)
PARAM_SHAPES["fc.weight"] = (10, 512)
PARAM_SHAPES["fc.bias"] = (10,)

NUM_CLIENTS = 100
_RESULTS: dict = {}


def _make_updates(num_clients: int, seed: int = 0) -> list[dict[str, np.ndarray]]:
    rng = bench_rng(seed)
    return [
        {name: rng.standard_normal(shape) for name, shape in PARAM_SHAPES.items()}
        for _ in range(num_clients)
    ]


def _python_loop_mean(updates: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """The seed's aggregation: a pure-Python per-key accumulation loop."""
    weight = 1.0 / len(updates)
    aggregated = {name: np.zeros_like(value) for name, value in updates[0].items()}
    for update in updates:
        for name, value in update.items():
            aggregated[name] += weight * value
    return aggregated


def _finish(key: str, entry: dict, failed_gates: list[str]) -> None:
    """Record ``entry`` with its failed gates, write the JSON, then assert.

    Writing first means a failing run still leaves what it measured.
    """
    entry["failed_gates"] = failed_gates
    _RESULTS[key] = entry
    write_bench_json(JSON_PATH, _RESULTS)
    assert not failed_gates, "; ".join(failed_gates)


def test_buffered_aggregation_speedup(benchmark):
    updates = _make_updates(NUM_CLIENTS)
    aggregator = make_aggregator("fedavg")
    buffer = RoundBuffer.for_updates(updates)  # ingest-time packing

    vectorized = benchmark.pedantic(
        lambda: aggregator.aggregate(buffer), rounds=9, iterations=1
    )
    baseline = _python_loop_mean(updates)
    for name in baseline:
        np.testing.assert_allclose(vectorized[name], baseline[name], atol=1e-12)

    loop_s = best_of(lambda: _python_loop_mean(updates), 9)
    reduce_s = best_of(lambda: aggregator.aggregate(buffer), 9)
    ingest_s = best_of(lambda: RoundBuffer.for_updates(updates), 9)
    speedup = loop_s / reduce_s

    robust = {
        name: best_of(lambda agg=make_aggregator(name): agg.aggregate(buffer), 9)
        for name in ("median", "trimmed_mean")
    }
    # masked_sum is an exact fixed-point sum, O(K * dim); the row keeps the
    # 16-client fleet it has always been timed at.
    masked_buffer = RoundBuffer.for_updates(updates[:16])
    robust["masked_sum@16"] = best_of(
        lambda: make_aggregator("masked_sum").aggregate(masked_buffer), 9
    )

    entry = {
        "num_clients": NUM_CLIENTS,
        "num_tensors": len(PARAM_SHAPES),
        "dim": buffer.dim,
        "python_loop_s": loop_s,
        "buffered_fedavg_s": reduce_s,
        "ingest_packing_s": ingest_s,
        "speedup": speedup,
        "robust_rules_s": robust,
    }
    record_report(
        "FL scale — buffered aggregation vs per-key Python loop (100 clients)",
        f"python loop     {1e3 * loop_s:8.3f} ms\n"
        f"buffered fedavg {1e3 * reduce_s:8.3f} ms   ({speedup:.1f}x, gate >= 5x)\n"
        f"ingest packing  {1e3 * ingest_s:8.3f} ms   (amortized over arrivals)\n"
        + "\n".join(
            f"{name:<16}{1e3 * seconds:8.3f} ms" for name, seconds in robust.items()
        ),
    )
    _finish("aggregation", entry, below("buffered fedavg over the loop", speedup, 5.0))


def _rounds_per_sec(num_clients: int, dataset, rounds: int = 3) -> float:
    config = FederationConfig(
        num_clients=num_clients,
        clients_per_round=num_clients,
        batch_size=2,
        dropout_rate=0.1,
        seed=0,
    )
    sim = FederatedSimulation(
        dataset,
        lambda: MLP([dataset.flat_dim, 16, dataset.num_classes],
                    rng=bench_rng(0)),
        config,
    )
    start = time.perf_counter()
    records = sim.run(rounds)
    elapsed = time.perf_counter() - start
    assert len(records) == rounds
    return rounds / elapsed


def test_federation_rounds_per_sec(benchmark):
    dataset = make_synthetic_dataset(4, 50, image_size=8, seed=31, name="scale")
    scaling = benchmark.pedantic(
        lambda: {n: _rounds_per_sec(n, dataset) for n in (8, 32, 100)},
        rounds=1,
        iterations=1,
    )
    assert all(rate > 0.0 for rate in scaling.values())
    # Throughput should degrade sublinearly vs the 12.5x fleet growth.
    failed_gates = below(
        "100-client over 8-client rounds/s, times 50",
        50.0 * scaling[100] / scaling[8],
        1.0,
    )
    record_report(
        "FL scale — federation throughput vs fleet size (dropout 10%)",
        "\n".join(
            f"{n:>4} clients: {rate:7.2f} rounds/s"
            for n, rate in scaling.items()
        ),
    )
    _finish(
        "federation_rounds_per_sec",
        {str(n): rate for n, rate in scaling.items()},
        failed_gates,
    )


FLEET_SIZE = 100_000
FLEET_DIM = 1024
# Planning a round is one vectorized keyed draw and one sort.  Same-host
# A/B on a 2-core x86_64 host against the planner it replaced (two keyed
# SeedSequences per client plus an event heap): 54-82 vs 7-8 rounds/s at
# 1k active, 4.8-7.1 vs 0.6-0.7 at 10k.  The floors sit well under the new
# rates for CI jitter, and above anything per-client planning can reach.
FLEET_GATES = {1000: 15.0, 10_000: 2.0}


class _FleetStubClient:
    """Constant-gradient client: isolates engine + fleet overhead."""

    def __init__(self, client_id: int) -> None:
        self.client_id = client_id
        self._gradients = {"w": np.full(FLEET_DIM, float(client_id % 97))}

    def local_update(self, broadcast) -> GradientUpdate:
        return GradientUpdate(
            client_id=self.client_id,
            round_index=broadcast.round_index,
            num_examples=1,
            gradients=dict(self._gradients),
            loss=1.0,
        )


def _lazy_fleet_rounds_per_sec(active: int, rounds: int = 3) -> dict:
    fleet = Fleet(FLEET_SIZE, _FleetStubClient)
    server = Server(
        Module(),
        fleet,
        clients_per_round=active,
        arrivals="tiered",
        cutoff=TimeCutoff(ticks(2.0), min_arrivals=active // 10),
        seed=0,
    )
    server.run(1)  # warmup round: first materialization of the cohort
    start = time.perf_counter()
    records = server.run(rounds)
    elapsed = time.perf_counter() - start
    assert all(len(r.participant_ids) >= active // 10 for r in records)
    return {
        "active_per_round": active,
        "registered": FLEET_SIZE,
        "rounds_per_sec": rounds / elapsed,
        "materialized": fleet.materialized_count,
    }


def test_lazy_fleet_engine_throughput(benchmark):
    results = benchmark.pedantic(
        lambda: {n: _lazy_fleet_rounds_per_sec(n) for n in FLEET_GATES},
        rounds=1,
        iterations=1,
    )
    failed_gates = []
    for active, floor in FLEET_GATES.items():
        failed_gates += below(
            f"{active} active: rounds/s over its {floor} floor",
            results[active]["rounds_per_sec"] / floor,
            1.0,
        )
        # Laziness gate: 4 rounds dispatch at most 4 * active distinct
        # clients; the other ~100k registered users must never be built.
        failed_gates += below(
            f"{active} active: 4 * active over the materialized clients",
            4 * active / results[active]["materialized"],
            1.0,
        )
    record_report(
        f"FL scale — event engine over a lazy {FLEET_SIZE:,}-user fleet "
        "(tiered arrivals, 2s cutoff)",
        "\n".join(
            f"{active:>6} active: {result['rounds_per_sec']:7.2f} rounds/s "
            f"(gate >= {FLEET_GATES[active]}), "
            f"{result['materialized']:,} of {FLEET_SIZE:,} materialized"
            for active, result in results.items()
        ),
    )
    _finish(
        "lazy_fleet_engine",
        {str(active): result for active, result in results.items()},
        failed_gates,
    )


TRAINED_ACTIVE = 1000
TRAINED_SIZES = (192, 64, 10)  # flattened 3x8x8 images, 10 classes
TRAINED_REPS = 5
# Before every client shared one scratch model, each materialized client
# built and Kaiming-initialized its own model and pinned it in the fleet
# cache.  Clients now bind the broadcast read-only instead of copying it,
# which also spares the owned arm a private copy of every parameter per
# cached client, so the baseline got cheaper and the ratio fell.  Second
# round, best-of-5, 2-core x86_64 host, six alternating pairs:
# 0.69-0.93 s owned vs 0.39-0.54 s shared (1.60-1.83x) before that
# change, 1.41-1.70x after it (three runs below the gate); three full
# runs after it read 1.54-1.68x.  The keyed shard draw is ~25% of the
# shared round.
TRAINED_GATE = 1.5


def _trained_model() -> MLP:
    return MLP(list(TRAINED_SIZES), rng=bench_rng(0))


def _trained_config() -> FederationConfig:
    return FederationConfig(
        batch_size=8,
        learning_rate=0.1,
        seed=0,
        fleet_size=FLEET_SIZE,
        clients_per_round=TRAINED_ACTIVE,
        arrivals="tiered",
        round_duration_s=2.0,
        min_arrivals=TRAINED_ACTIVE // 10,
    )


def _owned_model_server(dataset, config: FederationConfig) -> Server:
    """The baseline arm: every materialized client builds its own model.

    Shards follow the same keyed per-id draw as the simulation's fleet,
    and the server matches the simulation's, so both arms must end the
    round on the same global model.
    """
    loss_fn = CrossEntropyLoss()

    def factory(client_id: int) -> Client:
        shard_rng = np.random.default_rng(
            seed_sequence_for(config.seed, "fleet-shard", str(client_id))
        )
        indices = np.sort(
            shard_rng.choice(len(dataset), size=config.batch_size, replace=False)
        )
        return Client(
            client_id,
            dataset.subset(indices),
            _trained_model(),
            loss_fn,
            config.batch_size,
            seed=config.seed,
        )

    return Server(
        _trained_model(),
        Fleet(config.fleet_size, factory),
        learning_rate=config.learning_rate,
        clients_per_round=config.clients_per_round,
        seed=config.seed,
        arrivals=config.arrivals,
        cutoff=config.make_cutoff(),
    )


def _timed_round(server: Server) -> tuple[float, str, int]:
    """Seconds for one round, the global model's sha256, participants."""
    start = time.perf_counter()
    record = server.run_round()
    elapsed = time.perf_counter() - start
    digest = hashlib.sha256()
    for name, value in sorted(server.model.state_dict().items()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    return elapsed, digest.hexdigest(), len(record.participant_ids)


def _trained_round_arms(dataset) -> dict:
    """Interleaved best-of-``TRAINED_REPS`` of each arm's second round.

    Every repetition builds each arm afresh and runs one untimed round
    first (the first cohort materializes, as in a running federation),
    so the timed round also pays for whatever the first cohort pins.
    """
    config = _trained_config()
    arms = {
        "shared_scratch": lambda: FederatedSimulation(
            dataset, _trained_model, config
        ).server,
        "owned_models": lambda: _owned_model_server(dataset, config),
    }
    best = {name: float("inf") for name in arms}
    digests = {name: set() for name in arms}
    participants = set()
    order = list(arms)
    for _ in range(TRAINED_REPS):
        order.reverse()  # alternate which arm runs first, against drift
        for name in order:
            gc.collect()  # the previous arm's fleet is garbage by now
            server = arms[name]()
            server.run_round()
            elapsed, digest, count = _timed_round(server)
            del server
            best[name] = min(best[name], elapsed)
            digests[name].add(digest)
            participants.add(count)
    return {
        "active_per_round": TRAINED_ACTIVE,
        "registered": FLEET_SIZE,
        "model_sizes": list(TRAINED_SIZES),
        "participants": sorted(participants),
        "owned_models_s": best["owned_models"],
        "shared_scratch_s": best["shared_scratch"],
        "speedup": best["owned_models"] / best["shared_scratch"],
        "digests": {name: sorted(found) for name, found in digests.items()},
    }


def test_trained_fleet_round_shared_scratch(benchmark):
    dataset = make_synthetic_dataset(
        TRAINED_SIZES[-1], 40, image_size=8, seed=37, name="fleet-trained"
    )
    assert dataset.flat_dim == TRAINED_SIZES[0]
    result = benchmark.pedantic(
        lambda: _trained_round_arms(dataset), rounds=1, iterations=1
    )
    digests = result["digests"]
    assert len(digests["shared_scratch"]) == 1
    assert digests["shared_scratch"] == digests["owned_models"], (
        "the shared scratch model changed the trained global model"
    )
    record_report(
        f"FL scale — one {TRAINED_ACTIVE:,}-active round of real MLP clients "
        f"from a {FLEET_SIZE:,}-user fleet (tiered arrivals, 2s cutoff)",
        f"owned models    {result['owned_models_s']:7.3f} s\n"
        f"shared scratch  {result['shared_scratch_s']:7.3f} s   "
        f"({result['speedup']:.2f}x, gate >= {TRAINED_GATE}x)\n"
        f"global-model sha256 {digests['shared_scratch'][0][:16]}… "
        "equal across arms",
    )
    _finish(
        "trained_fleet_round",
        result,
        below("shared scratch over owned models", result["speedup"], TRAINED_GATE),
    )
