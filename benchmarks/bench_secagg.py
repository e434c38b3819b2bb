"""SecAgg bench: dropout-recovery gate and protocol overhead vs a pairwise masked sum.

The acceptance criterion of the secure-aggregation subsystem, measured at
the paper's fleet scale: a 100-client round in which 30% of the fleet
drops *after* mask commitment must recover the survivors' exact quantized
sum bit-for-bit — under both the Bonawitz-style Shamir-recovery protocol
(``secagg``) and the LightSecAgg-style one-shot recovery protocol
(``secagg_oneshot``).  The gate is ``np.testing.assert_array_equal``
against the survivors' plaintext quantized sum: no tolerance, no float
comparison.

Alongside the gate, the bench records what the cryptographic choreography
costs relative to a plain pairwise masked sum (which cannot survive any
dropout at all): wall-clock per round with and without dropout, and the
overhead ratio.  The yardstick, :func:`pairwise_masked_mean`, quantizes
the survivors' updates, adds and subtracts one mask per pair of them,
each drawn from a ``SeedSequence`` child and a generator of its own, and
sums the masks back out.  Its result must equal the ``masked_sum`` rule's
bit for bit, so it is also the reference that pairwise masks cancel.  It
runs in the same process, so each ratio gate reads a speedup of the
protocol round over one generator per pair on any host:

- Bonawitz is gated at 3.6x, half the 7.2x recorded when every pairwise
  seed took a Python ``pow``, a hashed ``SeedSequence`` and a generator
  of its own.
- LightSecAgg is gated at 2.0x.  It read 3.6-6.8x while
  ``field.f_matmul`` summed field products one rank-1 pass at a time,
  and about 0.6x on the exact limb-split GEMM.

Results, with the host block of :func:`common.host_block`, merge into
``BENCH_secagg.json`` next to this file.  A run that fails an overhead
gate still records its numbers, with the failed gates under
``"failed_gates"``, and then fails.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_secagg.py --benchmark-only
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from common import bench_rng, best_of, record_report, write_bench_json
from repro.fl import make_aggregator

JSON_PATH = Path(__file__).parent / "BENCH_secagg.json"

NUM_CLIENTS = 100
DROPOUT_FRACTION = 0.30
DIM = 1024
PROTOCOLS = ("secagg", "secagg_oneshot")
# Round (30% dropout) over the pairwise masked-sum yardstick, per
# protocol; see above.
OVERHEAD_GATES = {"secagg": 3.6, "secagg_oneshot": 2.0}

_RESULTS: dict = {}


def pairwise_masked_mean(codec, matrix, seed):
    """The yardstick: a masked mean with one generator per client pair.

    Quantizes the ``(K, dim)`` rows with ``codec``; each pair ``i < j``
    draws a mask uniform over the 64-bit ring from its own
    ``SeedSequence(seed)`` child, ``i`` adds it and ``j``
    subtracts it, and the ring sum of the masked rows is dequantized
    and divided by ``K``.
    """
    masked = codec.quantize(matrix)
    count, dim = masked.shape
    ceiling = np.iinfo(np.uint64).max
    seeds = iter(np.random.SeedSequence(seed).spawn(count * (count - 1) // 2))
    for i in range(count):
        for j in range(i + 1, count):
            mask = bench_rng(next(seeds)).integers(
                ceiling, size=dim, dtype=np.uint64, endpoint=True
            )
            masked[i] += mask
            masked[j] -= mask
    total = masked.sum(axis=0, dtype=np.uint64)
    return codec.dequantize_sum(total) / count


def _fleet():
    """The bench fleet: updates, committed ids, and a 30% post-commit drop."""
    matrix = 0.1 * bench_rng(5).standard_normal((NUM_CLIENTS, DIM))
    committed = list(range(NUM_CLIENTS))
    num_dropped = int(NUM_CLIENTS * DROPOUT_FRACTION)
    dropped = set(bench_rng(7).permutation(NUM_CLIENTS)[:num_dropped].tolist())
    survivors = sorted(set(committed) - dropped)
    return matrix, committed, survivors



def test_secagg_dropout_recovery_and_overhead(benchmark):
    matrix, committed, survivors = _fleet()
    assert len(survivors) == NUM_CLIENTS - int(NUM_CLIENTS * DROPOUT_FRACTION)

    # The yardstick: one pairwise masked sum over the survivors.  It has
    # no recovery story — a single dropped-after-commit client would
    # leave its masks in the sum forever — which is exactly the overhead
    # comparison's point.  Its masks cancel to masked_sum's bits.
    masked_sum = make_aggregator("masked_sum")

    def plain():
        return pairwise_masked_mean(masked_sum.codec, matrix[survivors], seed=11)

    np.testing.assert_array_equal(plain(), masked_sum.reduce(matrix[survivors], None))
    plain_s = best_of(plain, 3)

    per_protocol: dict[str, dict] = {}
    for name in PROTOCOLS:
        aggregator = make_aggregator(name, seed=11)

        def full_round(agg=aggregator):
            return agg.reduce(
                matrix[survivors], None, 0, ids=survivors, committed_ids=committed
            )

        def no_dropout_round(agg=aggregator):
            return agg.reduce(
                matrix, None, 0, ids=committed, committed_ids=committed
            )

        # The bit-for-bit gate: 100 committed clients, 30 dropped after
        # mask commitment, survivors' exact quantized sum recovered.
        # (pytest-benchmark allows one pedantic call per test.)
        if name == PROTOCOLS[0]:
            recovered = benchmark.pedantic(full_round, rounds=1, iterations=1)
        else:
            recovered = full_round()
        exact = aggregator.codec.quantize(
            matrix[survivors], count=NUM_CLIENTS
        ).sum(axis=0, dtype=np.uint64)
        expected = aggregator.codec.dequantize_sum(exact) / len(survivors)
        np.testing.assert_array_equal(recovered, expected)
        meta = aggregator.last_metadata
        assert meta["survivors"] == len(survivors)
        assert meta["committed"] == NUM_CLIENTS

        dropout_s = best_of(full_round, 3)
        smooth_s = best_of(no_dropout_round, 3)
        per_protocol[name] = {
            "round_with_30pct_dropout_s": dropout_s,
            "round_no_dropout_s": smooth_s,
            "overhead_vs_masked_sum": dropout_s / plain_s,
            "overhead_gate": OVERHEAD_GATES[name],
            "recovery_exact": True,
        }

    # A failing run still records what it measured, and which gate it
    # failed, before it fails.
    failed_gates = [
        f"{name} round costs {stats['overhead_vs_masked_sum']:.1f}x the yardstick "
        f"(gate <= {stats['overhead_gate']}x)"
        for name, stats in per_protocol.items()
        if stats["overhead_vs_masked_sum"] > stats["overhead_gate"]
    ]
    _RESULTS["secagg_dropout_recovery"] = {
        "num_clients": NUM_CLIENTS,
        "dim": DIM,
        "dropout_fraction": DROPOUT_FRACTION,
        "survivors": len(survivors),
        "masked_sum_baseline_s": plain_s,
        "protocols": per_protocol,
        "failed_gates": failed_gates,
    }
    record_report(
        "SecAgg — 100-client round, 30% dropped after mask commitment",
        f"pairwise masked sum (no recovery possible) {1e3 * plain_s:8.2f} ms\n"
        + "\n".join(
            f"{name:<16} drop {1e3 * stats['round_with_30pct_dropout_s']:8.2f} ms"
            f"   smooth {1e3 * stats['round_no_dropout_s']:8.2f} ms"
            f"   ({stats['overhead_vs_masked_sum']:.1f}x the yardstick, "
            f"gate <= {stats['overhead_gate']}x, exact sum OK)"
            for name, stats in per_protocol.items()
        ),
    )
    write_bench_json(JSON_PATH, _RESULTS)
    assert not failed_gates, "; ".join(failed_gates)
