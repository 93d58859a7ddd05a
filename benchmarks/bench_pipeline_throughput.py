"""EXP-EXT3 -- pipeline throughput on the simulated fabric.

Extension experiment: stream tokens through WCHB FIFOs of increasing depth
(gate-level simulation with the architecture's delay model) and measure token
throughput and latency.  The shape: latency grows linearly with depth while
the streaming throughput stays roughly constant (half-buffer pipelines hold
one token per two stages).
"""

from repro.analysis.tables import format_table
from repro.asynclogic.tokens import throughput
from repro.circuits.fifo import wchb_fifo
from repro.sim import GateLevelSimulator, drive

DEPTHS = (2, 4, 8)
TOKENS = [1, 0, 1, 1, 0, 1, 0, 0, 1, 1]


def _measure(depth: int) -> dict[str, object]:
    fifo = wchb_fifo(depth)
    run = drive(fifo, GateLevelSimulator(fifo.netlist), [{"in": value} for value in TOKENS])
    received = [out["out"] for out in run.outputs]
    return {
        "depth": depth,
        "tokens": len(received),
        "correct": received == TOKENS,
        "sim_time_ps": run.end_time_ps,
        "throughput_tokens_per_ns": round((throughput(run.issued["in"]) or 0.0) * 1000, 4),
        "avg_cycle_ps": round(run.end_time_ps / len(TOKENS), 1),
    }


def _sweep():
    return [_measure(depth) for depth in DEPTHS]


def test_wchb_fifo_throughput(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print()
    print(format_table(rows))
    assert all(row["correct"] for row in rows)
    assert all(row["tokens"] == len(TOKENS) for row in rows)
    # Total simulated time (and hence average cycle) grows with depth, while
    # throughput stays within a small factor (the environment is lock-step,
    # so deeper FIFOs pay proportionally more forward latency per token).
    times = [row["sim_time_ps"] for row in rows]
    assert times == sorted(times)
    rates = [row["throughput_tokens_per_ns"] for row in rows]
    assert max(rates) <= 4.0 * min(rates)
