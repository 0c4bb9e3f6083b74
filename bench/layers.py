"""Per-layer metrics from the spans and kernel counts of a traced run.

A span's self time is its duration minus the durations of its direct
children. A layer's self time is the sum over the spans named
``<layer>.*``; item time not covered by any layer span is the benchmark's
own loop (``bench`` in the shares).
"""
from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import LAYERS

ITEM_SPAN = "bench.item"


def _ancestors(spans, idx):
    parent = spans[idx][3]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][3]


def _self_ms(spans) -> list[float]:
    """Each span's duration minus its direct children's, in ms."""
    own = [1e3 * (end - start) for _, start, end, _, _, _ in spans]
    for span, ms in zip(spans, list(own)):
        if span[3] >= 0:
            own[span[3]] -= ms
    return own


def function_table(spans) -> dict:
    """name -> {calls, self_ms, total_ms} for every span name."""
    table: dict = defaultdict(lambda: {"calls": 0, "self_ms": 0.0, "total_ms": 0.0})
    for (name, start, end, _, _, _), own in zip(spans, _self_ms(spans)):
        row = table[name]
        row["calls"] += 1
        row["self_ms"] += own
        row["total_ms"] += 1e3 * (end - start)
    return dict(sorted(table.items()))


def layer_metrics(spans, counts, psd_margin: float, cli_import_ms: float,
                  cli_bytes_written: int, item_commands: dict) -> dict:
    """Every per-layer metric of the benchmark as name -> (value, unit).

    ``item_commands`` maps a cli item id to its subcommand; it is empty for
    the in-process workloads.
    """
    table = function_table(spans)
    items = table.get(ITEM_SPAN, {"calls": 0, "total_ms": 0.0})
    n_items = max(items["calls"], 1)
    item_ms = items["total_ms"]

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def self_ms(name):
        return table.get(name, {}).get("self_ms", 0.0)

    def count(kernel, inside=None):
        return sum(v for (k, inner), v in counts.items()
                   if k == kernel and (inside is None or inner == inside))

    out: dict = {}

    # sdp: the barrier solve, by problem size, and how its results are used
    solves = [i for i, s in enumerate(spans) if s[0] == "sdp.solve"]
    n_solves = len(solves)
    per = max(n_solves, 1)
    durations = sorted(1e3 * (spans[i][2] - spans[i][1]) for i in solves)
    out["sdp.solve.calls"] = (n_solves, "count")
    out["sdp.solve.self_ms"] = (self_ms("sdp.solve"), "ms")
    out["sdp.solve.p50_ms"] = (statistics.median(durations) if durations else 0.0, "ms")
    out["sdp.solve.max_ms"] = (durations[-1] if durations else 0.0, "ms")
    out["sdp.solve.self_share"] = (self_ms("sdp.solve") / item_ms if item_ms else 0.0,
                                   "ratio")
    out["sdp.cho_factor_per_solve"] = (
        count("scipy.linalg.cho_factor", "sdp.solve") / per, "count")
    out["sdp.cholesky_per_solve"] = (
        count("numpy.linalg.cholesky", "sdp.solve") / per, "count")
    by_size: dict = defaultdict(lambda: [0, 0.0])
    infeasible = used = 0
    for i in solves:
        name, start, end, _, _, extra = spans[i]
        if "raised" in extra:
            continue
        key = f"d{extra['d']}_s{extra['s']}"
        by_size[key][0] += 1
        by_size[key][1] += 1e3 * (end - start)
        if extra["t"] < psd_margin:
            infeasible += 1
            continue
        chain = set(_ancestors(spans, i))
        if not any(a.startswith("informativity.") for a in chain) and (
                "synthesis.synthesize_stab" in chain
                or "synthesis.solve_plain_lmi" in chain):
            used += 1
    for key in sorted(by_size, key=lambda k: tuple(int(p[1:]) for p in k.split("_"))):
        n, ms = by_size[key]
        out[f"sdp.solve.by_size.{key}.calls"] = (n, "count")
        out[f"sdp.solve.by_size.{key}.self_ms"] = (ms, "ms")
    out["sdp.infeasible_ratio"] = (infeasible / per, "ratio")
    out["sdp.theta_used_ratio"] = (used / per, "ratio")

    for name in ("synthesis.sdp_solve", "synthesis.synthesize_stab",
                 "synthesis.gain_from_plain"):
        out[f"{name}.self_ms"] = (self_ms(name), "ms")
    for name in ("synthesis.solve_plain_lmi", "synthesis.solve_stab_lmi",
                 "synthesis.synthesize_stab", "synthesis.gain_from_plain"):
        out[f"{name}.calls"] = (calls(name), "count")

    for name in ("informativity.check_stabilizability_prior",
                 "informativity.check_identification"):
        out[f"{name}.self_ms"] = (self_ms(name), "ms")

    # verification: a draw is one sample_consistent call made by verify_gain
    draws = rejected = 0
    for i, span in enumerate(spans):
        if span[0] == "data.sample_consistent" and \
                "verification.verify_gain" in set(_ancestors(spans, i)):
            draws += 1
            rejected += bool(span[5] and span[5].get("rejected"))
    verify_total = table.get("verification.verify_gain", {}).get("total_ms", 0.0)
    out["verification.verify_gain.calls"] = (calls("verification.verify_gain"), "count")
    out["verification.verify_gain.self_ms"] = (self_ms("verification.verify_gain"), "ms")
    out["verification.verify_gain.total_share"] = (
        verify_total / item_ms if item_ms else 0.0, "ratio")
    out["verification.draws"] = (draws, "count")
    out["verification.draw_us"] = (1e3 * verify_total / draws if draws else 0.0, "us")
    out["verification.structural_nullity.calls"] = (
        calls("verification.structural_nullity"), "count")
    out["verification.structural_nullity.self_ms"] = (
        self_ms("verification.structural_nullity"), "ms")
    out["verification.rejected_ratio"] = (rejected / draws if draws else 0.0, "ratio")

    for name in ("data.consistent_set", "data.sample_consistent", "data.load_trajectory"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_ms"] = (self_ms(name), "ms")

    for name in ("linalg.row_compress", "linalg.subspace_contained",
                 "linalg.is_stabilizable"):
        out[f"{name}.self_ms"] = (self_ms(name), "ms")
    for name in ("linalg.numerical_rank", "linalg.spectral_radius",
                 "linalg.is_stabilizable"):
        out[f"{name}.calls"] = (calls(name), "count")
    out["linalg.svd_per_item"] = (count("numpy.linalg.svd") / n_items, "count")

    out["experiments.run_monte_carlo.calls"] = (calls("experiments.run_monte_carlo"),
                                                "count")
    out["experiments.run_monte_carlo.self_ms"] = (
        self_ms("experiments.run_monte_carlo"), "ms")

    out["cli.import_ms"] = (cli_import_ms, "ms")
    out["cli.main.calls"] = (calls("cli.main"), "count")
    out["cli.bytes_written"] = (cli_bytes_written, "bytes")
    command_ms: dict = defaultdict(float)
    if item_commands:
        for (name, _, _, _, item, _), own in zip(spans, _self_ms(spans)):
            if name.startswith("cli.") and name != "cli.import" and item in item_commands:
                command_ms[item_commands[item]] += own
    for command in sorted(set(item_commands.values())):
        out[f"cli.main.{command}.self_ms"] = (command_ms[command], "ms")

    # share of item time spent in each layer's own code
    layer_ms = defaultdict(float)
    for name, row in table.items():
        layer_ms[name.split(".", 1)[0]] += row["self_ms"]
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_share"] = (layer_ms[layer] / item_ms if item_ms else 0.0,
                                      "ratio")
    return out
