"""ddstab benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 bench/run.py --workload montecarlo --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --seed 0            # all three workloads in turn

Run from the root of a checkout; the package is imported from ``src``.
Every workload is a closed loop with one client in this one process
(single-threaded BLAS). Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``, as named in BENCHMARK.json). A full
report goes to ``.bench_out/``. The exit code is 0 only when every
correctness check passed. See bench/README.md.
"""
import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import pace  # noqa: E402
from layers import ITEM_SPAN, function_table, layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("montecarlo", "pipeline", "cli")
SETUP_REPS = 5
BASELINE_REPS = 3
FAILURE_EXAMPLES = 5


def _abort(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_package():
    """Import ddstab from this checkout's src, or stop without a result."""
    if not (SRC / "ddstab" / "__init__.py").is_file():
        _abort(f"no package source at {SRC / 'ddstab'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import ddstab  # noqa: F401
    import ddstab.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    if not Path(ddstab.__file__).resolve().is_relative_to(SRC.resolve()):
        _abort(f"imported ddstab from {ddstab.__file__}, not from {SRC}")
    return elapsed


def machine_facts() -> dict:
    import numpy
    import scipy
    model = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cvxpy_importable": importlib.util.find_spec("cvxpy") is not None,
        "backend_measured": "builtin",
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
    }


def item_latencies(latencies: list, batch: int) -> list[float]:
    """Each item's median latency over the passes of a run.

    Item ``k`` of a run is corpus position ``k % batch``; a run makes whole
    passes, so every item has as many samples as there were passes.
    """
    samples: list[list[float]] = [[] for _ in range(batch)]
    for k, latency in enumerate(latencies):
        samples[k % batch].append(latency)
    return [statistics.median(s) for s in samples if s]


def tail(items: list, min_passes: int) -> tuple[float, float]:
    """Value and percentile of the highest percentile with ten samples beyond it.

    Taken over the items' median latencies: the item whose slower items
    have at least ten samples in ``min_passes`` passes, so the same item
    whatever the pass count. Never below the median.
    """
    n = len(items)
    rank = max(n - 1 - math.ceil(10 / min_passes), n // 2)
    return sorted(items)[rank], 100.0 * (rank + 1) / n


def measure(workload, seconds: float, tracer=None, count=None) -> dict:
    """Closed loop: run items 0, 1, ... back to back for about ``seconds``.

    Stops only after whole passes over the workload's ``batch`` (its corpus,
    or the cli's cycle of calls), so every run times the same items, each
    as often as every other: at the pass boundary nearest to ``seconds``,
    after at least ``min_passes``. With ``count``, runs exactly that many
    items.
    """
    latencies, failures = [], []
    refs = [pace.reference()]  # the host's speed before each item and after it
    k = 0
    t_start = time.perf_counter()
    while True:
        idx = None
        if tracer is not None:
            tracer.item = k
            idx = tracer.open(ITEM_SPAN)
        start = time.perf_counter()
        try:
            ok = workload.run_item(k)
            reason = "correctness check failed"
        except Exception as exc:  # any error is a failed item, and the run goes on
            ok, reason = False, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if idx is not None:
            tracer.close(idx, ITEM_SPAN, start)
        latencies.append(end - start)
        refs.append(pace.reference())
        if not ok:
            failures.append(f"item {k}: {reason}")
        k += 1
        if k == count:
            break
        passes = k // workload.batch
        if (count is None and k % workload.batch == 0 and passes >= workload.min_passes
                and (time.perf_counter() - t_start) * (1.0 + 0.5 / passes) >= seconds):
            break
    return {"latencies": latencies, "scaled": pace.scaled(latencies, refs),
            "refs": refs, "failures": failures}


def timing_metrics(latencies: list, workload) -> tuple[dict, float]:
    """items_per_s, item_p50_ms and item_tail_ms of one run's item latencies,
    and the tail's percentile. Throughput counts item time only, not the
    references timed between items."""
    items = item_latencies(latencies, workload.batch)
    tail_value, tail_pct = tail(items, workload.min_passes)
    return {"items_per_s": (len(latencies) / sum(latencies), "1/s"),
            "item_p50_ms": (1e3 * statistics.median(items), "ms"),
            "item_tail_ms": (1e3 * tail_value, "ms")}, tail_pct


def setup(workload, seed: int, work: str) -> dict:
    """Import in a fresh interpreter, make the inputs, warm up; SETUP_REPS times.

    ``setup_s`` is the median set-up at the speed of a quiet host (see
    pace.py), ``setup_raw_s`` the median wall time.
    """
    from workloads import import_probe
    imports = []

    def once():
        imports.append(import_probe(str(SRC), work))
        workload.prepare(seed)
        workload.warm_up()

    runs = [pace.timed(once) for _ in range(SETUP_REPS)]
    return {"setup_s": statistics.median(r[1] for r in runs),
            "setup_raw_s": statistics.median(r[0] for r in runs),
            "setup_runs_s": [r[0] for r in runs],
            "import_ms": 1e3 * statistics.median(imports)}


def baselines() -> dict:
    """The ROADMAP's single-layer figures, timed untraced and counted traced."""
    import numpy as np
    from ddstab import data, experiments, linalg, synthesis, verification

    system = experiments.zoh_discretize(experiments.three_tank_model())
    tank = data.build_data_matrices(experiments.simulate(
        system, experiments.THREE_TANK_X0, experiments.THREE_TANK_INPUTS))
    comp = linalg.row_compress(tank.x_minus, tank.x_plus)
    # a T=10 three-tank window with the unreachable tank started off zero,
    # so X_minus has full rank and the plain LMI has k = 3
    window = data.build_data_matrices(experiments.simulate(
        system, np.array([1.0, 2.0, 1.0]),
        np.array([[1.0], [0.0], [-1.0], [0.0], [1.0], [1.0], [0.0], [-1.0], [2.0], [0.0]])))
    if linalg.numerical_rank(window.x_minus) != 3:
        raise RuntimeError("baseline window lost full rank")
    gain, _, _ = synthesis.synthesize_stab(tank)
    cs = data.consistent_set(tank)

    cases = {
        "three_tank_solve": lambda: synthesis.solve_stab_lmi(tank, comp),
        "plain_k3_T10_solve": lambda: synthesis.solve_plain_lmi(window),
        "verify_gain_600": lambda: verification.verify_gain(cs, gain, 200, seed=3),
        "verify_gain_600_nostructural": lambda: verification.verify_gain(
            cs, gain, 200, seed=3, compute_structural=False),
    }
    out = {}
    for name, call in cases.items():
        runs = []
        for _ in range(BASELINE_REPS):
            start = time.perf_counter()
            call()
            runs.append(time.perf_counter() - start)
        out[f"baseline.{name}_ms"] = (1e3 * statistics.median(runs), "ms")
    with Tracer() as tracer:
        cases["three_tank_solve"]()
    for kernel, label in (("numpy.linalg.cholesky", "cholesky"),
                          ("scipy.linalg.cho_factor", "cho_factor")):
        out[f"baseline.three_tank_{label}_calls"] = (
            tracer.counts[(kernel, "sdp.solve")], "count")
    return out


def make_workload(name: str, work: str):
    import workloads
    if name == "cli":
        return workloads.Cli(str(SRC), work)
    return {"montecarlo": workloads.MonteCarlo, "pipeline": workloads.Pipeline}[name]()


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    """One workload: set-up, the timed loop(s), checks; returns metrics and report."""
    from ddstab.linalg import DEFAULT_CONFIG

    workload = make_workload(name, work)
    prep = setup(workload, seed, work)
    report: dict = {"workload": name, "seed": seed, "seconds": seconds,
                    "trace": int(trace), "setup": prep}
    runs = []
    if not trace:
        runs.append(measure(workload, seconds))
    else:
        # the items of an untraced half run again traced: the ratio of their
        # items_per_s is the tracing overhead on identical work
        runs.append(measure(workload, seconds / 2))
        count = len(runs[0]["latencies"])
        tracer = Tracer()
        if name == "cli":
            workload.tracer = tracer
            runs.append(measure(workload, 0, tracer, count))
        else:
            with tracer:
                runs.append(measure(workload, 0, tracer, count))
    errors, info = workload.check()
    report["checks"] = info
    latencies = [x for r in runs for x in r["latencies"]]
    failures = [f for r in runs for f in r["failures"]]
    attempted = len(latencies)
    # a failed run-level check (rates, digest) counts as one more failed item
    failed = min(attempted, len(failures) + len(errors))
    report["failures"] = failures[:FAILURE_EXAMPLES] + errors
    report["attempted"], report["failed"] = attempted, failed
    report["failed_ratio"] = failed / attempted

    base = runs[0]
    timing, tail_pct = timing_metrics(base["scaled"], workload)
    wall, _ = timing_metrics(base["latencies"], workload)
    if name == "cli":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    e2e = {
        **timing,
        "failed_ratio": (failed / attempted, "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "setup_s": (prep["setup_s"], "s"),
        # the same timings as the wall clock read them
        **{f"wall.{k}": v for k, v in wall.items()},
        "wall.setup_s": (prep["setup_raw_s"], "s"),
        "host_speed": (statistics.median(pace.REFERENCE_MS / 1e3 / r for r in base["refs"]),
                       "ratio"),
    }
    report["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    report["tail"] = {"percentile": tail_pct, "samples": len(base["latencies"]),
                      "items": workload.batch}
    report["item_ms"] = [1e3 * x for x in base["latencies"]]
    report["reference_ms"] = [1e3 * x for x in base["refs"]]

    if trace:
        traced = runs[1]
        if name == "cli":
            import_ms = statistics.median(workload.import_ms)
            commands, written = workload.item_commands, workload.bytes_written
        else:
            import_ms, commands, written = prep["import_ms"], {}, 0
        per_layer = layer_metrics(tracer.spans, tracer.counts, DEFAULT_CONFIG.psd_margin,
                                  import_ms, written, commands)
        untraced_rate = timing["items_per_s"][0]
        traced_rate = timing_metrics(traced["scaled"], workload)[0]["items_per_s"][0]
        per_layer["trace.items_per_s_untraced"] = (untraced_rate, "1/s")
        per_layer["trace.items_per_s_traced"] = (traced_rate, "1/s")
        per_layer["trace.overhead_ratio"] = (untraced_rate / traced_rate - 1.0, "ratio")
        per_layer["trace.spans"] = (len(tracer.spans), "count")
        per_layer.update(baselines())
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        report["functions"] = function_table(tracer.spans)
        spans_path = OUT / f"spans-{name}-seed{seed}.json"
        tracer.dump(str(spans_path))
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    return report


def _selected(report: dict, spec: dict, trace: bool) -> dict:
    section = "per_layer" if trace else "end_to_end"
    measured = report[section]
    out = {}
    for metric in spec[section]:
        got = measured[metric["name"]]
        if got["unit"] != metric["unit"]:
            raise RuntimeError(f"{metric['name']}: unit {got['unit']} but "
                               f"BENCHMARK.json says {metric['unit']}")
        out[metric["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _abort(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    import_s = _load_package()

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    facts = machine_facts()
    # items, the references timed between them and every child process share
    # one CPU, so each reference reads the speed its items ran at
    facts["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {facts["pinned_cpu"]})
    reports = []
    try:
        for name in names:
            report = run_workload(name, args.seed, seconds, bool(args.trace), str(work))
            report["machine"] = facts
            report["harness_import_s"] = import_s
            reports.append(report)
            path = OUT / f"report-{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
            section = report["per_layer" if args.trace else "end_to_end"]
            print(f"== {name} (seed {args.seed}, {seconds:g} s, trace {args.trace})")
            for metric, entry in section.items():
                print(f"{name}.{metric} = {entry['value']:.6g} {entry['unit']}")
            print(f"{name}: tail percentile p{report['tail']['percentile']:.1f} over "
                  f"{report['tail']['items']} items, {report['tail']['samples']} samples; "
                  f"failed_ratio "
                  f"{report['failed_ratio']:.4g}; report {path.relative_to(ROOT)}")
            for failure in report["failures"]:
                print(f"{name}: FAILED {failure}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"machine": facts}))
    if len(reports) == 1:
        metrics = _selected(reports[0], spec, bool(args.trace))
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports
                   for k, v in _selected(r, spec, bool(args.trace)).items()}
    correct = all(r["failed"] == 0 for r in reports)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in reports),
                      "failed": sum(r["failed"] for r in reports),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
