"""The names the benchmark pins still resolve in the package.

The benchmark under ``bench/`` records one span per public function, named
``module.function``, and calls the package directly. It changes apart from
the package, so this test reads its names (and never edits them), and runs
the tracer's per-span extras on what the package hands them: a refactor
that would break the benchmark fails here first.
"""
import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from ddstab.cli import build_parser
from ddstab.data import build_data_matrices, consistent_set, sample_consistent
from ddstab.experiments import example1_trajectory
from ddstab.informativity import Branch
from ddstab.linalg import row_compress
from ddstab.sdp import BarrierBackend
from ddstab.synthesis import LmiFeasibilityProblem, sdp_solve
from ddstab.verification import common_lyapunov

BENCH = Path(__file__).resolve().parents[1] / "bench"
PSEUDO_SPANS = {"cli.import"}  # timed by the harness, not a function


def _parse(relative: str) -> ast.Module:
    return ast.parse((BENCH / relative).read_text(encoding="utf-8"))


def _expected_calls() -> list[str]:
    """Every span name in ``EXPECTED_CALLS`` of the benchmark's layer test."""
    for node in _parse("tests/test_layers.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "EXPECTED_CALLS"
                for target in node.targets):
            spans = ast.literal_eval(node.value)
            return sorted({name for names in spans.values() for name in names}
                          - PSEUDO_SPANS)
    raise AssertionError("bench/tests/test_layers.py defines no EXPECTED_CALLS")


def _bench_calls() -> list[tuple[str, str, int, tuple[str, ...]]]:
    """(module, attribute, positional count, keywords) of each call the
    benchmark makes on a module it imports with ``from ddstab import ...``."""
    calls = set()
    for relative in ("workloads.py", "run.py"):
        tree = _parse(relative)
        modules = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "ddstab"
                   for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id in modules:
                assert not any(isinstance(a, ast.Starred) for a in node.args)
                keywords = [k.arg for k in node.keywords]
                assert None not in keywords  # no ** unpacking to bind
                calls.add((node.func.value.id, node.func.attr, len(node.args),
                           tuple(sorted(keywords))))
    return sorted(calls)


def _defined_in(module, attr: str):
    """The public attribute ``attr`` of ``module``, defined in that module."""
    value = getattr(module, attr, None)
    assert value is not None, f"{module.__name__} has no attribute {attr}"
    assert not attr.startswith("_")
    assert getattr(value, "__module__", None) == module.__name__, \
        f"{module.__name__}.{attr} is defined in {getattr(value, '__module__', None)}"
    return value


@pytest.mark.parametrize("span", _expected_calls())
def test_traced_span_names_a_public_function(span):
    module_name, attr = span.split(".")
    module = importlib.import_module(f"ddstab.{module_name}")
    if span == "sdp.solve":  # the tracer wraps the solve method of each backend
        assert all(inspect.isfunction(cls.solve)
                   for cls in (module.BarrierBackend, module.CvxpyBackend))
    else:
        assert inspect.isfunction(_defined_in(module, attr))


@pytest.mark.parametrize("module_name,attr,positional,keywords", _bench_calls())
def test_benchmark_call_fits_its_signature(module_name, attr, positional, keywords):
    value = _defined_in(importlib.import_module(f"ddstab.{module_name}"), attr)
    assert inspect.isfunction(value) or inspect.isclass(value)
    inspect.signature(value).bind(*[None] * positional, **dict.fromkeys(keywords))


def _load_bench(name: str):
    """``bench/<name>.py`` as a module of its own, read without installing it."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Recording(BarrierBackend):
    """Solves as the built-in backend does and keeps each (args, result)."""

    def __init__(self):
        self.calls = []

    def solve(self, problem):
        result = super().solve(problem)
        self.calls.append(((self, problem), result))
        return result


def test_tracer_extras_read_what_the_package_hands_them():
    """The tracer's per-span extras unpack the problem a backend is handed and
    the result of ``sample_consistent``; a change to either fails here."""
    extras = _load_bench("tracer").EXTRAS
    backend = _Recording()
    L = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.2]])
    sdp_solve(LmiFeasibilityProblem(diag_coeff=L, offdiag_coeff=0.5 * L), backend=backend)
    common_lyapunov([0.5 * np.eye(2), np.array([[0.3, 0.1], [0.0, 0.4]])], backend=backend)
    sizes = []
    for args, result in backend.calls:
        extra = extras["sdp.solve"](args, result)
        assert (extra["d"], extra["t"]) == (args[1].dim, float(result.t))
        sizes.append(extra["s"])
    assert sizes == [4, 2]  # the 2k-order LMI block, then the n-order Lyapunov blocks

    cs = consistent_set(build_data_matrices(example1_trajectory()))
    W = np.zeros((3, cs.particular.n, cs.d))
    assert extras["data.sample_consistent"]((cs, W), sample_consistent(cs, W)) \
        == {"rejected": False}


def test_cli_workload_argv_parses(tmp_path):
    """Every argv the cli workload sends, with the ``--out`` it appends, parses;
    a flag the CLI stops taking fails here before it fails the benchmark."""
    workloads = _load_bench("workloads")
    cli = workloads.Cli(src=str(tmp_path), work=str(tmp_path))
    cli.prepare(0)
    parser = build_parser()
    for command, dataset, _ in workloads.CALLS:
        assert parser.parse_args(cli._argv(command, dataset) + ["--out", "x"]).command \
            == command


def test_pipeline_solves_each_plain_lmi_once(monkeypatch):
    """The pipeline workload's verdict solves nothing: on the first 30 corpus
    datasets the barrier runs once per informative dataset, the plain LMI of
    a full-rank one and the compressed LMI of a rank-deficient one, and
    never twice for one dataset."""
    pipeline = _load_bench("workloads").Pipeline()
    pipeline.prepare(0)
    solves = []
    real = BarrierBackend.solve

    def counting(backend, problem):
        solves.append(problem)
        return real(backend, problem)
    monkeypatch.setattr(BarrierBackend, "solve", counting)
    full_rank = informative_full_rank = informative_rank_deficient = 0
    for D in pipeline.datasets[:30]:
        outcome = pipeline._run(D)
        full_rank += Branch.of(D, row_compress(D.x_minus, D.x_plus)) is Branch.FULL_RANK
        informative_full_rank += outcome == Branch.FULL_RANK.value
        informative_rank_deficient += outcome == Branch.RANK_DEFICIENT.value
    assert full_rank > informative_full_rank > 0 and informative_rank_deficient
    assert len(solves) == informative_full_rank + informative_rank_deficient
