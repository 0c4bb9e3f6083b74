"""Command-line front end.

Exit codes form a stable contract:
  0   success / informative verdict
  2   well-formed negative verdict (not informative, verification failed)
  1   operational failure (bad file, solver breakdown)
  64  usage error

Each subcommand takes only the options it reads, and option values resolve
as flag > environment (DDSTAB_*) > config file > built-in default. All
outputs are plain JSON/CSV and byte-stable for a fixed config and seed.

Only the core layers (errors, linalg, data) load with this module; each
command imports the layers it runs, so a cold process compiles no other.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .data import (DataMatrices, LtiSystem, TrajectoryData, build_data_matrices,
                   consistent_set, is_number, load_trajectory, trajectory_to_csv,
                   trajectory_to_json)
from .errors import DataFormatError, PreconditionError, SolverFailure
from .linalg import NumericalConfig, spectral_radius

if TYPE_CHECKING:
    from .experiments import ContinuousSystem
    from .informativity import InformativityReport
    from .synthesis import FeedbackGain
    from .verification import VerificationReport

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_NEGATIVE = 2
EXIT_USAGE = 64

_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(NumericalConfig))
FORMATS = ("json", "csv")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_config_file(path: str | None) -> dict:
    path = path or os.environ.get("DDSTAB_CONFIG")
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or encoding
        raise DataFormatError(f"config file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataFormatError(f"config file {path}: expected a JSON object")
    return payload


def _real(value) -> float:
    """A JSON number, or the text of a flag or DDSTAB_* variable; not a boolean."""
    if not (is_number(value) or isinstance(value, str)):
        raise ValueError("expected a number")
    return float(value)


def _directory(value) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError("expected a non-empty path")
    return value


def _integer(lowest: int):
    def cast(value) -> int:
        # compared as ints: a float cannot hold every integer above 2**53
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()) \
                or int(value) < lowest:
            raise ValueError(f"expected an integer >= {lowest}")
        return int(value)
    return cast


def _choice(choices: tuple[str, ...]):
    def cast(value) -> str:
        if value not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return value
    return cast


def _parse_scales(value) -> tuple[float, ...]:
    cells = value if isinstance(value, (list, tuple)) else str(value).split(",")
    scales = tuple(_real(v) for v in cells if str(v).strip())
    if not scales or not np.isfinite(scales).all():
        raise ValueError("expected a non-empty list of finite numbers")
    return scales


# option name -> (default, cast, argparse keywords); each subcommand declares
# the options it reads, and only those are resolved
_OPTIONS = {
    **{f.name: (f.default, _real, {"type": float, "help": argparse.SUPPRESS})
       for f in dataclasses.fields(NumericalConfig)},
    "seed": (3, _integer(lowest=0), {"type": int}),
    "out": ("out", _directory, {"help": "output directory (default ./out)"}),
    "format": ("json", _choice(FORMATS), {"choices": FORMATS}),
    "samples": (200, _integer(lowest=1), {"type": int, "help": "verification draws per scale"}),
    "scales": ((0.1, 1.0, 10.0), _parse_scales,
               {"help": "comma list of sampling scales, e.g. 0.1,1,10"}),
}


def _resolve(args, file_cfg: dict, name: str):
    """The first value set among flag, DDSTAB_<NAME> and config file, cast,
    else the default; a value the cast rejects raises DataFormatError."""
    default, cast, _ = _OPTIONS[name]
    env_key = f"DDSTAB_{name.upper()}"
    for source, value in ((f"--{name.replace('_', '-')}", getattr(args, name)),
                          (env_key, os.environ.get(env_key)),
                          ("config file", file_cfg.get(name))):
        if value is not None:
            try:
                return cast(value)
            except (TypeError, ValueError, OverflowError) as exc:
                msg = f"invalid {name} {value!r} from {source}: {exc}"
                raise DataFormatError(msg) from exc
    return default


def _settings(args) -> dict:
    """The options the command declared, resolved; the tolerances as ``numcfg``."""
    file_cfg = _load_config_file(args.config)
    settings = {name: _resolve(args, file_cfg, name) for name in _OPTIONS
                if name in vars(args)}
    try:
        settings["numcfg"] = NumericalConfig(
            **{name: settings.pop(name) for name in _CONFIG_FIELDS})
    except ValueError as exc:
        raise DataFormatError(f"invalid tolerance configuration: {exc}") from exc
    return settings


def _write(out_dir: str, name: str, text: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _gain_payload(gain: FeedbackGain, sol, report: InformativityReport) -> dict:
    return {
        "K": gain.K.tolist(),
        "provenance": gain.provenance.value,
        "k2": None if gain.k2 is None else gain.k2.tolist(),
        "k2_policy": gain.k2_policy,
        "theta": sol.theta.tolist(),
        "slack": sol.slack if np.isfinite(sol.slack) else None,  # inf: empty LMI
        "branch": report.branch.value,
        "row_compression": {"S": report.compression.S.tolist(), "r": report.rank_x_minus},
    }


def _gain_from_file(path: str, D: DataMatrices) -> FeedbackGain:
    from .synthesis import FeedbackGain, GainProvenance
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or encoding
        raise DataFormatError(f"gain file {path}: {exc}") from exc
    if not isinstance(payload, dict) or "K" not in payload:
        # what synthesize writes for data that are not informative
        raise DataFormatError(f"gain file {path} holds no gain K")
    try:
        K = np.atleast_2d(np.array(payload["K"], dtype=float))
        provenance = GainProvenance(payload.get("provenance", "plain"))
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"gain file {path}: {exc}") from exc
    if not all(map(is_number, np.array(payload["K"], dtype=object).flat)):
        raise DataFormatError(f"gain file {path}: K must hold numbers")
    if not np.isfinite(K).all():  # json reads NaN and Infinity as numbers
        raise DataFormatError(f"gain file {path}: K holds a non-finite entry")
    if K.shape != (D.m, D.n):
        raise DataFormatError(f"gain file {path}: K has shape {K.shape}, the data "
                              f"need ({D.m}, {D.n})")
    return FeedbackGain(K=K, provenance=provenance)


def cmd_informativity(args, settings: dict) -> int:
    from .informativity import check_stabilizability_prior
    D = build_data_matrices(load_trajectory(args.data))
    report = check_stabilizability_prior(D, settings["numcfg"])
    path = _write(settings["out"], "informativity.json", _dump_json(report.to_dict()))
    print(f"wrote {path}")
    print(f"stabilizability-prior informative: "
          f"{report.stabilization_stabilizability_prior}")
    return EXIT_OK if report.stabilization_stabilizability_prior else EXIT_NEGATIVE


def _gain_step(D: DataMatrices, report: InformativityReport,
               settings: dict) -> FeedbackGain | None:
    """Write gain.json: the gain synthesized on the report's branch, or the
    refusal naming the branch for data the report rejects (returns None)."""
    from .synthesis import synthesize
    try:
        gain, sol, _ = synthesize(D, settings["numcfg"], report)
    except PreconditionError:
        _write(settings["out"], "gain.json",
               _dump_json({"informative": False, "branch": report.branch.value}))
        return None
    _write(settings["out"], "gain.json", _dump_json(_gain_payload(gain, sol, report)))
    return gain


def _verification_step(D: DataMatrices, gain: FeedbackGain, report: InformativityReport,
                       settings: dict) -> VerificationReport:
    """Write verification.json: sampled verification of ``gain``, its
    structural nullity at the particular solution and the decomposition check."""
    from .verification import decomposition_check, structural_nullity, verify_gain
    numcfg = settings["numcfg"]
    cs = consistent_set(D, numcfg)
    try:
        # a command that takes no --scales samples at the built-in scales
        verification = verify_gain(cs, gain, n_samples=settings["samples"],
                                   scales=settings.get("scales", _OPTIONS["scales"][0]),
                                   seed=settings["seed"], cfg=numcfg)
    except PreconditionError as exc:
        raise DataFormatError(f"invalid verification settings: {exc}") from exc
    payload = verification.to_dict()
    payload["structural_nullity_particular"] = structural_nullity(cs, gain, cs.particular)
    try:
        decomp = decomposition_check(D, report, cs.particular, numcfg)
        payload["decomposition"] = {
            "a21_norm": decomp.a21_norm,
            "b2_norm": decomp.b2_norm,
            "a22_spectral_radius": decomp.a22_spectral_radius,
            "ok": decomp.ok,
        }
    except PreconditionError as exc:
        payload["decomposition"] = {"skipped": str(exc)}
    _write(settings["out"], "verification.json", _dump_json(payload))
    return verification


def cmd_synthesize(args, settings: dict) -> int:
    from .informativity import Branch, check_stabilizability_prior
    from .synthesis import lmi_problem, problem_to_json
    D = build_data_matrices(load_trajectory(args.data))
    report = check_stabilizability_prior(D, settings["numcfg"])
    branch = report.branch
    if args.dump_problem:
        problem = lmi_problem(D, None if branch is Branch.FULL_RANK else report.compression)
        _write(settings["out"], "problem.json", problem_to_json(problem))
    gain = _gain_step(D, report, settings)
    if gain is None:
        print("not informative for stabilization (full-rank branch)"
              if branch is Branch.FULL_RANK else
              "not informative for stabilization under the stabilizability prior")
        return EXIT_NEGATIVE
    print(f"wrote {os.path.join(settings['out'], 'gain.json')}")
    print(f"K = {gain.K.tolist()}")
    return EXIT_OK


def cmd_verify(args, settings: dict) -> int:
    from .informativity import check_stabilizability_prior
    D = build_data_matrices(load_trajectory(args.data))
    gain = _gain_from_file(args.gain, D)
    report = check_stabilizability_prior(D, settings["numcfg"])
    verification = _verification_step(D, gain, report, settings)
    print(f"wrote {os.path.join(settings['out'], 'verification.json')}")
    if verification.samples_tested == 0:
        print(f"pass: False (no draw was tested: all {verification.rejected_unstabilizable} "
              f"were rejected as not stabilizable)")
    else:
        print(f"pass: {verification.passed} "
              f"(max spectral radius {verification.max_spectral_radius:.6f})")
    return EXIT_OK if verification.passed else EXIT_NEGATIVE


def cmd_montecarlo(args, settings: dict) -> int:
    from .experiments import (MonteCarloConfig, run_monte_carlo, three_tank_model,
                              zoh_discretize)
    system = zoh_discretize(three_tank_model())
    try:
        mc = MonteCarloConfig(system=system, scenarios=args.scenarios,
                              t_list=tuple(args.T_list), seed=settings["seed"])
    except ValueError as exc:
        raise DataFormatError(f"invalid Monte Carlo settings: {exc}") from exc
    result = run_monte_carlo(mc, settings["numcfg"])
    pct = result.percentages()
    summary = {
        "scenarios": mc.scenarios,
        "seed": mc.seed,
        "poisson_lambda": mc.poisson_lambda,
        "solver_failures": result.solver_failures,
        "per_T": {str(T): pct[T] for T in mc.t_list},
    }
    path = _write(settings["out"], "montecarlo.json", _dump_json(summary))
    lines = ["scenario,T,identification,stabilization,stabilizability_prior"]
    for v in result.verdicts:
        lines.append(f"{v.scenario},{v.T},{int(v.identification)},"
                     f"{int(v.stabilization)},{int(v.stabilization_stabilizability_prior)}")
    csv_path = _write(settings["out"], "montecarlo.csv", "\n".join(lines) + "\n")
    print(f"wrote {path} and {csv_path}")
    for T in mc.t_list:
        row = pct[T]
        print(f"T={T}: ident {row['identification_pct']:.1f}%  "
              f"plain {row['stabilization_pct']:.1f}%  "
              f"stab-prior {row['stabilizability_prior_pct']:.1f}%")
    return EXIT_OK


def _demo_example2_bundle(settings, demo) -> None:
    bundle = demo(cfg=settings["numcfg"])
    lines = ["a,b1,b2,controllable"]
    for a, b1, b2, ctrb in bundle["grid"]:
        lines.append(f"{a!r},{b1!r},{b2!r},{int(ctrb)}")
    _write(settings["out"], "plane_grid.csv", "\n".join(lines) + "\n")
    _write(settings["out"], "summary.json", _dump_json(
        {"uncontrollable_points": bundle["uncontrollable_points"],
         "grid_points": len(bundle["grid"])}))


def _demo_synthesis_bundle(settings, trajectory: TrajectoryData,
                           continuous: ContinuousSystem | None = None,
                           system: LtiSystem | None = None) -> int:
    """The trajectory of a synthesis demo, then what ``informativity``,
    ``synthesize`` and ``verify`` write for it, with their exit code; plus the
    model and closed-loop spectrum when the demo simulates a known system."""
    from .informativity import check_stabilizability_prior
    out = settings["out"]
    if settings["format"] == "csv":
        _write(out, "data.csv", trajectory_to_csv(trajectory))
    else:
        _write(out, "data.json", trajectory_to_json(trajectory))
    if system is not None:
        _write(out, "model.json", _dump_json({
            "A_continuous": continuous.A.tolist(),
            "B_continuous": continuous.B.tolist(),
            "sample_time": continuous.sample_time,
            "A": system.A.tolist(),
            "B": system.B.tolist(),
        }))
    D = build_data_matrices(trajectory)
    report = check_stabilizability_prior(D, settings["numcfg"])
    _write(out, "informativity.json", _dump_json(report.to_dict()))
    gain = _gain_step(D, report, settings)
    if gain is None:
        return EXIT_NEGATIVE
    verification = _verification_step(D, gain, report, settings)
    if system is not None:
        closed_loop = system.A + system.B @ gain.K
        eigs = np.linalg.eigvals(closed_loop)
        _write(out, "spectrum.json", _dump_json({
            "closed_loop_eigenvalues_real": np.real(eigs).tolist(),
            "closed_loop_eigenvalues_imag": np.imag(eigs).tolist(),
            "closed_loop_spectral_radius": spectral_radius(closed_loop),
        }))
    return EXIT_OK if verification.passed else EXIT_NEGATIVE


def cmd_demo(args, settings: dict) -> int:
    from . import experiments
    if args.name == "example2":
        _demo_example2_bundle(settings, experiments.demo_example2)
        code = EXIT_OK
    elif args.name == "example1":
        code = _demo_synthesis_bundle(settings, experiments.example1_trajectory())
    else:
        code = _demo_synthesis_bundle(settings, **experiments.demo_three_tank())
    print(f"wrote demo bundle to {settings['out']}")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ddstab",
                     description="data-driven stabilization from input-state data")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_options(p, *names):
        p.add_argument("--config", help="JSON file with tolerances and defaults")
        for name in ("out", *names, *_CONFIG_FIELDS):
            p.add_argument(f"--{name.replace('_', '-')}", dest=name, **_OPTIONS[name][2])

    p = sub.add_parser("informativity", help="classify a dataset")
    p.add_argument("data", help="trajectory file (.json or .csv)")
    add_options(p)
    p.set_defaults(func=cmd_informativity)

    p = sub.add_parser("synthesize", help="compute a stabilizing gain")
    p.add_argument("data")
    p.add_argument("--dump-problem", action="store_true",
                   help="also write the feasibility problem as JSON")
    add_options(p)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("verify", help="check a gain against the consistent family")
    p.add_argument("data")
    p.add_argument("gain", help="gain file produced by synthesize")
    add_options(p, "seed", "samples", "scales")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("montecarlo", help="informativity rates under random excitation")
    p.add_argument("--scenarios", type=int, default=1000)
    p.add_argument("--T-list", type=int, nargs="+", default=[3, 4, 5, 10, 100])
    add_options(p, "seed")
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("demo", help="run a bundled scenario")
    p.set_defaults(func=cmd_demo)
    demos = p.add_subparsers(dest="name", required=True)
    # example2 draws, solves and verifies nothing, so it takes none of the
    # synthesis demos' options
    synthesis_demo = ("seed", "samples", "format")
    for name, options in (("example1", synthesis_demo), ("example2", ()),
                          ("three-tank", synthesis_demo)):
        add_options(demos.add_parser(name), *options)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, _settings(args))
    except (DataFormatError, OSError, SolverFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
