"""Command-line workflows tying the toolkit together.

Every subcommand reads and writes JSON artifacts, prints a single JSON
summary line to stdout, and is deterministic for a given configuration and
seed. Output files are written atomically (temp file, then rename). Exit
codes: 0 success, 1 invalid configuration (bad flags, missing or
unparseable inputs, non-finite numbers, a state file that is not a state),
2 domain error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ._rng import setting_seed
from .fock import StateSpec, fidelity, make_state
from .mle import ReconstructionParams, reconstruct
from .optics import PartitionSpec
from .povm import DatasetMismatch, MeasurementContext, Setting, build_povm, ic_check
from .probes import ProbeSet, design_gamma, feasibility
from .sim import Dataset, simulate_dataset
from .stats import parametric_bootstrap
from .twirl import BlockOperator, twirl_analytic, twirled_closed_form

DEFAULT_SEED = 1905  # fixed default: reruns without --seed stay reproducible

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DOMAIN = 2
EXIT_NUMERIC = 3


class ConfigError(Exception):
    """Bad flags, missing input files, or files that do not parse."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


class _NonFinite(float):
    """A NaN, Infinity or -Infinity literal, or a number that overflows a
    float, marked while a JSON file is parsed."""


def _non_finite_path(node, path: str = "") -> str | None:
    """JSON path of the first marked number under node, e.g. tuples[0].re[0][1]."""
    if isinstance(node, _NonFinite):
        return path or "the top level"
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        found = _non_finite_path(child, f"{path}[{key}]" if isinstance(key, int)
                                 else f"{path}.{key}" if path else key)
        if found:
            return found
    return None


def _load_json(path: str):
    """A JSON file's content; NaN, Infinity and overflowing numbers are
    rejected, naming their JSON path."""
    marked = []

    def non_finite(text: str) -> float:
        marked.append(text)
        return _NonFinite(text)

    def number(text: str) -> float:
        value = float(text)
        return value if math.isfinite(value) else non_finite(text)

    try:
        with open(path) as fh:
            payload = json.load(fh, parse_float=number, parse_constant=non_finite)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if marked:
        raise ConfigError(f"{path}: {_non_finite_path(payload)} is not a finite number")
    return payload


def _parse_as(label: str, parser, payload):
    try:
        return parser(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {label}: {exc}") from exc


def _load(label: str, parser, path: str):
    return _parse_as(f"{label} ({path})", parser, _load_json(path))


def _load_state(label: str, path: str) -> BlockOperator:
    """A block state file; it must hold a state: Hermitian, PSD and trace 1."""
    def parse(payload):
        state = BlockOperator.from_json(payload)
        state.validate_state()
        return state
    return _load(label, parse, path)


def _write_json(path: str, payload: dict) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _m_list(args, n_settings: int) -> list[int]:
    if args.m_list is not None:
        try:
            values = [int(v) for v in args.m_list.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--m-list must be comma-separated integers: {exc}")
        if len(values) != n_settings:
            raise ConfigError(f"--m-list has {len(values)} entries for "
                              f"{n_settings} settings")
    elif args.m is not None:
        values = [args.m] * n_settings
    else:
        raise ConfigError("one of --m or --m-list is required")
    if any(v < 1 for v in values):
        raise ConfigError("shot counts must be positive")
    return values


# subcommand handlers --------------------------------------------------------

def _cmd_feasibility(args) -> dict:
    verdict = feasibility(args.k, args.s1_multi, args.counters,
                          args.probe_freedom, args.detector, args.balanced,
                          args.n)
    if args.out:
        _write_json(args.out, verdict.to_json())
    return {"command": "feasibility", "determinable": verdict.determinable,
            "theorem": verdict.theorem, "notes": verdict.notes,
            "k": args.k, "s1_multi": args.s1_multi, "counters": args.counters,
            "probe_freedom": args.probe_freedom, "detector": args.detector,
            "balanced": args.balanced, "n": args.n}


def _cmd_design_gamma(args) -> dict:
    probes = design_gamma(args.n, args.seed)
    if args.out:
        _write_json(args.out, probes.to_json())
    return {"command": "design-gamma", "n": args.n, "seed": args.seed,
            "count": len(probes), "out": args.out}


def _cmd_ic_check(args) -> dict:
    context = _load("context", MeasurementContext.from_json, args.context)
    result = ic_check(context)
    if args.out:
        _write_json(args.out, result)
    return {"command": "ic-check", **result}


def _cmd_povm_dump(args) -> dict:
    setting = _load("setting", Setting.from_json, args.setting)
    povm = build_povm(setting)
    payload = {"setting": setting.to_json(),
               "elements": [e.to_json() for e in povm.values()]}
    _write_json(args.out, payload)
    return {"command": "povm-dump", "outcomes": len(povm), "out": args.out}


def _cmd_simulate(args) -> dict:
    state = _load_state("state", args.state)
    context = _load("context", MeasurementContext.from_json, args.context)
    M_i = _m_list(args, len(context.settings))
    data = simulate_dataset(state, context, M_i, args.seed)
    _write_json(args.out, data.to_json())
    return {"command": "simulate", "settings": len(context.settings),
            "total_shots": data.total_shots(), "seed": args.seed,
            "out": args.out}


def _trial_worker(payload) -> dict:
    context, truth, M_i, params, seed = payload
    data = simulate_dataset(truth, context, M_i, seed)
    report = reconstruct(context, data, params)
    return {"seed": seed, "fidelity": fidelity(report.estimate, truth),
            "termination": report.termination,
            "iterations": report.iterations,
            "loglik": report.loglik_trace[-1], "r_k": report.rk_trace[-1]}


def _cmd_reconstruct(args) -> dict:
    context = _load("context", MeasurementContext.from_json, args.context)
    params = (_load("params", ReconstructionParams.from_json, args.params)
              if args.params else None)
    truth = _load_state("true state", args.true_state) if args.true_state else None

    if args.trials > 1:
        if truth is None:
            raise ConfigError("--trials > 1 requires --true-state")
        M_i = _m_list(args, len(context.settings))
        tasks = [(context, truth, M_i, params, setting_seed(args.seed, j))
                 for j in range(args.trials)]
        if args.jobs > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                trials = list(pool.map(_trial_worker, tasks))
        else:
            trials = [_trial_worker(t) for t in tasks]
        fids = [t["fidelity"] for t in trials]
        payload = {"trials": trials,
                   "mean_fidelity": float(np.mean(fids)),
                   "std_fidelity": float(np.std(fids, ddof=1))}
        if args.out:
            _write_json(args.out, payload)
        return {"command": "reconstruct", "trials": args.trials,
                "mean_fidelity": payload["mean_fidelity"],
                "std_fidelity": payload["std_fidelity"],
                "nonconverged": sum(t["termination"] != "stopped_on_r" for t in trials),
                "out": args.out}

    if not args.data:
        raise ConfigError("--data is required (or use --trials with --true-state)")
    data = _load("dataset", Dataset.from_json, args.data)
    report = reconstruct(context, data, params)
    payload = report.to_json()
    summary = {"command": "reconstruct", "termination": report.termination,
               "iterations": report.iterations,
               "loglik": report.loglik_trace[-1], "r_k": report.rk_trace[-1]}
    if truth is not None:
        payload["fidelity"] = summary["fidelity"] = fidelity(report.estimate,
                                                             truth)
    if args.out:
        _write_json(args.out, payload)
        summary["out"] = args.out
    return summary


def _cmd_bootstrap(args) -> dict:
    estimate = _load_state("estimate", args.estimate)
    context = _load("context", MeasurementContext.from_json, args.context)
    data = _load("dataset", Dataset.from_json, args.data)
    params = (_load("params", ReconstructionParams.from_json, args.params)
              if args.params else None)
    if args.m is not None or args.m_list is not None:
        M_i = _m_list(args, len(context.settings))
    else:
        M_i = list(data.M_i)
    report = parametric_bootstrap(estimate, context, M_i, args.n_boot, params,
                                  args.seed, data, n_jobs=args.jobs)
    if args.out:
        _write_json(args.out, report.to_json())
    return {"command": "bootstrap", "original_lr": report.original_lr,
            "sigma_deviation": report.sigma_deviation,
            "n_boot": args.n_boot, "nonconverged": report.nonconverged,
            "out": args.out}


def _cmd_fidelity(args) -> dict:
    a = _load_state("state a", args.a)
    b = _load_state("state b", args.b)
    value = fidelity(a, b)
    if args.out:
        _write_json(args.out, {"fidelity": value})
    return {"command": "fidelity", "fidelity": value}


def _cmd_twirl(args) -> dict:
    if args.closed_form:
        if args.closed_form == "tmsv":
            if args.r is None:
                raise ConfigError("--closed-form tmsv requires --r")
            block = twirled_closed_form("tmsv", {"r": args.r}, args.n)
        else:
            if args.alpha_re is None and args.alpha_im is None:
                raise ConfigError("--closed-form cat requires --alpha-re/--alpha-im")
            alpha = complex(args.alpha_re or 0.0, args.alpha_im or 0.0)
            block = twirled_closed_form("cat", {"alpha": alpha}, args.n)
    else:
        if not (args.state and args.partition and args.assignment):
            raise ConfigError("twirl needs either --closed-form or all of "
                              "--state, --partition, --assignment")
        spec = _load("state spec", StateSpec.from_json, args.state)
        partition = _load("partition", PartitionSpec.from_json, args.partition)
        try:
            assignment = [int(v) for v in args.assignment.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--assignment must be comma-separated sector "
                              f"indices: {exc}")
        dense = make_state(spec).density()
        block = twirl_analytic(dense, assignment, partition, args.n)
    _write_json(args.out, block.to_json())
    return {"command": "twirl", "n": args.n,
            "tuple_length": block.tuple_length,
            "trace": block.trace().real, "out": args.out}


# parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wfh-tomo",
                     description="Weak-field-homodyne tomography toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("feasibility",
                       help="decide determinability for a configuration")
    p.add_argument("--k", type=int, required=True, help="number of BS sectors")
    p.add_argument("--s1-multi", action="store_true",
                   help="sector 1 holds more than one input mode")
    p.add_argument("--counters", type=int, choices=(1, 2), default=2)
    p.add_argument("--probe-freedom", choices=("full", "fixed_magnitude"),
                   default="full")
    p.add_argument("--detector", choices=("counting", "click"),
                   default="counting")
    p.add_argument("--balanced", action="store_true",
                   help="beam splitter is balanced (click detector rule)")
    p.add_argument("--n", type=int, default=2, help="photon-number cutoff")
    p.add_argument("--out", help="write the verdict JSON here")
    p.set_defaults(handler=_cmd_feasibility)

    p = sub.add_parser("design-gamma", help="draw an informationally complete "
                                            "probe set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", help="write the probe set JSON here")
    p.set_defaults(handler=_cmd_design_gamma)

    p = sub.add_parser("ic-check", help="rank test of a measurement context")
    p.add_argument("--context", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_ic_check)

    p = sub.add_parser("povm-dump", help="write all POVM elements of one setting")
    p.add_argument("--setting", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_povm_dump)

    p = sub.add_parser("simulate", help="sample counts from a state")
    p.add_argument("--state", required=True, help="block state JSON")
    p.add_argument("--context", required=True)
    p.add_argument("--m", type=int, help="shots per setting")
    p.add_argument("--m-list", help="comma-separated shots, one per setting")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("reconstruct", help="maximum-likelihood estimate")
    p.add_argument("--context", required=True)
    p.add_argument("--data", help="dataset JSON (single-fit mode)")
    p.add_argument("--params", help="ReconstructionParams JSON")
    p.add_argument("--true-state", help="block state JSON for fidelity")
    p.add_argument("--trials", type=int, default=1,
                   help="simulate-and-fit this many datasets from --true-state")
    p.add_argument("--m", type=int, help="shots per setting (trials mode)")
    p.add_argument("--m-list", help="comma-separated shots (trials mode)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_reconstruct)

    p = sub.add_parser("bootstrap", help="parametric bootstrap of the log LR")
    p.add_argument("--estimate", required=True, help="block state JSON")
    p.add_argument("--context", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--n-boot", type=int, required=True)
    p.add_argument("--params")
    p.add_argument("--m", type=int, help="override shots per replicate")
    p.add_argument("--m-list")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_bootstrap)

    p = sub.add_parser("fidelity", help="Uhlmann fidelity of two block states")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_fidelity)

    p = sub.add_parser("twirl", help="block representative of a twirled state")
    p.add_argument("--closed-form", choices=("tmsv", "cat"))
    p.add_argument("--r", type=float, help="tmsv squeezing")
    p.add_argument("--alpha-re", type=float)
    p.add_argument("--alpha-im", type=float)
    p.add_argument("--state", help="StateSpec JSON")
    p.add_argument("--partition", help="PartitionSpec JSON")
    p.add_argument("--assignment", help="comma-separated mode sectors, e.g. 0,0")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_twirl)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        summary = args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DatasetMismatch as exc:
        print(f"error: dataset does not fit the context: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (np.linalg.LinAlgError, ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    print(json.dumps(summary))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
