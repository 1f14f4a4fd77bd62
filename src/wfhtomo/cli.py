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
from dataclasses import replace

import numpy as np

from .fock import StateSpec, fidelity, make_state
from .mle import ReconstructionParams, reconstruct
from .optics import PartitionSpec
from .povm import DatasetMismatch, MeasurementContext, Setting, build_povm, ic_check
from .probes import design_gamma, feasibility
from .sim import Dataset, simulate_dataset
from .stats import parametric_bootstrap, refit_replicates
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


def _load(label: str, parser, path: str):
    """parser(the file's content), which must be a JSON object."""
    payload = _load_json(path)
    try:
        if not isinstance(payload, dict):
            raise TypeError(f"the file must hold a JSON object, got {type(payload).__name__}")
        return parser(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {label} ({path}): {exc}") from exc


def _load_state(label: str, path: str) -> BlockOperator:
    """A block state file; it must hold a state: Hermitian, PSD and trace 1."""
    def parse(payload):
        state = BlockOperator.from_json(payload)
        state.validate_state()
        return state
    return _load(label, parse, path)


def _load_params(args) -> ReconstructionParams:
    """The --params file, if any; a fit uses APG unless the file names a method."""
    def parse(payload):
        params = ReconstructionParams.from_json(payload)
        return params if "method" in payload else replace(params, method="apg")
    return _load("params", parse, args.params) if args.params else \
        ReconstructionParams(method="apg")


def _write_json(path: str, payload: dict) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")  # one write, not one per token
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _check_at_least(args, **lows: int) -> None:
    """Each named integer flag must be at least its bound."""
    for name, low in lows.items():
        value = getattr(args, name)
        if value < low:
            raise ConfigError(f"--{name.replace('_', '-')} must be >= {low}, got {value}")


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


def _trial_records(fits, truth: BlockOperator, method: str) -> list[dict]:
    """The ``reconstruct --trials`` record of each refit: its seed, fidelity to
    the truth, fit method, termination, iterations, final log-likelihood and r_k."""
    return [{"seed": f.seed, "fidelity": fidelity(f.estimate, truth), "method": method,
             "termination": f.termination, "iterations": f.iterations, "loglik": f.loglik,
             "r_k": f.r_k} for f in fits]


def _cmd_reconstruct(args) -> dict:
    context = _load("context", MeasurementContext.from_json, args.context)
    params = _load_params(args)
    truth = _load_state("true state", args.true_state) if args.true_state else None
    if truth is not None:
        context.vec(truth)  # a truth of another block structure fails here, before any fit
    _check_at_least(args, trials=1, jobs=1)

    if args.trials > 1:
        if truth is None:
            raise ConfigError("--trials > 1 requires --true-state")
        fits = refit_replicates(truth, context, _m_list(args, len(context.settings)),
                                args.trials, params, args.seed, args.jobs)
        trials = _trial_records(fits, truth, params.method)
        fids = [t["fidelity"] for t in trials]
        payload = {"trials": trials,
                   "mean_fidelity": float(np.mean(fids)),
                   "std_fidelity": float(np.std(fids, ddof=1))}
        if args.out:
            _write_json(args.out, payload)
        return {"command": "reconstruct", "method": params.method, "trials": args.trials,
                "mean_fidelity": payload["mean_fidelity"],
                "std_fidelity": payload["std_fidelity"],
                "nonconverged": sum(t["termination"] != "stopped_on_r" for t in trials),
                "out": args.out}

    if not args.data:
        raise ConfigError("--data is required (or use --trials with --true-state)")
    data = _load("dataset", Dataset.from_json, args.data)
    report = reconstruct(context, data, params)
    payload = report.to_json()
    summary = {"command": "reconstruct", "method": params.method,
               "termination": report.termination,
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
    params = _load_params(args)
    _check_at_least(args, n_boot=2, jobs=1)
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
            "p_value": report.p_value, "n_boot": args.n_boot, "nonconverged": report.nonconverged,
            "out": args.out}


def _cmd_fidelity(args) -> dict:
    a = _load_state("state a", args.a)
    b = _load_state("state b", args.b)
    value = fidelity(a, b)
    if args.out:
        _write_json(args.out, {"fidelity": value})
    return {"command": "fidelity", "fidelity": value}


def _cmd_twirl(args) -> dict:
    for flag in ("r", "alpha_re", "alpha_im"):
        value = getattr(args, flag)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"--{flag.replace('_', '-')} must be a finite number, got {value}")
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

def _arg(flag: str, **kwargs) -> tuple[str, dict]:
    return flag, kwargs


_CONTEXT = _arg("--context", required=True)
_SEED = _arg("--seed", type=int, default=DEFAULT_SEED)
_JOBS = _arg("--jobs", type=int, default=1)

# command: (handler, help, its arguments in the order that its --help lists them)
_COMMANDS = {
    "feasibility": (_cmd_feasibility, "decide determinability for a configuration", (
        _arg("--k", type=int, required=True, help="number of BS sectors"),
        _arg("--s1-multi", action="store_true",
             help="sector 1 holds more than one input mode"),
        _arg("--counters", type=int, choices=(1, 2), default=2),
        _arg("--probe-freedom", choices=("full", "fixed_magnitude"), default="full"),
        _arg("--detector", choices=("counting", "click"), default="counting"),
        _arg("--balanced", action="store_true",
             help="beam splitter is balanced (click detector rule)"),
        _arg("--n", type=int, default=2, help="photon-number cutoff"),
        _arg("--out", help="write the verdict JSON here"))),
    "design-gamma": (_cmd_design_gamma, "draw an informationally complete probe set", (
        _arg("--n", type=int, required=True),
        _SEED,
        _arg("--out", help="write the probe set JSON here"))),
    "ic-check": (_cmd_ic_check, "rank test of a measurement context", (
        _CONTEXT, _arg("--out"))),
    "povm-dump": (_cmd_povm_dump, "write all POVM elements of one setting", (
        _arg("--setting", required=True), _arg("--out", required=True))),
    "simulate": (_cmd_simulate, "sample counts from a state", (
        _arg("--state", required=True, help="block state JSON"),
        _CONTEXT,
        _arg("--m", type=int, help="shots per setting"),
        _arg("--m-list", help="comma-separated shots, one per setting"),
        _SEED,
        _arg("--out", required=True))),
    "reconstruct": (_cmd_reconstruct, "maximum-likelihood estimate", (
        _CONTEXT,
        _arg("--data", help="dataset JSON (single-fit mode)"),
        _arg("--params", help="ReconstructionParams JSON; fits use method "
                              "apg unless it names one"),
        _arg("--true-state", help="block state JSON for fidelity"),
        _arg("--trials", type=int, default=1,
             help="simulate-and-fit this many datasets from --true-state"),
        _arg("--m", type=int, help="shots per setting (trials mode)"),
        _arg("--m-list", help="comma-separated shots (trials mode)"),
        _SEED, _JOBS, _arg("--out"))),
    "bootstrap": (_cmd_bootstrap, "parametric bootstrap of the log LR", (
        _arg("--estimate", required=True, help="block state JSON"),
        _CONTEXT,
        _arg("--data", required=True),
        _arg("--n-boot", type=int, required=True),
        _arg("--params", help="ReconstructionParams JSON; refits use method "
                              "apg unless it names one"),
        _arg("--m", type=int, help="override shots per replicate"),
        _arg("--m-list"),
        _SEED, _JOBS, _arg("--out"))),
    "fidelity": (_cmd_fidelity, "Uhlmann fidelity of two block states", (
        _arg("--a", required=True), _arg("--b", required=True), _arg("--out"))),
    "twirl": (_cmd_twirl, "block representative of a twirled state", (
        _arg("--closed-form", choices=("tmsv", "cat")),
        _arg("--r", type=float, help="tmsv squeezing"),
        _arg("--alpha-re", type=float), _arg("--alpha-im", type=float),
        _arg("--state", help="StateSpec JSON"),
        _arg("--partition", help="PartitionSpec JSON"),
        _arg("--assignment", help="comma-separated mode sectors, e.g. 0,0"),
        _arg("--n", type=int, required=True),
        _arg("--out", required=True))),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The wfh-tomo parser with every subcommand, or with only ``command``'s,
    which parses that command's arguments alike."""
    parser = _Parser(prog="wfh-tomo",
                     description="Weak-field-homodyne tomography toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, arguments) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            for flag, kwargs in arguments:
                p.add_argument(flag, **kwargs)
            p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # only a named command's subparser; help or a missing or unknown command lists all
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
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
