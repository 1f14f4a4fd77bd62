"""Benchmark workloads: inputs made from the seed, one operation, its checks.

Every workload drives the ``wfh-tomo`` CLI in-process through
``wfhtomo.cli.main`` where a CLI path exists, and calls the library's public
functions only where none does (building a context file, the criterion-01
truth state, the Monte Carlo twirl oracle).
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import statistics
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from wfhtomo import cli, fock, twirl
from wfhtomo.fock import DenseOperator, OccupationBasis, StateVector
from wfhtomo.optics import PartitionSpec
from wfhtomo.povm import CounterConfig, MeasurementContext, Setting
from wfhtomo.probes import ProbeSet

from calibrate import now
from layers import LAYERS

BALANCED_MULTI = PartitionSpec(sectors=((0.5 ** 0.5, 0.5 ** 0.5),), s1_multi=True)

# sha256 of the quick-start `simulate` artifact (README inputs, default seed
# 1905). Datasets must stay byte-identical across optimisations.
QUICKSTART_DATA_SHA256 = "3493f80b7224ffbb8de27f699de7bf12cd236f3a108c98e28f0900603d258053"


def derive_seed(seed: int, index: int) -> int:
    """A well-separated 63-bit seed for the index-th operation of a run."""
    state = np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)
    return int(state[0] >> np.uint64(1))


@dataclass
class Tally:
    """Operations attempted and failed, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(what)

    def check(self, ok: bool, what: str) -> None:
        self.record(1, 0 if ok else 1, what)


@dataclass
class CliRun:
    code: int | None
    summary: dict | None
    seconds: float
    warnings: list[str]
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.code == 0 and isinstance(self.summary, dict)

    def get(self, key, default=None):
        return self.summary.get(key, default) if self.ok else default


def run_cli(argv: list[str]) -> CliRun:
    """One `wfh-tomo` command in-process, timed by ``now()`` (reference kernels
    left out); stdout must be one JSON line."""
    out = io.StringIO()
    error = None
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out):
        warnings.simplefilter("always")
        start = now()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a failed run
            code, error = None, traceback.format_exc()
        seconds = now() - start
    lines = out.getvalue().splitlines()
    summary = None
    if len(lines) == 1:
        try:
            summary = json.loads(lines[0])
        except json.JSONDecodeError:
            error = f"unparseable summary line {lines[0]!r}"
    elif code == 0:
        error = f"expected one summary line, got {len(lines)}"
    return CliRun(code, summary, seconds, [str(w.message) for w in caught], error)


def _require(run: CliRun, what: str) -> None:
    if not run.ok:
        raise RuntimeError(f"set-up step {what} failed: exit {run.code}, {run.error}")


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _quickstart_settings(work: Path, counter: CounterConfig) -> list[Setting]:
    """The README's 16 probes (`design-gamma --n 3 --seed 7`) as settings."""
    probes_path = work / "probes.json"
    _require(run_cli(["design-gamma", "--n", "3", "--seed", "7",
                      "--out", str(probes_path)]), "design-gamma")
    with open(probes_path) as fh:
        probes = ProbeSet.from_json(json.load(fh))
    return [Setting(gamma=g, counter=counter, partition=BALANCED_MULTI, N=probes.N)
            for g in probes.gammas]


class Workload:
    """One benchmark workload.

    ``setup`` makes the inputs and pays the first context load; it may run
    several times. ``op`` runs one timed operation, records its checks in the
    tally and returns its named latencies in seconds by ``calibrate.now()``;
    the caller adds the operation's own time as ``op_s``. ``op_seconds`` is
    the run's ``op_s`` metric and ``summarise`` gives the workload's own
    named metrics.
    ``layer_map`` names the metric each layer's self time should move.
    """

    name = ""
    layer_map: dict[str, str] = {}

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.ops_done = 0

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, tally: Tally) -> dict[str, float]:
        raise NotImplementedError

    def op_seconds(self, records: list[dict]) -> float:
        """The mean over the run: a slow stretch of the machine moves a mean
        in proportion to its length, where it flips a median whole."""
        return statistics.fmean(r["op_s"] for r in records)

    def summarise(self, records: list[dict]) -> dict[str, tuple[float, str]]:
        return {}


class Quickstart(Workload):
    """The README round trip: ic-check, simulate, reconstruct, bootstrap.

    Every seed in it is the README's (probes 7, simulate 1905, bootstrap
    777), so the workload seed does not change its inputs: the certified fit
    needs 2k to 10k iterations depending on the dataset, and at most seeds
    the README's fidelity check (>= 0.999) does not hold at 20k shots.
    """

    name = "quickstart"
    N_BOOT = 2
    layer_map = {"cli": "roundtrip_s", "povm": "cmd.ic-check_s",
                 "sim": "cmd.simulate_s", "mle": "cmd.reconstruct_s",
                 "stats": "cmd.bootstrap_s", "optics": "roundtrip_s",
                 "twirl": "roundtrip_s", "fock": "cmd.reconstruct_s"}

    def setup(self) -> None:
        w = self.work
        settings = _quickstart_settings(w, CounterConfig(counters=2, N_c=6))
        _write_json(w / "context.json", MeasurementContext.build(settings).to_json())
        _require(run_cli(["twirl", "--closed-form", "cat", "--alpha-re", "0.5",
                          "--n", "3", "--out", str(w / "truth.json")]), "twirl")

    def op(self, tally: Tally) -> dict[str, float]:
        w = self.work
        ctx, truth, data = (str(w / n) for n in ("context.json", "truth.json", "data.json"))
        report, estimate, boot = (str(w / n) for n in ("report.json", "estimate.json",
                                                       "boot.json"))
        times = {}

        run = run_cli(["ic-check", "--context", ctx])
        times["cmd.ic-check_s"] = run.seconds
        tally.check(run.get("is_ic") is True and run.get("rank") == run.get("required"),
                    f"ic-check: {run.summary or run.error}")

        run = run_cli(["simulate", "--state", truth, "--context", ctx,
                       "--m", "20000", "--out", data])
        times["cmd.simulate_s"] = run.seconds
        digest = hashlib.sha256(Path(data).read_bytes()).hexdigest() if run.ok else None
        tally.check(digest == QUICKSTART_DATA_SHA256,
                    f"simulate: exit {run.code}, artifact sha256 {digest}")

        run = run_cli(["reconstruct", "--context", ctx, "--data", data,
                       "--true-state", truth, "--out", report])
        times["cmd.reconstruct_s"] = run.seconds
        tally.check(run.get("termination") == "stopped_on_r"
                    and run.get("fidelity", 0.0) >= 0.999,
                    f"reconstruct: {run.summary or run.error}")

        if run.ok:
            with open(report) as fh:
                _write_json(Path(estimate), json.load(fh)["estimate"])
            run = run_cli(["bootstrap", "--estimate", estimate, "--context", ctx,
                           "--data", data, "--n-boot", str(self.N_BOOT),
                           "--seed", "777", "--jobs", "1", "--out", boot])
            times["cmd.bootstrap_s"] = run.seconds
            sigma = run.get("sigma_deviation", math.inf)
            tally.check(abs(sigma) <= 3.0, f"bootstrap: {run.summary or run.error}")
        else:
            tally.check(False, "bootstrap: skipped, no estimate")
        return times

    def summarise(self, records):
        return {"roundtrip_s": (self.op_seconds(records), "s")}


class TrialsC01(Workload):
    """`reconstruct --trials` on the criterion-01 context (rank 90 of 91).

    Each fit needs only tens of iterations, so per-call cost dominates. The
    expected non-IC warning of every fit is captured and counted.
    """

    name = "trials-c01"
    TRIALS = 10
    GAMMAS = (0.9,
              1.1 * np.exp(1j * math.pi / 10),
              1.3 * np.exp(1j * math.pi / 5),
              1.5 * np.exp(3j * math.pi / 10),
              1.7 * np.exp(2j * math.pi / 5))
    layer_map = dict.fromkeys(LAYERS, "trials_per_s")

    def setup(self) -> None:
        w = self.work
        N = 5
        settings = [Setting(gamma=g, counter=CounterConfig(counters=2, N_c=9),
                            partition=BALANCED_MULTI, N=N) for g in self.GAMMAS]
        _write_json(w / "context.json", MeasurementContext.build(settings).to_json())
        # twirled |0.2 e^{i pi/4}> (x) |0>, truncated at total photon number N
        basis = OccupationBasis(2, N)
        alpha = 0.2 * np.exp(1j * math.pi / 4)
        amps = np.zeros(basis.size, dtype=complex)
        for n in range(N + 1):
            amps[basis.index((n, 0))] = alpha ** n / math.sqrt(math.factorial(n))
        amps /= np.linalg.norm(amps)
        truth = twirl.twirl_analytic(StateVector(basis, amps).density(), [0, 0],
                                     BALANCED_MULTI, N)
        _write_json(w / "truth.json", truth.to_json())
        _write_json(w / "params.json", {"delta_L": 1e-8, "r_stop": 1e-3})

    def op(self, tally: Tally) -> dict[str, float]:
        w = self.work
        out = w / "trials.json"
        seed = derive_seed(self.seed, self.ops_done)
        self.ops_done += 1
        run = run_cli(["reconstruct", "--context", str(w / "context.json"),
                       "--true-state", str(w / "truth.json"),
                       "--params", str(w / "params.json"),
                       "--trials", str(self.TRIALS), "--m", "1000",
                       "--seed", str(seed), "--jobs", "1", "--out", str(out)])
        terminations = []
        if run.ok:
            with open(out) as fh:
                terminations = [t["termination"] for t in json.load(fh)["trials"]]
        failed = self.TRIALS - sum(t == "stopped_on_r" for t in terminations)
        tally.record(self.TRIALS, failed, f"trials seed {seed}: {failed} not "
                     f"certified ({run.error or terminations})")
        non_ic = sum("not informationally complete" in m for m in run.warnings)
        return {"cmd.reconstruct-trials_s": run.seconds, "trials": self.TRIALS,
                "non_ic_warnings": non_ic}

    def op_seconds(self, records):
        """Seconds per trial over the whole run: the trials' datasets change
        with the seed, so the run's total is steadier than a median."""
        return (sum(r["cmd.reconstruct-trials_s"] for r in records)
                / sum(r["trials"] for r in records))

    def summarise(self, records):
        return {"trials_per_s": (1.0 / self.op_seconds(records), "1/s"),
                "non_ic_warnings": (sum(r["non_ic_warnings"] for r in records), "count")}


class LossyContext(Workload):
    """`ic-check` on the quick-start probes with counter loss (0.8, 0.7).

    Nearly pure POVM construction: the pi_k tail sums and the 26^2 loss
    convolution. The warm-up load in set-up is the ideal context of the same
    probes; every lossy load is a timed operation. The inputs have no random
    part, so the workload seed does not change them.
    """

    name = "lossy-context"
    layer_map = dict.fromkeys(LAYERS, "cmd.ic-check_s")

    def setup(self) -> None:
        w = self.work
        counter = CounterConfig(counters=2, N_c=6)
        settings = _quickstart_settings(w, counter)
        ideal = MeasurementContext.build(settings)
        lossy = dataclasses.replace(counter, loss=(0.8, 0.7))
        _write_json(w / "lossy.json", {
            **ideal.to_json(),
            "settings": [dataclasses.replace(s, counter=lossy).to_json()
                         for s in settings]})

    def op(self, tally: Tally) -> dict[str, float]:
        run = run_cli(["ic-check", "--context", str(self.work / "lossy.json")])
        tally.check(run.get("is_ic") is True and run.get("rank") == run.get("required"),
                    f"lossy ic-check: {run.summary or run.error}")
        return {"cmd.ic-check_s": run.seconds}


class TwirlOracle(Workload):
    """`twirl_oracle_mc` on the criterion-05 shape, checked against the
    analytic twirl: 3 modes, N=3, balanced s1_multi partition, all modes in
    sector 1. The random state and every batch's Haar stream come from the
    seed. There is no CLI path for the Monte Carlo oracle."""

    name = "twirl-oracle"
    SAMPLES = 1000
    ASSIGNMENT = (0, 0, 0)
    layer_map = dict.fromkeys(LAYERS, "twirl_oracle.samples_per_s")

    def setup(self) -> None:
        basis = OccupationBasis(3, 3)
        rng = np.random.default_rng(self.seed)
        g = rng.standard_normal((basis.size, basis.size)) \
            + 1j * rng.standard_normal((basis.size, basis.size))
        rho = g @ g.conj().T
        self.rho = DenseOperator(basis, rho / np.trace(rho).real)

    def op(self, tally: Tally) -> dict[str, float]:
        seed = derive_seed(self.seed, self.ops_done)
        self.ops_done += 1
        start = now()
        mc = twirl.twirl_oracle_mc(self.rho, self.ASSIGNMENT, BALANCED_MULTI,
                                   self.SAMPLES, seed)
        oracle_s = now() - start
        block = twirl.twirl_analytic(self.rho, self.ASSIGNMENT, BALANCED_MULTI, 3)
        analytic = twirl.embed_full(block, self.ASSIGNMENT, self.rho.basis)
        deviation = float(np.max(np.abs(mc.entries - analytic.entries)))
        limit = 0.5 / math.sqrt(self.SAMPLES)
        tally.check(deviation <= limit, f"twirl oracle seed {seed}: max deviation "
                    f"{deviation:.3e} above {limit:.3e}")
        return {"twirl_oracle_mc_s": oracle_s, "samples": self.SAMPLES,
                "max_deviation": deviation,
                "fidelity": fock.fidelity(mc, analytic)}

    def summarise(self, records):
        samples = sum(r["samples"] for r in records)
        wall = sum(r["twirl_oracle_mc_s"] for r in records)
        return {"twirl_oracle.samples_per_s": (samples / wall, "1/s"),
                "twirl_oracle.max_deviation": (max(r["max_deviation"] for r in records), "1"),
                "twirl_oracle.min_fidelity": (min(r["fidelity"] for r in records), "1")}


WORKLOADS = {w.name: w for w in (Quickstart, TrialsC01, LossyContext, TwirlOracle)}

