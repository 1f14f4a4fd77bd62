import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import wfhtomo
from wfhtomo import cli, sim, stats
from wfhtomo.fock import StateSpec, make_state
from wfhtomo.optics import PartitionSpec
from wfhtomo.povm import (CounterConfig, MeasurementContext, PovmElement, Setting,
                          ic_check, identity_response)
from wfhtomo.probes import ProbeSet, design_gamma, interpolation_matrix
from wfhtomo.sim import Dataset, simulate_dataset
from wfhtomo.twirl import BlockOperator, reduced_assignment, twirl_analytic, twirled_closed_form

BAL = PartitionSpec(sectors=((math.sqrt(0.5), math.sqrt(0.5)),), s1_multi=False)
N = 1


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(out[-1]) if out else None
    return code, summary


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    dense = make_state(StateSpec(kind="coherent", N=N, alpha=0.3)).density()
    rho = twirl_analytic(dense, reduced_assignment(BAL), BAL, N)
    (root / "state.json").write_text(json.dumps(rho.to_json()))
    probes = design_gamma(N, seed=3)
    settings = [Setting(gamma=g, counter=CounterConfig(counters=2, N_c=4),
                        partition=BAL, N=N) for g in probes.gammas]
    ctx = MeasurementContext.build(settings)
    (root / "context.json").write_text(json.dumps(ctx.to_json()))
    (root / "setting.json").write_text(json.dumps(settings[0].to_json()))
    return root, rho, ctx


def test_feasibility_summary_line(capsys):
    code, summary = run_cli(capsys, "feasibility", "--k", "3", "--s1-multi",
                            "--counters", "2")
    assert code == 0
    assert summary["command"] == "feasibility"
    assert summary["determinable"] is False
    assert "K <= 2" in summary["theorem"]


def test_feasibility_writes_verdict(capsys, tmp_path):
    out = tmp_path / "verdict.json"
    code, summary = run_cli(capsys, "feasibility", "--k", "1", "--out", str(out))
    assert code == 0
    assert summary["determinable"] is True
    saved = json.loads(out.read_text())
    assert saved["determinable"] is True
    assert saved["theorem"]


_CHOICES = ("'feasibility', 'design-gamma', 'ic-check', 'povm-dump', 'simulate', "
            "'reconstruct', 'bootstrap', 'fidelity', 'twirl'")


def test_invalid_flag_exits_1(capsys):
    # argparse's own message, whether main builds one command's parser or all nine
    for argv, message in [
            (["feasibility", "--k", "3", "--counters", "7"],
             "argument --counters: invalid choice: 7 (choose from 1, 2)"),
            (["no-such-command"],
             f"argument command: invalid choice: 'no-such-command' (choose from {_CHOICES})"),
            ([], "the following arguments are required: command"),
            (["--bogus"], "the following arguments are required: command"),
            (["simulate", "--state", "x", "--context", "c", "--out", "d", "--bogus"],
             "unrecognized arguments: --bogus"),
            (["simulate", "--state", "x"],
             "the following arguments are required: --context, --out"),
            (["reconstruct", "--jobs"], "argument --jobs: expected one argument")]:
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_missing_file_exits_1(capsys, tmp_path):
    code = cli.main(["ic-check", "--context", str(tmp_path / "nope.json")])
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = cli.main(["ic-check", "--context", str(bad)])
    assert code == 1


def test_design_gamma_artifact(capsys, tmp_path):
    out = tmp_path / "probes.json"
    code, summary = run_cli(capsys, "design-gamma", "--n", "1", "--seed", "4",
                            "--out", str(out))
    assert code == 0
    assert summary["count"] == 4
    probes = ProbeSet.from_json(json.loads(out.read_text()))
    m = interpolation_matrix(probes)
    assert np.linalg.matrix_rank(m) == 4


def test_design_gamma_default_seed_documented(capsys):
    code, summary = run_cli(capsys, "design-gamma", "--n", "0")
    assert code == 0
    assert summary["seed"] == cli.DEFAULT_SEED


def test_ic_check(capsys, workspace):
    root, _, _ = workspace
    code, summary = run_cli(capsys, "ic-check", "--context",
                            str(root / "context.json"))
    assert code == 0
    assert summary["is_ic"] is True
    assert summary["rank"] == summary["required"] == 4


def test_ic_check_reports_its_margin(capsys, workspace, tmp_path):
    root, _, ctx = workspace
    out = tmp_path / "ic.json"
    code, summary = run_cli(capsys, "ic-check", "--context", str(root / "context.json"),
                            "--out", str(out))
    assert code == 0
    written = json.loads(out.read_text())
    assert summary["ic_margin"] == written["ic_margin"] == ic_check(ctx)["ic_margin"]
    assert 0.0 < written["ic_margin"] <= 1.0


def _ic_check_with_edit(capsys, workspace, tmp_path, edit):
    root, _, _ = workspace
    payload = json.loads((root / "context.json").read_text())
    edit(payload["settings"][0])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code = cli.main(["ic-check", "--context", str(path)])
    return code, capsys.readouterr().err


def test_ic_check_nan_gamma_exits_1(capsys, workspace, tmp_path):
    def edit(setting):
        setting["gamma"]["re"] = math.nan
    code, err = _ic_check_with_edit(capsys, workspace, tmp_path, edit)
    assert code == 1
    assert "gamma" in err


def test_ic_check_nan_response_exits_1(capsys, workspace, tmp_path):
    def edit(setting):
        T = identity_response(setting["counter"]["n_c"], 8)
        T[0, 0] = math.nan
        setting["counter"]["response"] = [T.tolist(), T.tolist()]
    code, err = _ic_check_with_edit(capsys, workspace, tmp_path, edit)
    assert code == 1
    assert "response" in err


@pytest.mark.parametrize("field, value", [(("N",), 2.7), (("N",), True),
                                          (("counter", "n_c"), 2.5),
                                          (("counter", "counters"), True)],
                         ids=["N-float", "N-bool", "n_c-float", "counters-bool"])
def test_ic_check_non_integer_field_exits_1(capsys, workspace, tmp_path, field, value):
    def edit(setting):
        (setting["counter"] if len(field) == 2 else setting)[field[-1]] = value
    code, err = _ic_check_with_edit(capsys, workspace, tmp_path, edit)
    assert code == 1
    assert f"settings[0].{'.'.join(field)} must be a JSON integer, got {value!r}" in err


@pytest.mark.parametrize("value", ["false", 0, None], ids=["string", "integer", "null"])
def test_ic_check_non_boolean_s1_multi_exits_1(capsys, workspace, tmp_path, value):
    def edit(setting):
        setting["partition"]["s1_multi"] = value
    code, err = _ic_check_with_edit(capsys, workspace, tmp_path, edit)
    assert code == 1
    assert f"settings[0].partition.s1_multi must be a JSON boolean, got {value!r}" in err


@pytest.mark.parametrize("field, value", [
    (("gamma", "re"), "0.5"), (("gamma", "im"), True),
    (("partition", "sectors", 0, "eta"), "0.7071067811865476")],
    ids=["gamma-re-string", "gamma-im-bool", "eta-string"])
def test_ic_check_non_number_field_exits_1(capsys, workspace, tmp_path, field, value):
    def edit(setting):
        node = setting
        for key in field[:-1]:
            node = node[key]
        node[field[-1]] = value
    code, err = _ic_check_with_edit(capsys, workspace, tmp_path, edit)
    assert code == 1
    path = ".".join(str(k) for k in field).replace(".0.", "[0].")
    assert f"settings[0].{path} must be a JSON number, got {value!r}" in err


def test_ic_check_non_array_loss_exits_1(capsys, workspace, tmp_path):
    def edit(setting):
        setting["counter"]["loss"] = "0.9"
    code, err = _ic_check_with_edit(capsys, workspace, tmp_path, edit)
    assert code == 1
    assert "settings[0].counter.loss must be a JSON array" in err


@pytest.mark.parametrize("value", [5, None, [2, 6]], ids=["integer", "null", "array"])
def test_ic_check_non_object_counter_exits_1(capsys, workspace, tmp_path, value):
    def edit(setting):
        setting["counter"] = value
    code, err = _ic_check_with_edit(capsys, workspace, tmp_path, edit)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"settings[0].counter must be a JSON object, got {value!r}" in err


def test_ic_check_single_counter_click_setting_exits_1(capsys, workspace, tmp_path):
    # a click setting reads two on/off detectors; with one counter it used to build
    # the four two-detector outcomes all the same
    def edit(setting):
        setting["detector"] = "click"
        setting["counter"].update(counters=1, n_c=0)
    code, err = _ic_check_with_edit(capsys, workspace, tmp_path, edit)
    assert code == 1
    assert "click detectors need counters = 2, got 1" in err


@pytest.mark.parametrize("payload, message", [
    ({"settings": [5]}, "settings[0] must be a JSON object, got 5"),
    ({"settings": 5}, "settings must be a JSON array, got 5"),
    ([1], "must hold a JSON object, got list")],
    ids=["setting-integer", "settings-integer", "top-level-array"])
def test_ic_check_non_object_context_exits_1(capsys, tmp_path, payload, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code = cli.main(["ic-check", "--context", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_ic_check_non_object_sector_exits_1(capsys, workspace, tmp_path):
    def edit(setting):
        setting["partition"]["sectors"][0] = 0.5
    code, err = _ic_check_with_edit(capsys, workspace, tmp_path, edit)
    assert code == 1
    assert "settings[0].partition.sectors[0] must be a JSON object, got 0.5" in err


@pytest.mark.parametrize("edit, message", [
    (lambda s: s.update(N=2.7), "N must be a JSON integer, got 2.7"),
    (lambda s: s["counter"].update(loss="0.9"), "counter.loss must be a JSON array"),
    (lambda s: s.update(counter=5), ": counter must be a JSON object, got 5")],
    ids=["N-float", "loss-string", "counter-integer"])
def test_povm_dump_bad_setting_field_exits_1(capsys, workspace, tmp_path, edit, message):
    root, _, _ = workspace
    payload = json.loads((root / "setting.json").read_text())
    edit(payload)
    path = tmp_path / "setting.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "povm.json"
    code = cli.main(["povm-dump", "--setting", str(path), "--out", str(out)])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_twirl_state_spec_non_integer_n_exits_1(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**StateSpec(kind="coherent", N=2, alpha=0.3).to_json(),
                                "N": 2.7}))
    part = tmp_path / "part.json"
    part.write_text(json.dumps(BAL.to_json()))
    code = cli.main(["twirl", "--state", str(spec), "--partition", str(part),
                     "--assignment", "0", "--n", "2", "--out", str(tmp_path / "twirled.json")])
    assert code == 1
    assert "N must be a JSON integer, got 2.7" in capsys.readouterr().err


def test_twirl_state_spec_unknown_kind_exits_1(capsys, tmp_path):
    # an unknown kind used to be read as a tmsv and fail on its missing r;
    # the message names the kind
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "foo", "N": 2}))
    part = tmp_path / "part.json"
    part.write_text(json.dumps(BAL.to_json()))
    code = cli.main(["twirl", "--state", str(spec), "--partition", str(part),
                     "--assignment", "0", "--n", "2", "--out", str(tmp_path / "twirled.json")])
    assert code == 1
    assert "kind must be one of ('coherent', 'tmsv', 'cat'), got 'foo'" in capsys.readouterr().err


def test_load_path_builds_no_per_outcome_elements(capsys, monkeypatch, workspace, tmp_path):
    # the commands that load a context read its design matrix; none of them
    # wraps a kernel row into a per-outcome PovmElement
    import wfhtomo.povm as povm_module

    def refuse(*args):
        raise AssertionError("a per-outcome element was built")
    monkeypatch.setattr(povm_module, "_wrap", refuse)
    root, _, _ = workspace
    ctx, state = str(root / "context.json"), str(root / "state.json")
    data, report, est = (tmp_path / n for n in ("data.json", "report.json", "est.json"))
    assert cli.main(["ic-check", "--context", ctx]) == 0
    assert cli.main(["simulate", "--state", state, "--context", ctx, "--m", "300",
                     "--seed", "5", "--out", str(data)]) == 0
    assert cli.main(["reconstruct", "--context", ctx, "--data", str(data),
                     "--out", str(report)]) == 0
    est.write_text(json.dumps(json.loads(report.read_text())["estimate"]))
    assert cli.main(["bootstrap", "--estimate", str(est), "--context", ctx,
                     "--data", str(data), "--n-boot", "2", "--seed", "21",
                     "--out", str(tmp_path / "boot.json")]) == 0


def test_povm_dump(capsys, workspace, tmp_path):
    root, _, _ = workspace
    out = tmp_path / "povm.json"
    code, summary = run_cli(capsys, "povm-dump", "--setting",
                            str(root / "setting.json"), "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert summary["outcomes"] == len(payload["elements"]) == 6 * 6
    total = None
    for item in payload["elements"]:
        op = BlockOperator.from_json(item["op"])
        total = op if total is None else total + op
    ident = BlockOperator.identity(N, 0)
    assert np.allclose(total.blocks[()], ident.blocks[()], atol=1e-8)


def test_simulate_deterministic(capsys, workspace, tmp_path):
    root, _, _ = workspace
    for seed in (7, -3):  # any JSON integer is a seed, a negative one too
        d1, d2 = tmp_path / f"d1_{seed}.json", tmp_path / f"d2_{seed}.json"
        for out in (d1, d2):
            code, summary = run_cli(capsys, "simulate",
                                    "--state", str(root / "state.json"),
                                    "--context", str(root / "context.json"),
                                    "--m", "500", "--seed", str(seed), "--out", str(out))
            assert code == 0
            assert summary["total_shots"] == 2000
        assert d1.read_bytes() == d2.read_bytes()
        # the dataset records its seed, and reconstruct reads it back
        assert json.loads(d1.read_text())["seed"] == seed
        assert run_cli(capsys, "reconstruct", "--context", str(root / "context.json"),
                       "--data", str(d1))[0] == 0
    other = tmp_path / "d3.json"
    run_cli(capsys, "simulate", "--state", str(root / "state.json"),
            "--context", str(root / "context.json"),
            "--m", "500", "--seed", "8", "--out", str(other))
    assert other.read_bytes() != (tmp_path / "d1_7.json").read_bytes()


def test_readme_quick_start_dataset_is_byte_identical(capsys, tmp_path):
    # the README quick-start: its simulate data.json, its reconstruct report.json (whose
    # traces are the fit's iterates) and its bootstrap boot.json are pinned byte for byte
    def run(*argv):
        assert run_cli(capsys, *argv)[0] == 0

    run("design-gamma", "--n", "3", "--seed", "7", "--out", str(tmp_path / "probes.json"))
    probes = ProbeSet.from_json(json.loads((tmp_path / "probes.json").read_text()))
    partition = PartitionSpec(sectors=((0.5 ** 0.5, 0.5 ** 0.5),), s1_multi=True)
    counter = CounterConfig(counters=2, N_c=6)
    context = MeasurementContext.build([Setting(gamma=g, counter=counter, partition=partition,
                                                N=probes.N) for g in probes.gammas])
    (tmp_path / "context.json").write_text(json.dumps(context.to_json()))
    run("twirl", "--closed-form", "cat", "--alpha-re", "0.5", "--n", "3",
        "--out", str(tmp_path / "truth.json"))
    run("simulate", "--state", str(tmp_path / "truth.json"), "--context",
        str(tmp_path / "context.json"), "--m", "20000", "--out", str(tmp_path / "data.json"))
    assert hashlib.sha256((tmp_path / "data.json").read_bytes()).hexdigest() == \
        "3493f80b7224ffbb8de27f699de7bf12cd236f3a108c98e28f0900603d258053"
    run("reconstruct", "--context", str(tmp_path / "context.json"), "--data",
        str(tmp_path / "data.json"), "--true-state", str(tmp_path / "truth.json"),
        "--out", str(tmp_path / "report.json"))
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == \
        "70ce9fd3d52aeb26c2e779ba581684f92ed36522b8893a138e2af7faa7cd138b"
    estimate = json.loads((tmp_path / "report.json").read_text())["estimate"]
    (tmp_path / "estimate.json").write_text(json.dumps(estimate))
    run("bootstrap", "--estimate", str(tmp_path / "estimate.json"), "--context",
        str(tmp_path / "context.json"), "--data", str(tmp_path / "data.json"),
        "--n-boot", "20", "--seed", "777", "--out", str(tmp_path / "boot.json"))
    assert hashlib.sha256((tmp_path / "boot.json").read_bytes()).hexdigest() == \
        "d7379b0ac77281a4fb214b9017bec34a7c0dee7da5ef5930f68145d595e04db4"


def test_simulate_m_list_validation(capsys, workspace, tmp_path):
    root, _, _ = workspace
    code = cli.main(["simulate", "--state", str(root / "state.json"),
                     "--context", str(root / "context.json"),
                     "--m-list", "10,20", "--out", str(tmp_path / "x.json")])
    assert code == 1
    code = cli.main(["simulate", "--state", str(root / "state.json"),
                     "--context", str(root / "context.json"),
                     "--out", str(tmp_path / "x.json")])
    assert code == 1


def test_reconstruct_single_fit(capsys, workspace, tmp_path):
    root, _, _ = workspace
    data = tmp_path / "data.json"
    run_cli(capsys, "simulate", "--state", str(root / "state.json"),
            "--context", str(root / "context.json"),
            "--m", "800", "--seed", "11", "--out", str(data))
    report = tmp_path / "report.json"
    code, summary = run_cli(capsys, "reconstruct",
                            "--context", str(root / "context.json"),
                            "--data", str(data),
                            "--true-state", str(root / "state.json"),
                            "--out", str(report))
    assert code == 0
    assert summary["termination"] == "stopped_on_r"
    assert summary["fidelity"] > 0.9
    payload = json.loads(report.read_text())
    assert payload["fidelity"] == summary["fidelity"]
    assert len(payload["loglik_trace"]) == len(payload["rk_trace"])
    est = BlockOperator.from_json(payload["estimate"])
    est.validate_state()


def test_reconstruct_trials_mode(capsys, workspace, tmp_path):
    root, _, _ = workspace
    report = tmp_path / "trials.json"
    code, summary = run_cli(capsys, "reconstruct",
                            "--context", str(root / "context.json"),
                            "--true-state", str(root / "state.json"),
                            "--trials", "3", "--m", "400", "--seed", "5",
                            "--out", str(report))
    assert code == 0
    payload = json.loads(report.read_text())
    assert len(payload["trials"]) == 3
    assert summary["mean_fidelity"] == pytest.approx(
        np.mean([t["fidelity"] for t in payload["trials"]]))
    assert summary["mean_fidelity"] > 0.9
    # distinct per-trial seeds
    assert len({t["seed"] for t in payload["trials"]}) == 3


def test_reconstruct_trials_reports_nonconverged(capsys, workspace, tmp_path):
    root, _, _ = workspace
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"r_stop": 1e-15, "max_iter": 2}))
    report = tmp_path / "trials.json"
    code, summary = run_cli(capsys, "reconstruct",
                            "--context", str(root / "context.json"),
                            "--true-state", str(root / "state.json"),
                            "--params", str(params), "--trials", "3", "--m", "400",
                            "--seed", "5", "--out", str(report))
    assert code == 0
    assert summary["nonconverged"] == 3
    assert [t["termination"] for t in json.loads(report.read_text())["trials"]] == \
        ["max_iter"] * 3


def test_reconstruct_trials_parallel_matches_serial(capsys, workspace, tmp_path):
    root, _, _ = workspace
    written = []
    for jobs in ("1", "2"):
        out = tmp_path / f"trials_{jobs}.json"
        code, _ = run_cli(capsys, "reconstruct", "--context", str(root / "context.json"),
                          "--true-state", str(root / "state.json"), "--trials", "3",
                          "--m", "400", "--seed", "5", "--jobs", jobs, "--out", str(out))
        assert code == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("flag, value", [("--jobs", "0"), ("--jobs", "-3"), ("--trials", "0")])
def test_reconstruct_replicate_flag_below_bound_exits_1(capsys, workspace, tmp_path,
                                                        flag, value):
    root, _, _ = workspace
    data = _simulated(capsys, workspace, tmp_path)
    code = cli.main(["reconstruct", "--context", str(root / "context.json"),
                     "--data", str(data), "--true-state", str(root / "state.json"),
                     "--trials", "2", "--m", "100", flag, value])
    err = capsys.readouterr().err
    assert code == 1
    assert flag in err


@pytest.mark.parametrize("params, key", [({"max_iters": 5}, "'max_iters'"),
                                         ({"max_iter": 2.7}, "max_iter"),
                                         ({"max_iter": True}, "max_iter"),
                                         ({"r_stop": "1e-3"}, "r_stop"),
                                         ({"delta_L": True}, "delta_L"),
                                         ([], "JSON object"),
                                         ({"method": "newton"}, "method"),
                                         ({"method": 1}, "method"),
                                         ({"method": None}, "method"),
                                         ({"eps_start": 1e20}, "'eps_start'")])
def test_reconstruct_bad_params_exits_1(capsys, workspace, tmp_path, params, key):
    root, _, _ = workspace
    data = _simulated(capsys, workspace, tmp_path)
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    code = cli.main(["reconstruct", "--context", str(root / "context.json"),
                     "--data", str(data), "--params", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert key in err and str(path) in err


@pytest.mark.parametrize("params, method", [(None, "apg"), ({"r_stop": 1e-6}, "apg"),
                                            ({"method": "diluted"}, "diluted"),
                                            ({"method": "apg"}, "apg")])
def test_reconstruct_summary_names_method(capsys, workspace, tmp_path, params, method):
    root, _, _ = workspace
    data = _simulated(capsys, workspace, tmp_path)
    argv = ["reconstruct", "--context", str(root / "context.json"), "--data", str(data)]
    if params is not None:
        (tmp_path / "params.json").write_text(json.dumps(params))
        argv += ["--params", str(tmp_path / "params.json")]
    code, summary = run_cli(capsys, *argv)
    assert code == 0
    assert summary["method"] == method
    assert summary["termination"] == "stopped_on_r"


@pytest.mark.parametrize("params, method, termination",
                         [(None, "apg", "stopped_on_r"),
                          ({"method": "diluted"}, "diluted", "stopped_on_r"),
                          ({"r_stop": 1e-300}, "apg", "stalled")])
def test_reconstruct_trials_record_method(capsys, workspace, tmp_path, params, method,
                                          termination):
    # a stalled fit is not certified, so it counts as nonconverged
    root, _, _ = workspace
    argv = ["reconstruct", "--context", str(root / "context.json"),
            "--true-state", str(root / "state.json"), "--trials", "3", "--m", "400",
            "--seed", "5", "--out", str(tmp_path / "trials.json")]
    if params is not None:
        (tmp_path / "params.json").write_text(json.dumps(params))
        argv += ["--params", str(tmp_path / "params.json")]
    code, summary = run_cli(capsys, *argv)
    assert code == 0
    trials = json.loads((tmp_path / "trials.json").read_text())["trials"]
    assert [(t["method"], t["termination"]) for t in trials] == [(method, termination)] * 3
    assert summary["nonconverged"] == (0 if termination == "stopped_on_r" else 3)


def test_reconstruct_trials_requires_truth(capsys, workspace):
    root, _, _ = workspace
    code = cli.main(["reconstruct", "--context", str(root / "context.json"),
                     "--trials", "3", "--m", "100"])
    assert code == 1
    code = cli.main(["reconstruct", "--context", str(root / "context.json")])
    assert code == 1


def test_domain_error_exits_2(capsys, workspace, tmp_path):
    root, _, _ = workspace
    other = tmp_path / "other_state.json"
    other.write_text(json.dumps(BlockOperator.maximally_mixed(3, 0).to_json()))
    code = cli.main(["fidelity", "--a", str(root / "state.json"),
                     "--b", str(other)])
    assert code == 2


def test_fidelity_of_other_tuple_sets_exits_2(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(BlockOperator.maximally_mixed(2, 0).to_json()))
    b.write_text(json.dumps(BlockOperator.maximally_mixed(2, 1).to_json()))
    code = cli.main(["fidelity", "--a", str(a), "--b", str(b)])
    assert code == 2
    assert "block structure" in capsys.readouterr().err


def test_fidelity_of_other_cutoffs_exits_2(capsys, tmp_path):
    # the message is the one a fit gives for a --true-state of another structure
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(BlockOperator.maximally_mixed(2, 1).to_json()))
    b.write_text(json.dumps(BlockOperator.maximally_mixed(3, 1).to_json()))
    code = cli.main(["fidelity", "--a", str(a), "--b", str(b)])
    assert code == 2
    assert "block structure mismatch" in capsys.readouterr().err


def test_numerical_failure_exits_3(capsys, monkeypatch):
    def boom(n, seed):
        raise np.linalg.LinAlgError("synthetic")
    monkeypatch.setattr(cli, "design_gamma", boom)
    code = cli.main(["design-gamma", "--n", "1"])
    assert code == 3


def test_fidelity_command(capsys, workspace, tmp_path):
    root, _, _ = workspace
    out = tmp_path / "fid.json"
    code, summary = run_cli(capsys, "fidelity", "--a", str(root / "state.json"),
                            "--b", str(root / "state.json"), "--out", str(out))
    assert code == 0
    assert summary["fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert json.loads(out.read_text())["fidelity"] == summary["fidelity"]


def test_bootstrap_command(capsys, workspace, tmp_path):
    root, _, _ = workspace
    data = tmp_path / "data.json"
    run_cli(capsys, "simulate", "--state", str(root / "state.json"),
            "--context", str(root / "context.json"),
            "--m", "300", "--seed", "13", "--out", str(data))
    est = tmp_path / "est.json"
    report = tmp_path / "rep.json"
    code, _ = run_cli(capsys, "reconstruct",
                      "--context", str(root / "context.json"),
                      "--data", str(data), "--out", str(report))
    assert code == 0
    est.write_text(json.dumps(json.loads(report.read_text())["estimate"]))
    boot = tmp_path / "boot.json"
    code, summary = run_cli(capsys, "bootstrap", "--estimate", str(est),
                            "--context", str(root / "context.json"),
                            "--data", str(data), "--n-boot", "2",
                            "--seed", "21", "--out", str(boot))
    assert code == 0
    payload = json.loads(boot.read_text())
    assert len(payload["boot_lrs"]) == 2
    assert payload["original_lr"] >= 0
    assert summary["original_lr"] == payload["original_lr"]
    assert summary["p_value"] == payload["p_value"]


def test_bootstrap_reports_nonconverged(capsys, workspace, tmp_path):
    root, _, _ = workspace
    data, est = _simulated(capsys, workspace, tmp_path), tmp_path / "est.json"
    est.write_text(json.dumps(BlockOperator.maximally_mixed(N, 0).to_json()))
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"r_stop": 1e-15, "max_iter": 2}))
    boot = tmp_path / "boot.json"
    code, summary = run_cli(capsys, "bootstrap", "--estimate", str(est),
                            "--context", str(root / "context.json"),
                            "--data", str(data), "--n-boot", "2", "--seed", "21",
                            "--params", str(params), "--out", str(boot))
    assert code == 0
    assert summary["nonconverged"] == 2
    replicates = json.loads(boot.read_text())["replicates"]
    assert [r["termination"] for r in replicates] == ["max_iter", "max_iter"]


@pytest.mark.parametrize("params, method, termination",
                         [(None, "apg", "stopped_on_r"),
                          ({"method": "diluted"}, "diluted", "stopped_on_r"),
                          ({"r_stop": 1e-300}, "apg", "stalled")])
def test_bootstrap_replicates_record_method(capsys, workspace, tmp_path, params, method,
                                            termination):
    root, _, _ = workspace
    data = _simulated(capsys, workspace, tmp_path)
    argv = ["bootstrap", "--estimate", str(root / "state.json"),
            "--context", str(root / "context.json"), "--data", str(data),
            "--n-boot", "2", "--seed", "21", "--out", str(tmp_path / "boot.json")]
    if params is not None:
        (tmp_path / "params.json").write_text(json.dumps(params))
        argv += ["--params", str(tmp_path / "params.json")]
    code, summary = run_cli(capsys, *argv)
    assert code == 0
    replicates = json.loads((tmp_path / "boot.json").read_text())["replicates"]
    assert [(r["method"], r["termination"]) for r in replicates] == [(method, termination)] * 2
    assert summary["nonconverged"] == (0 if termination == "stopped_on_r" else 2)


def test_bootstrap_parallel_matches_serial(capsys, workspace, tmp_path):
    root, _, _ = workspace
    data = _simulated(capsys, workspace, tmp_path)
    written = []
    for jobs in ("1", "2"):
        out = tmp_path / f"boot_{jobs}.json"
        code, _ = run_cli(capsys, "bootstrap", "--estimate", str(root / "state.json"),
                          "--context", str(root / "context.json"), "--data", str(data),
                          "--n-boot", "3", "--seed", "21", "--jobs", jobs, "--out", str(out))
        assert code == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("flag, value", [("--n-boot", "1"), ("--jobs", "0"), ("--jobs", "-3")])
def test_bootstrap_replicate_flag_below_bound_exits_1(capsys, workspace, tmp_path,
                                                      flag, value):
    root, _, _ = workspace
    data = _simulated(capsys, workspace, tmp_path)
    code = cli.main(["bootstrap", "--estimate", str(root / "state.json"),
                     "--context", str(root / "context.json"), "--data", str(data),
                     "--n-boot", "2", flag, value])
    err = capsys.readouterr().err
    assert code == 1
    assert flag in err


def _simulated(capsys, workspace, tmp_path):
    root, _, _ = workspace
    data = tmp_path / "data.json"
    code, _ = run_cli(capsys, "simulate", "--state", str(root / "state.json"),
                      "--context", str(root / "context.json"),
                      "--m", "300", "--seed", "13", "--out", str(data))
    assert code == 0
    return data


def _reconstruct_edited(capsys, workspace, tmp_path, edit):
    root, _, _ = workspace
    data = _simulated(capsys, workspace, tmp_path)
    payload = json.loads(data.read_text())
    edit(payload)
    data.write_text(json.dumps(payload))
    code = cli.main(["reconstruct", "--context", str(root / "context.json"),
                     "--data", str(data)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("field, edit", [
    ("settings[2].N", lambda setting: setting.update(N=N + 1)),
    ("settings[2].partition", lambda setting: setting["partition"].update(s1_multi=True))],
    ids=["N", "partition"])
@pytest.mark.parametrize("command", ["ic-check", "simulate", "reconstruct", "bootstrap"])
def test_mixed_context_exits_1_at_load(capsys, workspace, tmp_path, command, field, edit):
    # a context holds one partition and one N; a file that mixes them fails
    # as it loads, naming the first setting that differs
    root, _, _ = workspace
    data = _simulated(capsys, workspace, tmp_path)
    payload = json.loads((root / "context.json").read_text())
    edit(payload["settings"][2])
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps(payload))
    state, ctx = str(root / "state.json"), str(mixed)
    argv = {"ic-check": ["ic-check", "--context", ctx],
            "simulate": ["simulate", "--state", state, "--context", ctx, "--m", "10",
                         "--out", str(tmp_path / "x.json")],
            "reconstruct": ["reconstruct", "--context", ctx, "--data", str(data)],
            "bootstrap": ["bootstrap", "--estimate", state, "--context", ctx,
                          "--data", str(data), "--n-boot", "2"]}[command]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert f"{field} differs from settings[0]" in err


@pytest.fixture(scope="module")
def quick_start(tmp_path_factory):
    """The README quick-start context and truth, and a small dataset of it."""
    root = tmp_path_factory.mktemp("quick_start")
    partition = PartitionSpec(sectors=((0.5 ** 0.5, 0.5 ** 0.5),), s1_multi=True)
    context = MeasurementContext.build([
        Setting(gamma=g, counter=CounterConfig(counters=2, N_c=6), partition=partition, N=3)
        for g in design_gamma(3, seed=7).gammas])
    (root / "context.json").write_text(json.dumps(context.to_json()))
    truth = twirled_closed_form("cat", {"alpha": 0.5}, 3)
    (root / "truth.json").write_text(json.dumps(truth.to_json()))
    data = simulate_dataset(truth, context, [200] * len(context.settings), seed=5)
    (root / "data.json").write_text(json.dumps(data.to_json()))
    return root


@pytest.mark.parametrize("state", [BlockOperator.maximally_mixed(2, 1),
                                   BlockOperator.maximally_mixed(3, 0)],
                         ids=["other-cutoff", "other-tuple-length"])
@pytest.mark.parametrize("command", ["simulate", "reconstruct", "trials", "bootstrap"])
def test_state_of_another_structure_exits_2_before_any_fit(capsys, monkeypatch, quick_start,
                                                           tmp_path, command, state):
    def never(*args, **kwargs):
        raise AssertionError("a fit or a draw started")
    monkeypatch.setattr(cli, "reconstruct", never)
    monkeypatch.setattr(stats, "reconstruct", never)
    monkeypatch.setattr(sim, "inverse_cdf_counts", never)
    other = tmp_path / "other.json"
    other.write_text(json.dumps(state.to_json()))
    ctx, data, truth = (str(quick_start / name)
                        for name in ("context.json", "data.json", "truth.json"))
    argv = {"simulate": ["simulate", "--state", str(other), "--context", ctx, "--m", "10",
                         "--out", str(tmp_path / "x.json")],
            "reconstruct": ["reconstruct", "--context", ctx, "--data", data,
                            "--true-state", str(other)],
            "trials": ["reconstruct", "--context", ctx, "--true-state", str(other),
                       "--trials", "2", "--m", "10"],
            "bootstrap": ["bootstrap", "--estimate", str(other), "--context", ctx,
                          "--data", data, "--n-boot", "2"]}[command]
    code = cli.main(argv)
    assert code == 2
    assert "block structure mismatch" in capsys.readouterr().err


def _quick_start_counting(tmp_path, quick_start, zeroed, drop=False):
    """The quick-start data.json with every count of the settings in zeroed
    set to 0, or with those settings dropped."""
    payload = json.loads((quick_start / "data.json").read_text())
    for s in zeroed:
        payload["settings"][s]["counts"] = dict.fromkeys(payload["settings"][s]["counts"], 0)
    if drop:
        payload["settings"] = [x for s, x in enumerate(payload["settings"]) if s not in zeroed]
    data = tmp_path / "zeroed.json"
    data.write_text(json.dumps(payload))
    return str(data)


@pytest.mark.parametrize("drop", [False, True], ids=["zero-counts", "no-settings"])
@pytest.mark.parametrize("command", ["reconstruct", "bootstrap"])
def test_dataset_that_counts_nothing_exits_1(capsys, quick_start, tmp_path, command, drop):
    # a dataset whose every count is 0, or that has no setting, is an input error
    # at load, before any fit divides by its shot total or any log-likelihood forms 0 / 0
    data = _quick_start_counting(tmp_path, quick_start, range(16), drop)
    ctx, truth = str(quick_start / "context.json"), str(quick_start / "truth.json")
    argv = {"reconstruct": ["reconstruct", "--context", ctx, "--data", data],
            "bootstrap": ["bootstrap", "--estimate", truth, "--context", ctx, "--data", data,
                          "--n-boot", "2"]}[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: invalid dataset") and err.count("\n") == 1
    assert "settings count no outcome" in err


def test_bootstrap_of_one_setting_that_counts_nothing_exits_2(capsys, quick_start, tmp_path):
    # the saturated model of a setting without shots is undefined; the message names it
    data = _quick_start_counting(tmp_path, quick_start, [3])
    ctx, truth = str(quick_start / "context.json"), str(quick_start / "truth.json")
    code = cli.main(["bootstrap", "--estimate", truth, "--context", ctx, "--data", data,
                     "--n-boot", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "settings[3].counts must contain at least one observation" in err


def test_reconstruct_reversed_settings_exits_1(capsys, workspace, tmp_path):
    def edit(payload):
        payload["settings"].reverse()
    code, err = _reconstruct_edited(capsys, workspace, tmp_path, edit)
    assert code == 1
    assert "settings[0].gamma" in err


@pytest.mark.parametrize("bad", [-1, 2.5, True])
def test_reconstruct_bad_count_exits_1(capsys, workspace, tmp_path, bad):
    def edit(payload):
        payload["settings"][0]["counts"]["(1,2)"] = bad
    code, err = _reconstruct_edited(capsys, workspace, tmp_path, edit)
    assert code == 1
    assert 'settings[0].counts["(1,2)"]' in err


@pytest.mark.parametrize("seed", [5.0, "5", True])
def test_reconstruct_non_integer_dataset_seed_exits_1(capsys, workspace, tmp_path, seed):
    code, err = _reconstruct_edited(capsys, workspace, tmp_path,
                                    lambda payload: payload.update(seed=seed))
    assert code == 1
    assert f"seed must be a JSON integer, got {seed!r}" in err


@pytest.mark.parametrize("value", ["abc", 7, [1, 2]], ids=["string", "integer", "array"])
def test_reconstruct_non_object_counts_exits_1(capsys, workspace, tmp_path, value):
    def edit(payload):
        payload["settings"][0]["counts"] = value
    code, err = _reconstruct_edited(capsys, workspace, tmp_path, edit)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"settings[0].counts must be a JSON object, got {value!r}" in err


def test_reconstruct_string_dataset_gamma_exits_1(capsys, workspace, tmp_path):
    def edit(payload):
        payload["settings"][1]["gamma"]["re"] = "0.5"
    code, err = _reconstruct_edited(capsys, workspace, tmp_path, edit)
    assert code == 1
    assert "settings[1].gamma.re must be a JSON number, got '0.5'" in err


def test_reconstruct_duplicate_count_label_exits_1(capsys, workspace, tmp_path):
    # "(1,2)" and "(1, 2)" parse to one outcome; neither count may be dropped
    def edit(payload):
        payload["settings"][3]["counts"]["(1, 2)"] = 3
    code, err = _reconstruct_edited(capsys, workspace, tmp_path, edit)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert 'settings[3].counts["(1,2)"] and counts["(1, 2)"] name the same outcome (1,2)' in err


def test_twirl_closed_form(capsys, tmp_path):
    out = tmp_path / "tmsv.json"
    code, summary = run_cli(capsys, "twirl", "--closed-form", "tmsv",
                            "--r", "0.5", "--n", "4", "--out", str(out))
    assert code == 0
    block = BlockOperator.from_json(json.loads(out.read_text()))
    assert block.trace().real == pytest.approx(1.0, abs=1e-12)
    assert summary["tuple_length"] == 1
    code = cli.main(["twirl", "--closed-form", "tmsv", "--n", "4",
                     "--out", str(out)])
    assert code == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag, kind", [("--r", "tmsv"), ("--alpha-re", "cat"),
                                        ("--alpha-im", "cat")])
def test_twirl_non_finite_number_flag_exits_1(capsys, tmp_path, flag, kind, value):
    out = tmp_path / "twirled.json"
    code = cli.main(["twirl", "--closed-form", kind, f"{flag}={value}", "--n", "2",
                     "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: {flag} must be a finite number, got {float(value)}\n"
    assert not out.exists()


def test_twirl_negative_exponent_after_a_space(capsys, tmp_path):
    # argparse alone reads only forms like -12 and -1.5 after a space as values
    spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
    for out, flag in ((spaced, ["--alpha-im", "-1e-3"]), (joined, ["--alpha-im=-1e-3"])):
        code, _ = run_cli(capsys, "twirl", "--closed-form", "cat", "--alpha-re", "0.5", *flag,
                          "--n", "2", "--out", str(out))
        assert code == 0
    assert spaced.read_bytes() == joined.read_bytes()
    # read as a value, a negative exponent form is still no int
    assert cli.main(["simulate", "--state", "x", "--context", "c", "--out", "d",
                     "--m", "-1e3"]) == 1
    assert capsys.readouterr().err == "error: argument --m: invalid int value: '-1e3'\n"


@pytest.mark.parametrize("text, value", [("-1e-3", -1e-3), ("-1E+2", -100.0), ("-.5e1", -5.0),
                                         ("-12", -12.0), ("-1.5", -1.5), ("-2.", -2.0)])
def test_negative_numbers_after_a_space_are_values(text, value):
    args = cli.build_parser("twirl").parse_args(["twirl", "--closed-form", "cat",
                                                 "--alpha-im", text, "--n", "2", "--out", "y"])
    assert args.alpha_im == value


def test_twirl_from_state_spec(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(StateSpec(kind="tmsv", N=2, r=0.4).to_json()))
    part = tmp_path / "part.json"
    part.write_text(json.dumps(
        PartitionSpec(sectors=((math.sqrt(0.5), math.sqrt(0.5)),),
                      s1_multi=True).to_json()))
    out = tmp_path / "twirled.json"
    # the N=2 tmsv keeps components up to |2,2>, so the twirl cutoff is 4
    code, summary = run_cli(capsys, "twirl", "--state", str(spec),
                            "--partition", str(part), "--assignment", "0,0",
                            "--n", "4", "--out", str(out))
    assert code == 0
    block = BlockOperator.from_json(json.loads(out.read_text()))
    assert block.tuple_length == 1
    assert block.trace().real == pytest.approx(1.0, abs=1e-9)
    code = cli.main(["twirl", "--n", "2", "--out", str(out)])
    assert code == 1


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "wfhtomo.cli", "feasibility", "--k", "2",
         "--s1-multi", "--counters", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["determinable"] is True


def test_help_exits_zero(capsys):
    for argv, usage in ((["--help"], "usage: wfh-tomo [-h]"),
                        (["simulate", "--help"], "usage: wfh-tomo simulate [-h]")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(usage)


# one representative argv per command, every flag of it given where it can be
_COMMAND_ARGV = {
    "feasibility": ["--k", "3", "--s1-multi", "--counters", "1", "--probe-freedom",
                    "fixed_magnitude", "--detector", "click", "--balanced", "--n", "4",
                    "--out", "v.json"],
    "design-gamma": ["--n", "2", "--seed", "4", "--out", "p.json"],
    "ic-check": ["--context", "c.json", "--out", "ic.json"],
    "povm-dump": ["--setting", "s.json", "--out", "povm.json"],
    "simulate": ["--state", "x.json", "--context", "c.json", "--m-list", "5,6",
                 "--seed", "9", "--out", "d.json"],
    "reconstruct": ["--context", "c.json", "--params", "p.json", "--true-state", "x.json",
                    "--trials", "3", "--m", "100", "--seed", "2", "--jobs", "2"],
    "bootstrap": ["--estimate", "e.json", "--context", "c.json", "--data", "d.json",
                  "--n-boot", "4", "--m", "50", "--jobs", "2", "--out", "b.json"],
    "fidelity": ["--a", "a.json", "--b", "b.json"],
    "twirl": ["--closed-form", "cat", "--alpha-re", "0.5", "--alpha-im", "-0.1",
              "--n", "2", "--out", "t.json"],
}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_single_command_parser_matches_full_parser(command, capsys):
    argv = [command, *_COMMAND_ARGV[command]]
    assert cli.build_parser(command).parse_args(argv) == cli.build_parser().parse_args(argv)
    helps = []
    for parser in (cli.build_parser(command), cli.build_parser()):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, "--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and f"usage: wfh-tomo {command} [-h]" in helps[0]


def _edited_state(workspace, tmp_path, edit):
    root, _, _ = workspace
    payload = json.loads((root / "state.json").read_text())
    edit(payload)
    path = tmp_path / "edited_state.json"
    path.write_text(json.dumps(payload))
    return path


def test_simulate_nan_state_exits_1(capsys, workspace, tmp_path):
    root, _, _ = workspace

    def edit(payload):
        payload["tuples"][0]["re"][0][0] = math.nan
    path = _edited_state(workspace, tmp_path, edit)
    out = tmp_path / "data.json"
    code = cli.main(["simulate", "--state", str(path), "--context", str(root / "context.json"),
                     "--m", "100", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert "tuples[0].re[0][0]" in err and str(path) in err
    assert not out.exists()


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "1e999"])
def test_non_finite_json_number_exits_1(capsys, workspace, tmp_path, literal):
    root, _, _ = workspace
    text = (root / "context.json").read_text()
    path = tmp_path / "context.json"
    payload = json.loads(text)
    payload["settings"][1]["gamma"]["im"] = "@"
    path.write_text(json.dumps(payload).replace('"@"', literal))
    code = cli.main(["ic-check", "--context", str(path)])
    assert code == 1
    assert "settings[1].gamma.im is not a finite number" in capsys.readouterr().err


def _set_entry(payload, value):
    payload["tuples"][0]["re"][0][0] = value


def _set_index(payload, value):
    payload["tuples"][0]["i"] = [value]


@pytest.mark.parametrize("edit, message", [
    (lambda p: p.update(N=float(p["N"])), "N must be a JSON integer, got 1.0"),
    (lambda p: _set_entry(p, "0.5"), "tuples[0].re must be a JSON matrix of numbers"),
    (lambda p: _set_entry(p, None), "tuples[0].re must be a JSON matrix of numbers"),
    (lambda p: _set_index(p, 1.0), "tuples[0].i must be a JSON array of integers, got [1.0]")],
    ids=["N-float", "entry-string", "entry-null", "index-float"])
def test_fidelity_malformed_state_field_exits_1(capsys, workspace, tmp_path, edit, message):
    root, _, _ = workspace
    path = _edited_state(workspace, tmp_path, edit)
    code = cli.main(["fidelity", "--a", str(path), "--b", str(root / "state.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert message in err and str(path) in err


_ALL_COMMANDS_WITHOUT_SCIPY = """
import importlib.abc, json, pathlib, sys


class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")
        return None


sys.meta_path.insert(0, BlockScipy())
try:
    import scipy  # noqa: F401
    raise SystemExit("the scipy block did not take effect")
except ImportError:
    pass

from wfhtomo import cli

ctx, setting, state, work = sys.argv[1], sys.argv[2], sys.argv[3], pathlib.Path(sys.argv[4])
path = {name: str(work / name) for name in
        ("spec.json", "part.json", "twirled.json", "probes.json", "povm.json",
         "data.json", "report.json", "est.json", "boot.json", "verdict.json")}
codes = [cli.main(["feasibility", "--k", "1", "--out", path["verdict.json"]]),
         cli.main(["design-gamma", "--n", "1", "--out", path["probes.json"]]),
         cli.main(["ic-check", "--context", ctx]),
         cli.main(["povm-dump", "--setting", setting, "--out", path["povm.json"]]),
         cli.main(["twirl", "--state", path["spec.json"], "--partition", path["part.json"],
                   "--assignment", "0", "--n", "1", "--out", path["twirled.json"]]),
         cli.main(["simulate", "--state", state, "--context", ctx, "--m", "300",
                   "--out", path["data.json"]]),
         cli.main(["reconstruct", "--context", ctx, "--data", path["data.json"],
                   "--out", path["report.json"]])]
report = json.loads(pathlib.Path(path["report.json"]).read_text())
pathlib.Path(path["est.json"]).write_text(json.dumps(report["estimate"]))
codes += [cli.main(["bootstrap", "--estimate", path["est.json"], "--context", ctx,
                    "--data", path["data.json"], "--n-boot", "2", "--out", path["boot.json"]]),
          cli.main(["fidelity", "--a", path["est.json"], "--b", state])]
print(json.dumps({"codes": codes}))
"""


def test_every_command_runs_with_scipy_blocked(workspace, tmp_path):
    # numpy is the only runtime dependency: all nine subcommands run in a fresh
    # interpreter (this one may hold scipy from other tests) that refuses every
    # scipy import
    root, _, _ = workspace
    (tmp_path / "spec.json").write_text(json.dumps(
        StateSpec(kind="coherent", N=N, alpha=0.3).to_json()))
    (tmp_path / "part.json").write_text(json.dumps(BAL.to_json()))
    src = str(Path(wfhtomo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-c", _ALL_COMMANDS_WITHOUT_SCIPY,
                           str(root / "context.json"), str(root / "setting.json"),
                           str(root / "state.json"), str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0] * 9}


def test_cli_import_leaves_out_the_process_pool():
    # only --jobs > 1 starts a pool, so only it imports one
    src = str(Path(wfhtomo.__file__).resolve().parents[1])
    probe = ("import sys, wfhtomo.cli; print(sorted(m for m in sys.modules if m in "
             "('concurrent.futures.process', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(
                              [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _not_psd(payload):
    # Hermitian with trace 1, but one eigenvalue is -0.5
    block = payload["tuples"][0]
    d = len(block["re"])
    block["re"] = [[0.0] * d for _ in range(d)]
    block["im"] = [[0.0] * d for _ in range(d)]
    block["re"][0][0], block["re"][1][1] = 1.5, -0.5


def test_simulate_non_psd_state_exits_1(capsys, workspace, tmp_path):
    root, _, _ = workspace
    path = _edited_state(workspace, tmp_path, _not_psd)
    code = cli.main(["simulate", "--state", str(path), "--context", str(root / "context.json"),
                     "--m", "100", "--out", str(tmp_path / "data.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert "not PSD" in err and str(path) in err


@pytest.mark.parametrize("command", ["reconstruct", "bootstrap", "fidelity-a", "fidelity-b"])
def test_invalid_state_inputs_exit_1(capsys, workspace, tmp_path, command):
    root, _, _ = workspace
    data = _simulated(capsys, workspace, tmp_path)
    bad = str(_edited_state(workspace, tmp_path, _not_psd))
    good, ctx = str(root / "state.json"), str(root / "context.json")
    argv = {"reconstruct": ["reconstruct", "--context", ctx, "--data", str(data),
                            "--true-state", bad],
            "bootstrap": ["bootstrap", "--estimate", bad, "--context", ctx,
                          "--data", str(data), "--n-boot", "1"],
            "fidelity-a": ["fidelity", "--a", bad, "--b", good],
            "fidelity-b": ["fidelity", "--a", good, "--b", bad]}[command]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert "not PSD" in err and bad in err
