import json
import math
import subprocess
import sys

import numpy as np
import pytest

from wfhtomo import cli
from wfhtomo.fock import StateSpec, make_state
from wfhtomo.optics import PartitionSpec
from wfhtomo.povm import (CounterConfig, MeasurementContext, PovmElement, Setting,
                          identity_response)
from wfhtomo.probes import ProbeSet, design_gamma, interpolation_matrix
from wfhtomo.sim import Dataset
from wfhtomo.twirl import BlockOperator, reduced_assignment, twirl_analytic

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


def test_invalid_flag_exits_1(capsys):
    code = cli.main(["feasibility", "--k", "3", "--counters", "7"])
    assert code == 1
    code = cli.main(["no-such-command"])
    assert code == 1


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


def test_ic_check_non_array_loss_exits_1(capsys, workspace, tmp_path):
    def edit(setting):
        setting["counter"]["loss"] = "0.9"
    code, err = _ic_check_with_edit(capsys, workspace, tmp_path, edit)
    assert code == 1
    assert "settings[0].counter.loss must be a JSON array" in err


@pytest.mark.parametrize("edit, message", [
    (lambda s: s.update(N=2.7), "N must be a JSON integer, got 2.7"),
    (lambda s: s["counter"].update(loss="0.9"), "counter.loss must be a JSON array")],
    ids=["N-float", "loss-string"])
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


def test_load_path_builds_no_per_outcome_elements(capsys, monkeypatch, workspace, tmp_path):
    # the commands that load a context read its kernel rows; none of them
    # wraps a row into a per-outcome PovmElement
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
    d1, d2 = tmp_path / "d1.json", tmp_path / "d2.json"
    for out in (d1, d2):
        code, summary = run_cli(capsys, "simulate",
                                "--state", str(root / "state.json"),
                                "--context", str(root / "context.json"),
                                "--m", "500", "--seed", "7", "--out", str(out))
        assert code == 0
        assert summary["total_shots"] == 2000
    assert d1.read_bytes() == d2.read_bytes()
    other = tmp_path / "d3.json"
    run_cli(capsys, "simulate", "--state", str(root / "state.json"),
            "--context", str(root / "context.json"),
            "--m", "500", "--seed", "8", "--out", str(other))
    assert other.read_bytes() != d1.read_bytes()


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
                                         ({"method": None}, "method")])
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


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


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
