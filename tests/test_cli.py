import hashlib
import importlib.util
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from unionerm import bounds, cli, experiments, svgplot
from unionerm.cli import ConfigError, load_config, main

from conftest import canonical_atoms
from oracles import CONFIG_SCHEMA, csv_rows_text

ROOT = Path(__file__).resolve().parents[1]


def _bench_workloads():
    """``bench/workloads.py``, read and never changed here: the benchmark's configs."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _canonical_config(**params):
    xs, ys, ws = canonical_atoms()
    return {
        "seed": 19,
        "law": {
            "kind": "discrete",
            "atoms": [
                {"x": list(map(float, xs[i])), "y": float(ys[i]), "w": float(ws[i])}
                for i in range(len(ys))
            ],
        },
        "collection": {
            "kind": "explicit",
            "entries": [{"id": "A", "coords": [0]}, {"id": "B", "coords": [1]}],
        },
        "params": params,
    }


def _write(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_profile_command(tmp_path, capsys):
    cfg = _write(tmp_path, _canonical_config())
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "profile"]) == 0
    payload = json.loads((out / "profile.json").read_text())
    assert payload["t_star"] == ["A"]
    assert payload["gamma"] == pytest.approx(0.25)
    table = (out / "profile.txt").read_text()
    assert "optimal set = {A}" in table


def test_profile_singleton_shows_infinite_gap(tmp_path):
    cfg_data = _canonical_config()
    cfg_data["collection"]["entries"] = [{"id": "A", "coords": [0]}]
    cfg = _write(tmp_path, cfg_data)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "profile"]) == 0
    assert "gap = inf" in (out / "profile.txt").read_text()
    assert json.loads((out / "profile.json").read_text())["gamma"] == "inf"


def test_missing_seed_exits_2(tmp_path):
    cfg_data = _canonical_config()
    del cfg_data["seed"]
    cfg = _write(tmp_path, cfg_data)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "profile"]) == 2


def test_schema_violation_reports_field_path(tmp_path, capsys):
    cfg_data = _canonical_config()
    cfg_data["law"]["atoms"][0]["w"] = -1
    cfg = _write(tmp_path, cfg_data)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "profile"]) == 2
    assert "$." in capsys.readouterr().err


def test_nan_atom_weight_exits_2(tmp_path, capsys):
    cfg_data = _canonical_config()
    cfg_data["law"]["atoms"] = [
        {"x": [1.0, 0.0], "y": 1.0, "w": 0.5},
        {"x": [0.0, 1.0], "y": -1.0, "w": 0.5},
        {"x": [1.0, 1.0], "y": 0.0, "w": float("nan")},
    ]
    cfg = _write(tmp_path, cfg_data)  # json writes NaN, which json.load reads back
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "profile"]) == 2
    assert "config field $.law: atom weights must be strictly positive" in capsys.readouterr().err


def test_ragged_atom_inputs_exit_2(tmp_path, capsys):
    cfg_data = _canonical_config()
    cfg_data["law"]["atoms"][3]["x"].append(1.0)
    cfg = _write(tmp_path, cfg_data)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "profile"]) == 2
    assert "config field $.law: setting an array element with a sequence" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["profile"], ["bounds"], ["localize"], ["montecarlo", "quantiles"]])
def test_gaussian_design_law_is_a_config_error(tmp_path, capsys, command):
    # population quantities need a discrete law; montecarlo bss builds its own
    cfg_data = _canonical_config(n=200, delta=0.1, n_grid=[50])
    cfg_data["law"] = {"kind": "gaussian_design", "dim": 2, "w_true": [1.0, 0.0], "noise_std": 1.0}
    cfg = _write(tmp_path, cfg_data)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), *command]) == 2
    assert "config field $.law" in capsys.readouterr().err


def test_readme_config_example_runs(tmp_path):
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    example = readme.split("A config is a JSON document")[1].split("```json\n")[1].split("```")[0]
    cfg = _write(tmp_path, json.loads(example))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "profile"]) == 0
    assert "optimal set = {A}" in (out / "profile.txt").read_text()


def test_degenerate_collection_exits_3(tmp_path):
    cfg_data = _canonical_config()
    cfg_data["collection"]["entries"].append({"id": "Z", "matrix": [[0.0, 0.0]]})
    cfg = _write(tmp_path, cfg_data)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "profile"]) == 3


@pytest.mark.parametrize("collection", [
    {"kind": "subsets", "dim": 2, "sparsity": 3},
    {"kind": "subsets", "dim": 3, "sparsity": 1},
    {"kind": "explicit", "entries": [{"id": "A", "coords": [5]}]},
    {"kind": "explicit", "entries": [{"id": "A", "coords": []}]},
    {"kind": "explicit", "entries": [{"id": "A", "matrix": []}]},
    {"kind": "explicit", "entries": [{"id": "A", "matrix": [[1, 0, 2]]}]},
    {"kind": "explicit", "entries": [{"id": "A", "matrix": [[1, 0]], "offset": [0, 1]}]},
], ids=["sparsity-above-dim", "dim-above-inputs", "coord-out-of-range", "no-coords", "no-matrix",
        "matrix-too-wide", "offset-too-long"])
def test_collection_that_does_not_fit_the_law_exits_2(tmp_path, capsys, collection):
    # the canonical law has 2 inputs
    cfg = _canonical_config()
    cfg["collection"] = collection
    assert main(["--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o"), "profile"]) == 2
    assert capsys.readouterr().err.startswith("config error: config field $.collection")


@pytest.mark.parametrize("xs", [[10**16], [10**16, 10**16 + 4]], ids=["one-point", "span-below-spacing"])
def test_line_chart_axes_hold_at_large_magnitudes(xs):
    # a zero span at 1e16 divided by zero, and a tick step of 1 below the
    # float spacing of 2 never advanced; the timer ends a hang
    def expire(signum, frame):
        raise TimeoutError("line_chart did not return")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        svg = svgplot.line_chart(xs, {"rate": [0.5] * len(xs)}, "consistency", "n", "rate")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    ticks = [line for line in svg.splitlines() if 'text-anchor="middle">1e+16<' in line]
    assert svg.endswith("</svg>\n") and 1 <= len(ticks) <= 6


def test_insufficient_trials_exits_4(tmp_path):
    cfg = _write(tmp_path, _canonical_config(n_grid=[50], delta=0.1))
    code = main(["--config", cfg, "--out", str(tmp_path / "o"), "--trials", "60",
                 "montecarlo", "quantiles"])
    assert code == 4


@pytest.mark.parametrize("draws", [1, 99])
def test_too_few_limit_draws_exit_4_before_any_trial(tmp_path, capsys, monkeypatch, draws):
    # at delta = 0.5 the (1 - delta) quantile needs 50 / delta = 100 limit
    # draws, as it needs 100 trials
    def refuse(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "run_trials", refuse)
    cfg = _write(tmp_path, _canonical_config(n_grid=[50], delta=0.5, draws=draws))
    code = main(["--config", cfg, "--out", str(tmp_path / "o"), "--trials", "100", "montecarlo", "quantiles"])
    assert code == 4
    assert f"{draws} limit draws cannot resolve the 0.500 quantile; need >= 100" in capsys.readouterr().err


OUT_OF_RANGE = [
    (["bounds"], {"n": 200, "k": 0}, "k"),
    (["bounds"], {"n": 200, "delta": 1.5}, "delta"),
    (["bounds"], {"n": 0}, "n"),
    (["bounds"], {"n": 200, "delta_grid": [0.1, 1.0]}, "delta_grid"),
    (["localize"], {"n": 200, "delta": 0.0}, "delta"),
    (["localize"], {"n": -5}, "n"),
    (["montecarlo", "validity"], {"n_grid": [120], "k": 0}, "k"),
    (["montecarlo", "validity"], {"n_grid": [120], "delta": 2.0}, "delta"),
    (["montecarlo", "validity"], {"n_grid": [0]}, "n_grid"),
    (["montecarlo", "quantiles"], {"n_grid": [100], "delta": 1.5}, "delta"),
    (["montecarlo", "pathwise"], {"n": 0}, "n"),
    (["montecarlo", "consistency"], {"n_grid": []}, "n_grid"),
]


@pytest.mark.parametrize("command,params,name", OUT_OF_RANGE, ids=[f"{c[-1]}-{k}" for c, p, k in OUT_OF_RANGE])
def test_out_of_range_param_is_a_config_error(tmp_path, capsys, command, params, name):
    # n, k and n_grid entries >= 1, delta and delta_grid entries in (0, 1), grids non-empty
    cfg = _write(tmp_path, _canonical_config(trials=100, **params))
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), *command]) == 2
    assert f"config field $.params.{name}:" in capsys.readouterr().err


NOT_A_JSON_NUMBER = [
    ({"n": True}, "n"),
    ({"n": "200"}, "n"),
    ({"n": 200, "delta": "0.1"}, "delta"),
    ({"n": 200, "delta_grid": [0.1, False]}, "delta_grid"),
    ({"n": 200.7}, "n"),
    ({"n": 200, "n_grid": [50, 50.5]}, "n_grid"),
]


@pytest.mark.parametrize("params,name", NOT_A_JSON_NUMBER, ids=[
    "n-bool", "n-string", "delta-string", "delta_grid-bool", "n-fraction", "n_grid-fraction"])
def test_param_that_is_not_a_json_number_is_a_config_error(tmp_path, capsys, params, name):
    # true and "200" would convert to 1 and 200, but neither is a JSON number;
    # 200.7 is not an integer (200.0 is)
    cfg = _write(tmp_path, _canonical_config(trials=100, **params))
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "bounds"]) == 2
    assert f"config field $.params.{name}:" in capsys.readouterr().err


_BSS = {"design": "discrete", "d": 3, "s": 2, "w_true": [1.0, 1.0, 0.0], "n_grid": [50]}
BROKEN_PARAMS = [
    (["montecarlo", "pathwise"], {"n": 100, "trials": "abc"}, "trials"),
    (["montecarlo", "pathwise"], {"n": 100, "trials": 150.9}, "trials"),
    (["montecarlo", "quantiles"], {"n_grid": [100], "delta": 0.5, "draws": "x"}, "draws"),
    (["montecarlo", "quantiles"], {"n_grid": [100], "delta": 0.5, "draws": -5}, "draws"),
    (["montecarlo", "pathwise"], {"n": 100, "slack": "x"}, "slack"),
    (["montecarlo", "pathwise"], {"n": 100, "slack": math.nan}, "slack"),
    (["montecarlo", "bss"], {**_BSS, "check_threshold": "false"}, "check_threshold"),
    (["montecarlo", "bss"], {**_BSS, "w_true": [1.0, "1", 0.0]}, "w_true"),
    (["localize"], {"n": 200, "complexity": "bogus"}, "complexity"),
    (["profile"], {"n": 0}, "n"),  # every param is checked at load, whatever the command reads
]


@pytest.mark.parametrize("command,params,name", BROKEN_PARAMS, ids=[
    "trials-string", "trials-fraction", "draws-string", "draws-negative", "slack-string", "slack-nan",
    "check_threshold-string", "w_true-string-entry", "complexity-bogus", "profile-n-zero"])
def test_broken_param_is_a_config_error(tmp_path, capsys, command, params, name):
    cfg = _write(tmp_path, _canonical_config(**params))
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), *command]) == 2
    assert f"config field $.params.{name}:" in capsys.readouterr().err


@pytest.mark.parametrize("command,params,code", [
    (["bounds"], {"n": 200}, 4),
    (["localize"], {"n": 200, "complexity": "expected_sup"}, 4),
    (["localize"], {"n": 200}, 0),  # A(S) has no floor of its own
], ids=["bounds", "localize_expected_sup", "localize_explicit"])
def test_expected_sup_needs_100_trials(tmp_path, capsys, command, params, code):
    cfg = _write(tmp_path, _canonical_config(trials=50, **params))
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), *command]) == code
    assert ("needs at least 100 trials, got 50" in capsys.readouterr().err) == (code == 4)


ZERO_TRIALS = [(["bounds"], "command bounds", 100), (["localize"], "command localize with complexity expected_sup", 100)]
ZERO_TRIALS += [(["montecarlo", sub], f"subcommand {sub}", floor) for sub, floor in cli._MC_MIN_TRIALS.items()]


@pytest.mark.parametrize("command,what,floor", ZERO_TRIALS, ids=[c[-1] for c, _, _ in ZERO_TRIALS])
def test_zero_trials_override_hits_the_floor(tmp_path, capsys, command, what, floor):
    # --trials 0 overrides params.trials; it is not taken for "no override"
    cfg = _write(tmp_path, _canonical_config(trials=300, n=200, n_grid=[100], complexity="expected_sup"))
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--trials", "0", *command]) == 4
    assert f"{what} needs at least {floor} trials, got 0" in capsys.readouterr().err


def test_bounds_deterministic_json(tmp_path):
    cfg = _write(tmp_path, _canonical_config(n=200, delta=0.1, trials=300))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["--config", cfg, "--out", str(out1), "bounds"]) == 0
    assert main(["--config", cfg, "--out", str(out2), "bounds"]) == 0
    assert (out1 / "bounds.json").read_bytes() == (out2 / "bounds.json").read_bytes()
    assert (out1 / "thresholds.csv").read_bytes() == (out2 / "thresholds.csv").read_bytes()
    payload = json.loads((out1 / "bounds.json").read_text())
    for field in ("single_class_threshold", "explicit_threshold", "expected_sup_threshold"):
        assert payload[field]["tag"].startswith(("exact", "estimated"))
    rows = (out1 / "thresholds.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 6  # header + default delta grid


def test_localize_command_and_large_n_collapse(tmp_path):
    cfg = _write(tmp_path, _canonical_config(n=50_000, delta=0.1, trials=400, k=1))
    out = tmp_path / "loc"
    assert main(["--config", cfg, "--out", str(out), "localize"]) == 0
    trace = json.loads((out / "trace.json").read_text())
    assert trace["sets"][-1] == ["A"]
    assert (out / "localize.svg").exists()
    svg = (out / "localize.svg").read_text()
    assert svg.startswith("<svg") and "</svg>" in svg


def test_localize_choose_k_plot_points(tmp_path):
    cfg = _write(tmp_path, _canonical_config(n=200, delta=0.1, trials=300))
    out = tmp_path / "loc"
    assert main(["--config", cfg, "--out", str(out), "localize"]) == 0
    trace = json.loads((out / "trace.json").read_text())
    assert 1 <= trace["k"] <= 2  # k_max = 1 + |suboptimal| = 2
    assert len(trace["sets"]) == trace["k"] + 1
    sweep = (out / "localize_ksweep.svg").read_text()
    assert sweep.count("<circle") == 2  # one point per candidate k


def test_montecarlo_consistency_rows(tmp_path):
    cfg = _write(tmp_path, _canonical_config(n_grid=[30, 60, 120, 240]))
    out = tmp_path / "mc"
    assert main(["--config", cfg, "--out", str(out), "--trials", "100",
                 "montecarlo", "consistency"]) == 0
    rows = (out / "consistency.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 4
    verdict = json.loads((out / "verdict_consistency.json").read_text())
    assert {"clauses", "pass"} <= set(verdict)
    out2 = tmp_path / "mc2"
    assert main(["--config", cfg, "--out", str(out2), "--trials", "100",
                 "montecarlo", "consistency"]) == 0
    assert (out / "consistency.csv").read_bytes() == (out2 / "consistency.csv").read_bytes()
    assert (out / "consistency.svg").read_bytes() == (out2 / "consistency.svg").read_bytes()


def test_montecarlo_quantiles(tmp_path):
    cfg = _write(tmp_path, _canonical_config(n_grid=[100, 400], delta=0.5))
    outs = [tmp_path / "q1", tmp_path / "q2"]
    for out in outs:
        assert main(["--config", cfg, "--out", str(out), "--trials", "100",
                     "montecarlo", "quantiles"]) == 0
    header = (outs[0] / "trials_quantiles.csv").read_text().splitlines()[0]
    assert header == "trial,t_hat,n_excess,n_excess_oracle,singular"
    verdict = json.loads((outs[0] / "verdict_quantiles.json").read_text())
    assert [c["id"] for c in verdict["clauses"]] == ["c7_sandwich", "c7_ks_limit", "c7_ks_oracle"]
    assert len(verdict["quantiles"]) == 2
    for name in ("trials_quantiles.csv", "verdict_quantiles.json", "quantiles.svg"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_montecarlo_pathwise(tmp_path):
    cfg = _write(tmp_path, _canonical_config(n=100))
    out = tmp_path / "mc"
    assert main(["--config", cfg, "--out", str(out), "--trials", "100",
                 "montecarlo", "pathwise"]) == 0
    verdict = json.loads((out / "verdict_pathwise.json").read_text())
    assert verdict["violations"] == 0
    assert verdict["clauses"][0]["id"] == "c9_pathwise"


MONTECARLO_DIGESTS = {
    "quantiles-params0": {
        "quantiles.svg": "99571756e7938945905f88cd515d222874cccd6de49f20c5fcf222d3e3c283ee",
        "trials_quantiles.csv": "de82475f9db5ed1e1917c98a952ed8ba1727b23653a160f9e2897e76236bf358",
        "verdict_quantiles.json": "28f28dddb09cc58baf458e1c017e184957c230f4f9800ad5f275ec3d93827b10",
    },
    "pathwise-params1": {
        "pathwise.csv": "aac23782e4bcd9bb50e7ce34bda05e345c6e42788737ddbeda3aa37289ec10d6",
        "verdict_pathwise.json": "629182f70b696049f27cd8965b73703912a3e1f2a702af7de64b35e6c4eb9625",
    },
    "validity_explicit_grid": {
        "validity.csv": "c13bddc5e9c3b736ba84816e1ece2cae33f5f81156dbf2f0b167d7a10347bc6c",
        "validity.svg": "e23c57a8ec3f02cd23455fc43adf50fd4621de6a9e7bcb9deaed85302494e623",
        "verdict_validity.json": "090bbce3a38ca499610239e5965f0a2bab86169e2b50f53aa3ec2c32180bf8cb",
    },
    "validity_explicit_k2": {
        "validity.csv": "b270324d57db2c2bd3b5ed9a89a683a1fba251a62beb9ab42f387eb0870810a1",
        "validity.svg": "09fb8a5d5e10fec88daa0da49bf6877dc29b368ecd62392916cc275e52424ab8",
        "verdict_validity.json": "1bacfc208128609d2f5a2db71a48beb8438b74fdbfac1117be45eda6f02aceb8",
    },
    "validity_single_class_default_grid": {
        "validity.csv": "8baf065e20ca8445bb72e518ac7adb516b45ae05876b06ab2328f6449a2b23e6",
        "validity.svg": "4674625e069758c882a77befb532ea7aa4eb844f1b7e885f048df41b044e3e01",
        "verdict_validity.json": "9bd4e4471f2ca5a3c3f542c91f89c9fb7f81c53f922f8ee44c816f47cb15bab8",
    },
    "consistency_small_n": {
        "consistency.csv": "5141ec061ac5b020844f56286591c1ca2016c1055ab833e358dd0483dd9c7671",
        "consistency.svg": "9bdf3917f3109972d208439d83611e7aba843f24400b84bca1c0df1cb2da5591",
        "verdict_consistency.json": "136ef145aeae132b25e3ace6b5636398ec12cf5441d1372ea5f0efb63110c42f",
    },
    "validity_singular_small_n": {
        "validity.csv": "9a0b42a219f5c3f42df991dc06f318d36e4b391419158c77af2865786ce791f5",
        "validity.svg": "43644df21f9fa8c53f7fe8a8fc3d63bd220a0129a46cf7bd0c75b495283be572",
        "verdict_validity.json": "d65c4c6978e2880c7d11e4c1270260305b80f50ef34743a4bc84ca3aa34a7c38",
    },
    "bss_discrete": {
        "bss.csv": "0d96884e4165d53ff6e9f8499615e3b94b0f2d2db3e2dd422d1b7fd790b3664b",
        "bss.svg": "6189c795c2677c40338e9519fc64409e298beb41a0a18e127f1fec2d5b97dc10",
        "verdict_bss.json": "4b2ed20d7bbc316afe22b4c8960eb1f200fa6314a1740e35156a623a36d07a00",
    },
}

# a run whose output depends on its trials: a moved stream or fit moves its bytes
DEPENDS_ON_TRIALS = {
    "consistency_small_n": lambda verdict: any(0 < r["p_miss"] < 1 for r in verdict["rows"]),
    "validity_singular_small_n": lambda verdict: any(r["violations"] > 0 for r in verdict["rows"]),
    "bss_discrete": lambda verdict: all(r["a_n_se"] > 0 for r in verdict["rows"]),
}


MONTECARLO_RUNS = [
    # the first two ids are the ones pytest generated before the validity runs joined
    pytest.param("quantiles", {"n_grid": [100, 400], "delta": 0.5}, id="quantiles-params0"),
    pytest.param("pathwise", {"n": 100}, id="pathwise-params1"),
    pytest.param("validity", {"n_grid": [16, 120], "delta": 0.5}, id="validity_explicit_grid"),
    pytest.param("validity", {"n_grid": [50, 400], "delta": 0.5, "k": 2}, id="validity_explicit_k2"),
    pytest.param("validity", {"delta": 0.5, "bound": "single_class"}, id="validity_single_class_default_grid"),
    pytest.param("consistency", {"n_grid": [5, 10, 20, 40]}, id="consistency_small_n"),
    # every violation is a singular fit: the bound dwarfs the excess at these n
    pytest.param("validity", {"n_grid": [2, 3, 5], "delta": 0.5}, id="validity_singular_small_n"),
    pytest.param("bss", _BSS, id="bss_discrete"),
]


@pytest.mark.parametrize("command,params", MONTECARLO_RUNS)
def test_montecarlo_outputs_are_pinned(tmp_path, request, command, params):
    # sha256 of every file the command writes on a small config: a moved
    # trial stream, threshold or bound changes the bytes
    cfg = _write(tmp_path, _canonical_config(**params))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--trials", "100", "montecarlo", command]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == MONTECARLO_DIGESTS[request.node.callspec.id]
    depends = DEPENDS_ON_TRIALS.get(request.node.callspec.id)
    if depends is not None:
        assert depends(json.loads((out / f"verdict_{command}.json").read_text()))


@pytest.mark.parametrize("bound", ["explicit", "single_class"])
def test_validity_without_a_grid_computes_each_constant_once(tmp_path, monkeypatch, bound):
    # the default grid is the bound's threshold, sized from the sweep's own
    # lambda_max(V) and L: an ascent over blocks of d_t >= 3 runs once
    calls = []
    for name in ("quadratic_form_variance_sup", "covariance_deviation_lambda_max"):
        def counting(*args, real=getattr(bounds, name), name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        for module in (bounds, cli, experiments):  # every module that holds the function
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    cfg = _write(tmp_path, _canonical_config(delta=0.5, bound=bound))
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--trials", "100", "montecarlo", "validity"]) == 0
    assert sorted(calls) == ["covariance_deviation_lambda_max", "quadratic_form_variance_sup"]


HYPERCUBE_DIGESTS = {
    "quantiles": {
        "quantiles.svg": "5f427775245965a5914a0114f1f4d02c98c3f8467d1b1a616a9053502684ac30",
        "trials_quantiles.csv": "ecaa8a3760d00a8487e9027a4a4d2cb3a52099ea772ca5d7152db0dc4662c40c",
        "verdict_quantiles.json": "f2ad4e17cf122e2f4a3757cde4bcf9b9f9ba09ee57dae351bd548faeba968caf",
    },
    "pathwise": {
        "pathwise.csv": "61c4b41c0569b2c98ece67ab7c3da8478b5536517a054c30401142b3155d0d9a",
        "verdict_pathwise.json": "f035520af7ff3a0a7c16f7d16472b988906cf5538cbff49d2b6d5e0194658217",
    },
}
HYPERCUBE_RUNS = [
    ("quantiles", {"n_grid": [100, 400], "delta": 0.5}, "trials_quantiles.csv"),
    ("pathwise", {"n": 100}, "pathwise.csv"),
]


@pytest.mark.parametrize("command,params,table", HYPERCUBE_RUNS, ids=[r[0] for r in HYPERCUBE_RUNS])
def test_montecarlo_outputs_on_subsets_are_pinned(tmp_path, command, params, table):
    # the ids of a subsets collection, such as (0, 1), hold a comma: the
    # per-trial tables quote them
    cfg = {
        "seed": 23,
        "law": _bench_workloads().hypercube_law(3, (0, 1)),
        "collection": {"kind": "subsets", "dim": 3, "sparsity": 2},
        "params": params,
    }
    out = tmp_path / "out"
    assert main(["--config", _write(tmp_path, cfg), "--out", str(out), "--trials", "100", "montecarlo", command]) == 0
    assert ',"(0, 1)",' in (out / table).read_text()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == HYPERCUBE_DIGESTS[command]


REPORT_DIGESTS = {
    "bounds": {
        "bounds.json": "d727691033bccd89822ecc8bbdcc3a8ff36caadcc0a1f346c6d87c03326021fd",
        "thresholds.csv": "e86df468578d39e9b8bce0826af74d307aa50c5f2ecd1ef14f244f93cafca0c7",
    },
    "localize": {
        "localize.svg": "0e8541dca36c8008562460891a62d8e188eecaf47a8c31fc01885271ee6aacd8",
        "localize_ksweep.svg": "d9abb2af2c4ce1e8b8ae5944917e4c3f2a29a7a3b73bfe48fabcb67c550cfac1",
        "trace.json": "43bc667f7b9716a615c8cf580154bedb01c3e2dfc14b6429adf729f6ffc210fb",
        "trace.txt": "3c62da411ba254bf4b7157fde7e03c65ecc800efe55663fbc6a097c3101ccc6a",
    },
    "localize_expected_sup": {
        "localize.svg": "61d0afb5308c6a3bba2d0bc6b708a0f5ece3bc387cc8ff0742e5d902a1c08ce2",
        "localize_ksweep.svg": "c863a8a0bce0c7051161d29a084ea48f8beeb0ee27375a8b19b0279a861fbc1e",
        "trace.json": "ba7faea2fdbb418dee5fc1bb91ec2dfdcd31c4becfbc7e42520566bc80ae950d",
        "trace.txt": "cf6e0daa28f2f27de6df90fe0d82dc2e7641334f8a5697f13e3e569ce85ddf98",
    },
}
REPORT_RUNS = [
    ("bounds", ["bounds"], {"n": 200, "delta": 0.1, "trials": 300, "k": 2}),
    ("localize", ["localize"], {"n": 200, "delta": 0.1, "trials": 300}),
    ("localize_expected_sup", ["localize"], {"n": 2000, "delta": 0.1, "trials": 300, "complexity": "expected_sup"}),
]


@pytest.mark.parametrize("name,command,params", REPORT_RUNS, ids=[r[0] for r in REPORT_RUNS])
def test_bounds_and_localize_outputs_are_pinned(tmp_path, name, command, params):
    # sha256 of every file the command writes on a small config: a moved
    # threshold, bound, set or A(S) value changes the bytes
    cfg = _write(tmp_path, _canonical_config(**params))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), *command]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == REPORT_DIGESTS[name]


def test_localize_builds_each_trace_once(tmp_path, monkeypatch):
    # the step-count choice and the k-sweep chart read one sweep
    from unionerm import localization

    built, real = [], localization.iterate
    monkeypatch.setattr(localization, "iterate", lambda n, delta, k, *rest: (built.append(k), real(n, delta, k, *rest))[1])
    cfg = _write(tmp_path, _canonical_config(n=200, delta=0.1, trials=300))
    assert main(["--config", cfg, "--out", str(tmp_path / "loc"), "localize"]) == 0
    assert built == [1, 2]  # k = 1 .. 1 + |suboptimal|, once each


def test_bounds_evaluates_each_subset_complexity_once(tmp_path, monkeypatch):
    # the report at delta and the six rows of the delta grid share one A(S) source
    from unionerm import localization

    asked, real = [], localization.explicit_complexity
    monkeypatch.setattr(localization, "explicit_complexity", lambda subset, *a, **kw: (asked.append(subset), real(subset, *a, **kw))[1])
    cfg = _write(tmp_path, _canonical_config(n=200, delta=0.1, trials=300, k=2))
    assert main(["--config", cfg, "--out", str(tmp_path / "b"), "bounds"]) == 0
    assert asked and len(asked) == len(set(asked))


def test_validity_bound_outside_its_choices_is_a_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, _canonical_config(delta=0.5, n_grid=[120], bound="bogus"))
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--trials", "150", "montecarlo", "validity"]) == 2
    assert "config field $.params.bound" in capsys.readouterr().err


def test_bss_design_outside_its_choices_is_a_config_error(tmp_path, capsys):
    cfg_data = _canonical_config(design="bogus", d=3, s=2, w_true=[1.0, 1.0, 0.0], n_grid=[50])
    del cfg_data["law"], cfg_data["collection"]
    cfg = _write(tmp_path, cfg_data)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--trials", "60", "montecarlo", "bss"]) == 2
    assert "config field $.params.design" in capsys.readouterr().err


BSS_INSTANCE = [
    ({"d": 3, "s": 0, "w_true": [1.0, 1.0, 0.0]}, "s"),
    ({"d": 3, "s": 4, "w_true": [1.0, 1.0, 0.0]}, "s"),
    ({"d": 3, "s": 1, "w_true": [1, 0]}, "w_true"),
    ({"d": 0, "s": 1, "w_true": []}, "d"),
    ({"d": 3, "s": 2, "w_true": [1.0, 1.0, 0.0], "noise_std": 0}, "noise_std"),
    ({"d": 3, "s": 2, "w_true": [1.0, 1.0, 0.0], "noise_std": -1}, "noise_std"),
    ({"d": 3, "s": 2, "w_true": [1.0, 1.0, 0.0], "noise_std": "loud"}, "noise_std"),
]


@pytest.mark.parametrize("params,name", BSS_INSTANCE, ids=[
    "s_zero", "s_above_support", "w_true_short", "d_zero", "noise_std_zero", "noise_std_negative",
    "noise_std_not_a_number"])
def test_bss_instance_params_are_config_errors(tmp_path, capsys, params, name):
    cfg_data = _canonical_config(design="discrete", n_grid=[50], **params)
    del cfg_data["law"], cfg_data["collection"]
    cfg = _write(tmp_path, cfg_data)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--trials", "60", "montecarlo", "bss"]) == 2
    assert f"config field $.params.{name}:" in capsys.readouterr().err


def test_every_param_rule_has_a_broken_case():
    # bound and design have their own tests above
    named = {case[-1] for case in OUT_OF_RANGE + NOT_A_JSON_NUMBER + BROKEN_PARAMS + BSS_INSTANCE}
    assert named | {"bound", "design"} == set(cli.PARAM_RULES)


def test_localize_draws_no_count_sample_and_bounds_draws_one(tmp_path, monkeypatch):
    # A(S) and the class moments are closed forms: only the expected suprema draw
    from unionerm import processes

    drawn, real = [], processes.iter_count_batches
    monkeypatch.setattr(processes, "iter_count_batches", lambda *args: (drawn.append(args[1:]), real(*args))[1])
    cfg = _write(tmp_path, _canonical_config(n=200, delta=0.1, trials=300, k=2))
    assert main(["--config", cfg, "--out", str(tmp_path / "loc"), "localize"]) == 0
    assert drawn == []
    assert main(["--config", cfg, "--out", str(tmp_path / "b"), "bounds"]) == 0
    assert drawn == [(200, 300, 19)]


def _namedtuples_in(node):
    if isinstance(node, tuple) and hasattr(node, "_fields"):
        yield type(node).__name__
    children = node.values() if isinstance(node, dict) else node if isinstance(node, (list, tuple)) else ()
    for child in children:
        yield from _namedtuples_in(child)


def test_no_result_carrier_reaches_write_json(tmp_path, monkeypatch):
    # json.dumps would write a NamedTuple carrier as an unlabelled list
    payloads = []
    real_write_json = cli.write_json
    monkeypatch.setattr(cli, "write_json", lambda path, payload: (payloads.append(payload), real_write_json(path, payload)))
    canonical = _write(tmp_path, _canonical_config(n=200, delta=0.5, trials=300, n_grid=[100, 400]), "canonical.json")
    validity = _write(tmp_path, _canonical_config(delta=0.5, n_grid=[120], bound="explicit"), "validity.json")
    bss_cfg = _canonical_config(design="discrete", d=3, s=2, w_true=[1.0, 1.0, 0.0], noise_std=1.0,
                                n_grid=[50, 100], check_threshold=False)
    del bss_cfg["law"], bss_cfg["collection"]
    bss = _write(tmp_path, bss_cfg, "bss.json")
    runs = [(canonical, ["profile"]), (canonical, ["bounds"]), (canonical, ["localize"])]
    runs += [(canonical, ["montecarlo", c]) for c in ("quantiles", "consistency", "pathwise")]
    runs += [(validity, ["montecarlo", "validity"]), (bss, ["montecarlo", "bss"])]
    for i, (cfg, command) in enumerate(runs):
        assert main(["--config", cfg, "--out", str(tmp_path / f"o{i}"), "--trials", "150", *command]) == 0
    assert len(payloads) == len(runs)
    assert [name for p in payloads for name in _namedtuples_in(p)] == []


def test_montecarlo_bss(tmp_path):
    cfg_data = _canonical_config(
        design="discrete", d=3, s=2, w_true=[1.0, 1.0, 0.0], noise_std=1.0,
        n_grid=[50, 100], check_threshold=False,
    )
    del cfg_data["law"]
    del cfg_data["collection"]
    cfg = _write(tmp_path, cfg_data)
    out = tmp_path / "bss"
    assert main(["--config", cfg, "--out", str(out), "--trials", "60",
                 "montecarlo", "bss"]) == 0
    rows = (out / "bss.csv").read_text().strip().splitlines()
    assert len(rows) == 3
    assert (out / "bss.svg").exists()


def test_bss_recovery_threshold_on_the_gaussian_design_is_a_config_error(tmp_path, capsys):
    # the threshold clause needs the discrete design's profile: on the Gaussian
    # design it used to be dropped without a word
    cfg_data = _canonical_config(design="gaussian", d=3, s=2, w_true=[1.0, 1.0, 0.0], n_grid=[20, 40])
    del cfg_data["law"], cfg_data["collection"]
    argv = ["--trials", "20", "montecarlo", "bss"]
    for check, code in ((True, 2), (False, 0), (None, 0)):
        if check is not None:
            cfg_data["params"]["check_threshold"] = check
        out = tmp_path / f"o{check}"
        assert main(["--config", _write(tmp_path, cfg_data), "--out", str(out), *argv]) == code
        if code:
            assert "config field $.params.check_threshold:" in capsys.readouterr().err
            assert not (out / "verdict_bss.json").exists()
        else:
            clauses = json.loads((out / "verdict_bss.json").read_text())["clauses"]
            assert [c["id"] for c in clauses] == ["c11_ratio_trend"]


def test_montecarlo_validity_small(tmp_path):
    cfg = _write(tmp_path, _canonical_config(delta=0.5, n_grid=[120], bound="explicit"))
    out = tmp_path / "mc"
    assert main(["--config", cfg, "--out", str(out), "--trials", "150",
                 "montecarlo", "validity"]) == 0
    verdict = json.loads((out / "verdict_validity.json").read_text())
    assert verdict["rows"][0]["n"] == 120


def test_seed_override_changes_outputs(tmp_path):
    cfg = _write(tmp_path, _canonical_config(n_grid=[40]))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["--config", cfg, "--out", str(out1), "--trials", "100", "montecarlo", "consistency"])
    main(["--config", cfg, "--out", str(out2), "--trials", "100", "--seed", "99",
          "montecarlo", "consistency"])
    csv1 = (out1 / "consistency.csv").read_text()
    csv2 = (out2 / "consistency.csv").read_text()
    assert csv1.splitlines()[0] == csv2.splitlines()[0]


def test_negative_seed_override_is_a_config_error(tmp_path, capsys):
    # the override obeys the config's seed rule: exit 2, naming --seed, and no output
    cfg = _write(tmp_path, _canonical_config(n=300, trials=20))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--seed", "-1", "montecarlo", "pathwise"]) == 2
    assert capsys.readouterr().err.strip() == "config error: --seed: -1 is less than the minimum of 0"
    assert not out.exists()
    assert main(["--config", cfg, "--out", str(out), "--seed", "0", "montecarlo", "pathwise"]) == 0


def test_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path):
    # main reuses one parser: an override, or a parse that exits 2, must not
    # reach the next call
    cfg = _write(tmp_path, _canonical_config(n_grid=[40, 80], trials=100))
    plain = ["--config", cfg, "montecarlo", "consistency"]
    assert main(["--out", str(tmp_path / "first"), *plain]) == 0
    assert main(["--out", str(tmp_path / "override"), "--seed", "99", "--trials", "150", *plain]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path / "bad"), "--seed", "5", "--trials", "many", *plain])
    assert exc.value.code == 2
    assert main(["--out", str(tmp_path / "again"), *plain]) == 0
    first, override, again = (json.loads((tmp_path / d / "verdict_consistency.json").read_text())
                              for d in ("first", "override", "again"))
    assert [r["trials"] for r in override["rows"]] == [150, 150]
    assert override != first
    assert again == first
    assert (tmp_path / "again" / "consistency.csv").read_bytes() == (tmp_path / "first" / "consistency.csv").read_bytes()
    assert not (tmp_path / "bad").exists()
    assert cli.make_parser() is cli.make_parser()


def test_json_payload_takes_every_numpy_scalar(tmp_path):
    payload = {"flag": np.bool_(True), "half": np.float32(0.5), "small": np.int8(-3), "arr": np.arange(2)}
    cli.write_json(str(tmp_path / "p.json"), payload)
    assert json.loads((tmp_path / "p.json").read_text()) == {"flag": True, "half": 0.5, "small": -3, "arr": [0, 1]}
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli.write_json(str(tmp_path / "q.json"), {"x": object()})


def test_column_writer_matches_the_per_cell_writer(tmp_path):
    # write_csv forms the repr of each distinct float64 bit pattern once; the
    # old writer passed NumPy scalars cell by cell: same bytes
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308, 1e16, 1e-5, 0.1, 1 / 3]
    bits = rng.integers(0, 2**64, size=20_000, dtype=np.uint64, endpoint=False).view(np.float64)
    lattice = np.round(rng.standard_normal(2000), 2)  # repeated values, as in the per-trial tables
    values = np.concatenate([special, bits, lattice, rng.standard_normal(2000) * 10.0 ** rng.integers(-20, 20, 2000)])
    ids = [(0, 1), (0, 2), (1, 2), "A", ("x", 3)]
    t_hat = tuple(ids[j] for j in rng.integers(0, len(ids), values.size))
    singular = rng.random(values.size) < 0.3
    counts = rng.integers(-10**12, 10**12, values.size)
    path = tmp_path / "t.csv"
    cli.write_csv(str(path), {
        "trial": range(values.size), "t_hat": map(str, t_hat), "value": values, "neg": -values,
        "count": counts, "singular": singular.astype(np.int8), "listed": list(values), "again": values[::-1].copy(),
    })
    expected = csv_rows_text(
        ["trial", "t_hat", "value", "neg", "count", "singular", "listed", "again"],
        ([i, str(t_hat[i]), values[i], -values[i], counts[i], int(singular[i]), values[i], values[-1 - i]]
         for i in range(values.size)),
    )
    text = path.read_text()
    assert text == expected
    assert len(set(values.view(np.int64))) < values.size  # the bit-pattern dedupe is exercised
    assert '"(0, 1)"' in text and ",nan," in text and ",-0.0," in text and ",5e-324," in text and ",1e+16," in text


@pytest.mark.parametrize("columns", [
    {"a": [1, 2], "b": [1]},
    {"a": np.zeros(2), "b": np.ones(3)},
    {"a": np.zeros(2), "b": range(3)},
], ids=["lists", "float-arrays", "array-and-range"])
def test_column_writer_rejects_ragged_columns(tmp_path, columns):
    with pytest.raises(ValueError):
        cli.write_csv(str(tmp_path / "t.csv"), columns)
    assert list(tmp_path.iterdir()) == []


def test_column_writer_writes_an_empty_table_as_its_header(tmp_path):
    cli.write_csv(str(tmp_path / "t.csv"), {"trial": range(0), "x": np.zeros(0), "y": np.zeros(0), "id": []})
    assert (tmp_path / "t.csv").read_text() == "trial,x,y,id\n"


def _writer_tables():
    return {
        "quoted-strings": {
            "id": ["a,b", 'say "hi"', "two\nlines", "cr\rhere", " lead", "", "plain", "a,b", ""],
            "x": np.arange(9) / 7,
        },
        "one-column-empty-string": {"id": ["", "x", ""]},
        "one-column-floats": {"x": np.array([0.5, -0.0, math.nan])},
        "mixed-columns": {
            "one": [1, 1.0, True, 1, 1.0, True],
            "zero": [0.0, -0.0, math.nan, -0.0, 0.0, math.nan],
            "id": iter(["1", "1.0", "True", "1", "1.0", "True"]),
        },
        "none-bool-int64": {
            "none": [None, "x", None],
            "flag": np.array([True, False, True]),
            "count": np.array([-2**62, 0, 2**62], dtype=np.int64),
            "scalars": [np.float64(0.1), np.float64(-0.0), np.float64(1e300)],
            "trial": range(3),
        },
        "thresholds-like": {
            "delta": [0.01, 0.02, 0.05, 0.1, 0.2, 0.5],
            **{c: [1 / d if d < 0.1 else math.inf for d in (0.01, 0.02, 0.05, 0.1, 0.2, 0.5)]
               for c in ("explicit_threshold", "expected_sup_threshold")},
            "single_class_excess_bound": [2.5e-05, 1.25e-05, 5e-06, 2.5e-06, 1.25e-06, 5e-07],
        },
    }


@pytest.mark.parametrize("name", sorted(_writer_tables()))
def test_column_writer_matches_the_csv_oracle(tmp_path, name):
    # the per-cell writer is given an array's NumPy scalars and any other cell as it is
    cli.write_csv(str(tmp_path / "t.csv"), _writer_tables()[name])
    cells = {k: list(c) for k, c in _writer_tables()[name].items()}
    expected = csv_rows_text(list(cells), zip(*cells.values()))
    assert (tmp_path / "t.csv").read_bytes() == expected.encode()


def test_column_writer_rejects_float_columns_whose_lengths_sum_to_a_multiple(tmp_path):
    with pytest.raises(ValueError):
        cli.write_csv(str(tmp_path / "t.csv"), {"a": np.zeros(2), "b": np.ones(4)})
    assert list(tmp_path.iterdir()) == []


def _pathwise_config(ids=("A", "B")):
    cfg = _canonical_config(n=60, trials=20)
    for entry, idx in zip(cfg["collection"]["entries"], ids):
        entry["id"] = idx
    return cfg


def test_outputs_get_the_umask_mode(tmp_path):
    cfg = _write(tmp_path, _canonical_config(n=100, delta=0.2, trials=200))
    pathwise = _write(tmp_path, _pathwise_config(), "pathwise.json")
    out = tmp_path / "out"
    old = os.umask(0o022)
    try:
        assert main(["--config", cfg, "--out", str(out), "bounds"]) == 0
        assert main(["--config", cfg, "--out", str(out), "localize"]) == 0
        assert main(["--config", pathwise, "--out", str(out), "montecarlo", "pathwise"]) == 0
    finally:
        os.umask(old)
    modes = {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()}
    assert {"thresholds.csv", "trace.json", "pathwise.csv", "verdict_pathwise.json"} <= set(modes)
    assert set(modes.values()) == {0o644}


def test_a_failed_write_leaves_no_temp_file(tmp_path):
    (tmp_path / "t.txt").write_text("old\n")
    with pytest.raises(UnicodeEncodeError):
        cli._write_text(str(tmp_path / "t.txt"), "\ud800")  # a lone surrogate has no UTF-8 form
    assert [p.name for p in tmp_path.iterdir()] == ["t.txt"]
    assert (tmp_path / "t.txt").read_text() == "old\n"


def test_configs_and_outputs_are_utf8_under_an_ascii_locale(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_pathwise_config(ids=("β", "γ")), ensure_ascii=False), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}
    env.pop("PYTHONUTF8", None)
    argv = ["--config", str(cfg), "montecarlo", "pathwise"]
    run = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "unionerm.cli", "--out", str(tmp_path / "c"), *argv],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert main(["--out", str(tmp_path / "host"), *argv]) == 0
    for name in ("pathwise.csv", "verdict_pathwise.json"):
        assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "host" / name).read_bytes()
    assert ",β," in (tmp_path / "c" / "pathwise.csv").read_bytes().decode("utf-8")


def test_profile_escapes_ids_stdout_cannot_encode(tmp_path):
    # under an ASCII locale the table's "β" went to stdout as UnicodeEncodeError
    # (exit 1) after both files were written; the files keep their UTF-8 bytes
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_pathwise_config(ids=("β", "γ")), ensure_ascii=False), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}
    env.pop("PYTHONUTF8", None)
    run = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "unionerm.cli", "--config", str(cfg),
                          "--out", str(tmp_path / "c"), "profile"], env=env, capture_output=True)
    assert run.returncode == 0, run.stderr
    assert b"\\u03b2" in run.stdout and b"\\u03b3" in run.stdout
    assert main(["--config", str(cfg), "--out", str(tmp_path / "host"), "profile"]) == 0
    for name in ("profile.json", "profile.txt"):
        assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "host" / name).read_bytes()
    assert "β" in (tmp_path / "c" / "profile.txt").read_text(encoding="utf-8")


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(_pathwise_config(ids=("é", "B")), ensure_ascii=False).encode("latin-1"))
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "montecarlo", "pathwise"]) == 2
    assert "cannot read config" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_no_temp_files_left_behind(tmp_path):
    cfg = _write(tmp_path, _canonical_config(n=100, delta=0.2, trials=200))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "bounds"]) == 0
    leftovers = [p for p in os.listdir(out) if p.endswith(".tmp")]
    assert leftovers == []


def test_threads_flag_is_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--config", "cfg.json", "--out", str(tmp_path), "--threads", "2", "profile"])
    assert exc.value.code == 2


SETUP_CODE = """
import json, sys
from unionerm import cli, experiments, model, population
cfg = cli.load_config(sys.argv[1])
if "law" in cfg:
    law, collection = cli.build_law(cfg), cli.build_collection(cfg)
else:  # montecarlo bss builds its instance from the params
    p = cfg["params"]
    law = experiments.bss_instance(p["design"], p["d"], p["w_true"], p["noise_std"])
    collection = model.subset_collection(p["d"], p["s"])
population.profile(law, collection)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "jsonschema") or m.startswith("numpy.random"))))
"""


@pytest.mark.parametrize("workload", ["mc_canonical", "bounds_localize", "bss_wide"])
def test_setup_stays_within_its_module_budget(tmp_path, workload):
    # a set-up (import, load a valid config, build the profile) loads no scipy
    # (imported inside the interval functions), no numpy.random (streams are
    # built on first use) and no jsonschema (the config rules are plain
    # Python; the schema is only the tests' oracle)
    config = next(iter(_bench_workloads().write_configs(workload, 3, str(tmp_path)).values()))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", SETUP_CODE, config], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == []


COMMANDS_CODE = """
import json, sys
from unionerm import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"])]))
"""


@pytest.mark.parametrize("workload", ["mc_canonical", "bounds_localize"])
def test_commands_off_the_clopper_pearson_path_never_load_scipy(tmp_path, workload):
    # only consistency, validity and bss (Clopper-Pearson intervals) may load
    # scipy; every other command runs on the workload's configs without it,
    # and without numpy.ma (~1 MB, which np.unique of a plain array loads)
    bench = _bench_workloads()
    paths = bench.write_configs(workload, 3, str(tmp_path))
    if workload == "mc_canonical":
        plan = [("quantiles", ["profile"]), ("quantiles", ["montecarlo", "quantiles"]), ("pathwise", ["bounds"]),
                ("pathwise", ["localize"]), ("pathwise", ["montecarlo", "pathwise"])]
    else:  # the hypercube's config with the quantile study's params beside it
        cfg = json.loads(Path(paths["bounds_localize"]).read_text())
        cfg["params"] = {"n_grid": [bench.BL_N], "delta": bench.BL_DELTA, "trials": 500}
        paths["quantiles"] = _write(tmp_path, cfg)
        plan = [("bounds_localize", [command]) for command in ("profile", "bounds", "localize")]
        plan += [("quantiles", ["montecarlo", "quantiles"]), ("bounds_localize", ["montecarlo", "pathwise"])]
    argvs = [["--config", paths[stem], "--out", str(tmp_path / f"out{i}"), *command] for i, (stem, command) in enumerate(plan)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", COMMANDS_CODE, json.dumps(argvs)], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [[0] * len(plan), []]


def test_config_schema_is_a_valid_draft_2020_12_schema():
    Draft202012Validator.check_schema(CONFIG_SCHEMA)


def test_schema_error_deep_in_atoms_names_path_and_message(tmp_path):
    cfg_data = _canonical_config()
    cfg_data["law"]["atoms"] = [dict(a, w=a["w"] / 5) for a in cfg_data["law"]["atoms"] * 5]
    cfg_data["law"]["atoms"][37]["w"] = 0
    with pytest.raises(ConfigError) as err:
        load_config(_write(tmp_path, cfg_data))
    assert str(err.value) == "config field $.law.atoms[37].w: 0 is less than or equal to the minimum of 0"


def _bad_atoms(kind):
    cfg = _canonical_config()
    atom = cfg["law"]["atoms"][3]
    if kind == "missing-key":
        del atom["y"]
    elif kind == "bool":
        atom["x"][1] = True
    elif kind == "string":
        atom["y"] = "1.0"
    elif kind == "w-zero":
        atom["w"] = 0
    elif kind == "w-negative":
        atom["w"] = -0.5
    elif kind == "x-empty":
        atom["x"] = []
    elif kind == "x-ragged":
        atom["x"] = atom["x"] + [1.0]
    elif kind == "nan":
        atom["x"][0] = float("nan")
    elif kind == "not-an-object":
        cfg["law"]["atoms"][3] = [1.0, 2.0]
    elif kind == "seed-missing":
        del cfg["seed"]
    elif kind == "gaussian-kind":
        cfg["law"]["kind"] = "gaussian_design"
    return cfg


@pytest.mark.parametrize(
    "kind",
    ["clean", "missing-key", "bool", "string", "w-zero", "w-negative", "x-empty", "x-ragged", "nan",
     "not-an-object", "seed-missing", "gaussian-kind"],
)
def test_load_config_agrees_with_full_atom_validation(tmp_path, kind):
    cfg = _bad_atoms(kind)
    exc = best_match(Draft202012Validator(CONFIG_SCHEMA).iter_errors(cfg))
    path = _write(tmp_path, cfg)
    if exc is None:
        assert json.dumps(load_config(path)) == json.dumps(cfg)
    else:
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == f"config field {exc.json_path}: {exc.message}"


# ---------------------------------------------------------------------------
# check_config against the schema oracle
# ---------------------------------------------------------------------------

def _corpus():
    """(name, config): every config these tests write, README's example and
    the benchmark's configs."""
    readme = (ROOT / "README.md").read_text()
    example = json.loads(readme.split("A config is a JSON document")[1].split("```json\n")[1].split("```")[0])
    singleton = _canonical_config()
    singleton["collection"]["entries"] = [{"id": "A", "coords": [0]}]
    degenerate = _canonical_config()
    degenerate["collection"]["entries"].append({"id": "Z", "matrix": [[0.0, 0.0]], "offset": [1]})
    subsets = _canonical_config(n=200)
    subsets["collection"] = {"kind": "subsets", "dim": 2, "sparsity": 1}
    gaussian = _canonical_config(n=200)
    gaussian["law"] = {"kind": "gaussian_design", "dim": 2, "w_true": [1.0, 0.0], "noise_std": 1.0}
    bss = _canonical_config(design="discrete", d=3, s=2, w_true=[1.0, 1.0, 0.0], noise_std=1.0, n_grid=[50, 100])
    del bss["law"], bss["collection"]
    corpus = [
        ("canonical", _canonical_config()),
        ("canonical-params", _canonical_config(n=200, delta=0.1, trials=300, k=1, n_grid=[30, 60], bound="explicit")),
        ("readme", example),
        ("singleton", singleton),
        ("degenerate", degenerate),
        ("subsets", subsets),
        ("gaussian-law", gaussian),
        ("bss", bss),
    ]
    corpus += [(f"atoms-{kind}", _bad_atoms(kind)) for kind in ("missing-key", "bool", "nan", "x-ragged")]
    workloads = _bench_workloads()
    for workload in workloads.WORKLOADS:
        corpus += [(f"{workload}-{stem}", cfg) for stem, cfg in workloads.configs(workload, 3).items()]
    return corpus


def _set(node, path, value):
    """A copy of node with the value at path replaced; containers off the path are shared."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    if type(node) is dict:
        return {**node, head: _set(node[head], rest, value)}
    return [_set(v, rest, value) if i == head else v for i, v in enumerate(node)]


def _mutations(cfg):
    """(label, config) for each one-field mutation of cfg, at every node but
    the inner items of lists (only the first and the last are mutated) and
    the values in params (which the schema leaves free): bool,
    float, negative, zero, NaN or string for an int; a missing key, an extra
    key or a non-dict for a dict; an empty list or a non-list for a list; an
    unknown value for a string."""
    stack = [((), cfg)]
    while stack:
        path, node = stack.pop()
        if type(node) is dict:
            stack += [(path + (k,), v) for k, v in node.items() if path != ("params",)]
            news = [[], {**node, "extra": 1}] + [{k: v for k, v in node.items() if k != key} for key in node]
        elif type(node) is list:
            stack += [(path + (i,), node[i]) for i in sorted({0, len(node) - 1}) if node]
            news = [[], {}, "x"]
        elif type(node) is int:
            news = [True, float(node), -1, 0, math.nan, "1"]
        elif type(node) is float:
            news = [-node, 0.0, math.nan, True]
        else:
            news = ["unknown", 1, None]
        for i, new in enumerate(news):
            yield f"{'/'.join(map(str, path))}#{i}", _set(cfg, path, new)


CORPUS = _corpus()


# (schema path, check_config path) where the schema's oneOf over the two
# collection kinds names another field than the rules of the given kind:
COLLECTION_DISPATCH = {
    ("$.collection", "$.collection.kind"),  # an unknown kind: it fails both branches alike
    ("$.collection.kind", "$.collection"),  # explicit without entries: the subsets branch's const is deeper
    ("$.collection.kind", "$.collection.sparsity"),  # a bad subsets sparsity: the explicit branch's const sorts first
}


@pytest.mark.parametrize("name,cfg", CORPUS, ids=[name for name, _ in CORPUS])
def test_plain_config_check_is_sound(tmp_path, name, cfg):
    # the plain check accepts exactly the configs the schema accepts, and
    # load_config returns those as read
    validator = Draft202012Validator(CONFIG_SCHEMA)
    path = str(tmp_path / "config.json")
    for label, mutant in [("as-is", cfg), *_mutations(cfg)]:
        schema_accepts = next(validator.iter_errors(mutant), None) is None
        try:
            cli.check_config(mutant)
        except ConfigError:
            assert not schema_accepts, label
            continue
        assert schema_accepts, label
        Path(path).write_text(json.dumps(mutant))
        assert json.dumps(load_config(path)) == json.dumps(mutant), label


@pytest.mark.parametrize("name,cfg", CORPUS, ids=[name for name, _ in CORPUS])
def test_load_config_words_every_error_as_the_schema(tmp_path, name, cfg):
    # load_config rejects a config the schema rejects with the schema's best
    # match, save that under the collection's choice of kind it names the
    # field that the given kind's rules break
    validator = Draft202012Validator(CONFIG_SCHEMA)
    path = str(tmp_path / "config.json")
    for label, mutant in [("as-is", cfg), *_mutations(cfg)]:
        exc = best_match(validator.iter_errors(mutant))
        if exc is None:
            continue
        Path(path).write_text(json.dumps(mutant))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        if exc.validator == "oneOf" or exc.parent is not None:
            named = str(err.value).split(": ")[0].removeprefix("config field ")
            assert named == exc.json_path or (exc.json_path, named) in COLLECTION_DISPATCH, label
        else:
            assert str(err.value) == f"config field {exc.json_path}: {exc.message}", label


def test_collection_errors_name_the_field_of_their_kind(tmp_path):
    cfg = _canonical_config()
    cfg["collection"] = {"kind": "subsets", "dim": 2, "sparsity": 0}
    with pytest.raises(ConfigError) as err:
        load_config(_write(tmp_path, cfg))
    assert str(err.value) == "config field $.collection.sparsity: 0 is less than the minimum of 1"
    cfg["collection"] = {"kind": "explicit"}
    with pytest.raises(ConfigError) as err:
        load_config(_write(tmp_path, cfg))
    assert str(err.value) == "config field $.collection: 'entries' is a required property"


# ---------------------------------------------------------------------------
# c7_ks_limit: a two-sample KS test at level 0.05
# ---------------------------------------------------------------------------

def test_ks_critical_value_matches_the_two_sample_formula():
    # kolmogi(0.05) = 1.3581; 500 trials against 10 000 limit draws
    assert experiments.ks_critical_value(500, 10_000) == pytest.approx(1.3580986 * math.sqrt(10_500 / 5e6), rel=1e-6)
    assert experiments.ks_critical_value(500, 10_000) == pytest.approx(0.0622, abs=1e-4)


def test_ks_limit_clause_false_fail_rate_is_near_its_level(tmp_path):
    # the mc_canonical quantiles config of the benchmark: under the limit law
    # the clause fails on about 5% of master seeds
    cfg = _bench_workloads().configs("mc_canonical", 0)["quantiles"]
    path = _write(tmp_path, cfg)
    clauses = []
    for seed in range(1, 61):
        out = tmp_path / f"s{seed}"
        assert main(["--config", path, "--out", str(out), "--seed", str(seed), "montecarlo", "quantiles"]) == 0
        verdict = json.loads((out / "verdict_quantiles.json").read_text())
        clauses.append(next(c for c in verdict["clauses"] if c["id"] == "c7_ks_limit"))
    assert {(c["threshold"], c["alpha"]) for c in clauses} == {(experiments.ks_critical_value(500, 10_000), 0.05)}
    fails = sum(not c["pass"] for c in clauses)
    assert fails <= 8  # Binomial(60, 0.05) exceeds 8 with probability < 0.01


def test_ks_limit_clause_rejects_the_limit_without_its_half(canonical):
    # against the limit without the 1/2 factor (z doubled, since the check
    # halves it) the statistic exceeds the critical value on every seed
    law, coll, prof = canonical
    for seed in range(1, 21):
        batch = experiments.run_trials(law, coll, 20_000, 500, seed, prof)
        z_minus, z_plus = experiments.sample_gaussian_limit(prof, 10_000, seed)
        verdict = experiments.quantile_sandwich_check(batch, 2.0 * z_minus, 2.0 * z_plus, 0.1)
        assert verdict["ks_limit"] > verdict["ks_limit_threshold"], seed
