import hashlib
import json
import os
import subprocess
import sys

import pytest
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from unionerm.cli import CONFIG_SCHEMA, ConfigError, _plain_atoms, load_config, main

from conftest import canonical_atoms


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


def test_insufficient_trials_exits_4(tmp_path):
    cfg = _write(tmp_path, _canonical_config(n_grid=[50], delta=0.1))
    code = main(["--config", cfg, "--out", str(tmp_path / "o"), "--trials", "60",
                 "montecarlo", "quantiles"])
    assert code == 4


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
    "quantiles": {
        "quantiles.svg": "db2bac1adfcd9a8e34282bd595ac18462c3e6246429f843b2ac49b1c6b0ee268",
        "trials_quantiles.csv": "5eda416616293d93329828803f51d5994681ea3bb2b197a45fcf06db0fa57604",
        "verdict_quantiles.json": "1ef3389f7253ce47d1173f5404271fda885e91b0e08a569eed948314733f2d27",
    },
    "pathwise": {
        "pathwise.csv": "151fd17eb1b0ed3ae00e7980ba7307cf0a01471965de50c42ba6097fb1d6eab2",
        "verdict_pathwise.json": "a7f8917aec7a00c7dddaed2d14a49df92b9578e61a3e0fc3e12d86f48816a52a",
    },
}


@pytest.mark.parametrize("command,params", [("quantiles", {"n_grid": [100, 400], "delta": 0.5}), ("pathwise", {"n": 100})])
def test_montecarlo_outputs_are_pinned(tmp_path, command, params):
    # sha256 of every file the command writes on a small config: a moved
    # trial stream changes the bytes
    cfg = _write(tmp_path, _canonical_config(**params))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--trials", "100", "montecarlo", command]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == MONTECARLO_DIGESTS[command]


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


def test_cli_import_loads_no_scipy():
    code = "import sys, unionerm.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_package_import_loads_no_numpy_random():
    # trial streams build their seed-sequence type on first use, so a set-up
    # (import, config, profile) never pays for loading numpy.random
    code = ("import sys; from unionerm import cli, experiments, model, population; "
            "print([m for m in sys.modules if m.startswith('numpy.random')])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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
    # the three configs with clean atoms skip the per-atom walk; the rest get the full validator
    assert _plain_atoms(json.loads(json.dumps(cfg))) == (kind in ("clean", "seed-missing", "gaussian-kind"))
    if exc is None:
        assert json.dumps(load_config(path)) == json.dumps(cfg)
    else:
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == f"config field {exc.json_path}: {exc.message}"
