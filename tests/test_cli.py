import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from unionerm import cli, experiments
from unionerm.cli import CONFIG_SCHEMA, ConfigError, _plain_atoms, _plain_config, load_config, main

from conftest import canonical_atoms

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
        "verdict_quantiles.json": "c0b842d7526930f5cc79028938e2550272968da599ff765f3b85c9fef39e2261",
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
    # (imported inside the interval functions), no numpy.random (trial streams
    # build their seed-sequence type on first use) and no jsonschema (a valid
    # config passes the plain check)
    config = next(iter(_bench_workloads().write_configs(workload, 3, str(tmp_path)).values()))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", SETUP_CODE, config], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == []


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


# ---------------------------------------------------------------------------
# The plain config check is sound: what it accepts, the schema accepts
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


@pytest.mark.parametrize("name,cfg", CORPUS, ids=[name for name, _ in CORPUS])
def test_plain_config_check_is_sound(tmp_path, name, cfg):
    # whenever the plain check accepts a config, the schema accepts it too and
    # load_config returns it as read
    validator = Draft202012Validator(CONFIG_SCHEMA)
    path = str(tmp_path / "config.json")
    for label, mutant in [("as-is", cfg), *_mutations(cfg)]:
        if _plain_config(mutant):
            assert next(validator.iter_errors(mutant), None) is None, label
            Path(path).write_text(json.dumps(mutant))
            assert json.dumps(load_config(path)) == json.dumps(mutant), label


# one config of each shape: atoms, coords, matrix with offset, subsets, a
# foreign law, no law; the benchmark's hypercube has the canonical law's
# shapes at 64 times the schema walk
WORDING_CORPUS = [
    (name, cfg) for name, cfg in CORPUS
    if name in ("canonical-params", "readme", "degenerate", "subsets", "gaussian-law", "bss", "atoms-nan")
]


@pytest.mark.parametrize("name,cfg", WORDING_CORPUS, ids=[name for name, _ in WORDING_CORPUS])
def test_load_config_words_every_error_as_the_schema(tmp_path, name, cfg):
    # a config the schema rejects raises the schema's best match; one it
    # accepts is returned as read, whether or not the plain check took it
    validator = Draft202012Validator(CONFIG_SCHEMA)
    path = str(tmp_path / "config.json")
    for label, mutant in [("as-is", cfg), *_mutations(cfg)]:
        exc = best_match(validator.iter_errors(mutant))
        Path(path).write_text(json.dumps(mutant))
        if exc is None:
            assert json.dumps(load_config(path)) == json.dumps(mutant), label
        else:
            with pytest.raises(ConfigError) as err:
                load_config(path)
            assert str(err.value) == f"config field {exc.json_path}: {exc.message}", label


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
