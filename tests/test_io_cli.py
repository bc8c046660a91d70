"""CSV round-trips, JSON schema conformance, run configs, and CLI exit codes."""

import copy
import json
from dataclasses import asdict
from importlib import resources
from typing import get_args

import jsonschema
import numpy as np
import pytest

from lsqbounds import bounds, cli
from lsqbounds.io import (
    RESULT_COLUMNS,
    ResultRow,
    breakdown_to_json,
    default_seed,
    dump_json,
    outage_to_json,
    parse_run_config,
    read_result_csv,
    write_result_csv,
)
from lsqbounds.models import (
    CONFIG_FIELDS,
    CONFIG_KINDS,
    DesignModel,
    FirMds,
    FixedMatrix,
    Gaussian,
    GaussianMixture,
    IidBoundedColumns,
    NoiseModel,
    Rademacher,
    ToeplitzPilot,
    Uniform,
    UniformPlusGaussian,
    design_to_config,
    noise_to_config,
)
from lsqbounds.montecarlo import ExperimentSpec, run_event_diagnostics
from lsqbounds.params import Accuracy, ParameterError, ProblemParams
from lsqbounds.presets import channel_pilot_design, fig5_models, fixed_design_bound, reproduce

UNIT = ProblemParams(p=2, alpha=1.0, sigma_min=1.0, sigma_max=1.0, R=1.0)


def load_schema(name: str) -> dict:
    path = resources.files("lsqbounds").joinpath(f"schemas/{name}")
    return json.loads(path.read_text(encoding="utf-8"))


SAMPLE_ROWS = [
    ResultRow("r", 0.1, 1234.5678901234567, 1235, "n_rand", 0.2315993678823358,
              0.1230917164636829, None, 0.0015, 0.0005, 0.003, 20000, 7),
    ResultRow("r", 1e-300, 1.0 / 3.0, None, None, None, None, 0.4999999999999999,
              0.0, 0.0, 0.0001844, 50000, 123456789),
    ResultRow("eps", 0.05, 0.1, 1, "n1", None, None, None, 1.0, 0.9, 1.0, 1, 0),
]


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_result_csv(path, SAMPLE_ROWS)
        assert read_result_csv(path) == SAMPLE_ROWS

    def test_header_and_line_endings(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_result_csv(path, SAMPLE_ROWS)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").splitlines()[0] == ",".join(RESULT_COLUMNS)

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ParameterError):
            read_result_csv(path)


class TestJsonSchemas:
    def test_bound_breakdown_instances_validate(self):
        schema = load_schema("bound_breakdown.schema.json")
        acc = Accuracy(r=1.0, eps=0.05)
        for tag in ("main", "main_tau", "bounded", "mds_subgaussian", "mds_bounded", "fixed_mds"):
            params = UNIT if tag not in ("bounded", "mds_bounded") else ProblemParams(
                p=2, alpha=1.0, sigma_min=1.0, sigma_max=1.0, b=1.0
            )
            doc = breakdown_to_json(
                bounds.bound_for(tag, acc, params),
                {"beta_form": "proof", "log_numerator_n2_n3": "2" if tag == "main_tau" else "3p"},
            )
            jsonschema.validate(doc, schema)

    def test_outage_instances_validate(self):
        schema = load_schema("outage_breakdown.schema.json")
        doc = outage_to_json(bounds.eps_of_n(1.0, 300, UNIT), {"beta_form": "proof"})
        jsonschema.validate(doc, schema)
        infeasible = outage_to_json(bounds.eps_of_n(1.0, 6, UNIT))
        jsonschema.validate(infeasible, schema)

    def test_run_config_schema_accepts_valid_doc(self):
        schema = load_schema("run_config.schema.json")
        doc = {
            "schema_version": "1",
            "theorem": "main",
            "design": {"kind": "iid-bounded-columns", "column_stddevs": [1.0], "entry_law": "scaled-uniform"},
            "noise": {"kind": "uniform", "half_width": 1.0},
            "eps": 0.05,
            "axis": {"name": "r", "values": [0.5]},
            "trials": 100,
            "output": {"csv": "out.csv"},
        }
        jsonschema.validate(doc, schema)
        parse_run_config(doc)

    def test_dump_json_rejects_nan(self):
        with pytest.raises(ValueError):
            dump_json({"x": float("nan")})


class TestRunConfigParsing:
    def base_doc(self):
        return {
            "schema_version": "1",
            "theorem": "main",
            "design": {"kind": "iid-bounded-columns", "column_stddevs": [1.0, 1.0], "entry_law": "scaled-uniform"},
            "noise": {"kind": "uniform", "half_width": 1.0},
            "eps": 0.05,
            "axis": {"name": "r", "values": [0.5]},
            "output": {"csv": "out.csv"},
        }

    def test_unknown_top_key_rejected(self):
        doc = self.base_doc()
        doc["mystery"] = 1
        with pytest.raises(ParameterError, match="mystery"):
            parse_run_config(doc)

    def test_unknown_nested_key_rejected(self):
        doc = self.base_doc()
        doc["noise"]["bogus"] = 1
        with pytest.raises(ParameterError):
            parse_run_config(doc)

    def test_schema_version_checked(self):
        doc = self.base_doc()
        doc["schema_version"] = "2"
        with pytest.raises(ParameterError, match="schema_version"):
            parse_run_config(doc)

    def test_r_axis_requires_eps(self):
        doc = self.base_doc()
        del doc["eps"]
        with pytest.raises(ParameterError):
            parse_run_config(doc)

    def test_seed_env_override(self, monkeypatch):
        monkeypatch.setenv("LSQBOUNDS_SEED", "99")
        assert default_seed() == 99
        doc = self.base_doc()
        assert parse_run_config(doc).base_seed == 99
        monkeypatch.setenv("LSQBOUNDS_SEED", "nope")
        with pytest.raises(ParameterError):
            default_seed()


def _valid_doc(design=None, noise=None, **top):
    return {
        "schema_version": "1",
        "theorem": "main",
        "design": design or {"kind": "iid-bounded-columns", "column_stddevs": [1.0, 1.0],
                             "entry_law": "scaled-uniform"},
        "noise": noise or {"kind": "uniform", "half_width": 1.0},
        "eps": 0.05,
        "axis": {"name": "r", "values": [0.5]},
        "trials": 10,
        "output": {"csv": "out.csv"},
        **top,
    }


# One valid instance of every config kind.
MODEL_EXAMPLES = {
    "noise": [
        Gaussian(0.1),
        GaussianMixture(0.05, 0.1, 0.1),
        Uniform(1.0),
        UniformPlusGaussian(0.2, 0.1),
        Rademacher(1.0),
        FirMds(taps=(1.0, 0.5), jammer_scale=0.2, receiver=Gaussian(0.1)),
    ],
    "design": [
        IidBoundedColumns((1.0, 0.5), "scaled-rademacher"),
        ToeplitzPilot((1.0, -1.0, 1.0, 1.0), 2),
        FixedMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])),
    ],
}
_TO_CONFIG = {"noise": noise_to_config, "design": design_to_config}

VALID_DOCS = [
    _valid_doc(),
    _valid_doc(trials=10.0, base_seed=3, diagnostics=False, beta_as_printed=True, n_hint=2,
               theta0=[0.0, 1.0], r=0.5),
    _valid_doc(axis={"name": "N", "values": [3, 4.0]}, r=0.5, output={"csv": "a.csv", "svg": "a.svg"}),
    *(_valid_doc(**{slot: _TO_CONFIG[slot](model)}) for slot in MODEL_EXAMPLES
      for model in MODEL_EXAMPLES[slot]),
]


def _edit(doc, path, value=None, delete=False):
    doc = copy.deepcopy(doc)
    *outer, last = path
    target = doc
    for key in outer:
        target = target[key]
    if delete:
        del target[last]
    else:
        target[last] = value
    return doc


def _malformed_docs():
    """One document per rule of run_config.schema.json: a wrong JSON type for
    every key, and an unknown and a missing key at every level."""
    base = _valid_doc(r=0.5)
    wrong_type = {
        "schema_version": 1, "theorem": 1, "beta_as_printed": "no", "design": [], "noise": "x",
        "theta0": [0.0, "x"], "r": "1", "eps": None, "axis": [], "n_hint": 2.5, "trials": "x",
        "base_seed": True, "diagnostics": "no", "output": "out.csv",
    }
    for key, value in wrong_type.items():
        yield f"type-{key}", _edit(base, (key,), value)
    for path, value in {("axis", "name"): 1, ("axis", "values"): 0.5, ("output", "csv"): 1,
                        ("output", "svg"): False}.items():
        yield "type-" + ".".join(path), _edit(base, path, value)
    yield "type-axis.values-entry", _edit(base, ("axis", "values"), [0.5, "x"])
    yield "range-theorem", _edit(base, ("theorem",), "bogus")
    yield "range-n_hint", _edit(base, ("n_hint",), -7)
    yield "range-trials", _edit(base, ("trials",), 0)
    yield "range-eps", _edit(base, ("eps",), 1.5)
    yield "range-axis.values-empty", _edit(base, ("axis", "values"), [])
    yield "range-design.pilots", _edit(
        base, ("design",), {"kind": "toeplitz-pilot", "pilots": [1.0], "p": 1}
    )
    for level in ((), ("axis",), ("output",), ("noise",), ("design",)):
        yield "unknown-" + ".".join(level or ("top",)), _edit(base, (*level, "bogus"), 1)
    for path in (("schema_version",), ("theorem",), ("design",), ("noise",), ("axis",),
                 ("output",), ("axis", "name"), ("axis", "values"), ("output", "csv")):
        yield "missing-" + ".".join(path), _edit(base, path, delete=True)
    receiver = _valid_doc(noise=noise_to_config(MODEL_EXAMPLES["noise"][-1]))
    models = [(slot, _valid_doc(**{slot: _TO_CONFIG[slot](m)})) for slot in MODEL_EXAMPLES
              for m in MODEL_EXAMPLES[slot]]
    models.append((("noise", "receiver"), receiver))
    for slot, doc in models:
        path = slot if isinstance(slot, tuple) else (slot,)
        node = doc
        for key in path:
            node = node[key]
        name = f"{'.'.join(path)}-{node['kind']}"
        for key, value in node.items():
            wrong = 1 if isinstance(value, str) else "x"
            yield f"type-{name}.{key}", _edit(doc, (*path, key), wrong)
            if isinstance(value, list):
                yield f"type-{name}.{key}-entry", _edit(doc, (*path, key), ["x"])
            if key != "kind":
                yield f"missing-{name}.{key}", _edit(doc, (*path, key), delete=True)
        yield f"unknown-{name}", _edit(doc, (*path, "bogus"), 1)
    other = {"noise": MODEL_EXAMPLES["design"][0], "design": MODEL_EXAMPLES["noise"][0]}
    for slot, model in other.items():
        config = {"noise": design_to_config, "design": noise_to_config}[slot](model)
        yield f"kind-{slot}-given-{config['kind']}", _valid_doc(**{slot: config})
    yield "kind-receiver-given-design", _edit(
        receiver, ("noise", "receiver"), design_to_config(MODEL_EXAMPLES["design"][0])
    )


MALFORMED_DOCS = [pytest.param(doc, id=name) for name, doc in _malformed_docs()]


class TestSchemaParity:
    """The packaged schema and parse_run_config accept and reject the same
    documents."""

    schema = load_schema("run_config.schema.json")

    def test_theorem_enum_is_the_bound_table(self):
        tags = sorted(bounds.BOUND_FUNCTIONS)
        assert self.schema["properties"]["theorem"]["enum"] == tags
        assert load_schema("bound_breakdown.schema.json")["properties"]["theorem"]["enum"] == tags

    @pytest.mark.parametrize("slot,union", [("noise", NoiseModel), ("design", DesignModel)])
    def test_model_keys_are_dataclass_fields(self, slot, union):
        branches = {b["properties"]["kind"]["const"]: b for b in self.schema["$defs"][slot]["oneOf"]}
        assert set(branches) == {k for k, cls in CONFIG_KINDS.items() if cls in get_args(union)}
        for kind, branch in branches.items():
            keys = {"kind", *CONFIG_FIELDS[CONFIG_KINDS[kind]]}
            assert set(branch["required"]) == set(branch["properties"]) == keys

    @pytest.mark.parametrize("doc", VALID_DOCS)
    def test_valid_documents_pass_both(self, doc):
        jsonschema.validate(doc, self.schema)
        parse_run_config(doc)

    @pytest.mark.parametrize("doc", MALFORMED_DOCS)
    def test_malformed_documents_fail_both(self, doc, tmp_path, monkeypatch, capsys):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, self.schema)
        with pytest.raises(ParameterError):
            parse_run_config(doc)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["simulate", "--config", _write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "out.csv").exists()

    def test_diagnostics_string_is_not_true(self):
        with pytest.raises(ParameterError, match="diagnostics"):
            parse_run_config(_valid_doc(diagnostics="no"))


class TestCli:
    def test_bound_n_json(self, capsys):
        code = cli.main(
            "bound-n --model main --r 1 --eps 0.05 --p 2 --alpha 1 --R 1 "
            "--sigma-min 1 --sigma-max 1".split()
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["binding"] == "n_rand"
        assert doc["n_final"] == pytest.approx(134.0497688, rel=1e-6)
        jsonschema.validate(doc, load_schema("bound_breakdown.schema.json"))

    def test_bound_n_mds_value(self, capsys):
        code = cli.main(
            "bound-n --model mds-subgaussian --r 1 --eps 0.05 --p 4 --alpha 1 --R 10 "
            "--sigma-min 1 --sigma-max 1".split()
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n1"] == pytest.approx(4060.17, rel=1e-4)

    def test_bound_n_rejects_eps_out_of_range(self, capsys):
        code = cli.main(
            "bound-n --model main --r 1 --eps 1.5 --p 2 --alpha 1 --R 1 "
            "--sigma-min 1 --sigma-max 1".split()
        )
        assert code == 2
        assert "eps" in capsys.readouterr().err

    def test_bound_eps_json(self, capsys):
        code = cli.main(
            "bound-eps --r 0.5 --n 256 --p 4 --alpha 1 --R 0.1 --sigma-min 1 --sigma-max 1".split()
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["eps_rand"] == pytest.approx(12.0 * 2.718281828459045 ** (-0.75 * 256 / 35.0), rel=1e-9)
        jsonschema.validate(doc, load_schema("outage_breakdown.schema.json"))

    def test_bound_eps_precondition_exit_2(self, capsys):
        code = cli.main(
            "bound-eps --r 1 --n 4 --p 2 --alpha 1 --R 1 --sigma-min 1 --sigma-max 1".split()
        )
        assert code == 2
        assert "4*alpha^2*R^2" in capsys.readouterr().err

    def test_simulate_end_to_end_and_determinism(self, tmp_path, capsys):
        cfg = {
            "schema_version": "1",
            "theorem": "main",
            "design": {
                "kind": "iid-bounded-columns",
                "column_stddevs": [0.4472135954999579, 1.0],
                "entry_law": "scaled-uniform",
            },
            "noise": {"kind": "uniform", "half_width": 1.0},
            "eps": 0.01,
            "axis": {"name": "r", "values": [0.8]},
            "trials": 60,
            "base_seed": 5,
            "output": {"csv": str(tmp_path / "out.csv"), "svg": str(tmp_path / "out.svg")},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.main(["simulate", "--config", str(cfg_path)]) == 0
        first = (tmp_path / "out.csv").read_bytes()
        assert (tmp_path / "out.svg").exists()
        rows = read_result_csv(tmp_path / "out.csv")
        assert rows[0].axis_value == 0.8 and rows[0].trials == 60
        assert cli.main(["simulate", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out.csv").read_bytes() == first

    def test_simulate_single_trial_phat_binary(self, tmp_path):
        cfg = {
            "schema_version": "1",
            "theorem": "main",
            "design": {"kind": "iid-bounded-columns", "column_stddevs": [1.0], "entry_law": "scaled-uniform"},
            "noise": {"kind": "uniform", "half_width": 1.0},
            "eps": 0.05,
            "axis": {"name": "r", "values": [0.5]},
            "trials": 1,
            "output": {"csv": str(tmp_path / "one.csv")},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.main(["simulate", "--config", str(cfg_path)]) == 0
        rows = read_result_csv(tmp_path / "one.csv")
        assert rows[0].p_hat in (0.0, 1.0)

    def test_reproduce_honours_seed_zero_from_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LSQBOUNDS_SEED", "0")
        assert cli.main(["reproduce", "fig1", "--trials", "20", "--outdir", str(tmp_path)]) == 0
        rows = read_result_csv(tmp_path / "fig1.csv")
        assert [row.seed for row in rows] == [0] * len(rows)

    def test_simulate_unknown_key_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"schema_version": "1", "surprise": true}', encoding="utf-8")
        assert cli.main(["simulate", "--config", str(cfg_path)]) == 2

    def test_simulate_missing_file_exit_3(self, capsys):
        assert cli.main(["simulate", "--config", "/nonexistent/cfg.json"]) == 3

    def test_simulate_quality_failure_exit_4(self, tmp_path, capsys):
        cfg = {
            "schema_version": "1",
            "theorem": "main",
            "design": {"kind": "iid-bounded-columns", "column_stddevs": [1.0, 1.0], "entry_law": "scaled-rademacher"},
            "noise": {"kind": "gaussian", "sigma": 1.0},
            "r": 4.0,
            "axis": {"name": "N", "values": [3]},
            "trials": 400,
            "output": {"csv": str(tmp_path / "never.csv")},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.main(["simulate", "--config", str(cfg_path)]) == 4

    @pytest.mark.parametrize(
        "values,sigma,message",
        [
            ("[NaN]", "1.0", "axis.values[0] must be finite"),
            ("[Infinity]", "1.0", "axis.values[0] must be finite"),
            ("[1e400]", "1.0", "axis.values[0] must be finite"),
            ("[100]", "NaN", "gaussian.sigma must be finite"),
            ("[100.7]", "1.0", "N-axis values must be integers"),
        ],
    )
    def test_simulate_nonfinite_or_fractional_n_exit_2(self, tmp_path, capsys, values, sigma, message):
        cfg = {
            "schema_version": "1",
            "theorem": "main",
            "design": {"kind": "iid-bounded-columns", "column_stddevs": [1.0, 1.0], "entry_law": "scaled-uniform"},
            "noise": {"kind": "gaussian", "sigma": "SIGMA"},
            "r": 4.0,
            "axis": {"name": "N", "values": "VALUES"},
            "trials": 10,
            "output": {"csv": str(tmp_path / "never.csv")},
        }
        text = json.dumps(cfg).replace('"SIGMA"', sigma).replace('"VALUES"', values)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text, encoding="utf-8")
        assert cli.main(["simulate", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "never.csv").exists()

    def test_unknown_figure_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["reproduce", "fig7", "--outdir", "/tmp/x"])
        assert exc.value.code == 2


class TestPresetSmoke:
    def test_fig1_small(self, tmp_path):
        out = reproduce("fig1", tmp_path, trials=20, base_seed=1)
        rows = read_result_csv(out.csv_paths[0])
        assert [row.axis_value for row in rows] == [0.1, 0.05, 0.02, 0.01]
        # bound N nondecreasing as eps decreases
        vals = [row.n_bound_real for row in rows]
        assert all(b >= a * (1 - 1e-9) for a, b in zip(vals, vals[1:]))
        assert out.svg_path.exists()
        assert out.svg_path.read_text(encoding="utf-8").startswith("<svg")

    def test_fig5_fig6_small(self, tmp_path):
        out5 = reproduce("fig5", tmp_path, trials=25, base_seed=2)
        rows5 = read_result_csv(out5.csv_paths[0])
        assert all(row.binding_term == "n1" for row in rows5)
        assert rows5[0].n_bound_real >= rows5[-1].n_bound_real  # decreasing in r
        out6 = reproduce("fig6", tmp_path, trials=20, base_seed=2)
        rows6 = read_result_csv(out6.csv_paths[0])
        vals = [row.n_bound_real for row in rows6]
        assert all(b <= a for a, b in zip(vals, vals[1:]))  # outage falls with N
        assert all(row.n_bound_ceil is None for row in rows6)


def _write_config(tmp_path, doc) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestSimulateFixedDesign:
    """simulate measures a fixed design at the N each row runs."""

    def fig5_config(self, tmp_path, seed, trials):
        design, noise = fig5_models(seed)
        return {
            "schema_version": "1",
            "theorem": "fixed_mds",
            "design": design_to_config(design),
            "noise": noise_to_config(noise),
            "eps": 0.01,
            "axis": {"name": "r", "values": [0.05, 0.1, 0.2]},
            "trials": trials,
            "base_seed": seed,
            "output": {"csv": str(tmp_path / "sim.csv")},
        }

    def test_r_axis_matches_fig5_preset(self, tmp_path, capsys):
        seed, trials = 3, 40
        cfg = self.fig5_config(tmp_path, seed, trials)
        assert cli.main(["simulate", "--config", _write_config(tmp_path, cfg)]) == 0
        out = reproduce("fig5", tmp_path / "preset", trials=trials, base_seed=seed)
        assert (tmp_path / "sim.csv").read_bytes() == out.csv_paths[0].read_bytes()

    def test_other_theorem_on_fixed_design_exit_2(self, tmp_path, capsys):
        cfg = self.fig5_config(tmp_path, 3, 40)
        cfg["theorem"] = "main"
        assert cli.main(["simulate", "--config", _write_config(tmp_path, cfg)]) == 2
        assert "fixed_mds" in capsys.readouterr().err

    def test_fixed_matrix_off_n_axis_exit_2(self, tmp_path, capsys):
        rows = np.random.default_rng(0).uniform(-1.0, 1.0, (400, 2))
        cfg = {
            "schema_version": "1",
            "theorem": "fixed_mds",
            "design": {"kind": "fixed-matrix", "entries": rows.tolist()},
            "noise": {"kind": "gaussian", "sigma": 0.1},
            "eps": 0.05,
            "axis": {"name": "r", "values": [0.5]},
            "trials": 40,
            "output": {"csv": str(tmp_path / "never.csv")},
        }
        assert cli.main(["simulate", "--config", _write_config(tmp_path, cfg)]) == 2
        assert "only on the N axis" in capsys.readouterr().err
        assert not (tmp_path / "never.csv").exists()

    def test_diagnostics_run_at_each_rows_n(self, tmp_path, capsys):
        design = channel_pilot_design(p=4, length=2048, seed=5)
        noise = Gaussian(0.1)
        cfg = {
            "schema_version": "1",
            "theorem": "fixed_mds",
            "design": design_to_config(design),
            "noise": noise_to_config(noise),
            "eps": 0.05,
            "axis": {"name": "r", "values": [0.05, 0.1]},
            "trials": 300,
            "base_seed": 9,
            "diagnostics": True,
            "output": {"csv": str(tmp_path / "diag.csv")},
        }
        assert cli.main(["simulate", "--config", _write_config(tmp_path, cfg)]) == 0
        # One indented JSON document per row, in row order.
        out, docs = capsys.readouterr().out.strip(), []
        while out:
            doc, end = json.JSONDecoder().raw_decode(out)
            docs.append(doc)
            out = out[end:].lstrip()
        rows = read_result_csv(tmp_path / "diag.csv")
        assert len(docs) == len(rows) == 2
        for doc, row in zip(docs, rows):
            acc = Accuracy(r=row.axis_value, eps=0.05)
            N, params, bd = fixed_design_bound(acc, design, noise)
            assert bd.n_ceil == row.n_bound_ceil < N
            spec = ExperimentSpec(design, noise, N=N, r=acc.r, trials=300, base_seed=9, diagnostics=True)
            expected = run_event_diagnostics(spec, params=params)
            assert doc == json.loads(dump_json({"axis_value": row.axis_value, **asdict(expected)}))


# Preset rows recorded at 20 trials, seed 11: per CSV, (axis value,
# n_bound_real, n_bound_ceil, binding term, exceedances).
PINNED_PRESET_ROWS = {
    "fig1": {
        "fig1": [
            (0.1, 7945.8772881033365, 7946, "n3", 0),
            (0.05, 8433.38734381396, 8434, "n3", 0),
            (0.02, 9037.571147066681, 9038, "n3", 0),
            (0.01, 9469.041580408084, 9470, "n3", 0),
        ],
    },
    "fig2": {
        "fig2": [
            (0.2, 53652.757163487986, 53653, "n3", 0),
            (0.4, 13413.18951442512, 13414, "n3", 0),
            (0.8, 9254.22490121269, 9255, "n_rand", 0),
            (1.6, 9254.22490121269, 9255, "n_rand", 0),
        ],
    },
    "fig3": {
        "fig3_main": [
            (1.0, 7945.877288099725, 7946, "n3", 0),
            (2.0, 1986.4706152967738, 1987, "n3", 0),
            (4.0, 664.9841893654948, 665, "n_rand", 0),
        ],
        "fig3_mds": [
            (1.0, 12180.417156561181, 12181, "n1", 0),
            (2.0, 3045.1042891402954, 3046, "n1", 0),
            (4.0, 761.2760722850738, 762, "n1", 0),
        ],
    },
    "fig4": {
        "fig4_cond1": [
            (1.0, 7945.877288099725, 7946, "n3", 0),
            (2.0, 1986.4706152967738, 1987, "n3", 0),
            (4.0, 664.9841893654948, 665, "n_rand", 0),
        ],
        "fig4_cond5": [
            (2.0, 49661.730950345955, 49662, "n3", 0),
            (4.0, 14724.649907378816, 14725, "n_rand", 0),
            (8.0, 14724.649907378816, 14725, "n_rand", 0),
        ],
        "fig4_cond25": [
            (8.0, 358616.4735506774, 358617, "n_rand", 0),
            (16.0, 358616.4735506774, 358617, "n_rand", 0),
            (32.0, 358616.4735506774, 358617, "n_rand", 0),
        ],
    },
    "fig5": {
        "fig5": [
            (0.05, 299.1676513547246, 300, "n1", 0),
            (0.1, 89.96001213472921, 90, "n1", 0),
            (0.2, 26.096334146679055, 27, "n1", 0),
        ],
    },
    "fig6": {
        "fig6": [
            (3000.0, 0.6538638940747429, None, None, 0),
            (4500.0, 0.12956400492495282, None, None, 0),
            (6000.0, 0.03181732896680867, None, None, 0),
            (7500.0, 0.005662858300939531, None, None, 0),
        ],
    },
}


@pytest.mark.parametrize("figure", sorted(PINNED_PRESET_ROWS))
def test_preset_rows_pinned(figure, tmp_path):
    out = reproduce(figure, tmp_path, trials=20, base_seed=11)
    pinned = PINNED_PRESET_ROWS[figure]
    assert [path.stem for path in out.csv_paths] == list(pinned)
    for path in out.csv_paths:
        rows = read_result_csv(path)
        assert len(rows) == len(pinned[path.stem])
        for row, (axis, n_real, n_ceil, binding, exceed) in zip(rows, pinned[path.stem]):
            assert (row.axis_value, row.n_bound_ceil, row.binding_term) == (axis, n_ceil, binding)
            assert round(row.p_hat * row.trials) == exceed and row.trials == 20
            assert row.n_bound_real == pytest.approx(n_real, rel=1e-12)
