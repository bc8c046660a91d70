"""CSV round-trips, JSON schema conformance, run configs, and CLI exit codes."""

import copy
import json
import re
from dataclasses import MISSING, asdict, fields, replace
from importlib import resources
from typing import get_args
from xml.etree import ElementTree

import jsonschema
import numpy as np
import pytest

from lsqbounds import bounds, cli, io, montecarlo, presets
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
    implied_problem_params,
)
from lsqbounds.montecarlo import ExperimentSpec, fixed_design_bound, run_event_diagnostics, sweep
from lsqbounds.params import Accuracy, ParameterError, ProblemParams, SimulationQualityError
from lsqbounds.presets import (
    FIGURES,
    Figure,
    Panel,
    channel_pilot_design,
    fig2_models,
    fig5_models,
    reproduce,
    run_figure,
)
from lsqbounds.svg import write_line_plot

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

    @pytest.mark.parametrize(
        "column,text,message",
        [
            ("n_bound_real", "abc", "column n_bound_real must be of type float, got 'abc'"),
            ("trials", "1.5", "column trials must be of type int, got '1.5'"),
            ("p_hat", "", "column p_hat must not be empty"),
        ],
    )
    def test_rejects_a_malformed_cell_naming_its_column(self, column, text, message, tmp_path):
        path = tmp_path / "rows.csv"
        write_result_csv(path, SAMPLE_ROWS[:1])
        header, row = path.read_text(encoding="utf-8").splitlines()
        cells = row.split(",")
        cells[RESULT_COLUMNS.index(column)] = text
        path.write_text(f"{header}\n{','.join(cells)}\n", encoding="utf-8")
        with pytest.raises(ParameterError, match=re.escape(message)):
            read_result_csv(path)

    def test_rejects_a_row_of_the_wrong_length(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_result_csv(path, SAMPLE_ROWS[:1])
        path.write_text(path.read_text(encoding="utf-8").rstrip("\n") + ",7\n", encoding="utf-8")
        n = len(RESULT_COLUMNS)
        with pytest.raises(ParameterError, match=f"row has {n + 1} cells, expected {n}"):
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
                {"log_numerator_n2_n3": "2" if tag == "main_tau" else "3p"},
            )
            jsonschema.validate(doc, schema)

    def test_outage_instances_validate(self):
        schema = load_schema("outage_breakdown.schema.json")
        doc = outage_to_json(bounds.eps_of_n(1.0, 300, UNIT))
        assert doc["meta"] == {}
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

    @pytest.mark.parametrize(
        "name", sorted(f.name for f in resources.files("lsqbounds").joinpath("schemas").iterdir())
    )
    def test_packaged_schemas_are_valid_schemas(self, name):
        jsonschema.Draft202012Validator.check_schema(load_schema(name))

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
        for outside, rule in ((str(2**64), "a 64-bit unsigned int"), ("-1", "at least 0")):
            monkeypatch.setenv("LSQBOUNDS_SEED", outside)
            with pytest.raises(ParameterError, match=f"LSQBOUNDS_SEED must be {rule}, got {outside}"):
                default_seed()

    @pytest.mark.parametrize("axis", ["eps", "N"])
    def test_eps_and_n_axes_require_r(self, axis):
        doc = self.base_doc()
        doc["axis"] = {"name": axis, "values": [0.05 if axis == "eps" else 64]}
        with pytest.raises(ParameterError, match=f"^{axis}-axis runs need a base r$"):
            parse_run_config(doc)


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


# One valid config of every kind, and the model it reads as.
MODEL_EXAMPLES = {
    "noise": [
        ({"kind": "gaussian", "sigma": 0.1}, Gaussian(0.1)),
        ({"kind": "gaussian-mixture", "sigma_small": 0.05, "sigma_large": 0.1, "weight_large": 0.1},
         GaussianMixture(0.05, 0.1, 0.1)),
        ({"kind": "uniform", "half_width": 1.0}, Uniform(1.0)),
        ({"kind": "uniform-plus-gaussian", "half_width": 0.2, "sigma": 0.1}, UniformPlusGaussian(0.2, 0.1)),
        ({"kind": "rademacher", "scale": 1.0}, Rademacher(1.0)),
        ({"kind": "fir-mds", "taps": [1.0, 0.5], "jammer_scale": 0.2, "receiver": {"kind": "gaussian", "sigma": 0.1}},
         FirMds(taps=(1.0, 0.5), jammer_scale=0.2, receiver=Gaussian(0.1))),
    ],
    "design": [
        ({"kind": "iid-bounded-columns", "column_stddevs": [1.0, 0.5], "entry_law": "scaled-rademacher"},
         IidBoundedColumns((1.0, 0.5), "scaled-rademacher")),
        ({"kind": "toeplitz-pilot", "pilots": [1.0, -1.0, 1.0, 1.0], "p": 2}, ToeplitzPilot((1.0, -1.0, 1.0, 1.0), 2)),
        ({"kind": "fixed-matrix", "entries": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]},
         FixedMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))),
    ],
}
MODEL_CONFIGS = [(slot, config, model) for slot, examples in MODEL_EXAMPLES.items() for config, model in examples]

VALID_DOCS = [
    _valid_doc(),
    _valid_doc(trials=10.0, base_seed=3, diagnostics=False, r=0.5),
    _valid_doc(axis={"name": "N", "values": [3, 4.0]}, r=0.5, output={"csv": "a.csv", "svg": "a.svg"}),
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
        "schema_version": 1, "theorem": 1, "design": [], "noise": "x",
        "r": "1", "eps": None, "axis": [], "trials": "x", "base_seed": True, "diagnostics": "no",
        "output": "out.csv",
    }
    for key, value in wrong_type.items():
        yield f"type-{key}", _edit(base, (key,), value)
    for path, value in {("axis", "name"): 1, ("axis", "values"): 0.5, ("output", "csv"): 1,
                        ("output", "svg"): False}.items():
        yield "type-" + ".".join(path), _edit(base, path, value)
    yield "type-axis.values-entry", _edit(base, ("axis", "values"), [0.5, "x"])
    yield "range-theorem", _edit(base, ("theorem",), "bogus")
    yield "range-trials", _edit(base, ("trials",), 0)
    yield "range-eps", _edit(base, ("eps",), 1.5)
    yield "range-base_seed-high", _edit(base, ("base_seed",), 2**64)
    yield "range-base_seed-negative", _edit(base, ("base_seed",), -1)
    yield "range-axis.values-empty", _edit(base, ("axis", "values"), [])
    yield "range-design.pilots", _edit(
        base, ("design",), {"kind": "toeplitz-pilot", "pilots": [1.0], "p": 1}
    )
    yield "removed-theta0", _edit(base, ("theta0",), [0.0, 1.0])
    yield "removed-n_hint", _edit(base, ("n_hint",), 2)
    yield "removed-beta_as_printed", _edit(base, ("beta_as_printed",), False)
    for level in ((), ("axis",), ("output",), ("noise",), ("design",)):
        yield "unknown-" + ".".join(level or ("top",)), _edit(base, (*level, "bogus"), 1)
    for path in (("schema_version",), ("theorem",), ("design",), ("noise",), ("axis",),
                 ("output",), ("axis", "name"), ("axis", "values"), ("output", "csv")):
        yield "missing-" + ".".join(path), _edit(base, path, delete=True)
    receiver = _valid_doc(noise=MODEL_EXAMPLES["noise"][-1][0])
    models = [(slot, _valid_doc(**{slot: config})) for slot, config, _ in MODEL_CONFIGS]
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
    other = {"noise": MODEL_EXAMPLES["design"][0][0], "design": MODEL_EXAMPLES["noise"][0][0]}
    for slot, config in other.items():
        yield f"kind-{slot}-given-{config['kind']}", _valid_doc(**{slot: config})
    yield "kind-receiver-given-design", _edit(receiver, ("noise", "receiver"), MODEL_EXAMPLES["design"][0][0])


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

    def test_run_config_keys_are_the_layout(self):
        # Keys from the RunConfig fields laid out as io._LAYOUT; a key is
        # required if it holds a nested object or a field without a default.
        no_default = {f.name for f in fields(io.RunConfig) if f.default is MISSING}

        def required(layout):
            return {k for k, name in layout.items() if isinstance(name, dict) or name in no_default}

        assert set(self.schema["properties"]) == {"schema_version", *io._LAYOUT}
        assert set(self.schema["required"]) == {"schema_version", *required(io._LAYOUT)}
        for key, layout in io._NESTED.items():
            nested = self.schema["properties"][key]
            assert set(nested["properties"]) == set(layout)
            assert set(nested["required"]) == required(layout)

    @pytest.mark.parametrize("doc", VALID_DOCS)
    def test_valid_documents_pass_both(self, doc):
        jsonschema.validate(doc, self.schema)
        parse_run_config(doc)

    @pytest.mark.parametrize("slot,config,model", MODEL_CONFIGS,
                             ids=[f"{slot}-{config['kind']}" for slot, config, _ in MODEL_CONFIGS])
    def test_model_configs_pass_both_as_their_models(self, slot, config, model):
        doc = _valid_doc(**{slot: config})
        jsonschema.validate(doc, self.schema)
        assert getattr(parse_run_config(doc), slot) == model

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

    # One value per rule that a run config shares with the library, and the
    # library call that the same value reaches.
    _SPEC = ExperimentSpec(IidBoundedColumns((1.0, 1.0)), Uniform(1.0), N=8, r=0.5, trials=10)

    @pytest.mark.parametrize(
        "path,value,library",
        [
            (("r",), 0.0, lambda: Accuracy(r=0.0, eps=0.05)),
            (("eps",), 1.0, lambda: Accuracy(r=0.5, eps=1.0)),
            (("trials",), 0, lambda: replace(TestSchemaParity._SPEC, trials=0)),
            (("base_seed",), 2**64, lambda: replace(TestSchemaParity._SPEC, base_seed=2**64)),
            (("theorem",), "bogus", lambda: sweep(TestSchemaParity._SPEC, "r", [0.5], "bogus", eps=0.05)),
            (("axis", "values"), [], lambda: sweep(TestSchemaParity._SPEC, "r", [], "main", eps=0.05)),
            (("eps",), None, lambda: sweep(TestSchemaParity._SPEC, "r", [0.5], "main")),
        ],
        ids=["r-0", "eps-1", "trials-0", "base_seed-2**64", "theorem-bogus", "axis-empty", "r-axis-no-eps"],
    )
    def test_parser_and_library_reject_a_value_with_one_message(self, path, value, library):
        doc = _edit(_valid_doc(r=0.5), path, value, delete=value is None)
        with pytest.raises(ParameterError) as parsed:
            parse_run_config(doc)
        with pytest.raises(ParameterError) as called:
            library()
        assert str(parsed.value) == str(called.value)

    def test_diagnostics_string_is_not_true(self):
        with pytest.raises(ParameterError, match="diagnostics"):
            parse_run_config(_valid_doc(diagnostics="no"))


class TestCli:
    def test_one_error_class_per_exit_code(self):
        # ParameterError exits 2 and SimulationQualityError exits 4.
        import lsqbounds

        assert sorted(n for n in dir(lsqbounds) if n.endswith("Error")) == [
            "ParameterError", "SimulationQualityError"]

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

    @pytest.mark.parametrize("tag", sorted(bounds.BOUND_FUNCTIONS))
    def test_bound_n_meta_only_where_it_applies(self, tag, capsys):
        argv = (f"bound-n --model {tag.replace('_', '-')} --r 1 --eps 0.05 --p 2 --alpha 1 "
                "--R 1 --b 1 --sigma-min 1 --sigma-max 1").split()
        assert cli.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, load_schema("bound_breakdown.schema.json"))
        log_numerator = "2" if tag == "main_tau" else "3p"
        assert doc["meta"] == (
            {"log_numerator_n2_n3": log_numerator} if tag in ("main", "main_tau") else {}
        )
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--beta-as-printed"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "1e300", "1e160", "1e-160", "1e-300"])
    @pytest.mark.parametrize("flag", ["alpha", "R", "sigma-min", "sigma-max", "r"])
    @pytest.mark.parametrize(
        "command",
        ["bound-n --model main --eps 0.1", "bound-n --model fixed-mds --eps 0.1",
         "bound-n --model main-tau --eps 0.1", "bound-eps --n 400"],
    )
    def test_bound_commands_at_the_edge_of_the_float_range(self, command, flag, value, capsys):
        # A non-finite flag is a parameter error.  A finite one whose powers
        # overflow or underflow gives finite JSON or a parameter error; it
        # never raises.
        flags = {"alpha": "1", "R": "0.1", "sigma-min": "0.5", "sigma-max": "1", "r": "0.5",
                 flag: value}
        argv = command.split() + ["--p", "4"]
        for name, text in flags.items():
            argv += [f"--{name}", text]
        code = cli.main(argv)
        captured = capsys.readouterr()
        if code == 0 and value not in ("nan", "inf"):
            doc = json.loads(captured.out)
            assert all(np.isfinite(v) for v in doc.values() if isinstance(v, float)), doc
        else:
            assert code == 2
            assert captured.err.startswith("error:")

    @pytest.mark.parametrize(
        "flags, name",
        [("--alpha 1 --sigma-min 1e-300", "sigma_min"), ("--alpha 1e300 --sigma-min 0.5", "alpha")],
        ids=["sigma-min-squared-underflows", "alpha-squared-overflows"],
    )
    def test_bound_eps_out_of_float_range_names_the_input(self, flags, name, capsys):
        argv = f"bound-eps --r 0.5 --n 400 --p 4 --R 0.1 --sigma-max 1 {flags}".split()
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {name} = ")

    def test_bound_eps_json(self, capsys):
        code = cli.main(
            "bound-eps --r 0.5 --n 256 --p 4 --alpha 1 --R 0.1 --sigma-min 1 --sigma-max 1".split()
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["eps_rand"] == pytest.approx(12.0 * 2.718281828459045 ** (-0.75 * 256 / 35.0), rel=1e-9)
        assert doc["meta"] == {}
        jsonschema.validate(doc, load_schema("outage_breakdown.schema.json"))

    def test_bound_n_ceil_at_least_p_plus_1(self, capsys):
        # n_final is 0.014 here, but least squares needs N > p = 4 rows.
        code = cli.main(
            "bound-n --model fixed-mds --r 10 --eps 0.1 --p 4 --alpha 1 --R 0.1 "
            "--sigma-min 0.5 --sigma-max 1".split()
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_final"] < 1 and doc["n_ceil"] == 5

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

    def test_simulate_creates_output_directories(self, tmp_path):
        out = tmp_path / "a" / "b"
        cfg = {
            "schema_version": "1",
            "theorem": "main",
            "design": {"kind": "iid-bounded-columns", "column_stddevs": [1.0], "entry_law": "scaled-uniform"},
            "noise": {"kind": "uniform", "half_width": 1.0},
            "eps": 0.05,
            "axis": {"name": "r", "values": [0.5]},
            "trials": 20,
            "output": {"csv": str(out / "sim.csv"), "svg": str(out / "sim.svg")},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.main(["simulate", "--config", str(cfg_path)]) == 0
        assert read_result_csv(out / "sim.csv")[0].trials == 20
        assert (out / "sim.svg").read_text(encoding="utf-8").startswith("<svg")

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

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b'{"schema_version": "1", "theo'],
                             ids=["not-utf8", "truncated"])
    def test_simulate_unreadable_config_exit_2_names_the_file(self, content, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_bytes(content)
        assert cli.main(["simulate", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg_path}: not a JSON run config")

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

    def test_quality_failure_in_the_trials_makes_no_directory(self, tmp_path, capsys):
        # The three-row sign design passes planning and fails in its trials,
        # so nothing may be written before every panel has run.
        out = tmp_path / "q"
        cfg = _valid_doc(
            design={"kind": "iid-bounded-columns", "column_stddevs": [1.0, 1.0], "entry_law": "scaled-rademacher"},
            noise={"kind": "gaussian", "sigma": 1.0},
            r=4.0,
            axis={"name": "N", "values": [3]},
            trials=400,
            output={"csv": str(out / "sub" / "sim.csv"), "svg": str(out / "sub" / "sim.svg")},
        )
        assert cli.main(["simulate", "--config", _write_config(tmp_path, cfg)]) == 4
        assert capsys.readouterr().err.startswith("simulation-quality error:")
        assert not out.exists()

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

    def test_simulate_beta_as_printed_is_an_unknown_key(self, tmp_path, capsys):
        cfg = _valid_doc(beta_as_printed=True, output={"csv": str(tmp_path / "never.csv")})
        assert cli.main(["simulate", "--config", _write_config(tmp_path, cfg)]) == 2
        assert "unknown keys ['beta_as_printed']" in capsys.readouterr().err
        assert not (tmp_path / "never.csv").exists()

    def test_reproduce_malformed_seed_env_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LSQBOUNDS_SEED", "abc")
        assert cli.main(["reproduce", "fig2", "--outdir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "LSQBOUNDS_SEED" in err
        assert not (tmp_path / "o").exists()

    def test_reproduce_seed_outside_64_bits_exits_2_before_any_pool(self, tmp_path, monkeypatch, capsys):
        started = []

        class CountedPool(montecarlo.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountedPool)
        out = tmp_path / "o"
        argv = ["reproduce", "fig2", "--seed", "-1", "--trials", "300", "--workers", "2", "--outdir", str(out)]
        assert cli.main(argv) == 2
        assert "base_seed must be at least 0, got -1" in capsys.readouterr().err
        assert started == [] and not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exit_2(self, workers, tmp_path, capsys):
        cfg = _valid_doc(output={"csv": str(tmp_path / "sim.csv")})
        argvs = (
            ["simulate", "--config", _write_config(tmp_path, cfg)],
            ["reproduce", "fig1", "--trials", "20", "--outdir", str(tmp_path)],
        )
        for argv in argvs:
            assert cli.main(argv + ["--workers", workers]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "workers must be at least 1" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_config_base_seed_skips_the_seed_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LSQBOUNDS_SEED", "abc")
        cfg = _valid_doc(base_seed=7, output={"csv": str(tmp_path / "sim.csv")})
        assert cli.main(["simulate", "--config", _write_config(tmp_path, cfg)]) == 0
        assert [row.seed for row in read_result_csv(tmp_path / "sim.csv")] == [7]
        del cfg["base_seed"]
        assert cli.main(["simulate", "--config", _write_config(tmp_path, cfg)]) == 2
        assert "LSQBOUNDS_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["reproduce", "fig2", "--workers", "0", "--outdir", "{out}"],
            ["reproduce", "fig2", "--trials", "0", "--outdir", "{out}"],
            ["simulate", "--config", "{cfg}", "--workers", "0"],
        ],
        ids=["reproduce-workers", "reproduce-trials", "simulate-workers"],
    )
    def test_rejected_run_makes_no_directory(self, argv, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = _valid_doc(output={"csv": str(out / "csv" / "sim.csv"), "svg": str(out / "svg" / "sim.svg")})
        cfg_path = _write_config(tmp_path, cfg)
        assert cli.main([arg.format(out=out, cfg=cfg_path) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_reproduce_checks_every_panel_before_any_trial(self, tmp_path, monkeypatch, capsys):
        # The second panel is invalid (a pilot design is covered only by
        # fixed_mds), so the valid first panel must not run or write its CSV.
        fig2 = presets.FIGURES["fig2"]
        bad = Panel("bad", fig5_models, r=0.05, axis="r", values=(0.05,), theorem="main", eps=0.01)
        monkeypatch.setitem(presets.FIGURES, "fig2", replace(fig2, panels=(*fig2.panels, bad)))
        out = tmp_path / "o"
        assert cli.main(["reproduce", "fig2", "--trials", "20", "--outdir", str(out)]) == 2
        assert "fixed_mds" in capsys.readouterr().err
        assert not out.exists()

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


class TestRunFigurePaths:
    def test_an_unknown_figure_is_rejected_before_any_output(self, tmp_path):
        with pytest.raises(ParameterError, match="unknown figure 'fig9'"):
            reproduce("fig9", tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_a_path_count_unlike_the_panel_count_is_rejected_before_any_trial(self, tmp_path, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(presets, "_result_rows", no_trials)
        csv = tmp_path / "only_one.csv"
        with pytest.raises(ParameterError, match="2 panels need as many CSV paths, got 1"):
            run_figure(FIGURES["fig3"], (csv,), None, 20, 1, 1)
        assert not csv.exists()


class TestFigurePlot:
    """run_figure takes every label and series of a figure's SVG from its panels."""

    def test_panels_carry_no_plot_labels(self):
        assert [f.name for f in fields(Figure)] == ["title", "panels"]
        assert [f.name for f in fields(Panel)] == ["csv", "models", "r", "axis", "values", "theorem", "eps"]

    def test_r_axis_plots_each_bound_on_a_log_axis(self, tmp_path):
        panels = tuple(
            Panel(csv, lambda seed: fig2_models(), r=1.0, axis="r", values=(0.8, 1.6), theorem=theorem, eps=0.01)
            for csv, theorem in (("joint", "main"), ("weighted", "main_tau"))
        )
        svg = tmp_path / "fig.svg"
        run_figure(Figure("t", panels), (tmp_path / "a.csv", tmp_path / "b.csv"), svg, 20, 1, 1)
        text = svg.read_text(encoding="utf-8")
        assert ">joint bound<" in text and ">weighted bound<" in text
        assert "p_hat" not in text
        assert ">N (log)<" in text and ">r<" in text

    def test_n_axis_plots_p_hat_beside_the_outage_bound(self, tmp_path):
        panel = Panel("outage", lambda seed: fig2_models(), r=1.0, axis="N", values=(64, 128), theorem="main")
        svg = tmp_path / "fig.svg"
        run_figure(Figure("t", (panel,)), (tmp_path / "n.csv",), svg, 20, 1, 1)
        text = svg.read_text(encoding="utf-8")
        assert ">outage bound<" in text and ">outage p_hat<" in text
        assert ">N<" in text and "eps / p_hat" in text

    def test_a_plot_with_no_points_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="nothing to plot"):
            write_line_plot(tmp_path / "empty.svg", [("empty", [], [])])
        assert not (tmp_path / "empty.svg").exists()

    def test_legend_from_a_config_path_is_escaped(self, tmp_path):
        # A simulate legend is named after the config's CSV path, which may
        # hold XML markup characters.
        out = tmp_path / "o"
        cfg = _valid_doc(output={"csv": str(out / "R&D <1>.csv"), "svg": str(out / "plot.svg")})
        assert cli.main(["simulate", "--config", _write_config(tmp_path, cfg)]) == 0
        root = ElementTree.parse(out / "plot.svg").getroot()
        assert "R&D <1> bound" in [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]


def _write_config(tmp_path, doc) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _pilot_config(design: ToeplitzPilot) -> dict:
    """The config of a pilot design such as channel_pilot_design's, whose pilots are too many to spell out."""
    return {"kind": "toeplitz-pilot", "pilots": list(design.pilots), "p": design.p}


class TestSimulateFixedDesign:
    """simulate measures a fixed design at the N each row runs."""

    def fig5_config(self, tmp_path, seed, trials):
        design, noise = fig5_models(seed)
        return {
            "schema_version": "1",
            "theorem": "fixed_mds",
            "design": _pilot_config(design),
            "noise": {"kind": "fir-mds", "taps": list(noise.taps), "jammer_scale": noise.jammer_scale,
                      "receiver": {"kind": "gaussian", "sigma": noise.receiver.sigma}},
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

    def test_fixed_mds_on_random_design_exit_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = _valid_doc(theorem="fixed_mds", output={"csv": str(out / "sim.csv"), "svg": str(out / "sim.svg")})
        assert cli.main(["simulate", "--config", _write_config(tmp_path, cfg)]) == 2
        assert "covers only a non-random design" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def collinear(seed):
        """Columns [a, b, a + b], so its Gram matrix is singular.  With numpy's
        OpenBLAS 0.3.31 on x86-64, eigvalsh reads its smallest eigenvalue as
        +1.1e-16 at seed 0 and -1.9e-16 at seed 5: no sign decides its rank."""
        ab = np.random.default_rng(seed).standard_normal((40, 2))
        return FixedMatrix(np.column_stack([ab, ab.sum(axis=1)]))

    def test_rank_deficient_design_fails_one_way_on_either_rounding(self, tmp_path, capsys):
        errors = []
        for seed in (0, 5):
            design = self.collinear(seed)
            with pytest.raises(SimulationQualityError, match="rank deficient at N = 40"):
                implied_problem_params(design, Gaussian(1.0), N_hint=40)
            out = tmp_path / f"o{seed}"
            cfg = _valid_doc(
                theorem="fixed_mds",
                design={"kind": "fixed-matrix", "entries": design.matrix.tolist()},
                noise={"kind": "gaussian", "sigma": 1.0},
                r=0.5,
                axis={"name": "N", "values": [40]},
                output={"csv": str(out / "sub" / "rank.csv"), "svg": str(out / "sub" / "rank.svg")},
            )
            assert cli.main(["simulate", "--config", _write_config(tmp_path, cfg)]) == 4
            errors.append(capsys.readouterr().err)
            assert not out.exists()
        assert errors[0] == errors[1]
        assert errors[0].startswith("simulation-quality error:")

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

    def test_pilot_budget_too_short_exit_2(self, tmp_path, capsys):
        # The self-consistent N search reaches the end of the 256 pilots
        # before any output is written.
        out = tmp_path / "o"
        cfg = {
            "schema_version": "1",
            "theorem": "fixed_mds",
            "design": _pilot_config(channel_pilot_design(p=4, length=256, seed=5)),
            "noise": {"kind": "gaussian", "sigma": 0.1},
            "eps": 0.05,
            "axis": {"name": "r", "values": [0.01]},
            "trials": 40,
            "output": {"csv": str(out / "sim.csv"), "svg": str(out / "sim.svg")},
        }
        assert cli.main(["simulate", "--config", _write_config(tmp_path, cfg)]) == 2
        assert "have 256" in capsys.readouterr().err
        assert not out.exists()

    def test_diagnostics_reuse_the_rows(self, tmp_path, capsys, monkeypatch):
        # The self-consistent N search runs once per row, not again for the
        # diagnostics runs.
        calls = []

        def counted(acc, design, noise):
            calls.append(acc.r)
            return fixed_design_bound(acc, design, noise)

        monkeypatch.setattr(montecarlo, "fixed_design_bound", counted)
        cfg = self.fig5_config(tmp_path, 3, 40)
        cfg["diagnostics"] = True
        assert cli.main(["simulate", "--config", _write_config(tmp_path, cfg)]) == 0
        assert calls == [0.05, 0.1, 0.2]

    def test_diagnostics_run_at_each_rows_n(self, tmp_path, capsys):
        design = channel_pilot_design(p=4, length=2048, seed=5)
        noise = Gaussian(0.1)
        cfg = {
            "schema_version": "1",
            "theorem": "fixed_mds",
            "design": _pilot_config(design),
            "noise": {"kind": "gaussian", "sigma": 0.1},
            "eps": 0.05,
            "axis": {"name": "r", "values": [0.05, 0.1]},
            "trials": 300,
            "base_seed": 9,
            "diagnostics": True,
            "output": {"csv": str(tmp_path / "diag.csv")},
        }
        assert cli.main(["simulate", "--config", _write_config(tmp_path, cfg)]) == 0
        docs = _json_docs(capsys.readouterr().out)
        rows = read_result_csv(tmp_path / "diag.csv")
        assert len(docs) == len(rows) == 2
        for doc, row in zip(docs, rows):
            acc = Accuracy(r=row.axis_value, eps=0.05)
            N, _, bd = fixed_design_bound(acc, design, noise)
            assert bd.n_ceil == row.n_bound_ceil <= N
            short = implied_problem_params(design, noise, N_hint=N - 1)
            assert bounds.bound_for("fixed_mds", acc, short).n_ceil > N - 1
            spec = ExperimentSpec(design, noise, N=N, r=acc.r, trials=300, base_seed=9, diagnostics=True)
            expected = run_event_diagnostics(spec)
            assert doc == json.loads(dump_json({"axis_value": row.axis_value, **asdict(expected)}))



def _json_docs(out: str) -> list:
    """The indented JSON documents that simulate prints, one per row, in row order."""
    out, docs = out.strip(), []
    while out:
        doc, end = json.JSONDecoder().raw_decode(out)
        docs.append(doc)
        out = out[end:].lstrip()
    return docs


class TestSimulateDiagnostics:
    """simulate counts each row's events in the sweep's own Monte-Carlo pass:
    it starts one process pool at most, and each row's diagnostics equal a
    diagnostics run at that row's own spec and params."""

    PILOTS = channel_pilot_design(p=4, length=2048, seed=5)
    CASES = {
        "random-N-axis": (
            IidBoundedColumns((0.5, 1.0), "scaled-uniform"),
            FirMds((1.0, 0.5), 0.2, Gaussian(0.1)),
            {"design": {"kind": "iid-bounded-columns", "column_stddevs": [0.5, 1.0], "entry_law": "scaled-uniform"},
             "noise": {"kind": "fir-mds", "taps": [1.0, 0.5], "jammer_scale": 0.2,
                       "receiver": {"kind": "gaussian", "sigma": 0.1}},
             "theorem": "mds_subgaussian", "r": 0.2, "axis": {"name": "N", "values": [64, 128, 256]}},
        ),
        "toeplitz-r-axis": (
            PILOTS,
            Gaussian(0.1),
            {"design": _pilot_config(PILOTS), "noise": {"kind": "gaussian", "sigma": 0.1},
             "theorem": "fixed_mds", "eps": 0.05, "axis": {"name": "r", "values": [0.05, 0.1, 0.2]}},
        ),
    }

    @pytest.mark.parametrize("workers,pools", [(1, 0), (2, 1)])
    @pytest.mark.parametrize("case", CASES)
    def test_one_pass_and_one_pool(self, case, workers, pools, tmp_path, capsys, monkeypatch):
        started = []

        class CountedPool(montecarlo.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountedPool)
        design, noise, top = self.CASES[case]
        cfg = {
            "schema_version": "1",
            "trials": 300,
            "base_seed": 9,
            "diagnostics": True,
            "output": {"csv": str(tmp_path / "sim.csv")},
            **top,
        }
        argv = ["simulate", "--config", _write_config(tmp_path, cfg), "--workers", str(workers)]
        assert cli.main(argv) == 0
        assert len(started) == pools
        docs = _json_docs(capsys.readouterr().out)
        axis = top["axis"]
        base = ExperimentSpec(design, noise, N=design.p + 1, r=top.get("r", 1.0), trials=300, base_seed=9)
        sweep_rows = list(montecarlo._sweep_rows(base, axis["name"], axis["values"], top["theorem"], top.get("eps")))
        assert len(docs) == len(sweep_rows) == 3
        for doc, (value, spec, _, _) in zip(docs, sweep_rows):
            expected = run_event_diagnostics(replace(spec, diagnostics=True))
            assert doc == json.loads(dump_json({"axis_value": float(value), **asdict(expected)}))


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
            (0.05, 439.11423120640643, 440, "n1", 0),
            (0.1, 105.43745857208964, 106, "n1", 0),
            (0.2, 57.788534750100666, 58, "n1", 0),
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
