"""Expression grammar, model documents, and the command-line surface."""

import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gaussid
from gaussid.cli import (
    EXIT_DIVERGED,
    EXIT_INPUT,
    EXIT_MAX_ITERATIONS,
    EXIT_NUMERICAL,
    EXIT_OK,
    ExpressionError,
    SchemaError,
    _KEYS,
    _READERS,
    _REQUIRED,
    _json_matrix,
    _table_rows,
    main,
    parse_expression,
    parse_model,
    serialize_model,
)
from gaussid.model import (
    Add,
    Const,
    Div,
    Exp,
    InvalidDiagramError,
    Ln,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    format_expr,
    validate,
)
from gaussid.evidence import EvidenceSpec
from gaussid.oracle import mc_posterior
from gaussid.solver import SolverConfig, solve
from gaussid.transforms import PriorSpec, Transform
from helpers import bench_generate

MODELS = Path(__file__).resolve().parent.parent / "docs" / "models"
BETA_BINOMIAL = MODELS / "beta_binomial.json"
RISK_DIFFERENCE = MODELS / "risk_difference.json"

DIVERGING_DOC = {
    "schema_version": "1",
    "nodes": [
        {
            "id": "x",
            "kind": "basic",
            "transform": {"kind": "scaled", "a": 0.0, "b": 1.0},
            "prior": {"family": "normal", "mean": 0.2, "variance": 4.0},
        },
        {
            "id": "z",
            "kind": "deterministic",
            "transform": {"kind": "scaled", "a": 0.0, "b": 1.0},
            "expr": "1 / x",
        },
        {
            "id": "oz",
            "kind": "evidence",
            "parent": "z",
            "evidence": {
                "variant": "normal_known_var",
                "count": 1,
                "sample_mean": -5.0,
                "variance": 0.1,
            },
        },
    ],
    "solver": {"max_iterations": 30},
}


class TestExpressionGrammar:
    def test_five_operator_tree(self):
        e = parse_expression("p1 * p2 / (1 - p2)")
        assert e == Div(Mul(Var("p1"), Var("p2")), Sub(Const(1.0), Var("p2")))

    def test_precedence_product_binds_tighter(self):
        e = parse_expression("a + b * c")
        assert e == Add(Var("a"), Mul(Var("b"), Var("c")))

    def test_left_associativity(self):
        e = parse_expression("a - b - c")
        assert e == Sub(Sub(Var("a"), Var("b")), Var("c"))

    def test_power_binds_tighter_than_unary_minus(self):
        e = parse_expression("-a^2")
        assert e == Neg(Pow(Var("a"), 2.0))

    def test_negative_exponent(self):
        assert parse_expression("a^-2") == Pow(Var("a"), -2.0)
        assert parse_expression("a^(-2.5)") == Pow(Var("a"), -2.5)

    def test_functions(self):
        e = parse_expression("exp(x) + ln(y)")
        assert e == Add(Exp(Var("x")), Ln(Var("y")))

    def test_scientific_numbers(self):
        assert parse_expression("1e-3") == Const(1e-3)
        assert parse_expression("2.5e+4") == Const(2.5e4)
        assert parse_expression("0.125") == Const(0.125)

    @pytest.mark.parametrize(
        "text",
        [
            "a +",
            "(a",
            "a b",
            "a ^ b",
            "a $ b",
            "1.2.3",
            "exp x",
            "",
            "* a",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ExpressionError):
            parse_expression(text)

    def test_error_carries_position(self):
        with pytest.raises(ExpressionError) as exc:
            parse_expression("a + $")
        assert exc.value.position == 4

    @pytest.mark.parametrize(
        "text",
        [
            "p1 * p2 / (1 - p2)",
            "-(a + b) * c^2",
            "exp(2 * ln(x)) - 1",
            "a^-0.5 / (b - 0.25)",
        ],
    )
    def test_format_parse_round_trip(self, text):
        tree = parse_expression(text)
        assert parse_expression(format_expr(tree)) == tree


class TestModelDocuments:
    def test_golden_beta_binomial_loads(self):
        diagram, config = parse_model(BETA_BINOMIAL)
        assert set(diagram.nodes) == {"p", "trials"}
        assert diagram.nodes["p"].prior.alpha == 1.0
        assert diagram.nodes["trials"].obs.successes == 7
        assert config.epsilon == 1e-6

    def test_golden_risk_difference_loads(self):
        diagram, _ = parse_model(RISK_DIFFERENCE)
        assert set(diagram.nodes) == {
            "p_treated",
            "p_control",
            "risk_difference",
            "treated_arm",
            "control_arm",
        }
        assert diagram.nodes["risk_difference"].parents == ("p_treated", "p_control")

    def test_serialize_is_stable(self):
        diagram, config = parse_model(RISK_DIFFERENCE)
        doc = serialize_model(diagram, config)
        diagram2, config2 = parse_model(json.dumps(doc))
        assert serialize_model(diagram2, config2) == doc

    def test_solver_overrides_round_trip(self):
        doc = dict(DIVERGING_DOC)
        diagram, config = parse_model(json.dumps(doc))
        assert config.max_iterations == 30
        out = serialize_model(diagram, config)
        assert out["solver"] == {"max_iterations": 30}

    def test_default_solver_block_omitted(self):
        diagram, config = parse_model(BETA_BINOMIAL)
        assert "solver" not in serialize_model(diagram, config)

    @pytest.mark.parametrize(
        "mutate,path_fragment",
        [
            (lambda d: d.update(schema_version="2"), "$.schema_version"),
            (lambda d: d.update(extra=1), "$.extra"),
            (lambda d: d["nodes"][0].update(bogus=True), "$.nodes[0].bogus"),
            (lambda d: d["nodes"][0]["transform"].update(kind="affine"), "$.nodes[0].transform.kind"),
            (lambda d: d["nodes"][0]["prior"].pop("variance"), "$.nodes[0].prior"),
            (lambda d: d["nodes"][2]["evidence"].update(variant="poisson"), "$.nodes[2].evidence.variant"),
            (lambda d: d["nodes"][2].update(parent="ghost"), "$.nodes[2].parent"),
            (lambda d: d["nodes"][0].update(id="exp"), "$.nodes[0].id"),
            (lambda d: d["nodes"][0].update(id="z"), "$.nodes[1].id"),
            (lambda d: d["solver"].update(epsilon=0.0), "$.solver"),
            (lambda d: d.update(nodes={}), "$.nodes"),
            (lambda d: d["nodes"].__setitem__(0, 5), "$.nodes[0]"),
        ],
    )
    def test_schema_errors_name_their_path(self, mutate, path_fragment):
        doc = json.loads(json.dumps(DIVERGING_DOC))
        mutate(doc)
        with pytest.raises(SchemaError) as exc:
            parse_model(json.dumps(doc))
        assert exc.value.path.startswith(path_fragment)

    def test_number_fields_reject_booleans(self):
        doc = json.loads(json.dumps(DIVERGING_DOC))
        doc["nodes"][0]["prior"]["mean"] = True
        with pytest.raises(SchemaError, match="expected a number"):
            parse_model(json.dumps(doc))

    @pytest.mark.parametrize("flag", ["no", "false", 1, None])
    def test_lognormal_samples_must_be_a_boolean(self, flag):
        doc = json.loads(json.dumps(DIVERGING_DOC))
        doc["nodes"][2]["evidence"]["lognormal_samples"] = flag
        with pytest.raises(SchemaError, match="expected true or false") as exc:
            parse_model(json.dumps(doc))
        assert exc.value.path == "$.nodes[2].evidence.lognormal_samples"

    def test_lognormal_samples_false_is_the_summary_form(self):
        doc = json.loads(json.dumps(DIVERGING_DOC))
        plain, _ = parse_model(json.dumps(doc))
        doc["nodes"][2]["evidence"]["lognormal_samples"] = False
        diagram, _ = parse_model(json.dumps(doc))
        assert diagram.nodes["oz"].obs == plain.nodes["oz"].obs
        assert diagram.nodes["oz"].obs.lognormal_samples is False

    def test_malformed_json(self):
        with pytest.raises(SchemaError, match="not valid JSON"):
            parse_model("{nodes: []}")

    def test_non_object_document(self):
        with pytest.raises(SchemaError):
            parse_model("[1, 2]")

    def test_expression_error_is_schema_error(self):
        doc = json.loads(json.dumps(DIVERGING_DOC))
        doc["nodes"][1]["expr"] = "1 / "
        with pytest.raises(SchemaError) as exc:
            parse_model(json.dumps(doc))
        assert exc.value.path == "$.nodes[1].expr"


# Every object form of the schema: a binomial with reference alpha/beta,
# lognormal samples with known and with unknown variance, summary statistics
# of both normal variants, a lognormal prior and non-default solver settings.
ALL_FORMS_DOC = {
    "schema_version": "1",
    "nodes": [
        {
            "id": "p",
            "kind": "basic",
            "transform": {"kind": "logistic_scaled", "a": 0.0, "b": 1.0},
            "prior": {"family": "beta", "alpha": 2.0, "beta": 3.0},
        },
        {
            "id": "q",
            "kind": "basic",
            "transform": {"kind": "log_scaled", "a": 0.0, "b": 1.0},
            "prior": {"family": "lognormal", "mean": 2.0, "variance": 0.5},
        },
        {
            "id": "r",
            "kind": "basic",
            "transform": {"kind": "log_scaled", "a": 0.0, "b": 1.0},
            "prior": {"family": "lognormal", "mean": 1.5, "variance": 0.3},
        },
        {
            "id": "m",
            "kind": "basic",
            "transform": {"kind": "scaled", "a": -1.0, "b": 1.0},
            "prior": {"family": "normal", "mean": 0.1, "variance": 2.0},
        },
        {
            "id": "s",
            "kind": "deterministic",
            "transform": {"kind": "log_scaled", "a": 0.0, "b": 1.0},
            "expr": "q * r + exp(m)",
        },
        {
            "id": "e1",
            "kind": "evidence",
            "parent": "p",
            "evidence": {
                "variant": "binomial", "count": 20, "successes": 6, "alpha": 0.5, "beta": 0.5
            },
        },
        {
            "id": "e2",
            "kind": "evidence",
            "parent": "q",
            "evidence": {
                "variant": "normal_known_var",
                "variance": 0.2,
                "lognormal_samples": True,
                "samples": [1.8, 2.2, 2.5],
            },
        },
        {
            "id": "e3",
            "kind": "evidence",
            "parent": "r",
            "evidence": {
                "variant": "normal_unknown_var",
                "lognormal_samples": True,
                "samples": [1.2, 1.4, 1.9, 1.6, 1.3],
            },
        },
        {
            "id": "e4",
            "kind": "evidence",
            "parent": "m",
            "evidence": {
                "variant": "normal_unknown_var", "count": 8, "sample_mean": 0.3, "sample_var": 0.4
            },
        },
        {
            "id": "e5",
            "kind": "evidence",
            "parent": "m",
            "evidence": {
                "variant": "normal_known_var", "count": 3, "sample_mean": 0.2, "variance": 1.0
            },
        },
    ],
    "solver": {"epsilon": 1e-08, "pool_evidence": False},
}


def _obj(i: int, key: str):
    """A function that gives node ``i``'s ``key`` object of a document."""
    return lambda doc: doc["nodes"][i][key]


def _set(get, **fields):
    return lambda doc: get(doc).update(fields)


def _drop(get, key):
    return lambda doc: get(doc).pop(key)


def _replace(i: int, key: str, value):
    return lambda doc: doc["nodes"][i].update({key: value})


_BETA_T, _BETA_PRIOR = _obj(0, "transform"), _obj(0, "prior")
_NORMAL_PRIOR = _obj(3, "prior")
_BINOMIAL, _KNOWN_SAMPLES, _UNKNOWN_SAMPLES = _obj(5, "evidence"), _obj(6, "evidence"), _obj(7, "evidence")
_UNKNOWN_SUMMARY, _KNOWN_SUMMARY = _obj(8, "evidence"), _obj(9, "evidence")
_SOLVER = lambda doc: doc["solver"]  # noqa: E731


def _normal_node(nid: str, transform) -> dict:
    prior = {"family": "normal", "mean": 0.5, "variance": 1.0}
    return {"id": nid, "kind": "basic", "transform": transform, "prior": prior}


class TestSchemaRules:
    """Each rule of the model-document schema, and the document forms it reads."""

    # One invalid document per rule and the path of what it breaks.  The error
    # names that path, or another in the same object where the spec class's
    # own check, not a key reader, finds the fault.
    @pytest.mark.parametrize(
        "mutate,broken",
        [
            (_replace(0, "transform", [0, 1]), "$.nodes[0].transform"),
            (_set(_BETA_T, bogus=1), "$.nodes[0].transform.bogus"),
            (_drop(_BETA_T, "b"), "$.nodes[0].transform"),
            (_set(_BETA_T, kind="affine"), "$.nodes[0].transform.kind"),
            (_set(_BETA_T, a="0"), "$.nodes[0].transform.a"),
            (_set(_BETA_T, b=0.0), "$.nodes[0].transform"),
            (_replace(0, "prior", "beta"), "$.nodes[0].prior"),
            (_drop(_BETA_PRIOR, "family"), "$.nodes[0].prior"),
            (_set(_BETA_PRIOR, family="gamma"), "$.nodes[0].prior.family"),
            (_set(_BETA_PRIOR, transform={}), "$.nodes[0].prior.transform"),
            (_set(_BETA_PRIOR, mean=0.5), "$.nodes[0].prior.mean"),
            (_drop(_BETA_PRIOR, "alpha"), "$.nodes[0].prior"),
            (_set(_BETA_PRIOR, alpha=None), "$.nodes[0].prior.alpha"),
            (_set(_BETA_PRIOR, alpha=-1.0), "$.nodes[0].prior"),
            (_set(_NORMAL_PRIOR, alpha=1.0), "$.nodes[3].prior.alpha"),
            (_drop(_NORMAL_PRIOR, "mean"), "$.nodes[3].prior"),
            (_set(_NORMAL_PRIOR, family="lognormal"), "$.nodes[3].prior"),
            (_set(_NORMAL_PRIOR, variance=0.0), "$.nodes[3].prior"),
            (_replace(5, "evidence", None), "$.nodes[5].evidence"),
            (_drop(_BINOMIAL, "variant"), "$.nodes[5].evidence"),
            (_set(_BINOMIAL, variant="poisson"), "$.nodes[5].evidence.variant"),
            (_set(_BINOMIAL, sample_mean=0.5), "$.nodes[5].evidence.sample_mean"),
            (_set(_BINOMIAL, lognormal_samples=True), "$.nodes[5].evidence.lognormal_samples"),
            (_drop(_BINOMIAL, "successes"), "$.nodes[5].evidence"),
            (_drop(_BINOMIAL, "beta"), "$.nodes[5].evidence"),
            (_set(_BINOMIAL, count=20.0), "$.nodes[5].evidence.count"),
            (_set(_BINOMIAL, successes=21), "$.nodes[5].evidence"),
            (_set(_BINOMIAL, alpha="0.5"), "$.nodes[5].evidence.alpha"),
            (_set(_BINOMIAL, alpha=0.0), "$.nodes[5].evidence"),
            (_set(_KNOWN_SAMPLES, lognormal_samples="yes"), "$.nodes[6].evidence.lognormal_samples"),
            (_set(_KNOWN_SAMPLES, count=3), "$.nodes[6].evidence.count"),
            (_drop(_KNOWN_SAMPLES, "samples"), "$.nodes[6].evidence"),
            (_set(_KNOWN_SAMPLES, samples=[]), "$.nodes[6].evidence"),
            (_set(_KNOWN_SAMPLES, samples=1.8), "$.nodes[6].evidence.samples"),
            (_set(_KNOWN_SAMPLES, samples=[1.8, True]), "$.nodes[6].evidence.samples"),
            (_set(_KNOWN_SAMPLES, samples=[1.8, "2"]), "$.nodes[6].evidence.samples"),
            (_set(_KNOWN_SAMPLES, variance=-0.2), "$.nodes[6].evidence"),
            (_set(_UNKNOWN_SAMPLES, variance=0.2), "$.nodes[7].evidence.variance"),
            (_set(_UNKNOWN_SAMPLES, samples=[1.2, 1.4, 1.9]), "$.nodes[7].evidence"),
            (_drop(_UNKNOWN_SUMMARY, "sample_mean"), "$.nodes[8].evidence"),
            (_drop(_UNKNOWN_SUMMARY, "sample_var"), "$.nodes[8].evidence"),
            (_set(_UNKNOWN_SUMMARY, samples=[1.0, 2.0]), "$.nodes[8].evidence.samples"),
            (_set(_UNKNOWN_SUMMARY, sample_mean="0.3"), "$.nodes[8].evidence.sample_mean"),
            (_set(_UNKNOWN_SUMMARY, count=3), "$.nodes[8].evidence"),
            (_set(_UNKNOWN_SUMMARY, lognormal_samples=False, sample_var=0.0), "$.nodes[8].evidence"),
            (_set(_KNOWN_SUMMARY, sample_var=1.0), "$.nodes[9].evidence.sample_var"),
            (_drop(_KNOWN_SUMMARY, "variance"), "$.nodes[9].evidence"),
            (_set(_KNOWN_SUMMARY, count=0), "$.nodes[9].evidence"),
            (lambda doc: doc.update(solver=[]), "$.solver"),
            (_set(_SOLVER, tolerance=1e-6), "$.solver.tolerance"),
            (_set(_SOLVER, epsilon="small"), "$.solver.epsilon"),
            (_set(_SOLVER, max_iterations=2.5), "$.solver.max_iterations"),
            (_set(_SOLVER, divergence_window=True), "$.solver.divergence_window"),
            (_set(_SOLVER, pool_evidence=0), "$.solver.pool_evidence"),
            (_set(_SOLVER, divergence_window=0), "$.solver"),
            (_replace(0, "id", ""), "$.nodes[0].id"),
            (_replace(0, "id", 5), "$.nodes[0].id"),
            (_replace(0, "id", "1p"), "$.nodes[0].id"),
            (_replace(0, "kind", "chance"), "$.nodes[0].kind"),
            (_replace(4, "expr", 5), "$.nodes[4].expr"),
            (_replace(4, "expr", "q^(2"), "$.nodes[4].expr"),
            (_replace(5, "parent", 3), "$.nodes[5].parent"),
        ],
    )
    def test_each_rule_names_its_object(self, mutate, broken):
        doc = json.loads(json.dumps(ALL_FORMS_DOC))
        mutate(doc)
        with pytest.raises(SchemaError) as exc:
            parse_model(json.dumps(doc))
        obj = re.match(r"\$\.(solver|nodes\[\d+\]\.\w+)", broken).group()
        assert exc.value.path == broken or exc.value.path.startswith(obj)

    def test_an_invalid_diagram_is_rejected_by_default(self):
        doc = json.loads(json.dumps(ALL_FORMS_DOC))
        doc["nodes"][5]["parent"] = "m"  # binomial evidence on a scaled parameter
        with pytest.raises(InvalidDiagramError, match="e1: binomial evidence requires"):
            parse_model(json.dumps(doc))
        diagram, _ = parse_model(json.dumps(doc), check=False)
        assert validate(diagram) == [("e1", "binomial evidence requires a logistic_scaled parent")]

    def test_field_table_names_every_field(self):
        # Each spec class's document keys are its constructor's parameters, in
        # order, but a prior's transform, which is the node's; each key has a
        # reader, and the table has no reader for a key no class has.
        assert set(_KEYS) == {Transform, PriorSpec, EvidenceSpec, SolverConfig}
        for cls, keys in _KEYS.items():
            params = inspect.signature(cls).parameters
            assert list(keys) == [key for key in params if key != "transform"]
            assert all(key in _READERS for key in keys)
            # a key is required exactly when the constructor has no default for it
            none = inspect.Parameter.empty
            assert _REQUIRED[cls] == {key for key in keys if params[key].default is none}
            assert {key: params[key].default for key in keys} == keys
        assert set(_READERS) == {key for keys in _KEYS.values() for key in keys}

    def test_every_form_round_trips(self):
        text = json.dumps(ALL_FORMS_DOC, sort_keys=True)
        diagram, config = parse_model(text)
        assert json.dumps(serialize_model(diagram, config), sort_keys=True) == text
        assert config == SolverConfig(epsilon=1e-8, pool_evidence=False)

    def test_every_form_solves(self, tmp_path, capsys):
        path = tmp_path / "all_forms.json"
        path.write_text(json.dumps(ALL_FORMS_DOC))
        assert main(["solve", str(path)]) == EXIT_OK

    def test_known_variance_samples_without_variance_is_an_input_error(self, tmp_path, capsys):
        doc = json.loads(json.dumps(ALL_FORMS_DOC))
        del doc["nodes"][6]["evidence"]["variance"]
        with pytest.raises(SchemaError, match="requires variance") as exc:
            parse_model(json.dumps(doc))
        assert exc.value.path == "$.nodes[6].evidence"
        path = tmp_path / "no_variance.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == EXIT_INPUT
        assert "$.nodes[6].evidence" in capsys.readouterr().err

    # Nodes with identical transform objects share one Transform.  A later
    # object that differs from a valid earlier one only by a boolean, an extra
    # key, a number out of range or a list still fails, at its own node's path.
    @pytest.mark.parametrize("kind", ["basic", "deterministic"])
    @pytest.mark.parametrize(
        "later,path,message",
        [
            ('{"kind": "scaled", "a": false, "b": 1}', ".a", "expected a number, got False"),
            ('{"kind": "scaled", "a": 0, "b": 1, "c": 1}', ".c", "unknown field"),
            ('{"kind": "scaled", "a": 1e400, "b": 1}', "", "reference points must be finite"),
            ('{"kind": "scaled", "a": [0], "b": 1}', ".a", "expected a number, got \\[0\\]"),
        ],
    )
    def test_a_repeated_transform_is_checked_again(self, kind, later, path, message):
        valid = {"kind": "scaled", "a": 0, "b": 1}
        z = _normal_node("z", "LATER")
        if kind == "deterministic":
            z = {"id": "z", "kind": "deterministic", "transform": "LATER", "expr": "2 * x"}
        nodes = [_normal_node("x", valid), _normal_node("y", dict(valid)), z]
        doc = {"schema_version": "1", "nodes": nodes}
        with pytest.raises(SchemaError, match=message) as exc:
            parse_model(json.dumps(doc).replace('"LATER"', later))
        assert exc.value.path == "$.nodes[2].transform" + path

    def test_only_identical_transforms_are_shared(self):
        a_values = {"p": 0, "q": 0, "r": -0.0, "s": 0.0}
        nodes = [_normal_node(n, {"kind": "scaled", "a": a, "b": 1}) for n, a in a_values.items()]
        diagram, _ = parse_model(json.dumps({"schema_version": "1", "nodes": nodes}))
        t = {nid: diagram.nodes[nid].transform for nid in a_values}
        assert t["p"] is t["q"] and t["q"] is not t["s"]
        assert [math.copysign(1.0, t[nid].a) for nid in a_values] == [1.0, 1.0, -1.0, 1.0]
        written = [n["transform"]["a"] for n in serialize_model(diagram)["nodes"]]
        assert [math.copysign(1.0, a) for a in written] == [1.0, 1.0, -1.0, 1.0]

    def test_binomial_accepts_lognormal_samples_false(self):
        doc = json.loads(json.dumps(ALL_FORMS_DOC))
        plain, _ = parse_model(json.dumps(doc))
        doc["nodes"][5]["evidence"]["lognormal_samples"] = False
        diagram, _ = parse_model(json.dumps(doc))
        assert diagram.nodes["e1"].obs == plain.nodes["e1"].obs

    # Python's json reads these literals as non-finite floats.
    @pytest.mark.parametrize("literal", ["1e400", "-1e400", "Infinity", "NaN"])
    @pytest.mark.parametrize(
        "get,key,within",
        [
            (_BETA_T, "a", "$.nodes[0].transform"),
            (_BETA_PRIOR, "alpha", "$.nodes[0].prior"),
            (_NORMAL_PRIOR, "mean", "$.nodes[3].prior"),
            (_BINOMIAL, "beta", "$.nodes[5].evidence"),
            (_KNOWN_SAMPLES, "variance", "$.nodes[6].evidence"),
            (_UNKNOWN_SUMMARY, "sample_mean", "$.nodes[8].evidence"),
            (_UNKNOWN_SUMMARY, "sample_var", "$.nodes[8].evidence"),
            (_SOLVER, "epsilon", "$.solver"),
        ],
    )
    def test_non_finite_numbers_are_rejected(self, get, key, within, literal):
        doc = json.loads(json.dumps(ALL_FORMS_DOC))
        get(doc)[key] = "LITERAL"
        with pytest.raises(SchemaError) as exc:
            parse_model(json.dumps(doc).replace('"LITERAL"', literal))
        assert exc.value.path == within

    def test_non_finite_sample_is_rejected(self):
        text = json.dumps(ALL_FORMS_DOC).replace("[1.8, 2.2, 2.5]", "[1.8, 1e400, 2.5]")
        with pytest.raises(SchemaError, match="must be finite") as exc:
            parse_model(text)
        assert exc.value.path == "$.nodes[6].evidence"

    def test_integer_beyond_the_float_range_is_an_input_error(self):
        text = json.dumps(ALL_FORMS_DOC).replace('"alpha": 2.0', '"alpha": 1' + "0" * 400)
        with pytest.raises(SchemaError, match="out of range") as exc:
            parse_model(text)
        assert exc.value.path == "$.nodes[0].prior.alpha"

    @pytest.mark.parametrize("text", ["[" * 100_000, "1" * 5_000], ids=["deep", "long_integer"])
    def test_json_the_decoder_cannot_read_is_an_input_error(self, text):
        with pytest.raises(SchemaError, match="not valid JSON"):
            parse_model(text)

    def test_numerical_failures_exit_5(self, tmp_path, capsys):
        doc = json.loads(json.dumps(ALL_FORMS_DOC))
        doc["nodes"][0]["prior"]["alpha"] = 1e-160
        path = tmp_path / "tiny_alpha.json"
        path.write_text(json.dumps(doc))
        for argv in (["solve", str(path)], ["compare", str(path), "--samples", "100", "--seed", "1"]):
            assert main(argv) == EXIT_NUMERICAL
            assert "'p'" in capsys.readouterr().err


@pytest.fixture
def invalid_file(tmp_path):
    doc = json.loads(json.dumps(DIVERGING_DOC))
    doc["nodes"][2]["evidence"] = {"variant": "binomial", "count": 5, "successes": 2}
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def diverging_file(tmp_path):
    path = tmp_path / "diverging.json"
    path.write_text(json.dumps(DIVERGING_DOC))
    return str(path)


class TestCommands:
    def test_validate_ok(self, capsys):
        assert main(["validate", str(BETA_BINOMIAL)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "ok: 2 nodes"

    def test_validate_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/model.json"]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_validate_a_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_bytes(b"\xff")
        assert main(["validate", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: $: not valid JSON: 'utf-8' codec")

    def test_validate_reports_violations(self, invalid_file, capsys):
        assert main(["validate", invalid_file]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "oz:" in err and "logistic" in err

    @pytest.mark.parametrize("command", ["solve", "oracle", "compare"])
    def test_an_invalid_model_is_an_input_error(self, invalid_file, capsys, command):
        flags = ["--samples", "100", "--seed", "1"] if command != "solve" else []
        assert main([command, invalid_file, *flags]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: invalid diagram: oz:")
        assert err.count("\n") == 1

    def test_solve_validates_the_model_once(self, monkeypatch, capsys):
        calls = []

        def counted(d, _validate=gaussid.model.validate):
            calls.append(d)
            return _validate(d)

        monkeypatch.setattr(gaussid.cli, "validate", counted)
        monkeypatch.setattr(gaussid.model, "validate", counted)
        assert main(["solve", str(BETA_BINOMIAL)]) == EXIT_OK
        assert len(calls) == 1

    def test_solve_golden_table(self, capsys):
        assert main(["solve", str(BETA_BINOMIAL)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "status: converged" in out
        assert "p  mean 0.666667  var 0.017094" in out
        assert "iteration  r_max" in out

    def test_solve_json_payload(self, capsys):
        assert main(["solve", str(BETA_BINOMIAL), "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "converged"
        assert payload["posterior"]["p"]["mean"] == pytest.approx(2.0 / 3.0, abs=1e-5)
        assert len(payload["r_max"]) == payload["iterations"]

    def test_solve_risk_difference_correlations(self, capsys):
        assert main(["solve", str(RISK_DIFFERENCE)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "correlations:" in out
        assert "risk_difference" in out

    def test_solve_full_precision(self, capsys):
        assert main(["solve", str(BETA_BINOMIAL), "--full-precision"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "0.66666666666666" in out

    def test_solve_iteration_cap_exit(self, capsys):
        assert main(["solve", str(BETA_BINOMIAL), "--max-iter", "1"]) == EXIT_MAX_ITERATIONS
        assert "status: max_iterations" in capsys.readouterr().out

    def test_solve_diverging_exit(self, diverging_file, capsys):
        assert main(["solve", diverging_file]) == EXIT_DIVERGED
        out = capsys.readouterr().out
        assert "status: diverged" in out
        assert "reported:" in out

    def test_solve_bad_epsilon(self, capsys):
        assert main(["solve", str(BETA_BINOMIAL), "--epsilon", "0"]) == EXIT_INPUT
        assert "epsilon" in capsys.readouterr().err

    def test_solve_no_pool_still_converges(self, capsys):
        assert main(["solve", str(BETA_BINOMIAL), "--no-pool"]) == EXIT_OK

    def test_solve_flags_keep_the_other_solver_fields(self, tmp_path, monkeypatch, capsys):
        doc = json.loads(BETA_BINOMIAL.read_text())
        doc["solver"] = {"divergence_window": 7, "max_iterations": 9}
        path = tmp_path / "solver_block.json"
        path.write_text(json.dumps(doc))
        configs = []
        monkeypatch.setattr(
            "gaussid.cli.solve", lambda d, cfg: configs.append(cfg) or solve(d, cfg)
        )
        assert main(["solve", str(path), "--epsilon", "1e-8", "--no-pool"]) == EXIT_OK
        assert configs == [
            SolverConfig(
                epsilon=1e-8, divergence_window=7, max_iterations=9, pool_evidence=False
            )
        ]

    def test_missing_required_flag_is_input_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", str(BETA_BINOMIAL)])
        assert exc.value.code == EXIT_INPUT

    def test_unknown_command_is_input_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_INPUT

    def test_oracle_output(self, capsys):
        code = main(["oracle", str(BETA_BINOMIAL), "--samples", "20000", "--seed", "1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "samples: 20000" in out and "seed: 1" in out
        assert "p  mean 0.66" in out

    def test_oracle_json_deterministic(self, capsys):
        main(["oracle", str(BETA_BINOMIAL), "--samples", "20000", "--seed", "7", "--json"])
        first = json.loads(capsys.readouterr().out)
        main(["oracle", str(BETA_BINOMIAL), "--samples", "20000", "--seed", "7", "--json"])
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["estimates"]["p"]["se_mean"] > 0

    def test_oracle_rejects_nonpositive_samples(self, capsys):
        code = main(["oracle", str(BETA_BINOMIAL), "--samples", "0", "--seed", "1"])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("command", ["oracle", "compare"])
    def test_negative_seed_is_an_input_error(self, capsys, command):
        code = main([command, str(BETA_BINOMIAL), "--samples", "100", "--seed", "-1"])
        assert code == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --seed must be >= 0, got -1\n"

    def test_compare_agrees_on_golden_model(self, capsys):
        code = main(["compare", str(BETA_BINOMIAL), "--samples", "50000", "--seed", "2"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "Δmean" in out
        assert "flagged" not in out  # no discrepancy on the conjugate model

    def test_compare_json(self, capsys):
        code = main(
            ["compare", str(BETA_BINOMIAL), "--samples", "50000", "--seed", "2", "--json"]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["flagged"] is False
        assert payload["parameters"]["p"]["discrepancy"]["flagged"] is False

    def test_compare_json_writes_null_for_a_zero_standard_error(self, capsys):
        # One draw has standard errors of 0, so the discrepancies in standard
        # errors are infinite: the table says inf, and JSON, which has no
        # Infinity, says null.
        argv = ["compare", str(BETA_BINOMIAL), "--samples", "1", "--seed", "1"]
        main(argv)
        assert "(inf se)" in capsys.readouterr().out
        main([*argv, "--json"])

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        payload = json.loads(capsys.readouterr().out, parse_constant=refuse)
        discrepancy = payload["parameters"]["p"]["discrepancy"]
        assert discrepancy["mean_in_se"] is None and discrepancy["var_in_se"] is None
        assert discrepancy["mean_abs"] > 0.0 and discrepancy["flagged"] is True

    def test_compare_propagates_solver_status(self, diverging_file, capsys):
        code = main(["compare", diverging_file, "--samples", "5000", "--seed", "3"])
        assert code == EXIT_DIVERGED


def test_cli_import_leaves_scipy_stats_unloaded():
    src = Path(gaussid.__file__).resolve().parent.parent
    code = "import sys, gaussid.cli; sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr or "import gaussid.cli loaded scipy"


def test_cli_import_leaves_dataclasses_and_argparse_unloaded():
    # The records are written by hand and argparse loads when main runs, so
    # a library import pays for neither; main still parses its arguments.
    src = Path(gaussid.__file__).resolve().parent.parent
    code = (
        "import sys, gaussid.cli\n"
        "print(sorted({'dataclasses', 'argparse'} & set(sys.modules)))\n"
        "code = gaussid.cli.main(['validate', sys.argv[1]])\n"
        "print(code, 'argparse' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(RISK_DIFFERENCE)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "ok: 5 nodes", f"{EXIT_OK} True"]


def test_module_runs_the_cli():
    src = Path(gaussid.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "gaussid.cli", "validate", str(BETA_BINOMIAL)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok: 2 nodes\n"


def test_a_missing_field_is_named_alike_under_every_hash_seed(tmp_path):
    # A basic node without its transform and its prior: the smallest
    # missing key is named, whatever order a set of keys would take.
    doc = json.loads(BETA_BINOMIAL.read_text(encoding="utf-8"))
    node = next(n for n in doc["nodes"] if n["kind"] == "basic")
    del node["transform"], node["prior"]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    src = Path(gaussid.__file__).resolve().parent.parent
    messages = set()
    for seed in ("1", "2", "3", "4", "5", "6"):
        proc = subprocess.run(
            [sys.executable, "-m", "gaussid.cli", "validate", str(path)],
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == EXIT_INPUT, proc.stderr
        messages.add(proc.stderr)
    assert len(messages) == 1
    assert "missing required field 'prior'" in messages.pop()


# ---------------------------------------------------------------------------
# --json output: one compact document that round-trips the in-process result


@pytest.fixture(scope="module")
def scale_file(tmp_path_factory):
    """A smoke-size ``scale_1500`` diagram from the benchmark's generator."""
    generate = bench_generate()
    path = tmp_path_factory.mktemp("scale") / "scale.json"
    path.write_text(json.dumps(generate.scale_doc(7, **generate.SMOKE_SIZES["scale_1500"])))
    return path


@pytest.fixture(params=["beta_binomial", "risk_difference", "scale"])
def model_file(request):
    if request.param == "scale":
        return request.getfixturevalue("scale_file")
    return MODELS / f"{request.param}.json"


def _json_out(capsys, argv: list[str]) -> dict:
    """Run a ``--json`` command and parse its single line of output.

    A multi-line document would come from the pure-Python encoder.
    """
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    return json.loads(out)


def _reference_solve_stdout(result, flag: str) -> str:
    """What ``infer solve`` prints: ``json.dumps`` of the whole payload, or each
    table row written by one ``format`` call."""
    ids = list(result.param_ids)
    corr = result.posterior_correlations
    if flag == "--json":
        payload = {
            "status": result.status,
            "iterations": len(result.iterations),
            "reported_iteration": result.reported_iteration,
            "r_max": [rec.r_max for rec in result.iterations],
            "posterior": {
                pid: {"mean": m.mean, "variance": m.variance}
                for pid, m in result.posterior_y.items()
            },
            "correlations": {"parameters": ids, "matrix": corr.tolist()},
        }
        return json.dumps(payload) + "\n"
    spec = ".17g" if flag == "--full-precision" else ".6g"
    lines = [
        f"status: {result.status}",
        f"iterations: {len(result.iterations)}  reported: {result.reported_iteration}",
        "iteration  r_max",
        *(f"{rec.t:>9}  {rec.r_max:{spec}}" for rec in result.iterations),
        "posterior:",
    ]
    for pid in ids:
        m = result.posterior_y[pid]
        lines.append(f"{pid}  mean {m.mean:{spec}}  var {m.variance:{spec}}")
    if len(ids) > 1:
        width = max(len(pid) for pid in ids)
        lines.append("correlations:")
        row_fmt = "  ".join([f"{{:{spec}}}"] * len(ids))
        for pid, row in zip(ids, corr.tolist()):
            lines.append(f"{pid:<{width}}  " + row_fmt.format(*row))
    return "\n".join(lines) + "\n"


class TestJsonOutput:
    @pytest.mark.parametrize("flag", ["--json", "", "--full-precision"])
    def test_solve_stdout_is_byte_identical_to_the_reference(self, model_file, flag, capsys):
        argv = ["solve", str(model_file)] + ([flag] if flag else [])
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert out == _reference_solve_stdout(solve(*parse_model(model_file)), flag)

    def test_solve_equals_the_result(self, model_file, capsys):
        payload = _json_out(capsys, ["solve", str(model_file), "--json"])
        result = solve(*parse_model(model_file))
        assert payload["status"] == result.status
        assert payload["iterations"] == len(result.iterations)
        assert payload["reported_iteration"] == result.reported_iteration
        assert payload["r_max"] == [rec.r_max for rec in result.iterations]
        assert payload["posterior"] == {
            pid: {"mean": m.mean, "variance": m.variance} for pid, m in result.posterior_y.items()
        }
        assert payload["correlations"]["parameters"] == list(result.param_ids)
        matrix = payload["correlations"]["matrix"]
        assert all(type(v) is float for row in matrix for v in row)
        assert (np.array(matrix) == result.posterior_correlations).all()

    def test_a_serialized_model_solves_to_the_same_bytes(self, model_file, tmp_path, capsys):
        copy = tmp_path / "serialized.json"
        copy.write_text(json.dumps(serialize_model(*parse_model(model_file))))
        outs = []
        for path in (model_file, copy):
            assert main(["solve", str(path), "--json"]) == EXIT_OK
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_oracle_equals_the_estimate(self, model_file, capsys):
        argv = ["oracle", str(model_file), "--samples", "2000", "--seed", "3", "--json"]
        payload = _json_out(capsys, argv)
        est = mc_posterior(parse_model(model_file)[0], 2000, 3)
        assert payload == {
            "samples": est.n_samples,
            "seed": est.seed,
            "ess": est.ess,
            "estimates": {
                pid: {
                    "mean": est.mean[pid],
                    "variance": est.variance[pid],
                    "se_mean": est.se_mean[pid],
                    "se_var": est.se_var[pid],
                }
                for pid in est.param_ids
            },
            "warnings": list(est.warnings),
        }

    def test_compare_equals_solver_and_oracle(self, model_file, capsys):
        argv = ["compare", str(model_file), "--samples", "2000", "--seed", "3", "--json"]
        payload = _json_out(capsys, argv)
        diagram, config = parse_model(model_file)
        result = solve(diagram, config)
        est = mc_posterior(diagram, 2000, 3)
        assert payload["status"] == result.status
        assert (payload["samples"], payload["seed"], payload["ess"]) == (2000, 3, est.ess)
        assert payload["warnings"] == list(est.warnings)
        assert list(payload["parameters"]) == list(result.param_ids)
        for pid, row in payload["parameters"].items():
            approx = result.posterior_y[pid]
            assert row["approx"] == {"mean": approx.mean, "variance": approx.variance}
            assert row["mc"] == {
                "mean": est.mean[pid],
                "variance": est.variance[pid],
                "se_mean": est.se_mean[pid],
                "se_var": est.se_var[pid],
            }
            assert row["discrepancy"]["mean_abs"] == abs(approx.mean - est.mean[pid])
            assert row["discrepancy"]["var_abs"] == abs(approx.variance - est.variance[pid])
        assert payload["flagged"] is any(
            row["discrepancy"]["flagged"] for row in payload["parameters"].values()
        )

    @pytest.mark.parametrize("full", [False, True])
    def test_solve_table_prints_every_correlation(self, scale_file, full, capsys):
        argv = ["solve", str(scale_file)] + (["--full-precision"] if full else [])
        assert main(argv) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        result = solve(*parse_model(scale_file))
        ids = result.param_ids
        width = max(len(pid) for pid in ids)
        spec = ".17g" if full else ".6g"
        corr = result.posterior_correlations
        expected = [
            f"{pid:<{width}}  " + "  ".join(format(float(corr[i, j]), spec) for j in range(len(ids)))
            for i, pid in enumerate(ids)
        ]
        assert lines[-len(ids) - 1 :] == ["correlations:", *expected]


# ---------------------------------------------------------------------------
# The correlation matrix writer: same text as encoding every entry


_PLANTED = (-0.0, math.nan, math.inf, -math.inf, 1.0, -1.0, 5e-324)
_TABLE_FORMATS = ("{:.6g}", "{:.17g}")


@st.composite
def _matrices(draw) -> np.ndarray:
    """Square matrices over the whole range of sparsity, with planted values and rows.

    Row kinds cover the writer's paths: all +0.0 (one run), all nonzero (one
    run), alternating every column (the whole-row fallback's worst case).
    """
    n = draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rng.uniform(-1.0, 1.0, (n, n)) * 10.0 ** rng.integers(-20, 3, (n, n))
    c[rng.random((n, n)) >= draw(st.floats(0.0, 1.0))] = 0.0
    if n:
        index = st.integers(0, n - 1)
        for i, j, value in draw(st.lists(st.tuples(index, index, st.sampled_from(_PLANTED)), max_size=8)):
            c[i, j] = value
        for i, kind in draw(st.lists(st.tuples(index, st.sampled_from("zna")), max_size=4)):
            if kind == "z":
                c[i] = 0.0
            elif kind == "n":
                c[i] = rng.uniform(0.5, 1.0, n)
            else:
                c[i] = np.where(np.arange(n) % 2 == 0, 0.0, rng.uniform(-1.0, 1.0, n))
    return c


def _assert_writer_matches(c: np.ndarray) -> None:
    assert _json_matrix(c) == json.dumps(c.tolist())
    for fmt in _TABLE_FORMATS:
        row_fmt = "  ".join([fmt] * c.shape[1])
        assert list(_table_rows(c, fmt)) == [row_fmt.format(*row) for row in c.tolist()]


class TestMatrixWriter:
    @given(_matrices())
    @example(np.zeros((0, 0)))
    @example(np.zeros((1, 1)))
    @example(np.ones((1, 1)))
    @example(np.full((1, 1), -0.0))
    @settings(max_examples=300, deadline=None)
    def test_equals_encoding_every_entry(self, c):
        _assert_writer_matches(c)

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 60, 257])
    def test_row_kinds(self, n):
        rng = np.random.default_rng(n)
        alternating = np.where(np.arange(n) % 2 == 0, 0.0, rng.uniform(-1.0, 1.0, n))
        sparse = np.zeros(n)
        sparse[n // 2 :: 50] = _PLANTED[n % len(_PLANTED)]
        negative_zero = np.zeros(n)
        negative_zero[n // 2] = -0.0  # prints as -0.0 / -0, so it is no part of a zero run
        rows = [np.zeros(n), rng.uniform(-1.0, 1.0, n), alternating, alternating[::-1], sparse]
        _assert_writer_matches(np.array(rows + [negative_zero]))


# Expressions and estimates at the edge of the float range


def _risk_difference_with(tmp_path, expr: str, transform: dict | None = None) -> str:
    """The golden risk-difference model with node 2's expression (and transform) replaced."""
    doc = json.loads(RISK_DIFFERENCE.read_text())
    doc["nodes"][2]["expr"] = expr
    if transform is not None:
        doc["nodes"][2]["transform"] = transform
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return str(path)


_WIDE = {"kind": "scaled", "a": -1.0, "b": 1.0}


@pytest.mark.parametrize("expr", ["p_treated * 1e400", "p_treated^(1e400)"])
def test_a_literal_beyond_the_float_range_is_an_input_error(tmp_path, capsys, expr):
    assert main(["validate", _risk_difference_with(tmp_path, expr)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "$.nodes[2].expr" in err and "number out of range" in err


def test_deep_parenthesis_nesting_validates_and_solves(tmp_path, capsys):
    expr = "(" * 1000 + "p_treated" + ")" * 1000 + " - p_control"
    path = _risk_difference_with(tmp_path, expr)
    assert main(["validate", path]) == EXIT_OK
    capsys.readouterr()
    assert main(["solve", path]) == EXIT_OK
    deep = capsys.readouterr().out
    assert main(["solve", str(RISK_DIFFERENCE)]) == EXIT_OK
    assert deep == capsys.readouterr().out  # the same tree as "p_treated - p_control"


def test_json_writes_null_for_an_estimate_that_overflows(tmp_path, capsys):
    path = _risk_difference_with(tmp_path, "exp(300 * p_treated)", _WIDE)
    mc = ["--samples", "2000", "--seed", "1"]

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    assert main(["oracle", path, *mc]) == EXIT_OK
    out = capsys.readouterr().out
    assert "se_var inf" in out and "warning: the estimates of risk_difference are not finite" in out
    assert main(["oracle", path, *mc, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert payload["estimates"]["risk_difference"]["se_var"] is None
    assert payload["warnings"] == ["the estimates of risk_difference are not finite"]

    assert main(["compare", path, *mc, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert payload["status"] == "converged"
    assert payload["parameters"]["risk_difference"]["mc"]["se_var"] is None


def test_an_overflow_raises_no_numpy_warning(tmp_path, capsys):
    path = _risk_difference_with(tmp_path, "exp(1000 * p_treated)", _WIDE)
    # Two looks of mean 1.5e308 on x / 10, whose prior is N(0.1, 1) on that
    # scale: unpooled, the conditioned mean there is 1e308, so x's, 1e309,
    # overflows.
    huge = tmp_path / "huge.json"
    look = {"variant": "normal_known_var", "count": 1, "sample_mean": 1.5e308, "variance": 1.0}
    prior = {"family": "normal", "mean": 1.0, "variance": 100.0}
    x = {"id": "x", "kind": "basic", "transform": {"kind": "scaled", "a": 0, "b": 10}, "prior": prior}
    looks = [{"id": f"o{k}", "kind": "evidence", "parent": "x", "evidence": look} for k in range(2)]
    huge.write_text(json.dumps({"schema_version": "1", "nodes": [x, *looks]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", path]) == EXIT_NUMERICAL
        assert "'risk_difference'" in capsys.readouterr().err
        assert main(["oracle", path, "--samples", "2000", "--seed", "1"]) == EXIT_OK
        assert main(["solve", str(huge), "--no-pool"]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("error: cannot map 'x' back to its natural scale")
        assert err.count("\n") == 1
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


# One parameter, N(1, 0.1) on scaled(0, 1), and normal_known_var looks on it
# of (sample mean, variance).
def _looked_at(looks):
    nodes = [
        {
            "id": "x",
            "kind": "basic",
            "transform": {"kind": "scaled", "a": 0.0, "b": 1.0},
            "prior": {"family": "normal", "mean": 1.0, "variance": 0.1},
        }
    ]
    for i, (mean, variance) in enumerate(looks):
        look = {"variant": "normal_known_var", "count": 1, "sample_mean": mean, "variance": variance}
        nodes.append({"id": f"o{i}", "kind": "evidence", "parent": "x", "evidence": look})
    return {"schema_version": "1", "nodes": nodes}


@pytest.mark.parametrize(
    "looks,flags",
    [
        ([(0.5, 1e-320)], []),
        ([(0.5, 1e-320)], ["--no-pool"]),
        ([(0.5, 1e-320), (0.7, 1.0)], []),
        ([(0.5, 1e-320), (0.7, 1.0)], ["--no-pool"]),
    ],
)
def test_a_look_of_variance_1e_320_leaves_that_variance(tmp_path, capsys, looks, flags):
    # The exact posterior variance, 1 / (10 + 1e320 + 1), rounds to 1e-320
    # whether the looks are pooled or not; it is positive, so x correlates 1
    # with itself.
    path = tmp_path / "looked_at.json"
    path.write_text(json.dumps(_looked_at(looks)))
    assert main(["solve", str(path), "--json", *flags]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["posterior"]["x"]["variance"] == 1e-320
    assert payload["correlations"]["matrix"] == [[1.0]]


@pytest.mark.parametrize("prior_variance", [1e8, 1e12, 1e16])
@pytest.mark.parametrize(
    "looks,flags",
    [
        ([(1.0, 1e-4)], []),
        ([(1.0, 1e-4)], ["--no-pool"]),
        ([(1.0, 1e-4), (2.0, 1e6)], []),
        ([(1.0, 1e-4), (2.0, 1e6)], ["--no-pool"]),
    ],
)
def test_a_look_far_more_precise_than_the_prior_is_conjugate(
    tmp_path, capsys, prior_variance, looks, flags
):
    # m ~ N(0, v0) on scaled(0, 1) and looks of variance v: the posterior is
    # N(sum(d / v) / P, 1 / P) with P = 1 / v0 + sum(1 / v).  Forming the
    # variance as a difference of terms of size v0 loses its digits.
    doc = _looked_at(looks)
    doc["nodes"][0]["prior"] = {"family": "normal", "mean": 0.0, "variance": prior_variance}
    path = tmp_path / "conjugate.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path), "--json", *flags]) == EXIT_OK
    got = json.loads(capsys.readouterr().out)["posterior"]["x"]
    variance = 1.0 / (1.0 / prior_variance + sum(1.0 / v for _, v in looks))
    assert got["variance"] == pytest.approx(variance, rel=1e-12, abs=0)
    assert got["mean"] == pytest.approx(variance * sum(d / v for d, v in looks), rel=1e-12, abs=0)


@pytest.mark.parametrize("flags", [[], ["--no-pool"]])
def test_a_parameter_without_posterior_variance_correlates_zero(tmp_path, capsys, flags):
    # d = x - x has no variance, a priori or a posteriori: it correlates 0
    # with every parameter, itself included.
    doc = _looked_at([(0.5, 0.01), (0.6, 0.02)])
    d = {"id": "d", "kind": "deterministic", "expr": "x - x"}
    doc["nodes"].insert(1, {**d, "transform": {"kind": "scaled", "a": -1.0, "b": 1.0}})
    path = tmp_path / "no_variance.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path), "--json", *flags]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["posterior"]["d"]["variance"] == 0.0
    assert payload["posterior"]["x"]["variance"] > 0.0
    assert payload["correlations"]["matrix"] == [[1.0, 0.0], [0.0, 0.0]]


def test_a_pooled_variance_that_underflows_is_named(tmp_path, capsys):
    # Two looks of the smallest subnormal variance pool to 5e-324 / 2, which
    # rounds to 0.0: the error says so, and names the group's first look.
    path = tmp_path / "subnormal.json"
    path.write_text(json.dumps(_looked_at([(0.5, 5e-324), (0.5, 5e-324)])))
    assert main(["solve", str(path)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "cannot pool the observations of 'o0'" in err
    assert "pooled variance 5e-324 / 2.0 underflows to 0" in err


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="reads the child's address space from /proc")
def test_a_solve_that_cannot_fit_is_a_typed_error(tmp_path):
    # A chain of 3,000 states (e_i ~ N(0, 1), x_1 = e_0 + e_1, x_i = x_(i-1) +
    # e_i, a look on e_0 and on each x_i) is one component of 5,999
    # parameters, whose A alone needs 137 MiB.  The child limits its own
    # address space to what it holds after import plus 64 MiB, so the
    # structure fits and A does not: exit 5 with the typed message, no
    # traceback.
    t, nodes = {"kind": "scaled", "a": 0, "b": 1}, []
    for i in range(3000):
        prior = {"family": "normal", "mean": 0.0, "variance": 1.0}
        nodes.append({"id": f"e{i}", "kind": "basic", "transform": t, "prior": prior})
    for i in range(1, 3000):
        expr = f"{f'x{i - 1}' if i > 1 else 'e0'} + e{i}"
        nodes.append({"id": f"x{i}", "kind": "deterministic", "transform": t, "expr": expr})
    for k, parent in enumerate(["e0"] + [f"x{i}" for i in range(1, 3000)]):
        look = {"variant": "normal_known_var", "count": 1, "sample_mean": 0.5, "variance": 1.0}
        nodes.append({"id": f"o{k}", "kind": "evidence", "parent": parent, "evidence": look})
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"schema_version": "1", "nodes": nodes}), encoding="utf-8")
    code = (
        "import resource, sys\n"
        "from gaussid.cli import main\n"
        "with open('/proc/self/statm') as f:\n"
        "    held = int(f.read().split()[0]) * resource.getpagesize()\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "limit = held + 64 * 2**20\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit if hard < 0 else min(limit, hard), hard))\n"
        "sys.exit(main(['solve', sys.argv[1], '--json']))\n"
    )
    src = Path(gaussid.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", code, str(path)],
        env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_NUMERICAL, proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr == (
        "error: out of memory: the covariance of the component of 'e0' needs 35,988,001 entries\n"
    )
