"""The law table of rdbp.config.

Every (role, kind) the table allows parses and serialises back to the JSON
it was read from, and every bad ``laws.claim`` or ``laws.resource`` exits 2
with a message that names its field.
"""

import json

import pytest

import rdbp.cli as cli
from rdbp import Uniform
from rdbp.config import _LAWS, ConfigError, law_to_json, parse_run_config

#: one valid params object for each (role, kind) the table allows, and the
#: params that make its constructor refuse it, with the message it gives
VALID = {
    ("claim", "uniform"): ({"d": 2.0}, {"d": 0.0}, "uniform law requires 0 <= lo < hi < inf"),
    ("claim", "scaled_beta"): ({"a": 2.0, "b": 3.0, "scale": 2.5}, {"a": -1.0, "b": 3.0},
                               "scaled beta law requires finite a, b, scale > 0"),
    ("claim", "exponential"): ({"rate": 1.5}, {"rate": 0.0}, "exponential law requires rate > 0"),
    ("claim", "constant"): ({"value": 0.5}, {"value": -1.0}, "constant law requires a finite value >= 0"),
    ("resource", "uniform"): ({"lo": 0.5, "hi": 1.5}, {"lo": 1.5, "hi": 0.5},
                              "uniform law requires 0 <= lo < hi < inf"),
    ("resource", "scaled_beta"): ({"a": 2.0, "b": 3.0, "scale": 2.5}, {"a": 2.0, "b": 3.0, "scale": 0.0},
                                  "scaled beta law requires finite a, b, scale > 0"),
    ("resource", "constant"): ({"value": 1.2}, {"value": -0.5}, "constant law requires a finite value >= 0"),
}
PAIRS = sorted(VALID)
#: every param of each pair, and those that are required: all but scale,
#: which reads 1.0
PARAMS = [(role, kind, key) for role, kind in PAIRS for key in VALID[role, kind][0]]
REQUIRED = [(role, kind, key) for role, kind, key in PARAMS if key != "scale"]


def laws_with(role, law):
    """The laws of a valid triple, with ``law`` as its ``role`` law."""
    laws = {
        "offspring": {"probabilities": [0.25, 0.0, 0.75]},
        "claim": {"kind": "uniform", "params": {"d": 2.0}},
        "resource": {"kind": "constant", "params": {"value": 1.2}},
    }
    laws[role] = law
    return laws


def config_error(tmp_path, capsys, role, law) -> str:
    """What classify prints to stderr for a config with this law; it must exit 2."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"laws": laws_with(role, law)}))
    assert cli.main(["classify", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    return capsys.readouterr().err


def test_the_table_allows_these_pairs():
    assert {(role, kind) for kind, (_, _, roles) in _LAWS.items() for role in roles} == set(VALID)


@pytest.mark.parametrize("role, kind", PAIRS)
def test_parse_then_law_to_json_gives_the_input_back(role, kind):
    law = {"kind": kind, "params": VALID[role, kind][0]}
    parsed = getattr(parse_run_config({"laws": {role: law}}), role)
    assert law_to_json(parsed, claim=role == "claim") == law


@pytest.mark.parametrize("role", ["claim", "resource"])
def test_a_missing_scale_is_filled_in(role):
    parsed = getattr(parse_run_config({"laws": {role: {"kind": "scaled_beta", "params": {"a": 2, "b": 3}}}}), role)
    assert law_to_json(parsed, claim=role == "claim") == {"kind": "scaled_beta",
                                                          "params": {"a": 2.0, "b": 3.0, "scale": 1.0}}


def test_classify_writes_each_law_as_the_table_gives_it(tmp_path, capsys):
    laws = laws_with("resource", {"kind": "uniform", "params": {"lo": 1.0, "hi": 2.0}})
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"laws": laws}))
    assert cli.main(["classify", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert json.loads((tmp_path / "o" / "classification.json").read_text())["laws"] == laws


def test_a_uniform_claim_off_zero_has_no_config_form():
    # the config reads a uniform claim as U(0, d): writing {"d": hi} would
    # name another law
    with pytest.raises(ConfigError, match=r"laws.claim: a uniform claim reads as U\(0, d\), so U\(0.5, 1.5\)"):
        law_to_json(Uniform(0.5, 1.5), claim=True)
    assert law_to_json(Uniform(0.5, 1.5)) == {"kind": "uniform", "params": {"lo": 0.5, "hi": 1.5}}


def test_an_object_that_is_no_law_is_not_serialised():
    with pytest.raises(TypeError, match="cannot serialise law dict"):
        law_to_json({"kind": "uniform"})


@pytest.mark.parametrize("role, kind", PAIRS)
def test_an_unknown_param(tmp_path, capsys, role, kind):
    params = dict(VALID[role, kind][0], x=1.0)
    err = config_error(tmp_path, capsys, role, {"kind": kind, "params": params})
    assert err == f"config error: laws.{role}.params.x: unknown field\n"


@pytest.mark.parametrize("role, kind, key", REQUIRED)
def test_a_missing_param(tmp_path, capsys, role, kind, key):
    params = {k: v for k, v in VALID[role, kind][0].items() if k != key}
    err = config_error(tmp_path, capsys, role, {"kind": kind, "params": params})
    assert err == f"config error: laws.{role}.params.{key}: missing required field\n"


@pytest.mark.parametrize("value", ["2.0", True, None, [2.0]], ids=["string", "bool", "null", "list"])
@pytest.mark.parametrize("role, kind, key", PARAMS)
def test_a_param_that_is_not_a_number(tmp_path, capsys, role, kind, key, value):
    params = dict(VALID[role, kind][0], **{key: value})
    err = config_error(tmp_path, capsys, role, {"kind": kind, "params": params})
    assert err == f"config error: laws.{role}.params.{key}: expected a number\n"


@pytest.mark.parametrize("role, kind", PAIRS)
def test_params_the_constructor_refuses(tmp_path, capsys, role, kind):
    _, params, message = VALID[role, kind]
    err = config_error(tmp_path, capsys, role, {"kind": kind, "params": params})
    assert err == f"config error: laws.{role}.params: {message}\n"


@pytest.mark.parametrize(
    "role, kind, expected",
    [
        ("resource", "exponential", "uniform, scaled_beta, constant"),
        ("resource", "gamma", "uniform, scaled_beta, constant"),
        ("claim", "gamma", "uniform, scaled_beta, exponential, constant"),
        ("claim", "Uniform", "uniform, scaled_beta, exponential, constant"),
        # used to end in an uncaught TypeError (unhashable type: 'list')
        ("claim", ["uniform"], "uniform, scaled_beta, exponential, constant"),
    ],
)
def test_a_kind_the_role_does_not_take(tmp_path, capsys, role, kind, expected):
    err = config_error(tmp_path, capsys, role, {"kind": kind, "params": {"rate": 1.0}})
    assert err == f"config error: laws.{role}.kind: expected one of {expected}, got {kind!r}\n"


@pytest.mark.parametrize("role", ["claim", "resource"])
@pytest.mark.parametrize("params, got", [([1.0], "list"), (2.0, "float"), ("d", "str")])
def test_params_that_are_not_an_object(tmp_path, capsys, role, params, got):
    err = config_error(tmp_path, capsys, role, {"kind": "constant", "params": params})
    assert err == f"config error: laws.{role}.params: expected an object, got {got}\n"


@pytest.mark.parametrize("role", ["claim", "resource"])
@pytest.mark.parametrize("law, message", [
    ({"params": {"value": 1.0}}, "kind: missing required field"),
    ({"kind": "constant"}, "params: missing required field"),
    ({"kind": "constant", "params": {"value": 1.0}, "scale": 2.0}, "scale: unknown field"),
])
def test_a_law_without_kind_or_params_or_with_another_key(tmp_path, capsys, role, law, message):
    assert config_error(tmp_path, capsys, role, law) == f"config error: laws.{role}.{message}\n"
