"""Command-line behavior: exit codes, output formats, determinism."""

import copy
import io
import json
import os
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knopf import jsonio
from knopf.cli import main


def _data(name: str) -> str:
    return os.path.join(os.path.dirname(__file__), "data", name)


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "unimodular" in capsys.readouterr().out


def test_verify_hopf_ok(capsys):
    assert main(["verify", _data("uL-p2.json")]) == 0
    assert "all axioms hold" in capsys.readouterr().out


def test_verify_scheme_and_comodule(capsys):
    assert main(["verify", _data("mu3a5.json")]) == 0
    assert main(["verify", _data("w-plus-wdual.json")]) == 0
    assert main(["verify", _data("minus-id.json")]) == 0
    capsys.readouterr()


def test_verify_corrupt_hopf_exits_one(tmp_path, capsys):
    obj = json.load(open(_data("uL-p2.json")))
    i, j, k, _ = obj["mult"][3]
    obj["mult"][3] = [i, j, k, 0]
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(obj))
    assert main(["verify", str(p)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "mismatch" in out


def test_malformed_json_exits_two(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"dim": 2,')
    assert main(["verify", str(p)]) == 2
    assert "line" in capsys.readouterr().err


def test_missing_file_exits_two(capsys):
    assert main(["unimodular", "/no/such/file.json"]) == 2
    capsys.readouterr()


def test_unimodular_verdict_is_content(capsys):
    assert main(["unimodular", _data("uL-p2.json")]) == 0
    out = capsys.readouterr().out
    assert "unimodular: false" in out

    assert main(["unimodular", _data("uL-p2.json"), "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["unimodular"] is False
    assert payload["left"] == [[0, 1, 0, 1]]
    assert payload["right"] == [[0, 0, 0, 1]]


def test_symmetric_subcommand(capsys):
    assert main(["symmetric", _data("uL-p2.json")]) == 0
    out = capsys.readouterr().out
    assert "symmetric: false" in out and "frobenius: true" in out


def test_knop_subcommand(capsys):
    assert main(["knop", _data("mu3a5.json"), "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["knop_character"] == "t"
    assert payload["modular_route"] == "t^2"
    assert payload["trivial"] is False
    assert payload["routes_agree"] is True


def test_invariants_subcommand(capsys):
    assert main(["invariants", "--module", _data("minus-id.json"),
                 "--max-degree", "6", "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dims"] == [1, 0, 3, 0, 5, 0, 7]


def test_molien_subcommand(capsys):
    assert main(["molien", _data("molien-minus-id.json"),
                 "--max-degree", "6", "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["a_invariant"] == -2
    assert payload["coefficients"] == ["1", "0", "3", "0", "5", "0", "7"]
    assert payload["numerator"] == ["1", "0", "1"]


def test_molien_positive_characteristic_exits_two(capsys):
    assert main(["molien", _data("molien-minus-id.json"),
                 "--field", "Fp:3"]) == 2
    capsys.readouterr()


def test_classify_constant_group(capsys):
    assert main(["classify", "--module", _data("minus-id.json"),
                 "--max-degree", "8", "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["conditions"]["c6"] == "holds"
    assert payload["a_invariant"]["omega_route"] == -2
    assert payload["a_invariant"]["molien_route"] == -2


def test_classify_scheme_module_pair(capsys):
    assert main(["classify", "--scheme", _data("mu3a5.json"),
                 "--module", _data("w-plus-wdual.json"),
                 "--assert-small", "--max-degree", "6",
                 "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["conditions"]["c1"] == "holds"
    assert payload["conditions"]["c4"] == "fails"
    assert payload["watanabe_criterion"] is False
    assert payload["smallness"] == "asserted"


def test_classify_without_assert_small_exits_two(capsys):
    assert main(["classify", "--scheme", _data("mu3a5.json"),
                 "--module", _data("w-plus-wdual.json")]) == 2
    assert "assert-small" in capsys.readouterr().err


def test_negative_max_degree_exits_two(capsys):
    assert main(["invariants", "--module", _data("minus-id.json"),
                 "--max-degree", "-2"]) == 2
    capsys.readouterr()


def test_gjs_subcommand(capsys):
    assert main(["gjs", "--module", _data("minus-id.json"),
                 "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["holds"] is True and payload["strict"] is False


def test_trace_subcommand(capsys):
    assert main(["trace", "--module", _data("minus-id.json"),
                 "--max-degree", "4", "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["unimodular"] is True


def test_catalog_list_and_run(capsys):
    assert main(["catalog", "list"]) == 0
    assert "watanabe-minus-id" in capsys.readouterr().out
    assert main(["catalog", "run", "watanabe-minus-id"]) == 0
    assert "pass" in capsys.readouterr().out


def test_catalog_run_with_param(capsys):
    assert main(["catalog", "run", "uL", "--param", "p=3"]) == 0
    capsys.readouterr()
    assert main(["catalog", "run", "uL", "--param", "oops"]) == 2
    capsys.readouterr()
    assert main(["catalog", "run", "no-such-entry"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["uL", "--param", "p=x"],
    ["mu-semidirect-alpha", "--param", "l=x"],
    ["determinantal", "--param", "m=x"],
    ["mu-m-weights", "--param", "m=x"],
    ["mu-m-weights", "--param", "w=1,a"],
])
def test_catalog_non_integer_param_exits_two(argv, capsys):
    assert main(["catalog", "run", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("name, code", [("no-antipode", 2), ("non-unique", 1)])
def test_verify_hopf_without_usable_antipode(name, code, tmp_path, capsys):
    if name == "no-antipode":
        obj = {"field": "Q", "dim": 2, "basis": ["1", "z"], "unit": [1, 0],
               "counit": [1, 1],
               "mult": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 1, 1]],
               "comult": [[0, 0, 0, 1], [1, 1, 1, 1]]}
    else:
        obj = {"field": "Q", "dim": 1, "basis": ["b"], "unit": [1],
               "counit": [0], "mult": [], "comult": [[0, 0, 0, 1]]}
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(obj))
    assert main(["verify", str(p)]) == code
    err = capsys.readouterr().err
    assert ("admits no antipode" if code == 2 else "not unique") in err
    assert "Traceback" not in err


def test_catalog_param_without_name_exits_two(capsys):
    assert main(["catalog", "run", "--param", "p=3"]) == 2
    capsys.readouterr()


def test_json_output_byte_deterministic(capsys):
    args = ["classify", "--module", _data("minus-id.json"),
            "--max-degree", "6", "--output", "json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    # canonical form: keys sorted, trailing newline
    assert first == jsonio.canonical_json(json.loads(first))


def test_text_and_json_verdicts_agree(capsys):
    assert main(["knop", _data("mu3a5.json")]) == 0
    text = capsys.readouterr().out
    assert main(["knop", _data("mu3a5.json"), "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert ("trivial: false" in text) == (payload["trivial"] is False)
    assert "t^2" in text and payload["modular_route"] == "t^2"


def test_field_override_flag(tmp_path, capsys):
    # group algebra of C4 over Q reinterpreted over F2: no longer semisimple
    # but still a Hopf algebra; verify passes either way
    from knopf.catalog import cyclic_table
    from knopf.hopf import group_algebra

    obj = jsonio.hopf_to_json(group_algebra(jsonio.parse_field("Q"),
                                            cyclic_table(4)))
    p = tmp_path / "c4.json"
    p.write_text(json.dumps(obj))
    assert main(["verify", str(p), "--field", "Fp:2"]) == 0
    capsys.readouterr()


def test_molien_reads_the_constant_group_field(tmp_path, capsys):
    obj = {"constant_group": {"field": {"Fp": 3},
                              "matrices": [[[1, 0], [0, 1]], [[-1, 0], [0, -1]]]}}
    p = tmp_path / "minus-id-f3.json"
    p.write_text(json.dumps(obj))
    assert main(["molien", str(p)]) == 2
    err = capsys.readouterr().err
    assert "characteristic zero" in err and "Traceback" not in err


@pytest.mark.parametrize("edit", [
    lambda obj: obj["coaction"][0].__setitem__(0, 0.5),
    lambda obj: obj.__setitem__("dim", "4"),
    lambda obj: obj.__setitem__("labels", 5),
    lambda obj: obj.__setitem__("var_labels", ["x"]),
    lambda obj: obj.__setitem__("dim", 10**30),
], ids=["fractional-index", "string-dim", "labels-int", "short-var-labels",
        "huge-dim"])
def test_ill_typed_comodule_exits_two(tmp_path, capsys, edit):
    obj = json.load(open(_data("w-plus-wdual.json")))
    edit(obj)
    p = tmp_path / "broken-comodule.json"
    p.write_text(json.dumps(obj))
    assert main(["invariants", "--scheme", _data("mu3a5.json"),
                 "--module", str(p), "--max-degree", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


_MINUS_ID = [[[1, 0], [0, 1]], [[-1, 0], [0, -1]]]


@pytest.mark.parametrize("group", [
    {"matrices": 5},
    {"matrices": [5]},
    {"matrices": [[[1, 0], [0]]]},
    {"matrices": [[[1, 0], 0]]},
    {"matrices": _MINUS_ID, "var_labels": 5},
    {"matrices": _MINUS_ID, "field": {"Fp": 3.5}},
], ids=["matrices-int", "matrix-int", "ragged-row", "row-int", "var-labels-int",
        "float-modulus"])
def test_ill_typed_constant_group_exits_two(tmp_path, capsys, group):
    p = tmp_path / "broken-group.json"
    p.write_text(json.dumps({"constant_group": group}))
    assert main(["invariants", "--module", str(p), "--max-degree", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("key, value", [
    ("basis", 5),
    ("unit", 5),
    ("counit", "1000"),
    ("mult", 5),
    ("antipode", 5),
    ("antipode", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], 5]),
], ids=["basis-int", "unit-int", "counit-string", "mult-int", "antipode-int",
        "antipode-row-int"])
def test_ill_typed_hopf_exits_two(tmp_path, capsys, key, value):
    obj = json.load(open(_data("uL-p2.json")))
    obj[key] = value
    p = tmp_path / "broken-hopf.json"
    p.write_text(json.dumps(obj))
    assert main(["verify", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_coaction_that_is_not_a_comodule_is_refused(tmp_path, capsys):
    # the (0, 0) coaction entry becomes the basis element a instead of its
    # grouplike: `verify` reports the broken laws, and every command that
    # computes with the module refuses it instead of printing dimensions
    obj = json.load(open(_data("w-plus-wdual.json")))
    basis = json.load(open(_data("mu3a5.json")))["coordinate_ring"]["basis"]
    obj["coaction"][0][2] = [int(b == "a") for b in basis]
    p = tmp_path / "not-a-comodule.json"
    p.write_text(json.dumps(obj))
    (tmp_path / "mu3a5.json").write_text(open(_data("mu3a5.json")).read())
    assert main(["verify", str(p)]) == 1
    assert "comodule_counit" in capsys.readouterr().out
    for cmd in ("invariants", "classify", "gjs", "trace"):
        assert main([cmd, "--module", str(p), "--max-degree", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("check failed:") and "comodule_counit" in err
        assert "(0, 0)" in err and "Traceback" not in err


def test_molien_of_an_empty_group_exits_two(tmp_path, capsys):
    p = tmp_path / "empty-group.json"
    p.write_text(json.dumps({"matrices": []}))
    assert main(["molien", str(p)]) == 2
    err = capsys.readouterr().err
    assert "identity" in err and "Traceback" not in err


# -- fuzzing the JSON boundary ----------------------------------------------

_FUZZ_VALUES = [0.5, "x", None, [], {}, 10**30, {"Fp": 4}]
_FUZZ_COMMANDS = {
    "uL-p2.json": lambda path: ["verify", path],
    "mu3a5.json": lambda path: ["verify", path],
    "w-plus-wdual.json": lambda path: ["verify", path],
    "minus-id.json": lambda path: ["invariants", "--module", path, "--max-degree", "2"],
    "molien-minus-id.json": lambda path: ["molien", path],
}


def _node_paths(obj, prefix=()):
    """Paths to every node below the root, containers included."""
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _node_paths(child, prefix + (key,))


def _fixture(name):
    with open(_data(name)) as fh:
        return json.load(fh)


_FUZZ_PATHS = {name: list(_node_paths(_fixture(name))) for name in _FUZZ_COMMANDS}


def _mutations():
    return st.sampled_from(sorted(_FUZZ_COMMANDS)).flatmap(
        lambda name: st.tuples(st.just(name), st.lists(
            st.tuples(st.sampled_from(_FUZZ_PATHS[name]), st.sampled_from(_FUZZ_VALUES)),
            min_size=1, max_size=2)))


@given(_mutations())
@example(("molien-minus-id.json", [(("matrices",), [])]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_mutated_fixtures_exit_cleanly(case):
    """Any JSON the CLI reads gives exit 0, 1 or 2 and never a traceback."""
    name, edits = case
    obj = _fixture(name)
    for path, value in edits:
        node = obj
        try:
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = copy.deepcopy(value)
        except (LookupError, TypeError):
            pass  # an earlier edit replaced a container on this path
    with tempfile.TemporaryDirectory() as tmp:
        for fixture in os.listdir(os.path.dirname(_data(name))):
            shutil.copy(_data(fixture), tmp)
        path = os.path.join(tmp, "mutated-" + name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(_FUZZ_COMMANDS[name](path))
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
