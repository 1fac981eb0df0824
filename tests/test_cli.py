"""Command-line behavior: exit codes, output formats, determinism."""

import copy
import functools
import hashlib
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knopf import action as act
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


# sha256 of the canonical bytes on kS3-rescaled.json: the group algebra of
# S3 over Q in the basis b_i = c_i g_i, c = (2/3, 3/2, -1/2, 5/4, 2, -4/3), so
# unit, counit, mult, comult and antipode all hold non-integral constants.
# Recorded while the structure constants were still integers over a shared
# scale; the bytes must not depend on how scalars are held.
RESCALED_KS3_PINS = {
    "hopf_to_json": "580f11c3df81d9fc8c41a83eff931779dec22e358011c913258555706117eb2a",
    "verify": "ce9c6d470f1e0a66614cffba7b586c76159bbdd5a14caeb64e3f79732bb2c471",
    "integrals": "5582554a07ced65b25f9f232b1d8fca90e0017a9705a03772e1bfbf5ff2adb6e",
    "unimodular": "f266efb831dc782218e3dddf74f916df1df0e33e2d9db906601242f641bf48cb",
    "symmetric": "396734a4c06822cd5367b3d582dc61099aebc74dce5c077a69a51e6aca5b8a0a",
}


@pytest.mark.parametrize("what", sorted(RESCALED_KS3_PINS))
def test_rational_bytes_are_pinned(what, capsys):
    path = _data("kS3-rescaled.json")
    if what == "hopf_to_json":
        with open(path) as fh:
            text = jsonio.canonical_json(jsonio.hopf_to_json(jsonio.hopf_from_json(json.load(fh))))
    else:
        assert main([what, path, "--output", "json"]) == 0
        text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == RESCALED_KS3_PINS[what]


def test_malformed_json_exits_two(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"dim": 2,')
    assert main(["verify", str(p)]) == 2
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize("kind, message", [
    ("directory", "Is a directory"),
    ("latin-1", "is not UTF-8 text"),
    ("nested", "nested too deeply"),
], ids=["directory", "latin-1", "nested"])
def test_unreadable_input_exits_two(kind, message, tmp_path, capsys):
    path = tmp_path / f"{kind}.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "latin-1":
        path.write_bytes('{"label": "m\xfcller"}'.encode("latin-1"))
    else:
        path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err and message in err
    assert "Traceback" not in err


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


def test_classify_refuses_a_determinant_past_its_budget(monkeypatch, capsys):
    # W+W* has dim 4, whose widest minor level holds C(4, 2) = 6 column sets:
    # with a budget of 5 the determinant is refused by name before any dense
    # coaction is built, as a dim-3000 comodule is at the real budget
    monkeypatch.setattr(act, "DET_SET_BUDGET", 5)
    assert main(["classify", "--scheme", _data("mu3a5.json"),
                 "--module", _data("w-plus-wdual.json"),
                 "--assert-small", "--max-degree", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the determinant of a dim-4 comodule needs C(4, 2)")
    assert "DET_SET_BUDGET = 5" in err and "Traceback" not in err


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


def _cube_rotations():
    """The signed permutation matrices of determinant 1."""
    out = []
    for perm in itertools.permutations(range(3)):
        inversions = sum(perm[a] > perm[b] for a in range(3) for b in range(a + 1, 3))
        for signs in itertools.product((1, -1), repeat=3):
            if (-1) ** inversions * signs[0] * signs[1] * signs[2] == 1:
                out.append([[signs[r] * int(perm[r] == c) for c in range(3)] for r in range(3)])
    return out


# sha256 of `knopf trace --output json`, recorded from the dense trace matrix
# the report was first computed with.  The report carries no label and Tr is
# the sum over the group, so the cube's bytes do not depend on the order of
# its matrices.
TRACE_PINS = {
    ("w-plus-wdual.json", 8): "19865be3a019f583f52795794a84ff50b34225a6a21c36ce88d3840bbac8fcff",
    ("w-plus-wdual.json", 16): "8f8d8d35dadd6b7bbb3ccde305e36bec477c1d9717c4c72caf50cc3a9010f343",
    ("cube", 8): "3d403410699e3759429ea9ba9d53619c910bb4f86b8a7c9a17577777a0ee31f2",
    ("cube", 16): "a8c3fbc6afe7ff37ddc20939b58a4ec10caf34b89b7f670edc488d443144ee5a",
    ("minus-id.json", None): "538b72e50250ee1e41c07b67f0ad00a5dc01afd081267723fa87b5419761937d",
}


@pytest.mark.parametrize("name, window", sorted(TRACE_PINS, key=str),
                         ids=lambda x: str(x))
def test_trace_bytes_are_pinned(name, window, tmp_path, capsys):
    path = _data(name)
    if name == "cube":
        path = tmp_path / "cube.json"
        path.write_text(json.dumps({"constant_group": {"matrices": _cube_rotations()}}))
    args = ["trace", "--module", str(path), "--output", "json"]
    assert main(args + ([] if window is None else ["--max-degree", str(window)])) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == TRACE_PINS[name, window]


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


def _without_clock(text: str) -> str:
    """Catalog JSON output without its one wall-clock field."""
    out = json.loads(text)
    for r in out["results"]:
        del r["elapsed_seconds"]
    return json.dumps(out, sort_keys=True)


def test_reused_argument_tree_matches_fresh_processes(capsys):
    # the argument tree is built once per process: a --param given to one
    # call must not leak into the next through its append default
    runs = [["uL", "--param", "p=3"], ["uL", "--param", "p=3"], ["uL"]]
    reused = []
    for argv in runs:
        assert main(["catalog", "run", *argv, "--output", "json"]) == 0
        reused.append(_without_clock(capsys.readouterr().out))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    fresh = [_without_clock(subprocess.run(
        [sys.executable, "-c", "import sys; from knopf.cli import main; sys.exit(main())",
         "catalog", "run", *argv, "--output", "json"],
        env=env, capture_output=True, text=True, check=True).stdout) for argv in runs]
    assert reused == fresh
    assert reused[0] != reused[2]


@pytest.mark.parametrize("obj", [
    {"matrices": [[[1, 0], [0, 1]]], "field": "x" * 3000},
    {"matrices": [[["1" * 3000 + "/0", 0], [0, 1]]]},
    {"matrices": [[[1, 0], [0, 1]]], "field": functools.reduce(lambda x, _: [x], range(900), "Q")},
    {"matrices": [[[1, 0], [0, 1]]], "field": {"Fp": 10**3000}},
], ids=["long-field", "long-rational", "deep-field", "long-modulus"])
def test_error_messages_bound_the_values_they_echo(obj, tmp_path, capsys):
    p = tmp_path / "in.json"
    p.write_text(json.dumps(obj))
    assert main(["molien", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.encode()) < 200


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


# more commands run on the same mutated fixture
_FUZZ_MORE = {
    "uL-p2.json": [lambda path: ["symmetric", path]],
    "mu3a5.json": [lambda path: ["knop", path]],
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
        for command in [_FUZZ_COMMANDS[name], *_FUZZ_MORE.get(name, ())]:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(command(path))
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()


def test_json_booleans_are_not_numbers(tmp_path, capsys):
    # Python reads true as 1: this object once verified, with integrals [["1"]]
    obj = {"field": "Q", "dim": True, "basis": ["b"], "unit": [True], "counit": [True],
           "mult": [[False, False, False, True]], "comult": [[False, False, False, True]]}
    p = tmp_path / "booleans.json"
    p.write_text(json.dumps(obj))
    for cmd in ("verify", "integrals"):
        assert main([cmd, str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: hopf algebra: dim must be a positive integer")
        assert "Traceback" not in err


@pytest.mark.parametrize("name, path, key", [
    ("uL-p2.json", ("dim",), "dim"),
    ("uL-p2.json", ("field", "Fp"), "Fp"),
    ("uL-p2.json", ("unit", 0), "unit"),
    ("uL-p2.json", ("mult", 0, 0), "mult"),
    ("uL-p2.json", ("mult", 0, 3), "mult"),
    ("uL-p2.json", ("antipode", 0, 0), "antipode"),
    ("w-plus-wdual.json", ("coaction", 0, 0), "coaction"),
    ("w-plus-wdual.json", ("coaction", 0, 2, 5), "coaction"),
    ("minus-id.json", ("constant_group", "matrices", 1, 0, 0), "constant_group matrix"),
], ids=["dim", "field", "unit", "mult-index", "mult-coeff", "antipode", "coaction-index",
        "coaction-coeff", "matrix-entry"])
def test_a_boolean_for_a_number_names_its_key(name, path, key, tmp_path, capsys):
    # each number becomes the boolean Python equates with it, so only the
    # type is wrong
    for fixture in os.listdir(os.path.dirname(_data(name))):
        shutil.copy(_data(fixture), tmp_path)
    obj = _fixture(name)
    node = obj
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = bool(node[path[-1]])
    p = tmp_path / ("bool-" + name)
    p.write_text(json.dumps(obj))
    assert main(_FUZZ_COMMANDS[name](str(p))) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err and "Traceback" not in err


def _one_triple_hopf(n, counit_index):
    e = lambda k: [int(i == k) for i in range(n)]
    return {"field": {"Fp": 5}, "dim": n, "basis": [f"b{i}" for i in range(n)],
            "unit": e(0), "counit": e(counit_index),
            "mult": [[0, 0, 0, 1]], "comult": [[0, 0, 0, 1]]}


@pytest.mark.parametrize("counit_index, code, message", [
    (0, 1, "check failed: antipode not unique; data is not a bialgebra"),
    (1, 2, "error: bialgebra admits no antipode"),
], ids=["non-unique", "no-antipode"])
def test_verify_of_a_dimension_3000_hopf_object_stays_sparse(
        counit_index, code, message, tmp_path, capsys):
    # the structure constants are loaded by their one nonzero each: the
    # verdict of dimension 3000 is the one of dimension 2, in a few MB where
    # a dense (n, n, n) array would take 201 GiB
    for n in (2, 3000):
        p = tmp_path / f"one-triple-{n}.json"
        p.write_text(json.dumps(_one_triple_hopf(n, counit_index)))
        tracemalloc.start()
        try:
            assert main(["verify", str(p)]) == code
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert err.strip() == message and "Traceback" not in err
        assert peak < 20 * 2**20


def test_verify_refuses_an_antipode_system_over_the_term_budget(tmp_path, capsys):
    # dense unit and counit with one product: 2 * 3000^2 right-hand-side
    # rows would be held, so the input is refused by name before any is built
    obj = _one_triple_hopf(3000, 0)
    obj["unit"] = obj["counit"] = [1] * 3000
    p = tmp_path / "dense-unit.json"
    p.write_text(json.dumps(obj))
    tracemalloc.start()
    try:
        assert main(["verify", str(p)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.startswith("error: the antipode system needs 18000000 sparse terms")
    assert "TERM_BUDGET" in err and "Traceback" not in err
    assert peak < 20 * 2**20


@pytest.mark.parametrize("command", ["knop", "integrals", "unimodular", "symmetric"])
def test_commands_refuse_a_scheme_that_fails_its_axioms(command, tmp_path, capsys):
    # one coproduct term of k[mu_3 x| alpha_5] dropped: `verify` names the
    # failing check, and no other command computes a verdict on the object
    obj = _fixture("mu3a5.json")
    del obj["coordinate_ring"]["comult"][7]
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(obj))
    assert main(["verify", str(p)]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if "[FAIL]" in line]
    assert failed[0] == "  [FAIL] counit_right (first mismatch at (3, 3))"
    assert main([command, str(p), "--output", "json"]) == 1
    out, err = capsys.readouterr()
    what = "a group scheme" if command == "knop" else "a Hopf algebra"
    assert out == ""
    assert err == f"check failed: {p} is not {what}: counit_right fails at (3, 3)\n"


def test_invariants_refuse_a_scheme_that_fails_its_axioms(tmp_path, capsys):
    # the comodule W + W* over the same broken scheme, given on the command line
    scheme = _fixture("mu3a5.json")
    del scheme["coordinate_ring"]["comult"][7]
    (tmp_path / "broken.json").write_text(json.dumps(scheme))
    module = _fixture("w-plus-wdual.json")
    module.pop("scheme", None)
    (tmp_path / "module.json").write_text(json.dumps(module))
    argv = ["invariants", "--module", str(tmp_path / "module.json"),
            "--scheme", str(tmp_path / "broken.json"), "--max-degree", "2"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == (f"check failed: {tmp_path / 'broken.json'} is not a group scheme: "
                   "counit_right fails at (3, 3)\n")
