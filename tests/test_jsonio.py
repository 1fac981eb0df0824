"""JSON schemas: round-trips, field parsing, canonical serialization."""

import json
import os

import pytest

from knopf import action as act
from knopf import exactalg as xa
from knopf import gscheme as gs
from knopf import jsonio
from knopf.catalog import standard_module, u_l_hopf
from knopf.errors import InputError
from knopf.exactalg import FieldSpec

F5 = FieldSpec.prime(5)


def test_parse_field_forms():
    assert jsonio.parse_field("Q") == FieldSpec.rationals()
    assert jsonio.parse_field("Fp:5") == F5
    assert jsonio.parse_field({"Fp": 3}) == FieldSpec.prime(3)
    with pytest.raises(InputError):
        jsonio.parse_field("GF(4)")
    with pytest.raises(InputError):
        jsonio.parse_field({"Fp": 6})


def test_field_to_json_round_trip():
    for f in (FieldSpec.rationals(), FieldSpec.prime(7)):
        assert jsonio.parse_field(jsonio.field_to_json(f)) == f


def test_hopf_round_trip():
    h = u_l_hopf(3)
    back = jsonio.hopf_from_json(jsonio.hopf_to_json(h))
    assert back.basis == h.basis
    assert back.mult == h.mult
    assert back.comult == h.comult
    assert back.antipode == h.antipode
    assert back.field == h.field


def test_hopf_round_trip_rational_coefficients():
    from knopf.hopf import group_algebra
    from knopf.catalog import cyclic_table

    h = group_algebra(FieldSpec.rationals(), cyclic_table(3)).dual()
    back = jsonio.hopf_from_json(jsonio.hopf_to_json(h))
    assert back.mult == h.mult
    assert back.comult == h.comult


def test_hopf_from_json_solves_missing_antipode():
    h = u_l_hopf(2)
    obj = jsonio.hopf_to_json(h)
    del obj["antipode"]
    back = jsonio.hopf_from_json(obj)
    assert back.antipode == h.antipode


def test_scheme_round_trip_keeps_label():
    g = gs.mu_semidirect_alpha_scheme(F5, 3)
    back = jsonio.scheme_from_json(jsonio.scheme_to_json(g))
    assert back.label == g.label
    assert back.order == g.order
    assert back.gamma.comult == g.gamma.comult


def test_comodule_round_trip_inline_scheme():
    g = gs.mu_semidirect_alpha_scheme(F5, 3)
    w = standard_module(g, 3, 5)
    back = jsonio.comodule_from_json(jsonio.comodule_to_json(w))
    assert back.dim == 2
    assert xa.arrays_equal(back.coaction.to_dense(F5), w.coaction.to_dense(F5))
    assert back.labels == w.labels


def _diagonal_comodule(dim: int) -> dict:
    """W + W* over mu_3 x| alpha_5 cut to its diagonal and repeated to `dim`:
    a sum of characters, by reference to tests/data/mu3a5.json."""
    with open(os.path.join(os.path.dirname(__file__), "data", "w-plus-wdual.json")) as fh:
        obj = json.load(fh)
    diag = [c for i, j, c in obj["coaction"] if i == j]
    return {"scheme": os.path.join(os.path.dirname(__file__), "data", "mu3a5.json"),
            "dim": dim, "coaction": [[i, i, diag[i % 4]] for i in range(dim)]}


def test_a_large_diagonal_comodule_is_held_by_its_nonzeros(tmp_path):
    from knopf.cli import main
    obj = _diagonal_comodule(1000)
    module = jsonio.comodule_from_json(obj)
    # the dense (1000, 1000, 15) int64 array would take 120 MB
    assert module.dim == 1000 and module.coaction.nbytes < 1 << 20
    path = tmp_path / "diagonal.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 0
    # the tower's multiplication table holds its 15000 entries once; one copy
    # per row L <= j would be n(n+1)/2 |G| = 7.5 M rows, 240 MB
    tower = act.GradedInvariantRing(module).tower
    assert sum(a.nbytes for a in tower._table) < 1 << 20
    assert main(["invariants", "--module", str(path), "--max-degree", "1"]) == 0


def test_a_repeated_coaction_entry_replaces_the_earlier_one_whole():
    g = gs.mu_semidirect_alpha_scheme(F5, 3)
    obj = jsonio.comodule_to_json(standard_module(g, 3, 5))
    (i, j, first), one = obj["coaction"][1], [1] + [0] * 14
    assert (i, j) == (0, 1) and first != [0] * 15
    # a later [0, 1] entry of zeros drops the earlier one; the unit at (0, 0)
    # replaces the t it held, zeros included
    obj["coaction"] += [[0, 1, [0] * 15], [0, 0, one]]
    back = jsonio.comodule_from_json(obj)
    dense = back.coaction.to_dense(F5)
    assert not dense[0, 1].any() and dense[0, 0].tolist() == one
    assert [e[:2] for e in jsonio.comodule_to_json(back)["coaction"]] == [[0, 0], [1, 1]]


def test_comodule_scheme_by_file_reference(tmp_path):
    g = gs.mu_semidirect_alpha_scheme(F5, 3)
    w = standard_module(g, 3, 5)
    (tmp_path / "g.json").write_text(
        jsonio.canonical_json(jsonio.scheme_to_json(g))
    )
    obj = jsonio.comodule_to_json(w, scheme_ref="g.json")
    back = jsonio.comodule_from_json(obj, base_dir=str(tmp_path))
    assert xa.arrays_equal(back.coaction.to_dense(F5), w.coaction.to_dense(F5))


def test_action_from_json_constant_shorthand():
    obj = {
        "constant_group": {
            "matrices": [[[1, 0], [0, 1]], [[-1, 0], [0, -1]]],
        },
        "label": "<-I>",
    }
    ring = jsonio.action_from_json(obj)
    assert isinstance(ring, act.GradedInvariantRing)
    assert ring.constant_matrices is not None
    assert ring.hilbert_function(4) == [1, 0, 3, 0, 5]


def test_load_json_reports_line_and_column(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"dim": 1,\n  "oops}')
    with pytest.raises(InputError) as err:
        jsonio.load_json(str(p))
    assert "line" in str(err.value)


def test_malformed_structure_triples():
    h = jsonio.hopf_to_json(u_l_hopf(2))
    h["mult"] = [[99, 0, 0, 1]]
    with pytest.raises(InputError):
        jsonio.hopf_from_json(h)


def test_coaction_entry_validation():
    g = gs.mu_semidirect_alpha_scheme(F5, 3)
    obj = jsonio.comodule_to_json(standard_module(g, 3, 5))
    obj["coaction"][0] = [5, 0, obj["coaction"][0][2]]
    with pytest.raises(InputError):
        jsonio.comodule_from_json(obj)


def test_canonical_json_is_deterministic():
    payload = {"b": [3, 1], "a": {"y": 2, "x": 1}}
    s1 = jsonio.canonical_json(payload)
    s2 = jsonio.canonical_json(json.loads(s1))
    assert s1 == s2
    assert s1.endswith("\n")
    assert s1.index('"a"') < s1.index('"b"')


def test_field_override_changes_coefficient_domain():
    from knopf.hopf import group_algebra
    from knopf.catalog import cyclic_table

    obj = jsonio.hopf_to_json(group_algebra(FieldSpec.rationals(),
                                            cyclic_table(4)))
    h5 = jsonio.hopf_from_json(obj, field_override=F5)
    assert h5.field == F5
    assert h5.verify_axioms().ok


def test_frozen_fixture_files_parse(data_dir):
    h = jsonio.hopf_from_json(jsonio.load_json(os.path.join(data_dir, "uL-p2.json")))
    assert h.dim == 4 and not h.is_unimodular()
    g = jsonio.scheme_from_json(
        jsonio.load_json(os.path.join(data_dir, "mu3a5.json")))
    assert g.order == 15
    ring = jsonio.action_from_json(
        jsonio.load_json(os.path.join(data_dir, "w-plus-wdual.json")),
        base_dir=data_dir,
    )
    assert ring.n == 4
