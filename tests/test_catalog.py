"""Worked-example registry: frozen expectations, sweeps, parallel determinism."""

import hashlib

import pytest

from knopf import catalog
from knopf.errors import InputError
from knopf.jsonio import canonical_json


def test_cyclic_and_dihedral_tables_are_groups():
    from knopf.hopf import group_algebra
    from knopf.exactalg import FieldSpec

    Q = FieldSpec.rationals()
    # the constructor validates identity/associativity/inverses
    assert group_algebra(Q, catalog.cyclic_table(5)).dim == 5
    assert group_algebra(Q, catalog.dihedral_table(4)).dim == 8


def test_radford_battery_size_and_labels():
    battery = catalog.radford_battery()
    labels = [name for name, _ in battery]
    assert len(battery) >= 10
    assert len(set(labels)) == len(labels)


def test_run_single_entry():
    res = catalog.run("watanabe-minus-id")
    assert res.passed
    assert res.entry == "watanabe-minus-id"
    assert all(c.passed for c in res.checks)


def test_run_with_parameters():
    res = catalog.run("uL", p=3)
    assert res.passed
    assert res.params == {"p": 3}
    weights = catalog.run("mu-m-weights", m=3, w="1,1")
    assert weights.passed


@pytest.mark.parametrize("m, n", [(4, 1), (1, 3), (3, 1)])
def test_determinantal_with_a_single_row_or_column(m, n):
    # no 2x2 minors: the invariant ring is a polynomial ring, Gorenstein
    res = catalog.run("determinantal", m=m, n=n)
    assert res.passed, [c for c in res.checks if not c.passed]


@pytest.mark.filterwarnings("ignore:outside the ell odd prime")
def test_mu_semidirect_alpha_with_trivial_mu():
    # ell = 1 is alpha_5 alone: t is 1, and the standard module [[1, a], [0, 1]]
    assert catalog.run("mu-semidirect-alpha", l=1, p=5).passed


def test_run_unknown_entry_raises():
    with pytest.raises(InputError):
        catalog.run("no-such-entry")


def test_run_rejects_bad_parameters():
    with pytest.raises(InputError):
        catalog.run("uL", p=4)
    with pytest.raises(InputError):
        catalog.run("uL", p=2.9)  # not truncated to p = 2


def test_run_all_default_sweeps_green():
    results = catalog.run_all()
    assert len(results) >= 10
    for r in results:
        assert r.passed, f"{r.entry} {r.params}: " + "; ".join(
            f"{c.name} expected {c.expected} got {c.actual}"
            for c in r.checks if not c.passed
        )


def test_run_all_parallel_matches_sequential():
    seq = catalog.run_all(jobs=1)
    par = catalog.run_all(jobs=2)
    assert [(r.entry, r.params) for r in seq] == [(r.entry, r.params) for r in par]
    for a, b in zip(seq, par):
        assert a.passed == b.passed
        assert [(c.name, c.passed, str(c.expected), str(c.actual))
                for c in a.checks] == \
               [(c.name, c.passed, str(c.expected), str(c.actual))
                for c in b.checks]


def test_entry_result_serialization():
    res = catalog.run("o2-lie-check")
    d = res.to_dict()
    assert d["entry"] == "o2-lie-check"
    assert d["passed"] is True
    assert isinstance(d["checks"], list) and d["checks"]
    assert {"name", "passed", "expected", "actual"} <= set(d["checks"][0])


def test_list_entries_exposes_defaults():
    entries = catalog.list_entries()
    names = {e["name"] for e in entries}
    assert "watanabe-minus-id" in names
    assert "determinantal" in names
    ul = next(e for e in entries if e["name"] == "uL")
    assert {"p": 2} in ul["default_runs"]


# sha256 of the catalog's canonical JSON, recorded before the fixed-space and
# elimination refactor; any change to a verdict, witness or label moves them.
RUN_ALL_SHA256 = "df310f362cb4b9b825d8eb19db5a8284cf7f6f97b9e5290317fbd034a38403f6"
LIST_ENTRIES_SHA256 = "4b4acb1b80a24accbcbb7e0cc6823d11bca7ef989140ec62924e45a62f9c0b7f"


def _sha256(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def test_catalog_bytes_are_pinned():
    results = [r.to_dict() for r in catalog.run_all()]
    for r in results:
        del r["elapsed_seconds"]  # the one wall-clock field
    assert _sha256(results) == RUN_ALL_SHA256
    assert _sha256(catalog.list_entries()) == LIST_ENTRIES_SHA256
