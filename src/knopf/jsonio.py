"""JSON loading and canonical serialization for the command-line front door.

Input formats:
  Hopf algebra: {"field": "Q"|{"Fp": p}, "dim": n, "basis": [...],
                 "unit": [...], "counit": [...],
                 "mult": [[i, j, k, coeff], ...], "comult": [...],
                 "antipode": optional row-major matrix}
  Group scheme: {"coordinate_ring": <hopf object>, "label": optional}
  Comodule:     {"scheme": <inline scheme or file path>, "dim": n,
                 "coaction": [[i, j, [gamma coefficients]], ...]}
  Constant group shorthand: {"constant_group": {"matrices": [...],
                 "field": optional, "var_labels": optional}}

Scalars are integers, or strings like "2/3" for rationals.  Output JSON is
canonical: sorted keys, fixed separators, byte-deterministic.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from . import action as act
from .errors import InputError
from .exactalg import FieldSpec, SparseCoaction
from .gscheme import FiniteGroupScheme
from .hopf import HopfAlgebraData


def parse_field(spec) -> FieldSpec:
    """Accepts "Q", "Fp:<p>", or the JSON form {"Fp": p}."""
    if isinstance(spec, FieldSpec):
        return spec
    if spec == "Q":
        return FieldSpec.rationals()
    if isinstance(spec, str) and spec.startswith("Fp:"):
        try:
            return FieldSpec.prime(int(spec[3:]))
        except ValueError:
            raise InputError(f"bad field spec {spec!r:.40}; use Q or Fp:<prime>")
    if isinstance(spec, dict) and set(spec) == {"Fp"} and _is_int(spec["Fp"]):
        return FieldSpec.prime(spec["Fp"])
    raise InputError(f"bad field spec {spec!r:.40}; use \"Q\" or {{\"Fp\": p}}")


def field_to_json(field: FieldSpec):
    return "Q" if field.p is None else {"Fp": field.p}


def load_json(path: str):
    """The JSON object in the file at `path`; InputError naming the path when
    it cannot be read or parsed."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}")
    except UnicodeDecodeError:
        raise InputError(f"{path} is not UTF-8 text")
    except RecursionError:
        raise InputError(f"JSON in {path} is nested too deeply to read")
    except json.JSONDecodeError as e:
        raise InputError(
            f"malformed JSON in {path} at line {e.lineno}, column {e.colno}: "
            f"{e.msg}"
        )


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise InputError(f"{where}: missing required key {key!r}")
    return obj[key]


def _is_int(v) -> bool:
    """A JSON integer; true and false are not numbers here."""
    return isinstance(v, int) and not isinstance(v, bool)


def _scalar(field: FieldSpec, v, what: str):
    if isinstance(v, str):
        try:
            v = Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"{what}: bad scalar {v!r:.40}")
    elif not _is_int(v):
        raise InputError(f"{what}: a scalar must be an integer or a string, got {v!r:.40}")
    return field.coerce(v)


def _dim(obj: dict, where: str) -> int:
    n = _require(obj, "dim", where)
    if not _is_int(n) or n < 1:
        raise InputError(f"{where}: dim must be a positive integer, got {n!r}")
    return n


def _check_indices(indices, n: int, what: str):
    for idx in indices:
        if not _is_int(idx) or not 0 <= idx < n:
            raise InputError(f"{what}: an index must be an integer in 0..{n-1}, got {idx!r}")


def _list(value, what: str, length: int | None = None) -> list:
    if not isinstance(value, list) or length is not None and len(value) != length:
        size = "a list" if length is None else f"a list of {length}"
        raise InputError(f"{what}: expected {size}, got {value!r:.40}")
    return value


def _vector(field: FieldSpec, values, n: int, what: str) -> list:
    return [_scalar(field, v, what) for v in _list(values, what, n)]


def _matrix(field: FieldSpec, rows, n: int, what: str) -> list:
    """An n x n matrix given as a list of n rows of n scalars."""
    return [_vector(field, row, n, f"{what} row") for row in _list(rows, what, n)]


def _labels(obj: dict, key: str, n: int):
    labels = obj.get(key)
    if labels is not None and not all(isinstance(v, str) for v in _list(labels, key, n)):
        raise InputError(f"{key}: expected {n} strings")
    return labels


def _triples(field: FieldSpec, triples, n: int, what: str) -> SparseCoaction:
    """The (n, n, n) array of [i, j, k, coeff] entries, a later entry at an
    index replacing an earlier one."""
    entries = []
    for entry in _list(triples, what):
        if not isinstance(entry, list) or len(entry) != 4:
            raise InputError(f"{what}: entries must be [i, j, k, coeff]")
        i, j, k, c = entry
        _check_indices((i, j, k), n, what)
        entries.append((i, j, k, _scalar(field, c, what)))
    return SparseCoaction.from_entries(entries, n, n)


def hopf_from_json(obj: dict, field_override: FieldSpec | None = None) -> HopfAlgebraData:
    if not isinstance(obj, dict):
        raise InputError("hopf algebra: expected a JSON object")
    field = field_override or parse_field(_require(obj, "field", "hopf algebra"))
    n = _dim(obj, "hopf algebra")
    basis = _list(_require(obj, "basis", "hopf algebra"), "hopf algebra basis", n)
    unit = _vector(field, _require(obj, "unit", "hopf algebra"), n, "unit")
    counit = _vector(field, _require(obj, "counit", "hopf algebra"), n, "counit")
    mult = _triples(field, _require(obj, "mult", "hopf algebra"), n, "mult")
    comult = _triples(field, _require(obj, "comult", "hopf algebra"), n, "comult")
    antipode = None
    if obj.get("antipode") is not None:
        antipode = _matrix(field, obj["antipode"], n, "antipode")
    return HopfAlgebraData(field, [str(b) for b in basis], unit, mult,
                           counit=counit, comult=comult, antipode=antipode)


def _sparse3(field: FieldSpec, t: SparseCoaction):
    """[i, j, k, coeff] of the nonzeros in C order (np.argwhere order)."""
    return [[i, j, k, field.fmt(v)] for i, j, k, v in sorted(t.entries())]


def hopf_to_json(h: HopfAlgebraData) -> dict:
    f = h.field
    out = {
        "field": field_to_json(f),
        "dim": h.dim,
        "basis": list(h.basis),
        "unit": [f.fmt(v) for v in h.unit],
        "counit": [f.fmt(v) for v in h.counit],
        "mult": _sparse3(f, h.mult),
        "comult": _sparse3(f, h.comult),
    }
    if h.antipode is not None:
        rows = [[f.fmt(f.zero)] * h.dim for _ in range(h.dim)]
        for a, j, _, v in h.antipode.entries():
            rows[a][j] = f.fmt(v)
        out["antipode"] = rows
    return out


def scheme_from_json(obj, field_override: FieldSpec | None = None,
                     base_dir: str = ".") -> FiniteGroupScheme:
    if isinstance(obj, str):
        obj = load_json(os.path.join(base_dir, obj))
    if not isinstance(obj, dict):
        raise InputError("group scheme: expected a JSON object or file path")
    ring = _require(obj, "coordinate_ring", "group scheme")
    gamma = hopf_from_json(ring, field_override)
    return FiniteGroupScheme(gamma, label=obj.get("label"))


def scheme_to_json(scheme: FiniteGroupScheme) -> dict:
    out = {"coordinate_ring": hopf_to_json(scheme.gamma)}
    if scheme.label:
        out["label"] = scheme.label
    return out


def comodule_from_json(obj: dict, scheme: FiniteGroupScheme | None = None,
                       field_override: FieldSpec | None = None,
                       base_dir: str = ".") -> act.Comodule:
    if not isinstance(obj, dict):
        raise InputError("comodule: expected a JSON object")
    if scheme is None:
        if "scheme" not in obj:
            raise InputError(
                "comodule: no scheme given inline and none supplied separately"
            )
        scheme = scheme_from_json(obj["scheme"], field_override, base_dir)
    n = _dim(obj, "comodule")
    entries = _list(_require(obj, "coaction", "comodule"), "coaction")
    if n > len(entries):
        # checked before the n + 1 column pointers are allocated
        raise InputError(f"comodule: dim {n} exceeds the {len(entries)} coaction "
                         "entries, and the counit law needs an (i, i) entry for every i")
    f, coact = scheme.field, []
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 3:
            raise InputError("coaction entries must be [i, j, [coefficients]]")
        i, j, coeffs = entry
        _check_indices((i, j), n, "coaction")
        if not isinstance(coeffs, list) or len(coeffs) != scheme.order:
            raise InputError(
                f"coaction entry ({i},{j}): expected {scheme.order} coefficients"
            )
        # zeros too: a later [i, j] entry replaces an earlier one as a whole
        coact += [(i, j, t, _scalar(f, c, "coaction")) for t, c in enumerate(coeffs)]
    return act.Comodule(scheme, SparseCoaction.from_entries(coact, n, scheme.order),
                        labels=_labels(obj, "labels", n))


def comodule_to_json(module: act.Comodule, scheme_ref: str | None = None) -> dict:
    """Serialize a comodule; scheme_ref (a file path) replaces the inline scheme."""
    f, rows = module.scheme.field, {}
    # the nonzero (i, j) in C order, each with all its coefficients
    for i, j, g, v in sorted(module.coaction.entries()):
        rows.setdefault((i, j), [f.fmt(f.zero)] * module.scheme.order)[g] = f.fmt(v)
    out = {
        "scheme": scheme_ref if scheme_ref else scheme_to_json(module.scheme),
        "dim": module.dim,
        "coaction": [[i, j, coeffs] for (i, j), coeffs in rows.items()],
    }
    if module.labels:
        out["labels"] = list(module.labels)
    return out


def constant_group_from_json(cg, field_override: FieldSpec | None = None):
    """(field, matrices) of {"matrices": [...], "field": optional}.

    The field is the override if one is given, else the object's own "field",
    else Q; the matrices are parsed over it.
    """
    if not isinstance(cg, dict):
        raise InputError("constant_group: expected a JSON object")
    mats = _list(_require(cg, "matrices", "constant_group"), "constant_group matrices")
    field = field_override or (
        parse_field(cg["field"]) if "field" in cg else FieldSpec.rationals()
    )
    n = len(_list(mats[0], "constant_group matrix")) if mats else 0
    _labels(cg, "var_labels", n)
    return field, [_matrix(field, m, n, "constant_group matrix") for m in mats]


def action_from_json(obj: dict, scheme: FiniteGroupScheme | None = None,
                     field_override: FieldSpec | None = None,
                     base_dir: str = ".") -> act.GradedInvariantRing:
    """A graded invariant ring from either comodule JSON or the constant-group
    shorthand {"constant_group": {"matrices": [...]}}."""
    if isinstance(obj, dict) and "constant_group" in obj:
        cg = obj["constant_group"]
        field, mats = constant_group_from_json(cg, field_override)
        return act.constant_group_action(
            field, mats, var_labels=cg.get("var_labels"), label=obj.get("label"),
        )
    module = comodule_from_json(obj, scheme, field_override, base_dir)
    return act.GradedInvariantRing(module, label=obj.get("label"),
                                   var_labels=_labels(obj, "var_labels", module.dim))


def canonical_json(payload) -> str:
    """Stable serialization: sorted keys, fixed separators, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2,
                      separators=(",", ": "), ensure_ascii=True) + "\n"
