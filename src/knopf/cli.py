"""Command-line front door: load JSON inputs, dispatch, emit reports.

Exit codes: 0 = ran to completion (verdicts are report content), 1 = a check
or expectation failed (axiom violations, catalog mismatches, internal
inconsistencies), 2 = input or usage errors.  Every command but `verify`
checks the axioms of the objects it reads first and exits 1 on a failure.
JSON output is canonical and byte-deterministic; text output carries the
same verdicts.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import action as act
from . import canon, catalog, jsonio
from .errors import (
    CheckFailure,
    InconsistencyError,
    InputError,
    KnopfError,
    NonTerminationError,
    UndecidedError,
    UnsupportedCaseError,
)


def _common(sub, degree=False, small=False):
    sub.add_argument("--field", help="override the base field: Q or Fp:<p>")
    sub.add_argument("--output", choices=("text", "json"), default="text")
    if degree:
        sub.add_argument("--max-degree", type=int, default=None,
                         help="inspection window (default 2n+4)")
    if small:
        sub.add_argument("--assert-small", action="store_true",
                         help="assert smallness when it cannot be verified")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="knopf",
        description="Hopf algebra integrals, group scheme characters, and "
                    "invariant-ring classification.",
    )
    sp = p.add_subparsers(dest="command", required=True)

    s = sp.add_parser("verify", help="check structure axioms of a JSON object")
    s.add_argument("path")
    _common(s)

    s = sp.add_parser("integrals", help="left/right integral spaces")
    s.add_argument("path")
    s.add_argument("--side", choices=("left", "right", "both"), default="both")
    _common(s)

    s = sp.add_parser("unimodular", help="is the Hopf algebra unimodular")
    s.add_argument("path")
    _common(s)

    s = sp.add_parser("symmetric", help="symmetric / Frobenius verdicts")
    s.add_argument("path")
    _common(s)

    s = sp.add_parser("knop", help="Knop character of a finite group scheme")
    s.add_argument("path")
    _common(s)

    s = sp.add_parser("invariants", help="invariant dimensions degree by degree")
    s.add_argument("--module", required=True)
    s.add_argument("--scheme")
    _common(s, degree=True)

    s = sp.add_parser("molien", help="Molien series of a constant matrix group")
    s.add_argument("path")
    _common(s, degree=True)

    s = sp.add_parser("classify", help="seven-condition classification report")
    s.add_argument("--module", required=True)
    s.add_argument("--scheme")
    s.add_argument("--label")
    _common(s, degree=True, small=True)

    s = sp.add_parser("gjs", help="a(A) <= -n inequality check")
    s.add_argument("--module", required=True)
    s.add_argument("--scheme")
    _common(s, degree=True, small=True)

    s = sp.add_parser("trace", help="trace map properties over a degree window")
    s.add_argument("--module", required=True)
    s.add_argument("--scheme")
    _common(s, degree=True)

    s = sp.add_parser("catalog", help="worked examples with frozen expectations")
    s.add_argument("action", choices=("list", "run"))
    s.add_argument("name", nargs="?")
    s.add_argument("--param", action="append", default=[],
                   help="entry parameter as key=value; repeatable")
    s.add_argument("--jobs", type=int, default=1,
                   help="parallel workers for run-all")
    _common(s)

    return p


def _refuse(report, path: str, what: str) -> None:
    """`knopf verify` reports every check; the other commands refuse to
    compute on an object that fails one, naming the first and its witness."""
    bad = report.failures
    if bad:
        raise CheckFailure(f"{path} is not {what}: {bad[0].name} fails at {bad[0].witness}")


def _load_hopf(args):
    obj = jsonio.load_json(args.path)
    if isinstance(obj, dict) and "coordinate_ring" in obj:
        h = jsonio.scheme_from_json(obj, args.field, os.path.dirname(args.path) or ".").gamma
    else:
        h = jsonio.hopf_from_json(obj, args.field)
    _refuse(h.verify_axioms(), args.path, "a Hopf algebra")
    return h


def _load_ring(args) -> act.GradedInvariantRing:
    scheme = None
    base = os.path.dirname(args.module) or "."
    if args.scheme:
        scheme = jsonio.scheme_from_json(
            jsonio.load_json(args.scheme), args.field,
            os.path.dirname(args.scheme) or ".",
        )
    ring = jsonio.action_from_json(jsonio.load_json(args.module), scheme,
                                   args.field, base)
    if ring.constant_matrices is None:
        # a scheme read from structure constants, given or inline
        _refuse(ring.scheme.verify(), args.scheme or f"the scheme of {args.module}",
                "a group scheme")
    _refuse(ring.module.verify(), args.module, "a comodule")
    return ring


def _axiom_payload(report) -> dict:
    return {
        "ok": report.ok,
        "checks": [
            {
                "name": c.name,
                "passed": c.ok,
                "witness": None if c.witness is None else list(map(str, c.witness)),
            }
            for c in report.checks
        ],
    }


def _axiom_text(label, report) -> str:
    lines = [f"{label}: {'all axioms hold' if report.ok else 'AXIOM FAILURE'}"]
    for c in report.checks:
        mark = "ok " if c.ok else "FAIL"
        line = f"  [{mark}] {c.name}"
        if not c.ok and c.witness is not None:
            line += f" (first mismatch at {c.witness})"
        lines.append(line)
    return "\n".join(lines)


# -- handlers ---------------------------------------------------------------


def _cmd_verify(args):
    obj = jsonio.load_json(args.path)
    base = os.path.dirname(args.path) or "."
    if isinstance(obj, dict) and ("coaction" in obj or "constant_group" in obj):
        ring = jsonio.action_from_json(obj, None, args.field, base)
        rep = ring.module.verify()
        label = f"comodule over {ring.scheme.label}"
    elif isinstance(obj, dict) and "coordinate_ring" in obj:
        scheme = jsonio.scheme_from_json(obj, args.field, base)
        rep = scheme.verify()
        label = f"group scheme {scheme.label}"
    else:
        h = jsonio.hopf_from_json(obj, args.field)
        rep = h.verify_axioms()
        label = "hopf algebra"
    return (0 if rep.ok else 1), _axiom_payload(rep), _axiom_text(label, rep)


def _cmd_integrals(args):
    h = _load_hopf(args)
    sides = ("left", "right") if args.side == "both" else (args.side,)
    payload, lines = {}, []
    for side in sides:
        basis = h.integrals(side)
        payload[side] = [[h.field.fmt(v) for v in row]
                         for row in basis]
        pretty = "; ".join(h.field.fmt_combo(row, h.basis) for row in basis)
        lines.append(f"{side} integral space (dim {len(basis)}): {pretty}")
    return 0, payload, "\n".join(lines)


def _cmd_unimodular(args):
    h = _load_hopf(args)
    left, right = h.integrals("left"), h.integrals("right")
    verdict = h.is_unimodular()
    payload = {
        "unimodular": verdict,
        "left": [[h.field.fmt(v) for v in r] for r in left],
        "right": [[h.field.fmt(v) for v in r] for r in right],
    }
    text = f"unimodular: {str(verdict).lower()}"
    if not verdict:
        text += (
            f"\n  left:  {h.field.fmt_combo(left[0], h.basis)}"
            f"\n  right: {h.field.fmt_combo(right[0], h.basis)}"
        )
    return 0, payload, text


def _cmd_symmetric(args):
    h = _load_hopf(args)
    frob = h.is_frobenius()
    sym = h.is_symmetric() if frob else False
    payload = {"frobenius": frob, "symmetric": sym}
    return 0, payload, (
        f"frobenius: {str(frob).lower()}\nsymmetric: {str(sym).lower()}"
    )


def _cmd_knop(args):
    obj = jsonio.load_json(args.path)
    scheme = jsonio.scheme_from_json(obj, args.field,
                                     os.path.dirname(args.path) or ".")
    _refuse(scheme.verify(), args.path, "a group scheme")
    adj = scheme.knop_character_adjoint_route()
    mod = scheme.knop_character_modular_route()
    agree = scheme.knop_routes_agree()
    trivial = scheme.knop_trivial()
    payload = {
        "scheme": scheme.label,
        "knop_character": scheme.format_grouplike(adj),
        "modular_route": scheme.format_grouplike(mod),
        "trivial": trivial,
        "routes_agree": agree,
    }
    text = (
        f"knop character of {scheme.label}: {scheme.format_grouplike(adj)}"
        f"\n  trivial: {str(trivial).lower()}"
        f"\n  modular route: {scheme.format_grouplike(mod)}"
        f"\n  routes agree: {str(agree).lower()}"
    )
    return (0 if agree else 1), payload, text


def _cmd_invariants(args):
    ring = _load_ring(args)
    d = args.max_degree if args.max_degree is not None else 2 * ring.n + 4
    dims = ring.hilbert_function(d)
    payload = {"label": ring.label, "max_degree": d, "dims": dims}
    text = f"invariant dimensions of {ring.label}, degrees 0..{d}:\n  {dims}"
    return 0, payload, text


def _cmd_molien(args):
    obj = jsonio.load_json(args.path)
    cg = obj.get("constant_group", obj) if isinstance(obj, dict) else None
    if not isinstance(cg, dict) or "matrices" not in cg:
        raise InputError(
            "molien input needs {\"matrices\": [...]} or the constant_group form"
        )
    field, mats = jsonio.constant_group_from_json(cg, args.field)
    series = act.molien_series(mats, field)
    num, den = series.series_normal_form()
    d = args.max_degree if args.max_degree is not None else 10
    coeffs = [str(c) for c in series.series_coeffs(d + 1)]
    payload = {
        "numerator": [str(c) for c in num.coeffs],
        "denominator": [str(c) for c in den.coeffs],
        "a_invariant": series.degree_difference(),
        "coefficients": coeffs,
    }
    text = (
        f"molien series: ({num}) / ({den})"
        f"\n  a-invariant: {series.degree_difference()}"
        f"\n  coefficients 0..{d}: {coeffs}"
    )
    return 0, payload, text


def _cmd_classify(args):
    ring = _load_ring(args)
    rep = canon.classify_small_action(
        ring, small_asserted=args.assert_small, max_window=args.max_degree,
        label=args.label,
    )
    return 0, rep.to_dict(), str(rep)


def _cmd_gjs(args):
    ring = _load_ring(args)
    rep = canon.gjs_inequality_check(ring, args.max_degree)
    return (0 if rep.holds else 1), rep.to_dict(), str(rep)


def _cmd_trace(args):
    ring = _load_ring(args)
    d = args.max_degree if args.max_degree is not None else 6
    rep = act.trace_equivariance_check(ring, d)
    return (0 if rep.ok else 1), rep.to_dict(), str(rep)


def _cmd_catalog(args):
    if args.action == "list":
        entries = catalog.list_entries()
        lines = [
            f"{e['name']}: {e['summary']}"
            + (f" (params: {e['params']})" if e["params"] else "")
            for e in entries
        ]
        return 0, {"entries": entries}, "\n".join(lines)
    params = {}
    for kv in args.param:
        if "=" not in kv:
            raise InputError(f"bad --param {kv!r}; expected key=value")
        k, v = kv.split("=", 1)
        params[k] = int(v) if v.lstrip("-").isdigit() else v
    if args.name:
        results = [catalog.run(args.name, **params)]
    else:
        if params:
            raise InputError("--param needs an entry name")
        results = catalog.run_all(jobs=args.jobs)
    ok = all(r.passed for r in results)
    payload = {"passed": ok, "results": [r.to_dict() for r in results]}
    text = "\n\n".join(str(r) for r in results)
    return (0 if ok else 1), payload, text


_HANDLERS = {
    "verify": _cmd_verify,
    "integrals": _cmd_integrals,
    "unimodular": _cmd_unimodular,
    "symmetric": _cmd_symmetric,
    "knop": _cmd_knop,
    "invariants": _cmd_invariants,
    "molien": _cmd_molien,
    "classify": _cmd_classify,
    "gjs": _cmd_gjs,
    "trace": _cmd_trace,
    "catalog": _cmd_catalog,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        args.field = jsonio.parse_field(args.field) if args.field else None
        if getattr(args, "max_degree", None) is not None and args.max_degree < 0:
            raise InputError("--max-degree must be >= 0")
        code, payload, text = _HANDLERS[args.command](args)
    except (InputError, UnsupportedCaseError, UndecidedError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (CheckFailure, InconsistencyError, NonTerminationError) as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    except KnopfError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.output == "json":
        sys.stdout.write(jsonio.canonical_json(payload))
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
