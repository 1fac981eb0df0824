"""Worked examples with frozen expected outcomes; the regression backbone.

Each entry builds a concrete object (Hopf algebra, scheme + module, or
diagonal action), runs the full pipeline on it, and diffs the results against
expectations recorded here as literals.  Entries are independent and can run
in parallel.
"""

from __future__ import annotations

import operator
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field

from . import action as act
from . import canon
from . import exactalg as xa
from . import gscheme as gs
from . import hopf
from .errors import InputError
from .exactalg import FieldSpec
from .hopf import cyclic_table
from .ratfunc import Poly


# -- small finite groups ----------------------------------------------------


def dihedral_table(n: int) -> list[list[int]]:
    """Dihedral group of order 2n; element q*n+i is rotation^i * flip^q."""

    def mul(a, b):
        qa, ia = divmod(a, n)
        qb, ib = divmod(b, n)
        # flip conjugates rotations to their inverses
        i = (ia + ib) % n if qa == 0 else (ia - ib) % n
        return ((qa + qb) % 2) * n + i

    m = 2 * n
    return [[mul(a, b) for b in range(m)] for a in range(m)]


def u_l_hopf(p: int) -> hopf.HopfAlgebraData:
    """u(L) for the 2-dimensional restricted Lie algebra with [f,e] = e,
    f^p = f, e^p = 0, over F_p."""
    f = FieldSpec.prime(p)
    zero = [0, 0]
    bracket = [[zero, [0, 1]], [[0, -1], zero]]
    p_map = [[1, 0], zero]
    return hopf.restricted_enveloping(f, ["f", "e"], bracket, p_map)


def standard_module(scheme: gs.FiniteGroupScheme, ell: int, p: int) -> act.Comodule:
    """W for mu_ell acting on alpha_p: the matrix form [[t, a], [0, 1]]."""
    f = scheme.field
    coact = f.zeros((2, 2, scheme.order))
    coact[0, 0, (1 % ell) * p] = f.one   # t, which is 1 when ell = 1
    coact[0, 1, 0 * p + 1] = f.one   # a
    coact[1, 1, 0] = f.one           # 1
    return act.Comodule(scheme, coact, labels=["w1", "w2"])


def radford_battery() -> list[tuple[str, hopf.HopfAlgebraData]]:
    """A spread of Hopf algebras for unimodularity/symmetry cross-checks."""
    Q = FieldSpec.rationals()
    F2, F3, F5 = FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5)
    out = [
        ("kC2/Q", hopf.group_algebra(Q, cyclic_table(2))),
        ("kC3/Q", hopf.group_algebra(Q, cyclic_table(3))),
        ("kC4/Q", hopf.group_algebra(Q, cyclic_table(4))),
        ("kS3/Q", hopf.group_algebra(Q, dihedral_table(3))),
        ("kD4/Q", hopf.group_algebra(Q, dihedral_table(4))),
        ("kC2/F2", hopf.group_algebra(F2, cyclic_table(2))),
        ("kC4/F2", hopf.group_algebra(F2, cyclic_table(4))),
        ("kS3/F3", hopf.group_algebra(F3, dihedral_table(3))),
        ("(kS3/Q)*", hopf.group_algebra(Q, dihedral_table(3)).dual()),
        ("(kD4/Q)*", hopf.group_algebra(Q, dihedral_table(4)).dual()),
        ("uL/F2", u_l_hopf(2)),
        ("uL/F3", u_l_hopf(3)),
        ("uL/F5", u_l_hopf(5)),
        ("k[mu3|xa5]/F5", gs.mu_semidirect_alpha_scheme(F5, 3).gamma),
        ("k[mu3|xa5]*/F5", gs.mu_semidirect_alpha_scheme(F5, 3).gamma.dual()),
    ]
    return out


# -- result containers ------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    expected: str
    actual: str

    def to_dict(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "expected": self.expected,
            "actual": self.actual,
        }


@dataclass
class EntryResult:
    entry: str
    params: dict
    checks: list[CheckResult] = dc_field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "entry": self.entry,
            "params": self.params,
            "passed": self.passed,
            "elapsed_seconds": round(self.elapsed, 3),
            "checks": [c.to_dict() for c in self.checks],
        }

    def __str__(self):
        head = self.entry
        if self.params:
            head += "[" + ",".join(f"{k}={v}" for k, v in self.params.items()) + "]"
        lines = [f"{head}: {'pass' if self.passed else 'FAIL'} "
                 f"({self.elapsed:.2f}s)"]
        for c in self.checks:
            mark = "ok " if c.passed else "FAIL"
            line = f"  [{mark}] {c.name}"
            if not c.passed:
                line += f": expected {c.expected}, got {c.actual}"
            lines.append(line)
        return "\n".join(lines)


def _check(checks: list, name: str, expected, actual):
    checks.append(CheckResult(name, expected == actual, str(expected), str(actual)))


def _check_true(checks: list, name: str, actual: bool, detail: str = ""):
    checks.append(CheckResult(name, bool(actual), "true", detail or str(actual)))


def _int(key: str, value) -> int:
    """An integer entry parameter (an int, or a string of one); anything else,
    a float included, is an input error."""
    try:
        return int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        raise InputError(f"parameter {key} must be an integer, got {value!r}") from None


# -- entry builders and checkers -------------------------------------------


def _build_watanabe(params):
    Q = FieldSpec.rationals()
    mats = [[[1, 0], [0, 1]], [[-1, 0], [0, -1]]]
    ring = act.constant_group_action(Q, mats, var_labels=["x", "y"],
                                     label="watanabe-minus-id")
    return {"kind": "constant_action", "ring": ring, "matrices": mats}


def _check_watanabe(bundle, params):
    ring = bundle["ring"]
    checks: list[CheckResult] = []
    rep = canon.classify_small_action(ring, max_window=10)
    for key in ("c1", "c2", "c3", "c4", "c5", "c6", "c7"):
        _check(checks, f"condition {key}", "holds", rep.conditions[key].to_json())
    _check(checks, "a-invariant omega route", -2, rep.a_omega)
    _check(checks, "a-invariant molien route", -2, rep.a_molien)
    _check(checks, "smallness", "verified", rep.smallness)
    _check_true(checks, "consistency", rep.consistency)
    series = act.molien_series(bundle["matrices"])
    _check(checks, "molien coefficients",
           [1, 0, 3, 0, 5, 0, 7],
           [int(c) for c in series.series_coeffs(7)])
    g = canon.gjs_inequality_check(ring, 10)
    _check_true(checks, "a(A) <= -n", g.holds)
    _check(checks, "equality at -n", False, g.strict)
    return checks


def _build_reflection(params):
    Q = FieldSpec.rationals()
    mats = [[[1, 0], [0, 1]], [[1, 0], [0, -1]]]
    ring = act.constant_group_action(Q, mats, var_labels=["x", "y"],
                                     label="reflection")
    return {"kind": "constant_action", "ring": ring, "matrices": mats}


def _check_reflection(bundle, params):
    ring = bundle["ring"]
    checks: list[CheckResult] = []
    Q = FieldSpec.rationals()
    _check(checks, "pseudo-reflection at index", [1],
           act.pseudo_reflections(Q, bundle["matrices"]))
    rep = canon.classify_small_action(ring, max_window=10)
    _check(checks, "smallness", "fails", rep.smallness)
    _check(checks, "condition c1", "fails", rep.conditions["c1"].to_json())
    _check(checks, "a-invariant omega route", -3, rep.a_omega)
    _check(checks, "a-invariant molien route", -3, rep.a_molien)
    g = canon.gjs_inequality_check(ring, 10)
    _check_true(checks, "a(A) <= -n still observed", g.holds)
    _check_true(checks, "outside theorem hypotheses", g.outside_hypotheses)
    return checks


def _build_ul(params):
    p = _int("p", params.get("p", 2))
    if p not in (2, 3, 5, 7):
        raise InputError("uL entry supports p in {2, 3, 5, 7}")
    h = u_l_hopf(p)
    return {"kind": "hopf", "hopf": h, "scheme": gs.scheme_of_hopf_dual(h), "p": p}


def _check_ul(bundle, params):
    h = bundle["hopf"]
    scheme = bundle["scheme"]
    p = bundle["p"]
    checks: list[CheckResult] = []
    _check(checks, "dimension", p * p, h.dim)
    _check_true(checks, "axioms", h.verify_axioms().ok)
    _check(checks, "unimodular", False, h.is_unimodular())
    left, right = h.integrals("left"), h.integrals("right")
    _check(checks, "one-dimensional integrals", (1, 1), (len(left), len(right)))
    _check_true(checks, "left != right integral line",
                not xa.arrays_equal(left, right))
    _check(checks, "symmetric", False, h.is_symmetric())
    _check(checks, "frobenius", True, h.is_frobenius())
    if p == 2:
        # basis order 1, e, f, fe: left = e + fe, right = fe
        _check(checks, "left integral", [0, 1, 0, 1], left[0].tolist())
        _check(checks, "right integral", [0, 0, 0, 1], right[0].tolist())
    _check(checks, "knop character nontrivial", False, scheme.knop_trivial())
    _check_true(checks, "knop routes agree", scheme.knop_routes_agree())
    return checks


def _build_mu_semidirect_alpha(params):
    ell = _int("l", params.get("l", 3))
    p = _int("p", params.get("p", 5))
    f = FieldSpec.prime(p)
    scheme = gs.mu_semidirect_alpha_scheme(f, ell)
    w = standard_module(scheme, ell, p)
    v = act.direct_sum(w, w.dual())
    ring = act.GradedInvariantRing(
        v, label=f"mu{ell}|xa{p} on W(+)W*",
        var_labels=["x1", "x2", "x3", "x4"],
    )
    return {"kind": "scheme_action", "scheme": scheme, "module": v, "ring": ring,
            "w": w, "l": ell, "p": p}


def _check_mu_semidirect_alpha(bundle, params):
    ell, p = bundle["l"], bundle["p"]
    scheme = bundle["scheme"]
    ring = bundle["ring"]
    checks: list[CheckResult] = []
    _check(checks, "coordinate ring dimension", ell * p, scheme.order)
    _check_true(checks, "axioms", scheme.gamma.verify_axioms().ok)
    _check_true(checks, "module axioms", bundle["module"].verify().ok)
    # empirical nontriviality condition: lambda = t^(2(p-1) mod ell)
    expected_trivial = (2 * (p - 1)) % ell == 0
    _check(checks, "knop trivial iff ell | 2(p-1)", expected_trivial,
           scheme.knop_trivial())
    lam_mod = scheme.knop_character_modular_route()
    expected = scheme.field.zeros(scheme.order)
    expected[((2 * (p - 1)) % ell) * p] = scheme.field.one
    _check_true(checks, "modular-route lambda = t^(2(p-1))",
                scheme.grouplike_equal(lam_mod, expected))
    _check_true(checks, "knop routes agree", scheme.knop_routes_agree())
    det = act.det_character(bundle["module"])
    _check_true(checks, "det_V trivial (G in SL(V))",
                scheme.grouplike_equal(det, scheme.unit_grouplike()))
    rep = canon.classify_small_action(ring, small_asserted=True, max_window=8)
    _check(checks, "condition c1", "holds", rep.conditions["c1"].to_json())
    if not expected_trivial:
        _check(checks, "det_V vs lambda criterion", False,
               rep.watanabe_criterion)
        _check(checks, "omega vs A(-n) evidence", "fails",
               rep.conditions["c4"].to_json())
        witness = [w for w in rep.witnesses if w.get("kind") == "hilbert_mismatch"]
        _check_true(checks, "mismatch witness degree <= 12",
                    bool(witness) and witness[0]["degree"] <= 12,
                    str(witness))
    _check_true(checks, "consistency", rep.consistency)
    return checks


def _build_determinantal(params):
    m = _int("m", params.get("m", 2))
    n = _int("n", params.get("n", 2))
    if m < 1 or n < 1:
        raise InputError("determinantal entry needs m, n >= 1")
    weights = [1] * n + [-1] * m
    labels = [f"x{i+1}" for i in range(n)] + [f"y{j+1}" for j in range(m)]
    diag = act.DiagonalizableAction(weights, 0, var_labels=labels)
    diag.label = f"determinantal({m},{n}) t=2"
    return {"kind": "diagonal_action", "action": diag, "m": m, "n": n}


def _check_determinantal(bundle, params):
    diag = bundle["action"]
    m, n = bundle["m"], bundle["n"]
    checks: list[CheckResult] = []
    window = 2 * (m + n) + 2
    counts = diag.hilbert_function(window)
    den = Poly([1, 0, -1]).pow(m + n - 1)
    series = canon.reconstruct_rational(counts, den)
    a = series.degree_difference()
    _check(checks, "a-invariant", -2 * max(m, n), a)
    # min(m, n) = 1 leaves no 2x2 minors: a polynomial ring, Gorenstein
    _check(checks, "numerator palindromic iff m == n", m == n or min(m, n) == 1,
           series.num.is_palindromic())
    num = series.series_normal_form()[0]
    if (m, n) == (2, 2):
        _check(checks, "numerator", [1, 0, 1], [int(c) for c in num.coeffs])
    if (m, n) in ((2, 3), (3, 2)):
        _check(checks, "numerator", [1, 0, 2], [int(c) for c in num.coeffs])
    aw = canon.a_invariant_via_omega(diag, canon.canonical_twist(diag), window)
    _check(checks, "omega route agrees", a, aw)
    g = canon.gjs_inequality_check(diag, window, small=True)
    _check_true(checks, "a(A) <= -n", g.holds)
    _check(checks, "strict iff m != n", m != n, g.strict)
    return checks


def _build_o2(params):
    # r = diag(1, -1) conjugates the antisymmetric 2x2 matrices B -> r B r^T;
    # they are Lambda^2 V, on which r acts by det r: the value at r of the
    # determinant character of the group {I, r} (r is group element 1)
    ring = act.constant_group_action(FieldSpec.rationals(),
                                     [[[1, 0], [0, 1]], [[1, 0], [0, -1]]])
    return {"scalar": int(ring.det_character()[1])}


def _check_o2(bundle, params):
    checks: list[CheckResult] = []
    _check(checks, "conjugation scalar on antisymmetric part", -1,
           bundle["scalar"])
    _check_true(checks, "action nontrivial (det = -1)", bundle["scalar"] != 1)
    return checks


def _build_mu_weights(params):
    m = _int("m", params.get("m", 3))
    if m < 1:
        raise InputError("mu-m-weights needs m >= 1")
    ws = params.get("w", (1, 2))
    if not isinstance(ws, (list, tuple)):
        ws = [x for x in str(ws).split(",") if x.strip()]
    weights = [_int("w", w) for w in ws]
    if not weights:
        raise InputError("mu-m-weights needs at least one weight")
    diag = act.DiagonalizableAction(weights, m)
    return {"kind": "diagonal_action", "action": diag, "m": m,
            "weights": weights}


def _check_mu_weights(bundle, params):
    diag = bundle["action"]
    m, weights = bundle["m"], bundle["weights"]
    checks: list[CheckResult] = []
    n = diag.n
    window = 2 * n + 4
    # weight route vs honest kernel route over a characteristic coprime to m
    q = 7 if m % 7 else 11
    ring = diag.to_kernel_route(FieldSpec.prime(q))
    _check(checks, "weight route == kernel route",
           diag.hilbert_function(min(window, 8)),
           ring.hilbert_function(min(window, 8)))
    sl = diag.det_module_weight() == 0
    rep = canon.classify_small_action(diag, max_window=window)
    _check(checks, "condition c1", "holds" if sl else "fails",
           rep.conditions["c1"].to_json())
    if sl and rep.smallness == "verified":
        for key in ("c4", "c5", "c6", "c7"):
            _check(checks, f"condition {key}", "holds",
                   rep.conditions[key].to_json())
        _check(checks, "a-invariant", -n, rep.a_omega)
    _check_true(checks, "consistency", rep.consistency)
    g = canon.gjs_inequality_check(diag, window)
    _check_true(checks, "a(A) <= -n", g.holds)
    return checks


# -- registry ---------------------------------------------------------------


@dataclass
class CatalogEntry:
    name: str
    summary: str
    builder: object
    checker: object
    sweeps: list = dc_field(default_factory=lambda: [{}])
    param_help: str = ""


ENTRIES: dict[str, CatalogEntry] = {
    "watanabe-minus-id": CatalogEntry(
        "watanabe-minus-id",
        "<-I> in SL_2 over Q: all seven conditions hold, a = -2",
        _build_watanabe, _check_watanabe,
    ),
    "reflection": CatalogEntry(
        "reflection",
        "<diag(1,-1)>: not small, a = -3, Gorenstein at the wrong shift",
        _build_reflection, _check_reflection,
    ),
    "uL": CatalogEntry(
        "uL",
        "u(L) with [f,e] = e, f^p = f, e^p = 0: not unimodular, not symmetric",
        _build_ul, _check_ul,
        sweeps=[{"p": 2}, {"p": 3}, {"p": 5}],
        param_help="p: characteristic (2, 3, 5, 7)",
    ),
    "mu-semidirect-alpha": CatalogEntry(
        "mu-semidirect-alpha",
        "mu_ell acting on alpha_p; V = W(+)W*: in SL(V) but lambda nontrivial",
        _build_mu_semidirect_alpha, _check_mu_semidirect_alpha,
        sweeps=[{"l": 3, "p": 5}],
        param_help="l: order of mu; p: characteristic",
    ),
    "determinantal": CatalogEntry(
        "determinantal",
        "2x2 minors of an m x n matrix via G_m weights; a = -2 max(m,n)",
        _build_determinantal, _check_determinantal,
        sweeps=[{"m": 2, "n": 2}, {"m": 2, "n": 3}],
        param_help="m, n: matrix format (t = 2 fixed)",
    ),
    "o2-lie-check": CatalogEntry(
        "o2-lie-check",
        "reflection conjugating antisymmetric 2x2 matrices: scalar -1",
        _build_o2, _check_o2,
    ),
    "mu-m-weights": CatalogEntry(
        "mu-m-weights",
        "diagonal mu_m action with given weights; weight vs kernel route",
        _build_mu_weights, _check_mu_weights,
        sweeps=[{"m": 3, "w": (1, 2)}, {"m": 4, "w": (1, 3)},
                {"m": 3, "w": (1, 1)}],
        param_help="m: order of mu; w: comma-separated weights",
    ),
}


def list_entries() -> list[dict]:
    out = []
    for e in ENTRIES.values():
        out.append({
            "name": e.name,
            "summary": e.summary,
            "params": e.param_help,
            "default_runs": e.sweeps,
        })
    return out


def run(name: str, **params) -> EntryResult:
    if name not in ENTRIES:
        raise InputError(
            f"unknown catalog entry {name!r}; known: {', '.join(sorted(ENTRIES))}"
        )
    entry = ENTRIES[name]
    start = time.time()
    bundle = entry.builder(params)
    checks = entry.checker(bundle, params)
    return EntryResult(name, dict(params), checks, time.time() - start)


def _run_spec(spec) -> EntryResult:
    name, params = spec
    return run(name, **params)


def default_runs() -> list[tuple[str, dict]]:
    return [(e.name, dict(s)) for e in ENTRIES.values() for s in e.sweeps]


def run_all(jobs: int = 1) -> list[EntryResult]:
    """Run every entry with its default parameter sets, optionally in parallel."""
    specs = default_runs()
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_run_spec, specs))
    return [_run_spec(s) for s in specs]
