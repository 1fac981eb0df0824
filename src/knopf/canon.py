"""Canonical modules of invariant rings, a-invariants, and classification.

The canonical module of A = S^G is modeled degreewise: omega_A in degree d is
the space of invariants of S_{d-n} twisted by the character det_V * lambda^(-1)
(lambda = the scheme's distinguished grouplike; the twist reduces to det_V
when k[G]* is unimodular).  The a-invariant is minus the first nonzero degree.
classify_small_action assembles the seven-condition report: factoring through
SL(V), equivariant triviality of omega_S and omega_A, quasi-Gorensteinness,
and the a-invariant value -n, with all graded comparisons certified only up
to the inspection window (Hilbert-consistency, never an isomorphism proof).

An action is either a DiagonalizableAction (weights, counted on the lattice)
or a GradedInvariantRing (kernels of the coaction).  Only _smallness,
_characters, canonical_twist and the Molien route of classify_small_action
ask which; the Hilbert functions of both kinds take a twist directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import gcd

from .action import DiagonalizableAction, is_small_constant, molien_series
from .errors import InconsistencyError, InputError
from .ratfunc import reconstruct_rational

__all__ = [
    "ClassificationReport",
    "canonical_twist",
    "omega_hilbert",
    "a_invariant_via_omega",
    "reconstruct_rational",
    "classify_small_action",
    "gjs_inequality_check",
    "GJSReport",
]


def _is_diagonal(action) -> bool:
    return isinstance(action, DiagonalizableAction)


def _window_and_label(action, max_window, label) -> tuple[int, str]:
    """The inspection window (default 2n + 4) and the report label."""
    window = max_window if max_window is not None else 2 * action.n + 4
    return window, label or getattr(action, "label", None) or "action"


def canonical_twist(action):
    """The omega twist det_V * lambda^(-1); a grouplike (or a weight).

    For a diagonalizable action this is an integer character weight; lambda is
    trivial there (mu_m and the torus have unimodular function duals).
    """
    if _is_diagonal(action):
        return action.det_module_weight()
    scheme = action.scheme
    det = action.det_character()
    lam_inv = scheme.grouplike_inverse(scheme.knop_character())
    return scheme.grouplike_product(det, lam_inv)


def omega_hilbert(action, twist, max_window: int) -> list[int]:
    """Dimensions of omega_A in degrees n .. n+D.

    Entry e is the invariant dimension of S_e twisted by the given character
    (a grouplike vector, or a weight for diagonalizable actions).
    """
    return action.hilbert_function(max_window, twist)


def _first_degree(dims: list[int]) -> int | None:
    """Offset e of the first nonzero omega degree n + e, or None."""
    return next((e for e, v in enumerate(dims) if v), None)


def _a_value(n: int, first: int | None, window: int):
    """-(n + first), or a bounded-unknown marker when omega vanishes on the
    whole window: the true value is then at most -(n+D) and is never guessed."""
    if first is None:
        return f"<= -{n + window} (undetermined)"
    return -(n + first)


def a_invariant_via_omega(action, twist, max_window: int):
    """-min{d : omega_d != 0}, or a bounded-unknown marker string."""
    dims = omega_hilbert(action, twist, max_window)
    return _a_value(action.n, _first_degree(dims), max_window)


# -- classification ---------------------------------------------------------

_CONDITION_TEXT = {
    "c1": "the action factors through SL(V) (det_V trivial)",
    "c2": "omega_S is equivariantly S(-n) (graded)",
    "c3": "omega_S is equivariantly S (ungraded)",
    "c4": "omega_A matches A(-n) (Hilbert evidence)",
    "c5": "A is quasi-Gorenstein (Hilbert evidence for some shift)",
    "c6": "A is quasi-Gorenstein with a(A) = -n",
    "c7": "a(A) = -n",
}


@dataclass
class Verdict:
    status: str           # "holds" | "fails" | "not_evaluated"
    reason: str = ""

    @property
    def decided(self) -> bool:
        return self.status in ("holds", "fails")

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    def to_json(self):
        if self.status == "not_evaluated":
            return f"not_evaluated({self.reason})"
        return self.status


@dataclass
class ClassificationReport:
    label: str
    n: int
    window: int
    smallness: str                    # "verified" | "asserted" | "fails"
    lambda_trivial: bool
    det_trivial: bool
    conditions: dict = dc_field(default_factory=dict)
    a_omega: object = None            # int or marker string
    a_molien: int | None = None
    watanabe_criterion: bool | None = None
    consistency: bool = True
    witnesses: list = dc_field(default_factory=list)
    a_dims: list[int] = dc_field(default_factory=list)
    omega_dims: list[int] = dc_field(default_factory=list)

    def to_dict(self):
        out = {
            "label": self.label,
            "n": self.n,
            "window": self.window,
            "smallness": self.smallness,
            "lambda_trivial": self.lambda_trivial,
            "det_v_trivial": self.det_trivial,
            "conditions": {k: v.to_json() for k, v in self.conditions.items()},
            "a_invariant": {"omega_route": self.a_omega},
            "consistency": self.consistency,
            "witnesses": self.witnesses,
            "a_dims": self.a_dims,
            "omega_dims": self.omega_dims,
        }
        if self.a_molien is not None:
            out["a_invariant"]["molien_route"] = self.a_molien
        if self.watanabe_criterion is not None:
            out["watanabe_criterion"] = self.watanabe_criterion
        return out

    def __str__(self):
        lines = [
            f"classification of {self.label} (n = {self.n}, window D = {self.window})",
            f"  smallness: {self.smallness}; lambda trivial: {self.lambda_trivial}; "
            f"det_V trivial: {self.det_trivial}",
        ]
        for key in sorted(self.conditions):
            v = self.conditions[key]
            lines.append(f"  {key} [{_CONDITION_TEXT[key]}]: {v.to_json()}")
        a = f"  a-invariant (omega route): {self.a_omega}"
        if self.a_molien is not None:
            a += f"; (molien route): {self.a_molien}"
        lines.append(a)
        if self.watanabe_criterion is not None:
            lines.append(
                f"  det_V vs lambda criterion: "
                f"{'holds' if self.watanabe_criterion else 'fails'}"
            )
        lines.append(f"  consistency: {self.consistency}")
        for w in self.witnesses:
            lines.append(f"  witness: {w}")
        return "\n".join(lines)


def _smallness(action) -> bool | None:
    """Is the action small?  None when this action kind cannot decide it.

    A constant group is small iff it is faithful and has no pseudo-reflection.
    A diagonal mu_m action is small iff its weights generate Z/m (faithful)
    and no subgroup mu_d (d | m, d > 1) acts trivially on all but one
    coordinate.  The torus and general schemes are not decided here.
    """
    if not _is_diagonal(action):
        if action.constant_matrices is None:
            return None
        return is_small_constant(action.field, action.constant_matrices)
    m, ws = action.modulus, action.weights
    if m == 0:
        return None
    if gcd(m, *(w % m for w in ws)) != 1:
        return False
    return all(sum(1 for w in ws if w % d) != 1 for d in range(2, m + 1) if m % d == 0)


def _characters(action) -> tuple[bool, bool, bool, str]:
    """(det_V trivial, lambda trivial, det_V = lambda, note on lambda).

    lambda is read on the modular route; canonical_twist uses the adjoint
    route, so the two must agree (modular = adjoint^-1) before either is used.
    """
    if _is_diagonal(action):
        det_trivial = action.det_module_weight() == 0
        if action.modulus == 0:
            note = "torus action: character group is free, lambda trivial"
        else:
            note = "diagonalizable scheme: k[G]* is a group algebra, unimodular"
        return det_trivial, True, det_trivial, note
    scheme = action.scheme
    lam = scheme.knop_character_modular_route()
    det = action.det_character()
    if not scheme.knop_routes_agree():
        raise InconsistencyError(
            "the modular and adjoint routes give different Knop characters"
        )
    unit = scheme.unit_grouplike()
    return (scheme.grouplike_equal(det, unit), scheme.grouplike_equal(lam, unit),
            scheme.grouplike_equal(det, lam), "")


def _shift_match(omega_dims, a_dims, offset):
    """First degree where omega_{n+e} != A_{e-offset}, or None if consistent."""
    for e in range(len(omega_dims)):
        k = e - offset
        expected = a_dims[k] if 0 <= k < len(a_dims) else 0
        if omega_dims[e] != expected:
            return e
    return None


def classify_small_action(action, small_asserted: bool = False,
                          max_window: int | None = None,
                          label: str | None = None) -> ClassificationReport:
    """Evidence report for the seven equivalent conditions on a small action.

    Exact verdicts: c1 (and c2, c3 when k[G]* is unimodular) via the
    determinant character.  Windowed Hilbert evidence: c4-c7.  When k[G]* is
    not unimodular the graded comparisons c2/c3 are replaced by the criterion
    det_V = lambda, recorded separately.  The consistency flag asserts that
    the evaluated conditions agree in the pattern the equivalence predicts;
    outside the hypotheses (non-small action) no pattern is enforced.
    """
    n = action.n
    window, name = _window_and_label(action, max_window, label)

    witnesses: list = []

    small = _smallness(action)
    if small is None and not small_asserted:
        raise InputError(
            "smallness cannot be verified for this action kind; "
            "pass small_asserted=True (CLI: --assert-small) to proceed"
        )
    smallness = "asserted" if small is None else "verified" if small else "fails"
    if smallness == "fails":
        witnesses.append({
            "kind": "outside_hypotheses",
            "detail": "action is not small; the seven-condition equivalence "
                      "is not asserted",
        })

    det_trivial, lam_trivial, det_is_lam, lam_note = _characters(action)
    if lam_note:
        witnesses.append({"kind": "lambda_note", "detail": lam_note})

    report = ClassificationReport(
        label=name, n=n, window=window, smallness=smallness,
        lambda_trivial=lam_trivial, det_trivial=det_trivial,
    )
    report.witnesses = witnesses

    conds = report.conditions
    conds["c1"] = Verdict("holds" if det_trivial else "fails",
                          "determinant character computed exactly")

    if lam_trivial:
        base = conds["c1"].status
        conds["c2"] = Verdict(base, "equivalent to det_V triviality")
        conds["c3"] = Verdict(base, "equivalent to det_V triviality")
    else:
        reason = ("k[G]* is not unimodular; the graded comparison is "
                  "replaced by the det_V vs lambda criterion")
        conds["c2"] = Verdict("not_evaluated", reason)
        conds["c3"] = Verdict("not_evaluated", reason)
        report.watanabe_criterion = det_is_lam
        witnesses.append({
            "kind": "watanabe_path",
            "detail": "quasi-Gorenstein expectation evaluated as det_V = lambda: "
                      + ("holds" if det_is_lam else "fails"),
        })

    # Hilbert data for A and omega over the window
    a_dims = action.hilbert_function(window)
    omega_dims = omega_hilbert(action, canonical_twist(action), window)
    report.a_dims = a_dims
    report.omega_dims = omega_dims

    # c4: omega vs A(-n)
    mismatch = _shift_match(omega_dims, a_dims, 0)
    if mismatch is None:
        conds["c4"] = Verdict("holds", "Hilbert-consistent within window")
    else:
        conds["c4"] = Verdict("fails", "Hilbert mismatch")
        witnesses.append({
            "kind": "hilbert_mismatch",
            "degree": n + mismatch,
            "omega_dim": omega_dims[mismatch],
            "shifted_a_dim": a_dims[mismatch],
            "detail": f"omega and A(-{n}) differ first at degree {n + mismatch}",
        })

    # c5: quasi-Gorenstein evidence, shift forced by the first omega degree
    first = _first_degree(omega_dims)
    if first is None:
        conds["c5"] = Verdict(
            "not_evaluated", f"omega vanishes up to degree {n + window}"
        )
    else:
        off = _shift_match(omega_dims, a_dims, first)
        if off is None:
            conds["c5"] = Verdict(
                "holds",
                f"Hilbert-consistent with A({-(n + first)}) within window",
            )
        else:
            conds["c5"] = Verdict(
                "fails", "no degree shift matches A within window"
            )
            witnesses.append({
                "kind": "quasi_gorenstein_mismatch",
                "degree": n + off,
                "detail": (
                    f"omega matches no shift of A: candidate shift "
                    f"{-(n + first)} breaks at degree {n + off}"
                ),
            })

    # c7: a-invariant
    report.a_omega = _a_value(n, first, window)
    if first is not None:
        conds["c7"] = Verdict("holds" if first == 0 else "fails",
                              "omega-route a-invariant")
        if first:
            witnesses.append({
                "kind": "a_invariant",
                "detail": f"a(A) = {report.a_omega} != {-n} = -n",
            })
    else:
        conds["c7"] = Verdict("not_evaluated",
                              "a-invariant undetermined within window")

    # c6: conjunction of c5 and c7
    if conds["c5"].decided and conds["c7"].decided:
        conds["c6"] = Verdict(
            "holds" if conds["c5"].holds and conds["c7"].holds else "fails",
            "conjunction of c5 and c7",
        )
    else:
        conds["c6"] = Verdict("not_evaluated",
                              "depends on an undetermined condition")

    # Molien route for constant groups in characteristic zero
    if (not _is_diagonal(action) and action.constant_matrices is not None
            and action.field.p is None):
        series = molien_series(action.constant_matrices, action.field)
        report.a_molien = series.degree_difference()
        if isinstance(report.a_omega, int) and report.a_molien != report.a_omega:
            witnesses.append({
                "kind": "route_disagreement",
                "detail": (
                    f"omega route {report.a_omega} != molien route "
                    f"{report.a_molien}"
                ),
            })

    report.consistency = _consistency(report)
    return report


def _consistency(report: ClassificationReport) -> bool:
    """Do the evaluated verdicts follow the pattern the theorem predicts?"""
    conds = report.conditions
    if report.a_molien is not None and isinstance(report.a_omega, int):
        if report.a_molien != report.a_omega:
            return False
    if report.smallness == "fails":
        return True  # no pattern asserted outside the hypotheses
    if report.lambda_trivial:
        decided = [v.holds for v in conds.values() if v.decided]
        return all(decided) or not any(decided)
    # Watanabe path: quasi-Gorenstein family must match det_V = lambda,
    # and if it holds the a-invariant must be -n.
    expected = bool(report.watanabe_criterion)
    for key in ("c4", "c5", "c6"):
        if conds[key].decided and conds[key].holds != expected:
            return False
    if expected and conds["c7"].decided and not conds["c7"].holds:
        return False
    return True


# -- GJS inequality ---------------------------------------------------------


@dataclass
class GJSReport:
    label: str
    n: int
    window: int
    min_omega_degree: int | None
    a_invariant: object               # int or marker string
    holds: bool
    strict: bool | None
    outside_hypotheses: bool
    note: str = ""

    def to_dict(self):
        return {
            "label": self.label,
            "n": self.n,
            "window": self.window,
            "min_omega_degree": self.min_omega_degree,
            "a_invariant": self.a_invariant,
            "holds": self.holds,
            "strict": self.strict,
            "outside_hypotheses": self.outside_hypotheses,
            "note": self.note,
        }

    def __str__(self):
        verdict = "holds" if self.holds else "FAILS"
        extra = ""
        if self.strict is not None:
            extra = " (strict)" if self.strict else " (equality)"
        flag = " [outside theorem hypotheses]" if self.outside_hypotheses else ""
        return (
            f"{self.label}: a(A) = {self.a_invariant} <= -{self.n} = -n "
            f"{verdict}{extra}{flag}"
        )


def gjs_inequality_check(action, max_window: int | None = None,
                         label: str | None = None,
                         small: bool | None = None) -> GJSReport:
    """Check a(A) <= -n via the first nonzero omega degree within the window.

    Strictness (a < -n) is recorded; when omega vanishes through the window
    the inequality holds with the bounded-unknown value.  Non-small actions
    are checked anyway and flagged as outside the theorem hypotheses.
    """
    n = action.n
    window, name = _window_and_label(action, max_window, label)
    first = _first_degree(omega_hilbert(action, canonical_twist(action), window))
    if small is None:
        small = _smallness(action)
    outside = not small if small is not None else False
    a = _a_value(n, first, window)
    if first is None:
        return GJSReport(
            label=name, n=n, window=window, min_omega_degree=None,
            a_invariant=a, holds=True, strict=True, outside_hypotheses=outside,
            note=f"omega vanishes up to degree {n + window}; a <= -{n + window}",
        )
    mindeg = n + first
    return GJSReport(
        label=name, n=n, window=window, min_omega_degree=mindeg,
        a_invariant=a, holds=mindeg >= n, strict=mindeg > n,
        outside_hypotheses=outside,
        note="" if small is not None else "smallness not determined",
    )

