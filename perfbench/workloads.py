"""The three benchmark workloads: inputs from a seed, requests, depth probes.

Every request builds its knopf objects fresh, because GradedInvariantRing,
FiniteGroupScheme and HopfAlgebraData cache per object and a repeat on a
reused object would be free.  A request returns (exit code, payload); the
payload is canonical JSON text (CLI requests) or a JSON-able object that the
runner serializes with `jsonio.canonical_json` outside the timed region.

Seeds change only the presentation of the inputs, never the answers, so one
set of reference outputs serves every seed:

* fp-scheme-window: a signed-and-scaled permutation of the module basis
  (sparsity-preserving change of basis by a monomial matrix over F_p);
* q-cube-rotations: the order in which the group's matrices are listed;
* structure-battery: the order of the requests in each pass.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

from knopf import action, canon, catalog, cli, gscheme, hopf, jsonio
from knopf.exactalg import FieldSpec

DATA = os.path.join("tests", "data")


@dataclass
class Request:
    name: str
    run: Callable[[], tuple]
    # Traced variant that orders the public calls so the tracer can split
    # layers; it must return the same output as `run`.
    traced: Callable | None = None


# -- inputs ------------------------------------------------------------------


def permute_comodule(obj: dict, p: int, seed: int) -> dict:
    """Comodule JSON in the basis e'_i = s_i e_{pi(i)} (pi, s from the seed).

    The coaction matrix becomes D^-1 P^-1 Gamma P D, entrywise
    gamma'_ij = s_i^-1 gamma_{pi(i) pi(j)} s_j: the same nonzero pattern,
    relabelled and scaled, and an isomorphic invariant ring.
    """
    if seed == 0:
        return obj
    rng = random.Random(seed)
    n = obj["dim"]
    perm = list(range(n))
    rng.shuffle(perm)
    scale = [rng.randrange(1, p) for _ in range(n)]
    new_index = {old: new for new, old in enumerate(perm)}
    coaction = []
    for i, j, coeffs in obj["coaction"]:
        ni, nj = new_index[i], new_index[j]
        factor = scale[nj] * pow(scale[ni], -1, p) % p
        coaction.append([ni, nj, [int(c) * factor % p for c in coeffs]])
    out = dict(obj, coaction=sorted(coaction))
    if "labels" in obj:
        out["labels"] = [obj["labels"][perm[k]] for k in range(n)]
    return out


def cube_rotations() -> list[list[list[int]]]:
    """The 24 signed permutation matrices of determinant 1, in a fixed order."""
    out = []
    for perm in itertools.permutations(range(3)):
        inversions = sum(perm[a] > perm[b] for a in range(3) for b in range(a + 1, 3))
        for signs in itertools.product((1, -1), repeat=3):
            if (-1) ** inversions * signs[0] * signs[1] * signs[2] != 1:
                continue
            m = [[0] * 3 for _ in range(3)]
            for row, (col, s) in enumerate(zip(perm, signs)):
                m[row][col] = s
            out.append(m)
    return out


# -- windowed workloads ----------------------------------------------------


class Workload:
    """Inputs made at set-up; `rounds()` yields the requests of each round.

    The depth probe runs on a fresh ring from `build_ring`.
    """

    name: str
    probe_budget_s: float
    small_asserted: bool

    def build_ring(self):
        raise NotImplementedError

    def probe_setup(self):
        """A fresh ring and its step function; the twist is a one-time cost
        paid before the probe's clock starts."""
        ring = self.build_ring()
        twist = canon.canonical_twist(ring)

        def step(d):
            return ring.invariant_dim(d), ring.invariant_dim(d, twist=twist)

        return ring, step

    def consistency(self, ring, window: int) -> bool:
        """The classification's own consistency flag on the probed ring."""
        return canon.classify_small_action(
            ring, small_asserted=self.small_asserted, max_window=window,
        ).consistency


class WindowedWorkload(Workload):
    """One classify request per round at a fixed window."""

    window: int

    def rounds(self):
        while True:
            yield [Request("classify", self.classify, self.classify_traced)]

    def classify(self):
        report = canon.classify_small_action(
            self.build_ring(), small_asserted=self.small_asserted,
            max_window=self.window,
        )
        return 0, report.to_dict()

    def classify_traced(self, tracer):
        """The classify request with its stages called one by one.

        The ring caches per degree, so after these calls classify_small_action
        reuses the tower and both kernels and the output is unchanged.  The
        tower stage is skipped if the ring no longer exposes `tower.coaction`.
        """
        ring = self.build_ring()
        w = self.window
        tower = getattr(ring, "tower", None)
        if hasattr(tower, "coaction"):
            with tracer.span("action.tower") as span:
                tower.coaction(w)
            span.counts = {"bytes": sum(
                getattr(tower.coaction(d), "nbytes", 0) for d in range(w + 1)
            )}
        with tracer.span("action.invariants"):
            for d in range(w + 1):
                ring.invariant_basis(d)
        twist = canon.canonical_twist(ring)
        with tracer.span("action.twisted"):
            for d in range(w + 1):
                ring.invariant_basis(d, twist=twist)
        report = canon.classify_small_action(
            ring, small_asserted=self.small_asserted, max_window=w,
        )
        return 0, report.to_dict()


class FpSchemeWindow(WindowedWorkload):
    """mu_3 semidirect alpha_5 over F_5 acting on W + W*."""

    name = "fp-scheme-window"
    window = 9
    probe_budget_s = 5.0
    small_asserted = True

    def __init__(self, seed: int):
        self.scheme_obj = jsonio.load_json(os.path.join(DATA, "mu3a5.json"))
        module = jsonio.load_json(os.path.join(DATA, "w-plus-wdual.json"))
        p = jsonio.parse_field(self.scheme_obj["coordinate_ring"]["field"]).p
        self.module_obj = permute_comodule(module, p, seed)

    def build_ring(self):
        scheme = jsonio.scheme_from_json(self.scheme_obj)
        return jsonio.action_from_json(self.module_obj, scheme)


class QCubeRotations(WindowedWorkload):
    """The rotation group of the cube acting on Q^3."""

    name = "q-cube-rotations"
    window = 4
    probe_budget_s = 3.5
    small_asserted = False

    def __init__(self, seed: int):
        self.matrices = cube_rotations()
        if seed:
            random.Random(seed).shuffle(self.matrices)

    def build_ring(self):
        return action.constant_group_action(FieldSpec.rationals(), self.matrices)


# -- structure battery -------------------------------------------------------


def _algebras():
    """Fresh builders for the algebras of `catalog.radford_battery()`."""
    Q = FieldSpec.rationals()
    F2, F3, F5 = FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5)
    cyc, dih = catalog.cyclic_table, catalog.dihedral_table
    return {
        "kC2/Q": lambda: hopf.group_algebra(Q, cyc(2)),
        "kC3/Q": lambda: hopf.group_algebra(Q, cyc(3)),
        "kC4/Q": lambda: hopf.group_algebra(Q, cyc(4)),
        "kS3/Q": lambda: hopf.group_algebra(Q, dih(3)),
        "kD4/Q": lambda: hopf.group_algebra(Q, dih(4)),
        "kC2/F2": lambda: hopf.group_algebra(F2, cyc(2)),
        "kC4/F2": lambda: hopf.group_algebra(F2, cyc(4)),
        "kS3/F3": lambda: hopf.group_algebra(F3, dih(3)),
        "(kS3/Q)*": lambda: hopf.group_algebra(Q, dih(3)).dual(),
        "(kD4/Q)*": lambda: hopf.group_algebra(Q, dih(4)).dual(),
        "uL/F2": lambda: catalog.u_l_hopf(2),
        "uL/F3": lambda: catalog.u_l_hopf(3),
        "uL/F5": lambda: catalog.u_l_hopf(5),
        "k[mu3|xa5]/F5": lambda: gscheme.mu_semidirect_alpha_scheme(F5, 3).gamma,
        "k[mu3|xa5]*/F5":
            lambda: gscheme.mu_semidirect_alpha_scheme(F5, 3).gamma.dual(),
    }


def _rows(h, basis):
    return [[h.field.fmt(v) for v in row] for row in basis]


def _axioms(report):
    return {
        "ok": report.ok,
        "checks": [
            [c.name, c.ok, None if c.witness is None else [str(v) for v in c.witness]]
            for c in report.checks
        ],
    }


def _dual_involution(h):
    d = h.dual()
    return {"involution": d.dual() == h, "dual": jsonio.hopf_to_json(d)}


def _scheme(h):
    # Spec(H) when H is commutative, otherwise Spec(H*) (H cocommutative).
    if h.is_commutative():
        return gscheme.FiniteGroupScheme(h)
    return gscheme.scheme_of_hopf_dual(h)


def _knop(h, route):
    scheme = _scheme(h)
    return scheme.format_grouplike(getattr(scheme, route)())


OPERATIONS = {
    "verify_axioms": lambda h: _axioms(h.verify_axioms()),
    "integrals_left": lambda h: _rows(h, h.integrals("left")),
    "integrals_right": lambda h: _rows(h, h.integrals("right")),
    "is_unimodular": lambda h: h.is_unimodular(),
    "is_frobenius": lambda h: h.is_frobenius(),
    "is_symmetric": lambda h: h.is_symmetric(),
    "dual_involution": _dual_involution,
    "knop_adjoint": lambda h: _knop(h, "knop_character_adjoint_route"),
    "knop_modular": lambda h: _knop(h, "knop_character_modular_route"),
}

CLI_RUNS = {
    "verify-hopf": ["verify", f"{DATA}/uL-p2.json"],
    "verify-scheme": ["verify", f"{DATA}/mu3a5.json"],
    "verify-comodule": ["verify", f"{DATA}/w-plus-wdual.json"],
    "integrals": ["integrals", f"{DATA}/uL-p2.json"],
    "unimodular": ["unimodular", f"{DATA}/uL-p2.json"],
    "symmetric": ["symmetric", f"{DATA}/uL-p2.json"],
    "knop": ["knop", f"{DATA}/mu3a5.json"],
    "invariants": ["invariants", "--module", f"{DATA}/minus-id.json",
                   "--max-degree", "8"],
    "molien": ["molien", f"{DATA}/molien-minus-id.json"],
    "classify": ["classify", "--module", f"{DATA}/minus-id.json"],
    "gjs": ["gjs", "--module", f"{DATA}/minus-id.json"],
    "trace": ["trace", "--module", f"{DATA}/minus-id.json"],
    "catalog-list": ["catalog", "list"],
}


def _library_request(build, op):
    return lambda: (0, op(build()))


def _catalog_request(name, params):
    def run():
        result = catalog.run(name, **params)
        payload = result.to_dict()
        # the one wall-clock field in catalog output
        payload.pop("elapsed_seconds", None)
        return (0 if result.passed else 1), payload

    return run


def _cli_request(argv):
    def run():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main([*argv, "--output", "json"])
        return code, out.getvalue()

    return run


class StructureBattery(Workload):
    """Short structure requests, many tiny dense matrices, and the front door.

    Its depth probe runs on the battery's CLI fixture <-I> over Q, where the
    kernels are small dense Fraction matrices.
    """

    name = "structure-battery"
    probe_budget_s = 2.0
    small_asserted = False

    def __init__(self, seed: int):
        self.seed = seed
        self.probe_obj = jsonio.load_json(os.path.join(DATA, "minus-id.json"))
        self.requests = [
            Request(f"{alg}:{op}", _library_request(build, fn))
            for alg, build in _algebras().items()
            for op, fn in OPERATIONS.items()
        ]
        self.requests += [
            Request(f"catalog:{name}:{json.dumps(params, sort_keys=True)}",
                    _catalog_request(name, params))
            for name, params in catalog.default_runs()
        ]
        self.requests += [
            Request(f"cli:{label}", _cli_request(argv))
            for label, argv in CLI_RUNS.items()
        ]

    def rounds(self):
        rng = random.Random(self.seed)
        while True:
            batch = list(self.requests)
            if self.seed:
                rng.shuffle(batch)
            yield batch

    def build_ring(self):
        return jsonio.action_from_json(self.probe_obj)


WORKLOADS = {w.name: w for w in (FpSchemeWindow, QCubeRotations, StructureBattery)}
