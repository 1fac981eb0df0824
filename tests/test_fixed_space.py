"""Fixed spaces from algebra generators, certified against every coordinate.

`exactalg.fixed_space` takes the rows of the coordinates it is given (the
algebra generators of k[G]* for invariants, of H for integrals), peels the
singleton rows and eliminates the rest, then checks every null vector
against every coordinate and adds the rows of a violated one until none
is.  The reference here is the all-rows kernel: one dense system with a row
per (basis vector, coordinate).  The certified route must equal it on
comodules, grouplike twists and Hopf algebras, and also on coactions and
structure constants perturbed off their axioms, where the generators' rows
alone no longer suffice.
"""

import functools
import itertools
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knopf import action as act
from knopf import canon
from knopf import exactalg as xa
from knopf import gscheme as gs
from knopf.catalog import cyclic_table, dihedral_table, radford_battery, standard_module
from knopf.exactalg import FieldSpec
from knopf.hopf import HopfAlgebraData, function_algebra, group_algebra, tensor_hopf
import dense_ref as dr
from test_exactalg import _seed_kernel

Q = FieldSpec.rationals()
FIELDS = [Q, FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5),
          FieldSpec.prime(7)]


def _product_table(t1, t2):
    m2 = len(t2)
    return [[t1[a // m2][b // m2] * m2 + t2[a % m2][b % m2]
             for b in range(len(t1) * m2)] for a in range(len(t1) * m2)]


TABLES = [cyclic_table(1), cyclic_table(2), cyclic_table(3), cyclic_table(4),
          dihedral_table(3), dihedral_table(4),
          _product_table(cyclic_table(2), cyclic_table(2))]


def _relabelled(table, perm):
    out = [[0] * len(table) for _ in table]
    for a, b in itertools.product(range(len(table)), repeat=2):
        out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


def _perm_sign(perm):
    return (-1) ** sum(perm[a] > perm[b] for a in range(len(perm))
                       for b in range(a + 1, len(perm)))


CUBE = [
    [[signs[r] * int(perm[r] == c) for c in range(3)] for r in range(3)]
    for perm in itertools.permutations(range(3))
    for signs in itertools.product((1, -1), repeat=3)
    if _perm_sign(perm) * signs[0] * signs[1] * signs[2] == 1
]


# -- the all-rows reference ---------------------------------------------------


def _dense_system(field, coact, unit):
    """The fixed-space system, dense: [i, g, j] = coact[i, j, g] - [i == j] unit[g]."""
    dense = coact.to_dense(field)
    a = dense.transpose(0, 2, 1).copy()
    for i in range(dense.shape[0]):
        a[i, :, i] = field.reduce(a[i, :, i] - unit)
    return a


def _all_rows_kernel(field, coact, unit):
    """The fixed space from every row (i, g) at once, on the dense system."""
    a = _dense_system(field, coact, unit)
    return dr.kernel_basis(field, a.reshape(-1, a.shape[2]))


def _assert_same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.reshape(-1).tolist() == want.reshape(-1).tolist()


def _perturbed(field, coact, changes):
    """coact with delta added at [i, j, g] (indices reduced into range)."""
    dense = coact.to_dense(field)
    for *index, delta in changes:
        index = tuple(k % s for k, s in zip(index, dense.shape))
        dense[index] = field.reduce(dense[index] + field.coerce(delta))
    return xa.SparseCoaction.from_dense(dense)


# -- comodules ----------------------------------------------------------------


def _regular_coaction(field, table):
    """The left regular representation of a group as a k^G-coaction:
    [g h, h, g] = 1."""
    m = len(table)
    c = field.zeros((m, m, m))
    for g, h in itertools.product(range(m), repeat=2):
        c[table[g][h], h, g] = field.one
    return c


@st.composite
def comodule_cases(draw):
    """(field, coaction of Sym^d, unit, generators of k[G]*)."""
    kind = draw(st.sampled_from(["constant", "mu_alpha", "mu"]))
    if kind == "constant":
        field = draw(st.sampled_from(FIELDS))
        table = draw(st.sampled_from(TABLES[:5]))
        table = _relabelled(table, draw(st.permutations(range(len(table)))))
        scheme = gs.constant_scheme(field, table)
        coact = _regular_coaction(field, table)
        if draw(st.booleans()) and len(table) <= 3:
            # in another basis: conjugated by an invertible matrix
            size = len(table)
            values = st.integers(-3, 3)
            p = field.asarray([[draw(values) for _ in range(size)] for _ in range(size)])
            p = field.reduce(p + field.eye(size) * field.coerce(7))
            p_inv = dr.invert(field, p)
            if p_inv is not None:
                coact = np.stack([dr.matmul(field, dr.matmul(field, p, coact[:, :, g]), p_inv)
                                  for g in range(size)], axis=2)
        module = act.Comodule(scheme, coact)
    elif kind == "mu_alpha":
        p, ell = draw(st.sampled_from([(2, 3), (5, 3), (3, 5)]))
        field = FieldSpec.prime(p)
        scheme = gs.mu_semidirect_alpha_scheme(field, ell)
        w = standard_module(scheme, ell, p)
        module = draw(st.sampled_from([w, w.dual(), act.direct_sum(w, w.dual())]))
    else:
        field = draw(st.sampled_from(FIELDS))
        m = draw(st.integers(1, 4))
        weights = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3))
        module = act.DiagonalizableAction(weights, m).to_kernel_route(field).module
        scheme = module.scheme
    assert module.verify().ok
    ring = act.GradedInvariantRing(module)
    coact = ring.tower.coaction(draw(st.integers(0, 3 if module.dim <= 3 else 2)))
    gamma = scheme.gamma
    basis = [field.zeros(gamma.dim) for _ in range(gamma.dim)]
    for g, v in enumerate(basis):
        v[g] = field.one
    grouplikes = [v for v in [gamma.unit, act.det_character(module)] + basis
                  if scheme.is_grouplike(v)]
    unit = draw(st.sampled_from(grouplikes))
    unit = draw(st.sampled_from([unit, scheme.grouplike_inverse(unit)]))
    gens = scheme.dual_algebra.algebra_generators
    if draw(st.booleans()):
        # off the axioms: a few coaction entries or unit values moved, mostly
        # at coordinates whose rows the generators' rows no longer imply
        others = [g for g in range(gamma.dim) if g not in gens]
        coords = st.sampled_from(others) if others else st.integers(0, gamma.dim - 1)
        changes = draw(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99), coords,
                                          st.integers(1, 3)), min_size=1, max_size=3))
        if draw(st.booleans()):
            coact = _perturbed(field, coact, changes)
        else:
            unit = unit.copy()
            for _, _, g, delta in changes:
                unit[g] = field.reduce(unit[g] + field.coerce(delta))
    return field, coact, unit, gens


@given(comodule_cases())
@settings(max_examples=120, deadline=None)
def test_certified_generator_route_equals_the_all_rows_kernel(case):
    field, coact, unit, gens = case
    want = _all_rows_kernel(field, coact, unit)
    _assert_same(xa.fixed_space(field, coact, unit, gens), want)
    assert xa.fixed_dim(field, coact, unit, gens) == len(want)
    # any seed gives the same space: none, or every coordinate
    _assert_same(xa.fixed_space(field, coact, unit), want)
    _assert_same(xa.fixed_space(field, coact, unit, range(coact.order)), want)


def test_certificate_repairs_a_seed_that_is_not_enough():
    # a coaction moved off coassociativity: the generators' rows alone cut
    # out a larger space, and the certificate adds rows until it is exact
    ring = act.constant_group_action(Q, CUBE)
    gens = ring.scheme.dual_algebra.algebra_generators
    unit = ring.scheme.gamma.unit
    coact = ring.tower.coaction(2)
    free = next(g for g in range(24) if g not in gens)
    dense = coact.to_dense(Q)
    dense[0, 0, free] += 1
    bad = xa.SparseCoaction.from_dense(dense)
    seed_only = dr.kernel_basis(Q, _dense_system(Q, bad, unit)[:, list(gens)].reshape(-1, bad.dim))
    want = _all_rows_kernel(Q, bad, unit)
    assert len(seed_only) > len(want)
    _assert_same(xa.fixed_space(Q, bad, unit, gens), want)
    assert xa.fixed_dim(Q, bad, unit, gens) == len(want)


# -- integrals ----------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _battery():
    return tuple(h for _, h in radford_battery())


@st.composite
def hopf_cases(draw):
    kind = draw(st.sampled_from(["battery", "group", "function", "tensor"]))
    if kind == "battery":
        h = draw(st.sampled_from(_battery()))
    elif kind in ("group", "function"):
        field = draw(st.sampled_from(FIELDS))
        table = draw(st.sampled_from(TABLES))
        table = _relabelled(table, draw(st.permutations(range(len(table)))))
        h = (group_algebra if kind == "group" else function_algebra)(field, table)
    else:
        field = draw(st.sampled_from(FIELDS[:3]))
        left = group_algebra(field, draw(st.sampled_from(TABLES[:4])))
        right = function_algebra(field, cyclic_table(draw(st.integers(2, 3))))
        h = tensor_hopf(left, right) if draw(st.booleans()) else tensor_hopf(right, left)
    f = h.field
    if draw(st.booleans()):
        # off associativity or a multiplicative counit: mult or counit moved
        changes = draw(st.lists(st.tuples(*[st.integers(0, 999)] * 3, st.integers(1, 3)),
                                min_size=1, max_size=3))
        mult, counit = h.mult, h.counit
        if draw(st.booleans()):
            mult = _perturbed(f, mult, changes)
        else:
            counit = counit.copy()
            for k, _, _, delta in changes:
                counit[k % h.dim] = f.reduce(counit[k % h.dim] + f.coerce(delta))
        h = HopfAlgebraData(f, h.basis, h.unit, mult, counit, h.comult, h.antipode)
    return h


@given(hopf_cases())
@settings(max_examples=120, deadline=None)
def test_certified_integrals_equal_the_all_rows_kernel(h):
    for side, axes in (("left", (2, 1, 0)), ("right", (2, 0, 1))):
        want = _all_rows_kernel(h.field, h.mult.transpose(axes), h.counit)
        _assert_same(h.integrals(side), want)


# -- algebra generators -------------------------------------------------------


def _subalgebra_dim(h, gens):
    """dim of the subalgebra generated by 1 and the b_g, g in gens: the span
    of the unit closed under right multiplication by each b_g, densely."""
    f = h.field
    c = h.mult.to_dense(f)
    span = h.unit.reshape(1, -1)
    while True:
        grown = np.concatenate([span] + [dr.matmul(f, span, c[:, g, :]) for g in gens])
        r, pivots = dr.rref(f, grown)
        if len(pivots) == len(span):
            return len(span)
        span = r[:len(pivots)]


def _algebras():
    out = [(name, h) for name, h in radford_battery()]
    for field in (Q, FieldSpec.prime(3)):
        for k, table in enumerate(TABLES):
            out.append((f"kG{k}/{field}", group_algebra(field, table)))
            out.append((f"k^G{k}/{field}", function_algebra(field, table)))
    out.append(("kC2 x k^C3", tensor_hopf(group_algebra(Q, cyclic_table(2)),
                                          function_algebra(Q, cyclic_table(3)))))
    return out


ALGEBRAS = _algebras()


@pytest.mark.parametrize("h", [h for _, h in ALGEBRAS], ids=[n for n, _ in ALGEBRAS])
def test_algebra_generators_are_the_least_index_greedy_set(h):
    gens = h.algebra_generators
    assert list(gens) == sorted(set(gens))
    assert _subalgebra_dim(h, gens) == h.dim
    # b_i is a generator exactly when the earlier generators miss it
    for i in range(h.dim):
        earlier = [g for g in gens if g < i]
        with_i = _subalgebra_dim(h, earlier + [i])
        assert (with_i > _subalgebra_dim(h, earlier)) == (i in gens)


@pytest.mark.parametrize("table", TABLES, ids=[f"G{k}" for k in range(len(TABLES))])
def test_group_algebra_generators_generate_the_group(table):
    gens = group_algebra(Q, table).algebra_generators
    reached = {0} | set(gens)
    while True:
        more = reached | {table[a][g] for a in reached for g in gens}
        if more == reached:
            break
        reached = more
    assert reached == set(range(len(table)))


@pytest.mark.parametrize("field", [Q, FieldSpec.prime(2), FieldSpec.prime(5)])
@pytest.mark.parametrize("table", TABLES[1:], ids=[f"G{k}" for k in range(1, len(TABLES))])
def test_function_algebra_needs_all_but_one_idempotent(field, table):
    # k^G is a product of |G| copies of k: its subalgebras containing 1 are
    # spanned by the sums over blocks of a partition of G
    assert len(function_algebra(field, table).algebra_generators) == len(table) - 1


@pytest.mark.parametrize("field", [Q, FieldSpec.prime(3)])
def test_one_dimensional_algebra_needs_no_generator(field):
    h = group_algebra(field, cyclic_table(1))
    assert h.algebra_generators == ()
    assert function_algebra(field, cyclic_table(1)).algebra_generators == ()
    assert len(h.integrals("left")) == 1


# -- the mechanism ------------------------------------------------------------


NONZERO = {None: [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)],
           5: [1, 2, 3, 4]}


@st.composite
def peel_cases(draw):
    """(field, coaction, unit, chain, forced) with a system chosen first:
    the rows of coordinate 0 start with a chain {c_0, c_1}, ..., {c_(L-2),
    c_(L-1)}, {c_(L-1)} that peels one column per pass, and random sparse
    rows fill the rest.  When forced, coordinate 0 has no other rows and
    coordinate 1 has the row e_(c_L), which the null space of coordinate 0's
    rows violates, so the certificate must add rows."""
    field = draw(st.sampled_from([Q, FieldSpec.prime(5)]))
    n, order = draw(st.integers(2, 8)), draw(st.integers(2, 4))
    forced = draw(st.booleans())
    chain = draw(st.permutations(range(n)))[:draw(st.integers(1, n - 1 if forced else n))]
    nonzero = st.sampled_from(NONZERO[field.p]).map(field.coerce)
    scalar = st.one_of(st.just(field.zero), st.just(field.zero), nonzero)
    system = field.zeros((n, order, n))
    for i in range(n):
        for g in range(order):
            if g or not forced:
                system[i, g] = draw(st.lists(scalar, min_size=n, max_size=n))
    for k, c in enumerate(chain):
        system[k, 0] = field.zeros(n)
        system[k, 0, c] = draw(nonzero)
        if k + 1 < len(chain):
            system[k, 0, chain[k + 1]] = draw(nonzero)
    if forced:
        free = next(c for c in range(n) if c not in chain)
        system[0, 1] = field.zeros(n)
        system[0, 1, free] = field.one
    unit = field.asarray(draw(st.lists(scalar, min_size=order, max_size=order)))
    # coact[i, j, g] - [i == j] unit[g] is the system's row (i, g)
    coact = system.transpose(0, 2, 1).copy()
    for i in range(n):
        coact[i, i] = field.reduce(coact[i, i] + unit)
    return field, xa.SparseCoaction.from_dense(coact), unit, chain, forced


@given(peel_cases())
@settings(max_examples=150, deadline=None)
def test_peeled_system_and_certificate_give_the_dense_kernel(case):
    field, coact, unit, chain, forced = case
    want = _all_rows_kernel(field, coact, unit)
    peeled, _, _, core = xa._reduced_system(field, coact, xa._unit_terms(unit), (0,))
    # the chain cascades to the end, one column per pass
    assert peeled[list(chain)].all()
    if forced:
        assert sorted(peeled.nonzero()[0]) == sorted(chain) and core == []
    violations, real = [], xa._violated

    def recording(*args):
        violations.append(real(*args))
        return violations[-1]

    with mock.patch.object(xa, "_violated", recording):
        _assert_same(xa.fixed_space(field, coact, unit, (0,)), want)
    assert xa.fixed_dim(field, coact, unit, (0,)) == len(want)
    assert not violations[-1]
    if forced:
        assert violations[0]


@pytest.mark.parametrize("field, unit", [
    (FieldSpec.prime(5), [3, 0, 4]),
    (Q, [Fraction(1, 2), 0, Fraction(-3, 2)]),
], ids=["F5", "Q-object"])
def test_diagonal_entries_that_cancel_the_unit_fold_to_nothing(field, unit):
    # coact[i, i, :] = unit: row (i, g) of the system loses its diagonal
    # entry.  A zero left in its place would count as a singleton row and
    # zero column i; in rows (0, 2) and (2, 0) the one entry left is x_1's
    # and x_3's, and every other row folds to nothing
    unit = field.asarray(unit)
    dense = field.zeros((4, 4, 3))
    for i in range(4):
        dense[i, i] = unit
    coact = xa.SparseCoaction.from_dense(dense)
    assert coact.vals.dtype == (object if field.p is None else np.int64)
    _assert_same(xa.fixed_space(field, coact, unit, (0, 1, 2)), field.eye(4))
    dense[0, 1, 2], dense[2, 3, 0] = field.one, field.coerce(2)
    coact = xa.SparseCoaction.from_dense(dense)
    zero, root, _, core = xa._reduced_system(field, coact, xa._unit_terms(unit), (0, 1, 2))
    assert zero.tolist() == [False, True, False, True] and core == []
    want = _all_rows_kernel(field, coact, unit)
    assert len(want) == 2
    _assert_same(xa.fixed_space(field, coact, unit, (0, 2)), want)


@pytest.mark.parametrize("twisted", [False, True], ids=["invariants", "twisted"])
def test_cube_kernel_eliminates_only_the_generator_rows(monkeypatch, twisted):
    # the rows handed to the elimination at d = 20: those of the generators
    # of k[G]* (4 of the 24 coordinates at most), not one per coordinate
    ring = act.constant_group_action(Q, CUBE)
    gens = ring.scheme.dual_algebra.algebra_generators
    assert len(gens) <= 4
    coact = ring.tower.coaction(20)
    # the sign of the underlying permutation: a character of the group
    sign = Q.asarray([_perm_sign([next(c for c, v in enumerate(row) if v) for row in g])
                      for g in CUBE])
    twist = sign if twisted else ring.scheme.gamma.unit
    want = len(_all_rows_kernel(Q, coact, ring._kernel_unit(twist)[1]))
    received = []
    real = xa._echelon

    def counting(field, rows, piv=None):
        rows = list(rows)
        received.append(len(rows))
        return real(field, rows, piv)

    monkeypatch.setattr(xa, "_echelon", counting)
    assert ring.invariant_dim(20, twist=twist) == want
    assert sum(received) <= len(gens) * coact.dim


# -- the doubleton merge ------------------------------------------------------


MERGE_FIELDS = [Q, FieldSpec.prime(2), FieldSpec.prime(5), FieldSpec.prime(1048573)]
# Q weights stay int64 while every divisor is +-1; the other divisors take
# them to the object lane
MERGE_SCALARS = {None: [1, -1, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)],
                 2: [1], 5: [1, 2, 3, 4], 1048573: [1, 2, 1048572, 524287, 77]}


@st.composite
def doubleton_cases(draw):
    """(field, coaction, unit, system (n, order, n)) of a system made mostly
    of doubleton rows.

    Chains run over random orders of the first columns, each row c_a x_a +
    c_b x_b consistent with potentials t (c_a t_a + c_b t_b = 0), so that a
    chain hooks over several rounds and jumps; a chain may close into a
    cycle, by a row that agrees with the potentials or one that does not.
    Around the chains: rows {a, b, c} that become a doubleton once the
    singleton row {c} of an extra column c is peeled, rows {a, b, c} whose a
    and b cancel once a and b are merged, leaving a singleton, and rows of
    three random entries for the core.
    """
    field = draw(st.sampled_from(MERGE_FIELDS))
    p = field.p
    nonzero = st.sampled_from(MERGE_SCALARS[p]).map(field.coerce)

    def scalar():
        return draw(nonzero)

    def partner(ca, a, b):
        # the c_b with c_a t_a + c_b t_b = 0
        return -ca * t[a] / t[b] if p is None else -ca * t[a] * pow(t[b], -1, p) % p

    chained, extra = draw(st.integers(2, 10)), draw(st.integers(0, 3))
    n = chained + extra
    t = [scalar() for _ in range(chained)]
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.permutations(range(chained)))[:draw(st.integers(2, chained))]
        edges = list(zip(path, path[1:]))
        if len(path) > 2 and draw(st.booleans()):
            edges.append((path[-1], path[0]))
        for k, (a, b) in enumerate(edges):
            ca = scalar()
            cb = partner(ca, a, b)
            if k == len(path) - 1 and draw(st.booleans()):
                # the cycle closes inconsistently: x = 0 on it
                cb = cb + scalar() if p is None else (cb + scalar()) % p
            rows.append({a: ca, b: cb})
    for c in range(chained, n):
        a, b = draw(st.permutations(range(chained)))[:2]
        rows += [{a: scalar(), b: scalar(), c: scalar()}, {c: scalar()}]
    for _ in range(draw(st.integers(0, 2)) if n > 2 else 0):
        a, b, c = draw(st.permutations(range(n)))[:3]
        if max(a, b) < chained and draw(st.booleans()):
            ca = scalar()
            rows.append({a: ca, b: partner(ca, a, b), c: scalar()})
        else:
            rows.append({a: scalar(), b: scalar(), c: scalar()})
    order = -(-len(rows) // n)
    system = field.zeros((n * order, n))
    for slot, row in zip(draw(st.permutations(range(n * order))), rows):
        for c, v in row.items():
            system[slot, c] = field.coerce(v)
    system = system.reshape(n, order, n)
    unit = field.asarray([scalar() for _ in range(order)])
    # coact[i, j, g] - [i == j] unit[g] is the system's row (i, g)
    coact = system.transpose(0, 2, 1).copy()
    for i in range(n):
        coact[i, i] = field.reduce(coact[i, i] + unit)
    return field, xa.SparseCoaction.from_dense(coact), unit, system


@given(doubleton_cases())
@settings(max_examples=300, deadline=None)
def test_merged_doubletons_give_the_seed_kernel(case):
    field, coact, unit, system = case
    n, order, _ = system.shape
    want = _seed_kernel(field, system.reshape(n * order, n))
    for first in (range(order), (0,), ()):
        _assert_same(xa.fixed_space(field, coact, unit, first), want)
        assert xa.fixed_dim(field, coact, unit, first) == len(want)


def test_merge_roots_are_the_largest_columns_and_cycles_close():
    # over F_5, x_0 = 2 x_1, x_1 = 3 x_2, x_2 = 4 x_3: one root, 3, and two
    # jumps composing the weights 2 3 4 = 4, 3 4 = 2 and 4; x_4 = x_5 and
    # x_5 = -x_4 close a cycle inconsistently, which leaves a singleton on
    # its root and zeroes the component
    field = FieldSpec.prime(5)
    system = field.zeros((6, 6))
    for r, (a, b, cb) in enumerate([(0, 1, -2), (1, 2, -3), (2, 3, -4), (4, 5, -1), (5, 4, 1)]):
        system[r, a], system[r, b] = 1, cb % 5
    coact = system[:, :, None].copy()
    for i in range(6):
        coact[i, i, 0] = (coact[i, i, 0] + 1) % 5
    zero, root, weight, core = xa._reduced_system(
        field, xa.SparseCoaction.from_dense(coact), xa._unit_terms(field.asarray([1])), (0,))
    assert root[:4].tolist() == [3, 3, 3, 3] and core == []
    assert weight[:4].tolist() == [4, 2, 4, 1]
    assert zero.tolist() == [False] * 4 + [True] * 2


@pytest.mark.parametrize("probe", ["fp", "q-cube"])
def test_probe_kernels_leave_no_rows_for_the_row_dict_elimination(monkeypatch, probe):
    # both kernels of degree 40 reduce to roots by peeling and merging alone
    if probe == "fp":
        g = gs.mu_semidirect_alpha_scheme(FieldSpec.prime(5), 3)
        w = standard_module(g, 3, 5)
        ring = act.GradedInvariantRing(act.direct_sum(w, w.dual()))
    else:
        ring = act.constant_group_action(Q, CUBE)
    twist = canon.canonical_twist(ring)
    ring.scheme.dual_algebra.algebra_generators
    received = []
    real = xa._echelon

    def counting(field, rows, piv=None):
        rows = list(rows)
        received.append(len(rows))
        return real(field, rows, piv)

    monkeypatch.setattr(xa, "_echelon", counting)
    ring.invariant_dim(40)
    ring.invariant_dim(40, twist=twist)
    assert received and not any(received)
