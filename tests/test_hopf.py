"""Hopf algebra structure data: axioms, duals, integrals, Frobenius forms."""

import hashlib

import numpy as np
import pytest

from knopf import exactalg as xa
from knopf.catalog import cyclic_table, dihedral_table, u_l_hopf
from knopf.errors import InconsistencyError, InputError, UndecidedError
from knopf.exactalg import FieldSpec
from knopf.hopf import (HopfAlgebraData, function_algebra, group_algebra,
                        restricted_enveloping, tensor_hopf)
from knopf.jsonio import canonical_json, hopf_to_json

Q = FieldSpec.rationals()


def _same_hopf(a: HopfAlgebraData, b: HopfAlgebraData) -> bool:
    return (
        a.mult == b.mult
        and a.comult == b.comult
        and xa.arrays_equal(a.unit, b.unit)
        and xa.arrays_equal(a.counit, b.counit)
        and a.antipode == b.antipode
    )


@pytest.mark.parametrize("table", [cyclic_table(2), cyclic_table(4),
                                   dihedral_table(3), dihedral_table(4)])
def test_group_algebra_axioms(table):
    h = group_algebra(Q, table)
    assert h.verify_axioms().ok


def test_group_algebra_axioms_mod_p(Fp):
    assert group_algebra(Fp, cyclic_table(4)).verify_axioms().ok


def test_trivial_group_gives_one_dimensional_hopf():
    h = group_algebra(Q, [[0]])
    assert h.dim == 1
    assert h.verify_axioms().ok
    assert h.is_unimodular() and h.is_symmetric()


def test_corrupted_product_fails_associativity_with_witness():
    h = group_algebra(Q, dihedral_table(3))
    bad_mult = h.mult.to_dense(Q)
    k_true = int(np.argwhere(bad_mult[1, 2] != 0)[0][0])
    bad_mult[1, 2, k_true] = Q.zero
    bad_mult[1, 2, 1 if k_true != 1 else 2] = Q.one
    bad = HopfAlgebraData(Q, h.basis, h.unit, bad_mult, h.counit, h.comult,
                          h.antipode)
    rep = bad.verify_axioms()
    assert not rep.ok
    assoc = rep.failures[0]
    assert assoc.name == "associativity"
    assert isinstance(assoc.witness, tuple) and assoc.witness is not None


def test_dual_is_an_involution():
    h = group_algebra(Q, dihedral_table(3))
    assert _same_hopf(h.dual().dual(), h)
    u = u_l_hopf(5)
    assert _same_hopf(u.dual().dual(), u)


def test_group_algebra_integrals_are_group_sums():
    h = group_algebra(Q, cyclic_table(3))
    left = h.integrals("left")
    right = h.integrals("right")
    expect = Q.asarray([[1, 1, 1]])
    assert xa.arrays_equal(left, expect)
    assert xa.arrays_equal(right, expect)
    assert h.is_unimodular()


def test_group_algebras_are_symmetric():
    for field, table in [(Q, dihedral_table(3)),
                         (FieldSpec.prime(3), dihedral_table(3)),
                         (Q, dihedral_table(4))]:
        h = group_algebra(field, table)
        assert h.is_frobenius()
        assert h.is_symmetric()
        assert h.is_cocommutative()


def test_dual_group_algebra_is_commutative_functions():
    h = group_algebra(Q, dihedral_table(3)).dual()
    assert h.verify_axioms().ok
    assert h.is_commutative()
    assert not h.is_cocommutative()
    assert h.is_unimodular()
    assert h.is_symmetric()


def test_antipode_solver_matches_group_inverse():
    table = cyclic_table(3)
    h = group_algebra(Q, table)
    solved = HopfAlgebraData(Q, h.basis, h.unit, h.mult, h.counit, h.comult)
    assert solved.antipode == h.antipode
    # S(g) = g^{-1}: column 1 (generator) maps to index 2 (its inverse)
    assert solved.antipode.to_dense(Q)[:, 1, 0].tolist() == [0, 0, 1]


def _monoid_z2_eq_z():
    """The monoid bialgebra of {1, z}, z^2 = z: S(z) z = eps(z) = 1 is impossible."""
    mult = Q.zeros((2, 2, 2))
    mult[0, 0, 0] = mult[0, 1, 1] = mult[1, 0, 1] = mult[1, 1, 1] = 1
    comult = Q.zeros((2, 2, 2))
    comult[0, 0, 0] = comult[1, 1, 1] = 1
    return ["1", "z"], [1, 0], mult, [1, 1], comult


def _zero_one_dim():
    """One basis vector, zero product and zero counit: every S solves the axiom."""
    return ["b"], [1], Q.zeros((1, 1, 1)), [0], Q.asarray([[[1]]])


def test_antipode_solver_refuses_a_bialgebra_without_antipode():
    with pytest.raises(InputError, match="admits no antipode"):
        HopfAlgebraData(Q, *_monoid_z2_eq_z())


def test_antipode_solver_refuses_a_non_unique_antipode():
    with pytest.raises(InconsistencyError, match="not unique"):
        HopfAlgebraData(Q, *_zero_one_dim())


def test_restricted_enveloping_basis_and_dimension():
    for p in (2, 3, 5):
        h = u_l_hopf(p)
        assert h.dim == p * p
        assert h.verify_axioms().ok
        assert h.is_cocommutative()
    assert u_l_hopf(2).basis == ["1", "e", "f", "fe"]
    assert u_l_hopf(3).basis == [
        "1", "e", "e^2", "f", "fe", "fe^2", "f^2", "f^2e", "f^2e^2"
    ]


def test_abelian_restricted_enveloping_is_exterior_like():
    f2 = FieldSpec.prime(2)
    zero = [[0, 0], [0, 0]]
    h = restricted_enveloping(f2, ["f", "e"], [zero, zero], [[0, 0], [0, 0]])
    assert h.dim == 4
    assert h.verify_axioms().ok
    assert h.is_commutative() and h.is_cocommutative()
    assert h.is_unimodular() and h.is_symmetric()


def test_ul_integrals_frozen_p2():
    h = u_l_hopf(2)
    # basis order 1, e, f, fe
    assert xa.arrays_equal(h.integrals("left"),
                           h.field.asarray([[0, 1, 0, 1]]))    # e + fe
    assert xa.arrays_equal(h.integrals("right"),
                           h.field.asarray([[0, 0, 0, 1]]))    # fe
    assert not h.is_unimodular()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ul_not_unimodular_not_symmetric(p):
    h = u_l_hopf(p)
    left, right = h.integrals("left"), h.integrals("right")
    assert len(left) == 1 and len(right) == 1
    assert not xa.arrays_equal(left, right)
    assert not h.is_unimodular()
    assert not h.is_symmetric()
    assert h.is_frobenius()


def test_symmetric_verdict_of_a_non_unimodular_hopf_algebra_needs_no_search():
    # dim 50, so the symmetric forms span F_5^10, beyond the exhaustion budget:
    # the verdict is the theorem that a symmetric Hopf algebra is unimodular
    f5 = FieldSpec.prime(5)
    h = tensor_hopf(u_l_hopf(5), group_algebra(f5, cyclic_table(2)))
    assert h.dim == 50 and h.verify_axioms().ok and not h.is_unimodular()
    assert not h.is_symmetric()


# sha256 of canonical_json(hopf_to_json(h)), pinned from the dense builders
# that preceded the sparse ones: the structure constants keep every byte
_F2_ZERO = [[0, 0], [0, 0]]
_BUILDER_PINS = [
    ("uL/F2", lambda: u_l_hopf(2),
     "d0b699a3b8cf74781a344a1f2dcbe4781229a907c0f0349c9ed63d6c8d684de9"),
    ("uL/F3", lambda: u_l_hopf(3),
     "4f8abf5f2c22e13ed831e513e897313956541525c3ec4b96a55cda81819465ec"),
    ("uL/F5", lambda: u_l_hopf(5),
     "b5657d2cc0ceaec783daf52a18ef4ba3f3adcfa665a96397a97c880089bbf988"),
    ("uL/F7", lambda: u_l_hopf(7),
     "91c9857000af7496dcb7dd66cd7804f1a7325466de2adcf9844ba970068a6f1c"),
    ("abelian-u/F2", lambda: restricted_enveloping(
        FieldSpec.prime(2), ["f", "e"], [_F2_ZERO, _F2_ZERO], _F2_ZERO),
     "57dd49ced594a4cb92c0e023ce11f0230fd63716edc2346207c5f7b11054fd62"),
    ("kC2|k^C3/Q", lambda: tensor_hopf(group_algebra(Q, cyclic_table(2)),
                                       function_algebra(Q, cyclic_table(3))),
     "27c5ac8fd4e537de836b732853e43901c012d68b969dd0dca4accb39c2562e9f"),
    ("kC2|k^C3/F5", lambda: tensor_hopf(
        group_algebra(FieldSpec.prime(5), cyclic_table(2)),
        function_algebra(FieldSpec.prime(5), cyclic_table(3))),
     "3e4da9c7d89c8d27b3cef90b3d7d619fdba261f03e8f7072c938fb9e677e0d82"),
]


@pytest.mark.parametrize("build, pin", [case[1:] for case in _BUILDER_PINS],
                         ids=[case[0] for case in _BUILDER_PINS])
def test_hopf_builders_keep_their_bytes(build, pin):
    text = canonical_json(hopf_to_json(build()))
    assert hashlib.sha256(text.encode()).hexdigest() == pin


def test_ul_modular_element_kills_e_detects_f():
    h2 = u_l_hopf(2)
    assert list(h2.modular_element()) == [1, 0, 1, 0]
    h3 = u_l_hopf(3)
    # alpha(e^i f^j ...) = 1 exactly on powers of f alone
    assert list(h3.modular_element()) == [1, 0, 0, 1, 0, 0, 1, 0, 0]


def test_unimodular_modular_element_is_counit():
    h = group_algebra(Q, cyclic_table(4))
    assert xa.arrays_equal(h.modular_element(), h.counit)


def test_commutative_local_frobenius_without_coalgebra():
    # k[x]/(x^2) is Frobenius; k[x,y]/(x^2, xy, y^2) is not
    mult = Q.zeros((2, 2, 2))
    mult[0, 0, 0] = 1
    mult[0, 1, 1] = 1
    mult[1, 0, 1] = 1
    h = HopfAlgebraData(Q, ["1", "x"], Q.asarray([1, 0]), mult)
    assert h.is_frobenius() and h.is_symmetric()

    m3 = Q.zeros((3, 3, 3))
    m3[0, 0, 0] = 1
    for i in (1, 2):
        m3[0, i, i] = 1
        m3[i, 0, i] = 1
    fat = HopfAlgebraData(Q, ["1", "x", "y"], Q.asarray([1, 0, 0]), m3)
    assert not fat.is_frobenius()


def test_direct_sum_with_field_is_frobenius():
    # k[x]/(x^2) (+) k: still Frobenius (socle is one-dimensional per block)
    mult = Q.zeros((3, 3, 3))
    mult[0, 0, 0] = 1
    mult[0, 1, 1] = 1
    mult[1, 0, 1] = 1
    mult[2, 2, 2] = 1
    h = HopfAlgebraData(Q, ["1a", "x", "1b"], Q.asarray([1, 0, 1]), mult)
    assert h.is_frobenius()
    assert h.is_symmetric()


def test_group_table_associativity_witness():
    # D_4 with one product changed: the first failing (i, j, k) in C order,
    # as the triple loop over all of them finds it
    table = [row[:] for row in dihedral_table(4)]
    table[3][5] = table[3][6]
    m = len(table)
    want = next((i, j, k) for i in range(m) for j in range(m) for k in range(m)
                if table[table[i][j]][k] != table[i][table[j][k]])
    assert want == (1, 2, 5)
    with pytest.raises(InputError) as exc:
        group_algebra(Q, table)
    assert str(exc.value) == "group table not associative at ({},{},{})".format(*want)


def test_group_table_witness_outside_the_checked_generators():
    # C_6 with 1 * 1 = 3: associativity is checked at a set of elements that
    # generates the table under right multiplication, taken greedily from the
    # top, here {5}; the least failing (i, j, k) has i = 1 outside that set
    # and is still the one reported, as the scan over every triple gives it
    table = cyclic_table(6)
    table[1][1] = table[1][2]
    m = len(table)
    want = next((i, j, k) for i in range(m) for j in range(m) for k in range(m)
                if table[table[i][j]][k] != table[i][table[j][k]])
    gens, reached = [], {0}
    for g in reversed(range(m)):
        if g not in reached:
            gens.append(g)
            while not {table[x][h] for x in reached for h in gens} <= reached:
                reached |= {table[x][h] for x in reached for h in gens}
    assert want == (1, 1, 2) and want[0] not in gens
    with pytest.raises(InputError) as exc:
        group_algebra(Q, table)
    assert str(exc.value) == "group table not associative at ({},{},{})".format(*want)


def test_axiom_checks_refuse_outer_products_over_the_term_budget():
    # one product and one coproduct term, but a dense unit and counit: the
    # counit and unit checks would compare against 3000^2 products
    f5, n = FieldSpec.prime(5), 3000
    one = xa.SparseCoaction.from_entries([(0, 0, 0, 1)], n, n)
    antipode = xa.SparseCoaction.from_entries([(0, 0, 0, 1)], n, 1)
    h = HopfAlgebraData(f5, [f"b{i}" for i in range(n)], [1] * n, one, [1] * n, one, antipode)
    with pytest.raises(UndecidedError, match="TERM_BUDGET"):
        h.verify_axioms()
