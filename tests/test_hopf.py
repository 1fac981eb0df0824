"""Hopf algebra structure data: axioms, duals, integrals, Frobenius forms."""

import numpy as np
import pytest

from knopf import exactalg as xa
from knopf.catalog import cyclic_table, dihedral_table, u_l_hopf
from knopf.errors import InconsistencyError, InputError
from knopf.exactalg import FieldSpec
from knopf.hopf import HopfAlgebraData, group_algebra, restricted_enveloping

Q = FieldSpec.rationals()


def _same_hopf(a: HopfAlgebraData, b: HopfAlgebraData) -> bool:
    return (
        xa.arrays_equal(a.mult, b.mult)
        and xa.arrays_equal(a.comult, b.comult)
        and xa.arrays_equal(a.unit, b.unit)
        and xa.arrays_equal(a.counit, b.counit)
        and xa.arrays_equal(a.antipode, b.antipode)
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
    bad_mult = h.mult.copy()
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
    assert xa.arrays_equal(solved.antipode, h.antipode)
    # S(g) = g^{-1}: column 1 (generator) maps to index 2 (its inverse)
    assert solved.antipode[2, 1] == 1


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
