"""Group schemes and the Knop character via its two routes."""

import hashlib
import warnings

import pytest

from knopf import exactalg as xa
from knopf import gscheme as gs
from knopf.catalog import dihedral_table, u_l_hopf
from knopf.errors import InputError
from knopf.exactalg import FieldSpec
from knopf.gscheme import FiniteGroupScheme
from knopf.hopf import tensor_hopf
from knopf.jsonio import canonical_json, hopf_to_json
import dense_ref as dr

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)


def test_constructor_rejects_noncommutative_coordinate_ring():
    from knopf.hopf import group_algebra

    with pytest.raises(InputError):
        FiniteGroupScheme(group_algebra(Q, dihedral_table(3)))


def test_constant_scheme_of_s3():
    g = gs.constant_scheme(Q, dihedral_table(3), label="S3")
    assert g.order == 6
    assert g.verify().ok
    assert g.knop_trivial()


def test_mu_and_alpha_axioms():
    assert gs.mu_scheme(Q, 4).verify().ok
    assert gs.mu_scheme(F3, 3).verify().ok          # infinitesimal at p = 3
    assert gs.alpha_scheme(F5).verify().ok


def test_grouplike_utilities():
    g = gs.mu_scheme(Q, 3)
    one = g.unit_grouplike()
    assert g.format_grouplike(one) == "1"
    t = g.field.zeros(3)
    t[1] = 1
    assert g.format_grouplike(t) == "t"
    tinv = g.grouplike_inverse(t)
    assert g.grouplike_equal(g.grouplike_product(t, tinv), one)


def test_is_grouplike():
    mu = gs.mu_scheme(Q, 3)
    assert mu.is_grouplike(mu.unit_grouplike())
    t = mu.field.zeros(3)
    t[1] = 1
    assert mu.is_grouplike(t)
    alpha = gs.alpha_scheme(F5)
    one_plus_a = alpha.field.zeros(5)
    one_plus_a[0] = 1
    one_plus_a[1] = 1
    # Delta(1+a) = 1(x)1 + a(x)1 + 1(x)a != (1+a)(x)(1+a)
    assert not alpha.is_grouplike(one_plus_a)


def test_knop_routes_mu3_alpha5_frozen():
    g = gs.mu_semidirect_alpha_scheme(F5, 3)
    adj = g.knop_character_adjoint_route()
    mod = g.knop_character_modular_route()
    assert g.format_grouplike(adj) == "t"
    assert g.format_grouplike(mod) == "t^2"
    # the two routes are inverse grouplikes of each other
    assert g.grouplike_equal(mod, g.grouplike_inverse(adj))
    assert g.knop_routes_agree()
    assert not g.knop_trivial()
    assert g.grouplike_equal(g.knop_character(), adj)


def test_knop_routes_inverse_relation_on_spread():
    schemes = [
        gs.constant_scheme(Q, dihedral_table(4)),
        gs.mu_scheme(F3, 3),
        gs.alpha_scheme(F2),
        gs.mu_semidirect_alpha_scheme(F5, 3),
        gs.scheme_of_hopf_dual(u_l_hopf(3)),
    ]
    for g in schemes:
        adj = g.knop_character_adjoint_route()
        mod = g.knop_character_modular_route()
        assert g.grouplike_equal(mod, g.grouplike_inverse(adj)), g.label
        assert g.knop_routes_agree(), g.label


def test_spec_ul_dual_knop_nontrivial():
    for p in (2, 3, 5):
        g = gs.scheme_of_hopf_dual(u_l_hopf(p))
        assert not g.knop_trivial(), p


def test_knop_triviality_constant_groups():
    for table in (dihedral_table(3), dihedral_table(4)):
        g = gs.constant_scheme(Q, table)
        assert xa.arrays_equal(g.knop_character(), g.unit_grouplike())


def test_knop_triviality_abelian_schemes():
    cases = [
        gs.mu_scheme(Q, 5),
        gs.mu_scheme(F3, 3),
        gs.alpha_scheme(F2),
        gs.alpha_scheme(F5),
        FiniteGroupScheme(tensor_hopf(gs.mu_scheme(F2, 2).gamma, gs.alpha_scheme(F2).gamma),
                          label="mu_2xalpha_2"),
    ]
    for g in cases:
        assert xa.arrays_equal(g.knop_character(), g.unit_grouplike()), g.label


def test_knop_triviality_mu_semidirect_constant():
    # linearly reductive identity component mu_ell, etale part C2
    g = gs.mu_semidirect_c2_scheme(Q, 3)
    assert g.verify().ok
    assert xa.arrays_equal(g.knop_character(), g.unit_grouplike())
    assert g.knop_routes_agree()


def test_knop_trivial_iff_dual_unimodular():
    spread = [
        gs.constant_scheme(Q, dihedral_table(3)),
        gs.mu_scheme(F3, 3),
        gs.alpha_scheme(F5),
        gs.mu_semidirect_alpha_scheme(F5, 3),
        gs.scheme_of_hopf_dual(u_l_hopf(2)),
    ]
    for g in spread:
        assert g.knop_trivial() == g.dual_algebra.is_unimodular(), g.label


def test_mu_semidirect_alpha_triviality_margin():
    # ell | 2(p-1) forces lambda trivial: ell = 3, p = 7 has 2*6 = 12 = 3*4;
    # the constructor warns that this sits outside the nontrivial range
    with pytest.warns(UserWarning):
        g = gs.mu_semidirect_alpha_scheme(FieldSpec.prime(7), 3)
    assert g.knop_trivial()


def test_adjoint_coaction_counit_law():
    g = gs.mu_semidirect_alpha_scheme(F5, 3)
    c = g.adjoint_coaction().to_dense(g.field)
    eps = dr.tensordot(g.field, c, g.gamma.counit, ([2], [0]))
    assert xa.arrays_equal(eps, g.field.eye(g.order))


# sha256 of canonical_json(hopf_to_json(...)) of each constructor's coordinate
# ring (u(L) itself), recorded from the original hand-written constructors:
# building mu_m from the group algebra of Z/m and alpha_p as mu_1 x| alpha_p
# must not change a structure constant or a label.
CONSTRUCTOR_PINS = {
    "mu_1/Q": "dc66b39590141a5326df1f770c3c906447e0fd42139c06a6471d62ae1787a84e",
    "mu_2/Q": "06fc93c6e834acc91ef139931f55b12c38211ba70567d3a3a3d33a8c902e66d3",
    "mu_3/Q": "d983171b94cb633e31980a5c454d1dc018782ffd43fc680e1d8e2ec154766f4d",
    "mu_4/Q": "38914db9461ab918f5493d96103c8fbc152283095ae84b6f85b78b8cea441e17",
    "mu_5/Q": "66d8ffc85603c10edaddfc4e37c97b650609b0e785305b4b92aaeff55f2ffce3",
    "mu_6/Q": "e02dfb7c92421780b0b5c726e872210187da96052c75cf5889f639f187bcd7fa",
    "mu_1:C2/Q": "94fdb79f0d4cb6433c28c6910e4fd250e6f96de42f7c731f5f607904fc285e68",
    "mu_2:C2/Q": "c264a5d3bff03a5ea36869259243254341d30afd5d3f5685468bee7e86b66605",
    "mu_3:C2/Q": "5f6189020adcdff4401b57bd4af018b1a6ecc6f3e868117e9aab77af1a725309",
    "mu_4:C2/Q": "0b42e03ff2b265213d38b5a5b79d3849187011a46655563adc96f8f4c8231a9c",
    "mu_1/F3": "0ff616a7cbbce7e3b6b973cbc965a610e6df2b6e635fa128fd3f8bc0f0a38034",
    "mu_2/F3": "1c2262709c74a0c7aced55b90cfc40df7a61d336b279d2c3ef85463108372d77",
    "mu_3/F3": "460b6a974aed6b1220087b671e97b50914b3c9537d54e08bd720ecdd1c95a24d",
    "mu_4/F3": "df062c4afb8beb1627bbb9b975890198c3a5b3f5b603d0144cb65231ac78ee48",
    "mu_5/F3": "91400ac5772d9af0d6589cf99435fce9d67f173bb6c577179db17ad4bc6430af",
    "mu_6/F3": "bbc45fd99387677e85c36fa9441ecdf4bc733338a6b74caf9926992468eeb87b",
    "mu_1:C2/F3": "bffc2c1c0eafbf34f5fc7e3ec7e4b65b77e1a15329fd3f0c30f5f61d29a3f3f4",
    "mu_2:C2/F3": "c151d3e42de3b9865c0d1a89dea0b39b4fabe46d791815ba0dcc1f2a436a06c1",
    "mu_3:C2/F3": "13bdf0731633ba64bd24972afeae5d72c6a22dc1822e0345e27d1bad0ae18ad9",
    "mu_4:C2/F3": "f041123af04a7f630c14563bac4be00ce8bbb9bfc6990ef781b9da0b6c03d96e",
    "mu_1/F7": "b31fafd4272ba9ad78981667a466bff207cfb6cf985d86d76ad13dafa11a5811",
    "mu_2/F7": "7aa7cedf35cc10ac07d8eebda4693cef817f1c9419c44cd6b7ee44b1b5dacfd3",
    "mu_3/F7": "c27af4422db454e03d1f50f201037c8578ca0a28b45bc335c3aec43208fee7d9",
    "mu_4/F7": "5d372b0018a966809a7d7a6fcda7476b89474167a0efa11ac3d1883876702ee4",
    "mu_5/F7": "c016b31708877f8f83162ac4aa378d851cc856a85ba9237c2cfcb20435f2daac",
    "mu_6/F7": "5ec28e722418feca4c32f9dcf15ea447eebd0b9dd506a5ff74d4946aa99c59ab",
    "mu_1:C2/F7": "cea58205fa08dabde1c02a2e1a91381785db8d5f39e4dd3802c578150dfc32dc",
    "mu_2:C2/F7": "3d904e075d03fd89666a79e416d9dcb7c72247d0b7d7ebab1abfec98ce991951",
    "mu_3:C2/F7": "8225237c6dc13e952be3c7642331ff4cf5aa68fa33d888f0aa8f9f059c550618",
    "mu_4:C2/F7": "dcf14777a47763dcb10d17998f118f37bdaea699282dacb9bfed7f0824103570",
    "alpha_2": "4307e3c14d61c6911f92bbc440f33c4be90732a6f938fa34c98de3c38913cfaf",
    "mu_1:alpha_2": "4307e3c14d61c6911f92bbc440f33c4be90732a6f938fa34c98de3c38913cfaf",
    "mu_2:alpha_2": "1e0b70642c02c27c4b0c9c22d0eb7abf83775019cf36fd35dcdf4f1dbc9774ae",
    "mu_3:alpha_2": "77b9910e7ab889f988c073c18f45bf5c794a151ae69ba28dcbbf0cf73eff0969",
    "uL/F2": "d0b699a3b8cf74781a344a1f2dcbe4781229a907c0f0349c9ed63d6c8d684de9",
    "alpha_3": "23eb44e8ad5e08dd43975bce4170d9b2b0d986cc46fc93f28533daeba4bdad36",
    "mu_1:alpha_3": "23eb44e8ad5e08dd43975bce4170d9b2b0d986cc46fc93f28533daeba4bdad36",
    "mu_2:alpha_3": "c3a8f1aae90ef73658277247bab895d9efd46dfc8b2ecba2b4942fb1222a31a8",
    "mu_3:alpha_3": "d7e713af771929230818120ce1deca20b3fa8075afcf216367c1f80dcb182013",
    "uL/F3": "4f8abf5f2c22e13ed831e513e897313956541525c3ec4b96a55cda81819465ec",
    "alpha_5": "c8c4635ffd5ddc8a7ca3b13412a38205ad78e52bbd0e1a1833b29ffd0d93d037",
    "mu_1:alpha_5": "c8c4635ffd5ddc8a7ca3b13412a38205ad78e52bbd0e1a1833b29ffd0d93d037",
    "mu_2:alpha_5": "384b1321e3c3ffb95d6470865527933cde901af11e6fbffceab58de06570a647",
    "mu_3:alpha_5": "bd13de121357839c16b3c04538a62ce3269b2eb7f821ffd7af75414a84a94685",
    "uL/F5": "b5657d2cc0ceaec783daf52a18ef4ba3f3adcfa665a96397a97c880089bbf988",
    "alpha_7": "fed40618f8def339b59e71c16669d82082729a7b39762a23ee5f0d00d482c864",
    "mu_1:alpha_7": "fed40618f8def339b59e71c16669d82082729a7b39762a23ee5f0d00d482c864",
    "mu_2:alpha_7": "b763418c38f51964dd1782eb2a7f9a89c07f09ef93ecb2ef33eaeaeb5373b449",
    "mu_3:alpha_7": "e55ab5f5008a2c134229a472dd0cc3551d977b29a65629d0525df107cce6c260",
    "uL/F7": "91c9857000af7496dcb7dd66cd7804f1a7325466de2adcf9844ba970068a6f1c",
}


def _constructed(key):
    name, _, field = key.partition("/")
    if name.startswith("uL"):
        return u_l_hopf(int(field[1:]))
    if name.startswith("alpha_"):
        return gs.alpha_scheme(FieldSpec.prime(int(name[6:]))).gamma
    if ":alpha_" in name:
        ell, p = name[3:].split(":alpha_")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return gs.mu_semidirect_alpha_scheme(FieldSpec.prime(int(p)), int(ell)).gamma
    f = FieldSpec.rationals() if field == "Q" else FieldSpec.prime(int(field[1:]))
    if name.endswith(":C2"):
        return gs.mu_semidirect_c2_scheme(f, int(name[3:-3])).gamma
    return gs.mu_scheme(f, int(name[3:])).gamma


@pytest.mark.parametrize("key", sorted(CONSTRUCTOR_PINS))
def test_constructor_output_is_pinned(key):
    data = canonical_json(hopf_to_json(_constructed(key)))
    assert hashlib.sha256(data.encode()).hexdigest() == CONSTRUCTOR_PINS[key]


def test_alpha_scheme_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gs.alpha_scheme(FieldSpec.prime(5)).order == 5
