from __future__ import annotations

import hashlib
import re
from math import prod

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as stst

from pcl import groups
from pcl.catalog import default_catalog_specs
from pcl.cli import main
from pcl.errors import GroupSpecError
from pcl.specs import build_family


def assert_same_group(got, want):
    assert got.label == want.label
    assert np.array_equal(got.mult, want.mult), got.label


def test_parse_atoms():
    assert_same_group(build_family("Q8"), groups.quaternion())
    assert_same_group(build_family("C(4)"), groups.cyclic(4))
    assert_same_group(build_family("EA(3,2)"), groups.elementary_abelian(3, 2))
    assert_same_group(build_family("D(12)"), groups.dihedral(12))
    assert_same_group(build_family("M2(2,3)"), groups.metacyclic_m2(2, 3))
    assert_same_group(build_family("M2(2,3,1)"), groups.nonmetacyclic_m2(2, 3))
    assert build_family("C(007)").label == "C(7)"


def test_parse_product_and_whitespace():
    g = build_family(" C(4) x C(2)x C(2) ")
    want = groups.direct_product(groups.direct_product(groups.cyclic(4), groups.cyclic(2)),
                                 groups.cyclic(2))
    assert g.label == "C(4)xC(2)xC(2)"
    assert np.array_equal(g.mult, want.mult)


def test_parse_nonmetacyclic_normalizes_parameter_order():
    assert_same_group(build_family("M2(3,1,1)"), build_family("M2(1,3,1)"))
    swapped, ordered = groups.nonmetacyclic_m2(3, 1), groups.nonmetacyclic_m2(1, 3)
    assert_same_group(swapped, ordered)
    assert swapped.label == "M2(1,3,1)" and swapped.witness == ordered.witness


def test_parse_semidirect():
    f20 = build_family("SD(C(5);C(4);1->2)")
    assert f20.label == "SD(C(5);C(4);1->2)"
    want = groups.semidirect_product(groups.cyclic(5), groups.cyclic(4), [(1, 2)])
    assert np.array_equal(f20.mult, want.mult)
    nested = build_family("SD( C(2)x C(2) ;C(3); 1->2 , 2->3)")
    assert nested.label == "SD(C(2)xC(2);C(3);1->2,2->3)" and nested.order == 12
    want = groups.semidirect_product(build_family("C(2)xC(2)"), groups.cyclic(3),
                                     [(1, 2), (2, 3)])
    assert np.array_equal(nested.mult, want.mult)


def test_parse_permutations():
    s3 = build_family("perm:(1 2 3),(1 2)")
    assert s3.label == "perm:(1 2 3),(1 2)"
    assert np.array_equal(s3.mult, groups.from_permutations([(1, 2, 0), (1, 0, 2)]).mult)
    klein = build_family("perm:( 1 2 )(3 4)(), (1 3)(2 4)")
    assert klein.label == "perm:(1 2)(3 4),(1 3)(2 4)" and klein.order == 4
    want = groups.from_permutations([(1, 0, 3, 2), (2, 3, 0, 1)])
    assert np.array_equal(klein.mult, want.mult)


def test_perm_atom_inside_product():
    g = build_family("perm:(1 2),(3 4) x C(3)")
    assert g.label == "perm:(1 2),(3 4)xC(3)" and g.order == 12
    klein = groups.from_permutations([(1, 0, 2, 3), (0, 1, 3, 2)])
    assert np.array_equal(g.mult, groups.direct_product(klein, groups.cyclic(3)).mult)


def test_parse_errors_carry_positions():
    for bad in ["", "C(", "C(x)", "Q9", "C(4)y", "M2(2)", "perm:", "SD(C(2);C(2))",
                "C(4)xC(", "M2(2,2,2)", "perm:(1 1)", "perm:()"]:
        with pytest.raises(GroupSpecError) as caught:
            build_family(bad)
        assert caught.value.position is not None, bad


@pytest.mark.parametrize("bad, message", [
    ("SD(C(5);C(4);1->2,)", "expected ')' (at position 17)"),
    ("SD(C(5);C(4);1->2 , )", "expected ')' (at position 18)"),
    ("perm:(1 2),", "trailing input after group spec (at position 10)"),
    ("perm:(1 2) , x C(2)", "trailing input after group spec (at position 11)")])
def test_a_comma_ending_a_list_is_not_consumed(bad, message):
    # the action list and the generator list leave a "," that starts no
    # item unread, so the spec fails where it stands
    with pytest.raises(GroupSpecError) as caught:
        build_family(bad)
    assert str(caught.value) == message


def test_constraint_violations_name_the_constraint():
    with pytest.raises(GroupSpecError, match="n1 >= 2"):
        build_family("M2(1,1)")
    with pytest.raises(GroupSpecError, match="n2 \\+ m2 >= 3"):
        build_family("M2(1,1,1)")
    with pytest.raises(GroupSpecError, match="prime"):
        build_family("EA(4,2)")
    with pytest.raises(GroupSpecError, match="even"):
        build_family("D(7)")


# a syntax error is reported first, with its position; parameter errors and
# the size limit then come from the constructors, from left to right
SPEC_ERRORS = [
    ("C(4)xC(", 2, "input error: expected an integer (at position 7)"),
    ("D(100000)xC(", 2, "input error: expected an integer (at position 12)"),
    # digits are ASCII: another script's digit or a superscript is no integer
    ("C(\u0663)", 2, "input error: expected an integer (at position 2)"),
    ("C(\u00b2)", 2, "input error: expected an integer (at position 2)"),
    ("EA(2,\u00b3)", 2, "input error: expected an integer (at position 5)"),
    ("SD(C(5);C(4);1->2,\u0663->1)", 2, "input error: expected ')' (at position 17)"),
    ("M2(1,1)", 2, "input error: M2(n1,m1) requires n1 >= 2, got n1=1"),
    ("M2(0,3,1)", 2, "input error: M2(n2,m2,1) requires n2 >= 1, got n2=0"),
    ("M2(1,1,1)", 2, "input error: M2(n2,m2,1) requires n2 + m2 >= 3, got (1,1)"),
    ("EA(4,2)", 2, "input error: EA(p,k) requires p prime, got p=4"),
    ("EA(1000,1)", 2, "input error: EA(p,k) requires p prime, got p=1000"),
    ("EA(521,0)", 3,
     "size limit: EA(p,k) parameter p=521 exceeds the cap PCL_MAX_ORDER=512"),
    ("D(7)", 2, "input error: D(2n) requires an even order >= 2, got 7"),
    ("C(0)", 2, "input error: C(n) requires n >= 1, got n=0"),
    ("D(7)xC(600)", 2, "input error: D(2n) requires an even order >= 2, got 7"),
    ("C(600)xD(7)", 3, "size limit: group order 600 exceeds the cap PCL_MAX_ORDER=512"),
]


@pytest.mark.parametrize("spec, code, message", SPEC_ERRORS)
def test_spec_errors_keep_their_messages_and_exit_codes(spec, code, message,
                                                        capsys, monkeypatch):
    monkeypatch.setenv("PCL_MAX_ORDER", "512")
    assert main(["build", spec]) == code
    assert capsys.readouterr().err == message + "\n"


def test_render_roundtrip():
    for text in ["Q8", "C(4)xC(2)", "M2(2,3,1)", "D(12)",
                 "SD(C(5);C(4);1->2)", "perm:(1 2 3),(1 2)"]:
        g = build_family(text)
        assert g.label == text
        assert_same_group(build_family(g.label), g)


def test_build_family_examples():
    q8 = build_family("Q8")
    assert q8.order == 8
    assert int((q8.squares == 0).sum()) == 2  # unique involution plus identity
    assert build_family("C(1)").order == 1
    assert build_family("M2(2,2,1)").order == 32
    # an explicit label wins and keeps the constructor's witnesses
    d8 = build_family("D(8)", label="square")
    assert d8.label == "square" and d8.witness == groups.dihedral(8).witness


def test_integer_past_the_digit_limit_is_a_spec_error():
    with pytest.raises(GroupSpecError, match="integer too long"):
        build_family("C(" + "9" * 5000 + ")")


EXTRA_SPECS = ["SD(C(2)xC(2);C(3);1->2,2->3)", "perm:(1 2)(3 4),(1 3)(2 4)",
               "perm:(1 2),(3 4) x C(3)", " M2(3,1,1) x Q8", "SD(C(5);C(4);1->2)"]


def test_build_digest_is_pinned():
    # labels and tables of every catalog spec and a few SD, perm, product and
    # whitespace specs: a parser change may not alter either; the tables are
    # hashed as int32, whatever dtype they are kept in
    digest = hashlib.sha256()
    for spec in [spec for _, spec in default_catalog_specs()] + EXTRA_SPECS:
        g = build_family(spec)
        digest.update(g.label.encode() + b"\0")
        digest.update(g.mult.astype(np.int32).tobytes())
    assert digest.hexdigest() == (
        "1256713bb112c95f4eaafd732e02b087c45d2a5434991095d93ec32057cdae83")


# canonical specs and their orders
ATOMS = {"Q8": 8, "C(1)": 1, "C(3)": 3, "C(4)": 4, "EA(2,0)": 1, "EA(2,2)": 4,
         "EA(3,1)": 3, "D(6)": 6, "D(8)": 8, "M2(2,1)": 8, "M2(1,2,1)": 16,
         "SD(C(5);C(4);1->2)": 20, "SD(C(2)xC(2);C(3);1->2,2->3)": 12,
         "SD(perm:(1 2 3);C(2);1->2)": 6, "perm:(1 2 3),(1 2)": 6,
         "perm:(1 2)(3 4),(1 3)(2 4)": 4, "perm:(1 2 3 4)": 4}
TOKEN = re.compile(r"Q8|[A-Z]\w*\(|perm:|->|\d+|\s+|.")
SPACE = stst.sampled_from(["", " ", "\t", "  \n"])


@settings(max_examples=40, deadline=None)
@given(stst.lists(stst.sampled_from(sorted(ATOMS)), min_size=1, max_size=3), stst.data())
def test_labels_round_trip_on_random_specs(factors, data):
    assume(prod(ATOMS[f] for f in factors) <= 96)
    canonical = "x".join(factors)
    # whitespace may go between any two tokens and must separate cycle points
    noisy = data.draw(SPACE)
    for token in TOKEN.findall(canonical):
        noisy += data.draw(SPACE.filter(bool)) if token.isspace() else token + data.draw(SPACE)
    g = build_family(noisy)
    assert g.label == canonical
    assert_same_group(build_family(g.label), g)


def test_sd_checks_the_action_order_against_a_trivial_acting_factor(capsys):
    assert main(["build", "SD(C(5);C(1);1->2)"]) == 2
    assert "does not divide the acting order 1" in capsys.readouterr().err
    assert main(["build", "SD(C(5);C(1);1->1)"]) == 0
    assert build_family("SD(C(5);C(1);1->1)").order == 5
