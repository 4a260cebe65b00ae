from __future__ import annotations

import pytest

from pcl.errors import GroupSpecError
from pcl.specs import (CyclicSpec, DihedralSpec, MetacyclicSpec,
                       NonmetacyclicSpec, PermSpec, ProductSpec,
                       QuaternionSpec, SemidirectSpec, build_family,
                       parse_group_spec)


def test_parse_atoms():
    assert parse_group_spec("Q8") == QuaternionSpec()
    assert parse_group_spec("C(4)") == CyclicSpec(4)
    assert parse_group_spec("D(12)") == DihedralSpec(12)
    assert parse_group_spec("M2(2,3)") == MetacyclicSpec(2, 3)
    assert parse_group_spec("M2(2,3,1)") == NonmetacyclicSpec(2, 3)


def test_parse_product_and_whitespace():
    spec = parse_group_spec(" C(4) x C(2)x C(2) ")
    assert isinstance(spec, ProductSpec)
    assert spec.factors == (CyclicSpec(4), CyclicSpec(2), CyclicSpec(2))


def test_parse_nonmetacyclic_normalizes_parameter_order():
    assert parse_group_spec("M2(3,1,1)") == parse_group_spec("M2(1,3,1)")


def test_parse_semidirect():
    spec = parse_group_spec("SD(C(5);C(4);1->2)")
    assert isinstance(spec, SemidirectSpec)
    assert spec.action == ((1, 2),)
    nested = parse_group_spec("SD(C(2)xC(2);C(3);1->2,2->3)")
    assert isinstance(nested.normal, ProductSpec)
    assert nested.action == ((1, 2), (2, 3))
    assert build_family(nested).order == 12


def test_parse_permutations():
    spec = parse_group_spec("perm:(1 2 3),(1 2)")
    assert isinstance(spec, PermSpec)
    assert spec.generators == (((1, 2, 3),), ((1, 2),))
    multi = parse_group_spec("perm:(1 2)(3 4),(1 3)(2 4)")
    assert multi.generators == ((((1, 2)), (3, 4)), ((1, 3), (2, 4)))
    assert build_family(multi).order == 4


def test_perm_atom_inside_product():
    spec = parse_group_spec("perm:(1 2),(3 4) x C(3)")
    assert isinstance(spec, ProductSpec)
    assert build_family(spec).order == 12


def test_parse_errors_carry_positions():
    for bad in ["", "C(", "C(x)", "Q9", "C(4)y", "M2(2)", "perm:", "SD(C(2);C(2))"]:
        with pytest.raises(GroupSpecError):
            parse_group_spec(bad)
    try:
        parse_group_spec("C(4)xC(")
    except GroupSpecError as exc:
        assert exc.position is not None


def test_constraint_violations_name_the_constraint():
    with pytest.raises(GroupSpecError, match="n1 >= 2"):
        parse_group_spec("M2(1,1)")
    with pytest.raises(GroupSpecError, match="n2 \\+ m2 >= 3"):
        parse_group_spec("M2(1,1,1)")
    with pytest.raises(GroupSpecError, match="prime"):
        parse_group_spec("EA(4,2)")
    with pytest.raises(GroupSpecError, match="even"):
        parse_group_spec("D(7)")


def test_render_roundtrip():
    for text in ["Q8", "C(4)xC(2)", "M2(2,3,1)", "D(12)",
                 "SD(C(5);C(4);1->2)", "perm:(1 2 3),(1 2)"]:
        spec = parse_group_spec(text)
        assert parse_group_spec(spec.render()) == spec


def test_build_family_examples():
    q8 = build_family("Q8")
    assert q8.order == 8
    assert int((q8.squares == 0).sum()) == 2  # unique involution plus identity
    assert build_family("C(1)").order == 1
    assert build_family("M2(2,2,1)").order == 32


def test_integer_past_the_digit_limit_is_a_spec_error():
    with pytest.raises(GroupSpecError, match="integer too long"):
        parse_group_spec("C(" + "9" * 5000 + ")")
