"""Unit tests for pure literals and entailments."""

import pytest

from repro.logic.atoms import EqAtom
from repro.logic.formula import Entailment, consts, eq, lseg, neq, nil, pts
from repro.logic.terms import Const, NIL


class TestPureLiteral:
    def test_constructors(self):
        assert eq("x", "y").positive
        assert not neq("x", "y").positive
        assert eq("x", "y").atom == EqAtom("x", "y")

    def test_negated(self):
        assert eq("x", "y").negated == neq("x", "y")
        assert neq("x", "y").negated == eq("x", "y")

    def test_trivial_classification(self):
        assert eq("x", "x").is_trivially_true
        assert neq("x", "x").is_contradictory
        assert not eq("x", "y").is_trivially_true
        assert not neq("x", "y").is_contradictory

    def test_substitute(self):
        literal = neq("x", "y").substitute({Const("x"): NIL})
        assert literal == neq("nil", "y")

    def test_str(self):
        assert str(eq("x", "y")) == "x = y"
        assert str(neq("x", "y")) == "x != y"


class TestConstructors:
    def test_consts_and_nil(self):
        assert consts("a b") == (Const("a"), Const("b"))
        assert nil() is NIL

    def test_spatial_constructors(self):
        assert pts("x", "nil").target.is_nil
        assert lseg("x", "y").kind == "lseg"


class TestEntailment:
    def test_build_splits_components(self):
        entailment = Entailment.build(
            lhs=[neq("c", "e"), lseg("a", "b"), pts("c", "d")],
            rhs=[lseg("b", "c"), eq("a", "a")],
        )
        assert entailment.lhs_pure == (neq("c", "e"),)
        assert len(entailment.lhs_spatial) == 2
        assert entailment.rhs_pure == (eq("a", "a"),)
        assert len(entailment.rhs_spatial) == 1

    def test_build_rejects_garbage(self):
        with pytest.raises(TypeError):
            Entailment.build(lhs=["oops"])

    def test_with_false_rhs(self):
        entailment = Entailment.with_false_rhs([lseg("x", "y"), neq("x", "y")])
        assert entailment.has_false_rhs
        assert entailment.rhs_spatial.is_emp
        assert entailment.rhs_pure[0].is_contradictory

    def test_constants_and_variables(self):
        entailment = Entailment.build(lhs=[lseg("x", "nil")], rhs=[eq("x", "y")])
        assert NIL in entailment.constants()
        assert entailment.variables() == frozenset({Const("x"), Const("y")})

    def test_rename(self):
        entailment = Entailment.build(lhs=[pts("x", "y")], rhs=[lseg("x", "y")])
        renamed = entailment.rename({Const("x"): Const("a"), Const("y"): Const("b")})
        assert renamed == Entailment.build(lhs=[pts("a", "b")], rhs=[lseg("a", "b")])

    def test_size_and_swap(self):
        entailment = Entailment.build(lhs=[pts("x", "y"), eq("x", "y")], rhs=[lseg("x", "y")])
        assert entailment.size() == 3
        swapped = entailment.swap_sides()
        assert swapped.lhs_spatial == entailment.rhs_spatial
        assert swapped.rhs_pure == entailment.lhs_pure

    def test_str_roundtrips_through_parser(self):
        from repro.logic.parser import parse_entailment

        entailment = Entailment.build(
            lhs=[neq("x", "y"), pts("x", "y")], rhs=[lseg("x", "y")]
        )
        assert parse_entailment(str(entailment)) == entailment
