"""Unit tests for stacks, heaps, the satisfaction relation and the enumeration oracle."""

import pytest

from repro.logic.atoms import SpatialFormula
from repro.logic.formula import eq, lseg, neq, pts
from repro.logic.parser import parse_entailment
from repro.logic.terms import Const, NIL
from repro.semantics.enumeration import enumerate_counterexample, is_valid_by_enumeration
from repro.semantics.heap import Heap, NIL_LOC, Stack, induced_stack
from repro.semantics.satisfaction import (
    falsifies_entailment,
    satisfies_entailment,
    satisfies_pure_literal,
    satisfies_spatial,
)


class TestStackHeap:
    def test_stack_basics(self):
        stack = Stack({Const("x"): "l1", Const("y"): "l1"})
        assert stack.evaluate(Const("x")) == "l1"
        assert stack.evaluate(NIL) == NIL_LOC
        assert stack.locations() == frozenset({"l1", NIL_LOC})
        assert stack.bind(Const("z"), "l2").evaluate(Const("z")) == "l2"
        with pytest.raises(KeyError):
            stack.evaluate(Const("missing"))

    def test_stack_rejects_nil_binding(self):
        with pytest.raises(ValueError):
            Stack({NIL: "l1"})

    def test_heap_basics(self):
        heap = Heap({"l1": "l2"})
        assert heap.lookup("l1") == "l2"
        assert heap.lookup("l2") is None
        assert heap.store("l2", NIL_LOC).lookup("l2") == NIL_LOC
        assert heap.dispose("l1").is_empty
        with pytest.raises(KeyError):
            heap.dispose("l9")
        with pytest.raises(ValueError):
            Heap({NIL_LOC: "l1"})

    def test_disjoint_union(self):
        left, right = Heap({"l1": "l2"}), Heap({"l2": "l3"})
        assert len(left.disjoint_union(right)) == 2
        with pytest.raises(ValueError):
            left.disjoint_union(Heap({"l1": "l3"}))

    def test_induced_stack(self):
        def normal_form(constant):
            return {Const("b"): Const("a"), Const("n"): NIL}.get(constant, constant)

        stack = induced_stack(normal_form, [Const("a"), Const("b"), Const("n")])
        assert stack.evaluate(Const("a")) == "a"
        assert stack.evaluate(Const("b")) == "a"
        assert stack.evaluate(Const("n")) == NIL_LOC


class TestSatisfaction:
    def setup_method(self):
        self.stack = Stack({Const("x"): "lx", Const("y"): "ly", Const("z"): "lz"})

    def test_pure_literals(self):
        stack = Stack({Const("x"): "l", Const("y"): "l", Const("z"): "m"})
        assert satisfies_pure_literal(stack, eq("x", "y"))
        assert not satisfies_pure_literal(stack, eq("x", "z"))
        assert satisfies_pure_literal(stack, neq("x", "z"))
        assert satisfies_pure_literal(stack, neq("x", "nil"))

    def test_points_to(self):
        heap = Heap({"lx": "ly"})
        assert satisfies_spatial(self.stack, heap, SpatialFormula([pts("x", "y")]))
        assert not satisfies_spatial(self.stack, heap, SpatialFormula([pts("x", "z")]))
        assert not satisfies_spatial(self.stack, Heap(), SpatialFormula([pts("x", "y")]))

    def test_lseg_empty_and_paths(self):
        assert satisfies_spatial(self.stack, Heap(), SpatialFormula([lseg("x", "x")]))
        two_cells = Heap({"lx": "lz", "lz": "ly"})
        assert satisfies_spatial(self.stack, two_cells, SpatialFormula([lseg("x", "y")]))
        assert not satisfies_spatial(self.stack, two_cells, SpatialFormula([lseg("x", "z")]))

    def test_exact_coverage_required(self):
        heap = Heap({"lx": "ly", "lz": "ly"})
        assert not satisfies_spatial(self.stack, heap, SpatialFormula([pts("x", "y")]))
        assert satisfies_spatial(
            self.stack, heap, SpatialFormula([pts("x", "y"), pts("z", "y")])
        )

    def test_separation_is_enforced(self):
        heap = Heap({"lx": "ly"})
        # The same cell cannot be claimed twice.
        assert not satisfies_spatial(
            self.stack, heap, SpatialFormula([pts("x", "y"), pts("x", "y")])
        )

    def test_cycle_never_satisfies_nil_segment(self):
        stack = Stack({Const("x"): "lx"})
        heap = Heap({"lx": "lx"})
        assert not satisfies_spatial(stack, heap, SpatialFormula([lseg("x", "nil")]))

    def test_entailment_satisfaction_and_falsification(self):
        entailment = parse_entailment("next(x, y) |- lseg(x, y)")
        heap = Heap({"lx": "ly"})
        assert satisfies_entailment(self.stack, heap, entailment)
        assert not falsifies_entailment(self.stack, heap, entailment)
        invalid = parse_entailment("lseg(x, y) |- next(x, y)")
        stretched = Heap({"lx": "mid", "mid": "ly"})
        assert falsifies_entailment(self.stack, stretched, invalid)


class TestEnumeration:
    def test_valid_entailments_have_no_counterexample(self):
        assert is_valid_by_enumeration(parse_entailment("x |-> y * y |-> nil |- lseg(x, nil)"))
        assert is_valid_by_enumeration(parse_entailment("x != y /\\ next(x, y) |- lseg(x, y)"))

    def test_invalid_entailments_yield_counterexamples(self):
        found = enumerate_counterexample(parse_entailment("lseg(x, y) |- next(x, y)"))
        assert found is not None
        stack, heap = found
        assert falsifies_entailment(stack, heap, parse_entailment("lseg(x, y) |- next(x, y)"))

    def test_agrees_with_prover_on_small_battery(self, prover):
        texts = [
            "next(x, y) |- lseg(x, y)",
            "lseg(x, y) * lseg(y, nil) |- lseg(x, nil)",
            "lseg(x, y) * lseg(y, z) |- lseg(x, z)",
            "x = y /\\ emp |- lseg(x, y)",
        ]
        for text in texts:
            entailment = parse_entailment(text)
            assert prover.prove(entailment).is_valid == is_valid_by_enumeration(entailment)
