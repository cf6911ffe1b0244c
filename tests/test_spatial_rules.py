"""Unit tests for the spatial inference rules (normalisation, well-formedness, unfolding)."""

import pytest

from repro.logic.atoms import EqAtom, SpatialFormula
from repro.logic.clauses import Clause
from repro.logic.formula import lseg, pts
from repro.logic.ordering import default_order
from repro.logic.terms import Const, NIL, make_consts
from repro.spatial.graph import GraphConflictError, graph_edges, spatial_graph
from repro.spatial.normalization import normalize_clause
from repro.spatial.unfolding import unfold
from repro.spatial.wellformedness import well_formedness_consequences
from repro.superposition.model import generate_model
from repro.superposition.saturation import SaturationEngine


def model_from_pure(clauses, constants="a b c d e"):
    order = default_order(make_consts(constants))
    engine = SaturationEngine(order)
    engine.add_clauses(clauses)
    result = engine.saturate()
    assert not result.refuted
    return generate_model(engine.known_pure_clauses(), order)


class TestGraph:
    def test_graph_of_well_formed_formula(self):
        sigma = SpatialFormula([pts("a", "b"), lseg("b", "c")])
        graph = spatial_graph(sigma)
        assert graph == {Const("a"): Const("b"), Const("b"): Const("c")}
        assert graph_edges(sigma) == ((Const("a"), Const("b")), (Const("b"), Const("c")))

    def test_trivial_atoms_contribute_nothing(self):
        sigma = SpatialFormula([lseg("a", "a"), pts("b", "c")])
        assert spatial_graph(sigma) == {Const("b"): Const("c")}

    def test_conflicts_raise_in_strict_mode(self):
        with pytest.raises(GraphConflictError):
            spatial_graph(SpatialFormula([pts("a", "b"), lseg("a", "c")]))
        with pytest.raises(GraphConflictError):
            spatial_graph(SpatialFormula([pts("nil", "b")]))
        # Non-strict mode keeps one edge per address instead.
        assert len(spatial_graph(SpatialFormula([pts("a", "b"), lseg("a", "c")]), strict=False)) == 1


class TestNormalization:
    def test_paper_normalisation_step(self):
        # With the model generated from { c != e, a=b \/ a=c }, the input heap
        # of the running example normalises by rewriting c to a and dropping
        # the trivial segment, leaving the reminder literal a = b behind.
        model = model_from_pure(
            [
                Clause.pure(gamma=[EqAtom("c", "e")]),
                Clause.pure(delta=[EqAtom("a", "b"), EqAtom("a", "c")]),
            ]
        )
        sigma = SpatialFormula([lseg("a", "b"), lseg("a", "c"), pts("c", "d"), lseg("d", "e")])
        clause = Clause.positive_spatial(sigma)
        normalized, steps = normalize_clause(clause, model)
        assert normalized.spatial == SpatialFormula([lseg("a", "b"), pts("a", "d"), lseg("d", "e")])
        assert EqAtom("a", "b") in normalized.delta
        rules = [step.rule for step in steps]
        assert "N1" in rules and "N2" in rules

    def test_negative_clause_uses_n3_n4(self):
        model = model_from_pure([Clause.pure(delta=[EqAtom("a", "b")])])
        clause = Clause.negative_spatial(SpatialFormula([lseg("b", "c"), lseg("c", "b")]))
        normalized, steps = normalize_clause(clause, model)
        assert normalized.spatial == SpatialFormula([lseg("a", "c"), lseg("c", "a")])
        assert all(step.rule in ("N3", "N4") for step in steps)

    def test_pure_clause_unchanged(self):
        model = model_from_pure([Clause.pure(delta=[EqAtom("a", "b")])])
        clause = Clause.pure(delta=[EqAtom("a", "b")])
        assert normalize_clause(clause, model) == (clause, [])

    def test_already_normal_formula_has_no_steps(self):
        model = model_from_pure([Clause.pure(gamma=[EqAtom("a", "b")])])
        clause = Clause.positive_spatial(SpatialFormula([pts("a", "b")]))
        normalized, steps = normalize_clause(clause, model)
        assert normalized == clause and steps == []


class TestWellFormedness:
    def check(self, atoms, expected_rules):
        clause = Clause.positive_spatial(SpatialFormula(atoms))
        consequences = well_formedness_consequences(clause)
        assert sorted(c.rule for c in consequences) == sorted(expected_rules)
        return consequences

    def test_w1_nil_cell(self):
        (consequence,) = self.check([pts("nil", "y")], ["W1"])
        assert consequence.conclusion == Clause.pure()

    def test_w2_nil_segment(self):
        (consequence,) = self.check([lseg("nil", "y")], ["W2"])
        assert EqAtom("y", NIL) in consequence.conclusion.delta

    def test_w3_two_cells(self):
        (consequence,) = self.check([pts("x", "y"), pts("x", "z")], ["W3"])
        assert consequence.conclusion == Clause.pure()

    def test_w4_cell_and_segment(self):
        (consequence,) = self.check([pts("x", "y"), lseg("x", "z")], ["W4"])
        assert EqAtom("x", "z") in consequence.conclusion.delta

    def test_w5_two_segments(self):
        (consequence,) = self.check([lseg("x", "y"), lseg("x", "z")], ["W5"])
        assert {EqAtom("x", "y"), EqAtom("x", "z")} <= consequence.conclusion.delta

    def test_well_formed_formula_has_no_consequences(self):
        self.check([pts("x", "y"), lseg("y", "z")], [])

    def test_gamma_delta_are_propagated(self):
        clause = Clause.positive_spatial(
            SpatialFormula([pts("x", "y"), lseg("x", "z")]),
            gamma=[EqAtom("u", "v")],
            delta=[EqAtom("p", "q")],
        )
        (consequence,) = well_formedness_consequences(clause)
        assert EqAtom("u", "v") in consequence.conclusion.gamma
        assert EqAtom("p", "q") in consequence.conclusion.delta

    def test_requires_positive_spatial_clause(self):
        with pytest.raises(ValueError):
            well_formedness_consequences(Clause.pure())


class TestUnfolding:
    def test_exact_match_resolves_immediately(self):
        positive = Clause.positive_spatial(SpatialFormula([pts("x", "y")]))
        negative = Clause.negative_spatial(SpatialFormula([pts("x", "y")]))
        outcome = unfold(positive, negative)
        assert outcome.success
        assert outcome.derived_pure == Clause.pure()
        assert [step.rule for step in outcome.steps] == ["SR"]

    def test_u1_final_cell(self):
        positive = Clause.positive_spatial(SpatialFormula([pts("x", "y")]))
        negative = Clause.negative_spatial(SpatialFormula([lseg("x", "y")]))
        outcome = unfold(positive, negative)
        assert outcome.success
        assert "U1" in [step.rule for step in outcome.steps]
        assert EqAtom("x", "y") in outcome.derived_pure.delta

    def test_u2_peels_a_cell(self):
        positive = Clause.positive_spatial(SpatialFormula([pts("x", "y"), lseg("y", "z")]))
        negative = Clause.negative_spatial(SpatialFormula([lseg("x", "z")]))
        outcome = unfold(positive, negative)
        assert outcome.success
        assert "U2" in [step.rule for step in outcome.steps]
        assert EqAtom("x", "z") in outcome.derived_pure.delta

    def test_u3_segment_to_nil(self):
        positive = Clause.positive_spatial(SpatialFormula([lseg("x", "y"), lseg("y", "nil")]))
        negative = Clause.negative_spatial(SpatialFormula([lseg("x", "nil")]))
        outcome = unfold(positive, negative)
        assert outcome.success
        assert "U3" in [step.rule for step in outcome.steps]
        # U3 adds no side condition, so the derived pure clause is empty.
        assert outcome.derived_pure == Clause.pure()

    def test_u4_anchor_is_a_cell(self):
        positive = Clause.positive_spatial(
            SpatialFormula([lseg("x", "y"), lseg("y", "z"), pts("z", "w")])
        )
        negative = Clause.negative_spatial(SpatialFormula([lseg("x", "z"), pts("z", "w")]))
        outcome = unfold(positive, negative)
        assert outcome.success
        assert "U4" in [step.rule for step in outcome.steps]

    def test_u5_anchor_is_a_segment(self):
        positive = Clause.positive_spatial(
            SpatialFormula([lseg("x", "y"), lseg("y", "z"), lseg("z", "w")])
        )
        negative = Clause.negative_spatial(SpatialFormula([lseg("x", "z"), lseg("z", "w")]))
        outcome = unfold(positive, negative)
        assert outcome.success
        assert "U5" in [step.rule for step in outcome.steps]
        assert EqAtom("z", "w") in outcome.derived_pure.delta

    def test_steps_replay_the_moves_on_demand(self):
        positive = Clause.positive_spatial(
            SpatialFormula([pts("x", "y"), pts("y", "z"), lseg("z", "w"), lseg("w", "nil")])
        )
        negative = Clause.negative_spatial(SpatialFormula([lseg("x", "nil")]))
        outcome = unfold(positive, negative)
        assert outcome.success
        assert [move.rule for move in outcome.moves] == ["U2", "U2", "U3"]
        assert outcome.step_count == 4
        steps = outcome.steps
        assert [step.rule for step in steps] == ["U2", "U2", "U3", "SR"]
        assert steps is outcome.steps  # built once
        # Each step rewrites the previous one's clause; the last rewrite is
        # the clause resolved away, whose formula is the positive one.
        for before, after in zip(steps, steps[1:]):
            assert after.before == before.after
        assert steps[-2].after.spatial == positive.spatial
        assert steps[-1].after == outcome.derived_pure
        assert EqAtom("x", "nil") in steps[0].after.delta
        assert steps[0].description == "peel next(x, y) off lseg(x, nil)"

    def test_a_dangling_failure_keeps_the_moves_made_before_it(self):
        positive = Clause.positive_spatial(
            SpatialFormula([pts("x", "y"), lseg("y", "z"), lseg("z", "w")])
        )
        negative = Clause.negative_spatial(SpatialFormula([lseg("x", "w")]))
        outcome = unfold(positive, negative)
        assert not outcome.success and outcome.failure_kind == "dangling_segment"
        assert outcome.step_count == 1
        assert [step.rule for step in outcome.steps] == ["U2"]

    def test_next_expects_cell_failure(self):
        positive = Clause.positive_spatial(SpatialFormula([lseg("x", "y")]))
        negative = Clause.negative_spatial(SpatialFormula([pts("x", "y")]))
        outcome = unfold(positive, negative)
        assert not outcome.success
        assert outcome.failure_kind == "next_expects_cell"
        assert outcome.failure_edge == (Const("x"), Const("y"))

    def test_dangling_segment_failure(self):
        # The demanded segment must stop at z, which the left-hand side never
        # allocates: the rewriting cannot use U3/U4/U5 and reports the
        # re-routable edge.
        positive = Clause.positive_spatial(SpatialFormula([lseg("x", "y"), pts("y", "z")]))
        negative = Clause.negative_spatial(SpatialFormula([lseg("x", "z")]))
        outcome = unfold(positive, negative)
        assert not outcome.success
        assert outcome.failure_kind == "dangling_segment"
        assert outcome.failure_edge == (Const("x"), Const("y"))
        assert outcome.failure_target == Const("z")

    def test_mismatch_on_path_that_never_arrives(self):
        positive = Clause.positive_spatial(SpatialFormula([lseg("x", "y"), lseg("y", "w")]))
        negative = Clause.negative_spatial(SpatialFormula([lseg("x", "z"), lseg("z", "w")]))
        outcome = unfold(positive, negative)
        assert not outcome.success
        assert outcome.failure_kind == "mismatch"

    def test_mismatch_on_uncovered_cells(self):
        positive = Clause.positive_spatial(SpatialFormula([pts("x", "y"), pts("z", "w")]))
        negative = Clause.negative_spatial(SpatialFormula([pts("x", "y")]))
        outcome = unfold(positive, negative)
        assert not outcome.success
        assert outcome.failure_kind == "mismatch"

    def test_mismatch_on_missing_cell(self):
        positive = Clause.positive_spatial(SpatialFormula([pts("x", "y")]))
        negative = Clause.negative_spatial(SpatialFormula([pts("z", "w"), pts("x", "y")]))
        outcome = unfold(positive, negative)
        assert not outcome.success
        assert outcome.failure_kind == "mismatch"

    def test_pure_sides_are_combined_by_sr(self):
        positive = Clause.positive_spatial(
            SpatialFormula([pts("x", "y")]), gamma=[EqAtom("g", "h")], delta=[EqAtom("p", "q")]
        )
        negative = Clause.negative_spatial(
            SpatialFormula([pts("x", "y")]), gamma=[EqAtom("m", "n")], delta=[EqAtom("r", "s")]
        )
        outcome = unfold(positive, negative)
        assert outcome.success
        derived = outcome.derived_pure
        assert derived.gamma == frozenset({EqAtom("g", "h"), EqAtom("m", "n")})
        assert derived.delta == frozenset({EqAtom("p", "q"), EqAtom("r", "s")})

    def test_requires_correct_clause_shapes(self):
        positive = Clause.positive_spatial(SpatialFormula([pts("x", "y")]))
        negative = Clause.negative_spatial(SpatialFormula([pts("x", "y")]))
        with pytest.raises(ValueError):
            unfold(negative, negative)
        with pytest.raises(ValueError):
            unfold(positive, positive)
