"""Unit tests for clauses and the clausal embedding ``cnf(E)``."""

from repro.logic.atoms import EqAtom, SpatialFormula
from repro.logic.clauses import Clause, EMPTY_CLAUSE
from repro.logic.cnf import cnf
from repro.logic.formula import Entailment, eq, lseg, neq, pts
from repro.logic.terms import Const


class TestClause:
    def test_shapes(self):
        pure = Clause.pure(gamma=[EqAtom("x", "y")])
        positive = Clause.positive_spatial(SpatialFormula([pts("x", "y")]))
        negative = Clause.negative_spatial(SpatialFormula([lseg("x", "y")]))
        assert pure.is_pure and not pure.is_positive_spatial
        assert positive.is_positive_spatial and not positive.is_pure
        assert negative.is_negative_spatial and not negative.is_positive_spatial

    def test_empty_clause(self):
        assert EMPTY_CLAUSE.is_empty
        assert not Clause.pure(delta=[EqAtom("x", "y")]).is_empty
        assert not Clause.positive_spatial(SpatialFormula()).is_empty

    def test_tautology(self):
        atom = EqAtom("x", "y")
        assert Clause.pure(gamma=[atom], delta=[atom]).is_tautology
        assert Clause.pure(delta=[EqAtom("x", "x")]).is_tautology
        assert not Clause.pure(delta=[atom]).is_tautology
        assert not Clause.positive_spatial(SpatialFormula(), delta=[EqAtom("x", "x")]).is_tautology

    def test_subsumption(self):
        small = Clause.pure(delta=[EqAtom("a", "b")])
        large = Clause.pure(gamma=[EqAtom("c", "d")], delta=[EqAtom("a", "b"), EqAtom("a", "c")])
        assert small.subsumes(large)
        assert not large.subsumes(small)
        assert small.subsumes(small)

    def test_substitute(self):
        clause = Clause.positive_spatial(
            SpatialFormula([pts("x", "y")]), delta=[EqAtom("x", "z")]
        )
        renamed = clause.substitute({Const("x"): Const("a")})
        assert EqAtom("a", "z") in renamed.delta
        assert renamed.spatial.atom_at(Const("a")) is not None

    def test_add_and_pure_part(self):
        clause = Clause.positive_spatial(SpatialFormula([pts("x", "y")]))
        extended = clause.add_delta([EqAtom("x", "y")]).add_gamma([EqAtom("y", "z")])
        assert EqAtom("x", "y") in extended.delta
        assert EqAtom("y", "z") in extended.gamma
        assert extended.pure_part().is_pure

    def test_literals_listing(self):
        clause = Clause.pure(gamma=[EqAtom("a", "b")], delta=[EqAtom("c", "d")])
        literals = clause.literals()
        assert (EqAtom("a", "b"), False) in literals
        assert (EqAtom("c", "d"), True) in literals

    def test_constants(self):
        clause = Clause.negative_spatial(SpatialFormula([lseg("x", "nil")]), gamma=[EqAtom("a", "b")])
        names = {constant.name for constant in clause.constants()}
        assert names == {"x", "nil", "a", "b"}


class TestCnf:
    def test_paper_example_embedding(self):
        entailment = Entailment.build(
            lhs=[neq("c", "e"), lseg("a", "b"), lseg("a", "c"), pts("c", "d"), lseg("d", "e")],
            rhs=[lseg("b", "c"), lseg("c", "e")],
        )
        embedding = cnf(entailment)
        assert len(embedding.pure_clauses) == 1
        (pure,) = embedding.pure_clauses
        assert pure.gamma == frozenset({EqAtom("c", "e")}) and not pure.delta
        assert embedding.positive_spatial.is_positive_spatial
        assert len(embedding.positive_spatial.spatial) == 4
        assert embedding.negative_spatial.is_negative_spatial
        assert len(embedding.negative_spatial.spatial) == 2
        assert len(list(embedding)) == 3

    def test_rhs_pure_literals_split_by_polarity(self):
        entailment = Entailment.build(
            lhs=[pts("x", "y")], rhs=[eq("x", "y"), neq("y", "nil"), lseg("x", "y")]
        )
        embedding = cnf(entailment)
        negative = embedding.negative_spatial
        assert EqAtom("x", "y") in negative.gamma
        assert EqAtom("y", "nil") in negative.delta

    def test_lhs_positive_equalities_become_unit_clauses(self):
        entailment = Entailment.build(lhs=[eq("x", "y")], rhs=[])
        embedding = cnf(entailment)
        assert embedding.pure_clauses[0].delta == frozenset({EqAtom("x", "y")})

    def test_false_rhs_embedding(self):
        entailment = Entailment.with_false_rhs([lseg("x", "y"), neq("x", "y")])
        embedding = cnf(entailment)
        # The canonical encoding of `false` is the unsatisfiable literal nil != nil,
        # which lands in the Delta of the negative spatial clause.
        assert EqAtom("nil", "nil") in embedding.negative_spatial.delta
        assert embedding.negative_spatial.spatial.is_emp

    def test_validity_equivalence_of_embedding(self):
        from repro import prove

        entailment = Entailment.build(lhs=[pts("x", "nil")], rhs=[lseg("x", "nil")])
        assert prove(entailment).is_valid
        assert len(cnf(entailment)) == 2  # no pure clauses on the left
