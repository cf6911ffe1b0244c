"""Property-based tests (hypothesis) for the core data structures and the provers."""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import prove
from repro.benchgen.cloning import clone_entailment
from repro.logic.atoms import EqAtom, ListSegment, PointsTo, SpatialFormula
from repro.logic.formula import Entailment, eq, neq
from repro.logic.ordering import default_order
from repro.logic.parser import parse_entailment
from repro.logic.printer import format_entailment
from repro.logic.terms import Const, NIL
from repro.semantics.satisfaction import falsifies_entailment
from repro.superposition.rewrite import RewriteRelation
from repro.utils.multiset import Multiset
from tests.conftest import make_random_entailment

NAMES = ("a", "b", "c", "d", "nil")

constants = st.sampled_from([Const(n) if n != "nil" else NIL for n in NAMES])
program_vars = st.sampled_from([Const(n) for n in NAMES if n != "nil"])


spatial_atoms = st.builds(
    lambda kind, src, dst: PointsTo(src, dst) if kind else ListSegment(src, dst),
    st.booleans(),
    program_vars,
    constants,
)

pure_literals = st.builds(
    lambda positive, left, right: eq(left, right) if positive else neq(left, right),
    st.booleans(),
    program_vars,
    constants,
)

spatial_formulas = st.lists(spatial_atoms, max_size=4).map(SpatialFormula)

entailments = st.builds(
    lambda lp, ls, rp, rs: Entailment(tuple(lp), ls, tuple(rp), rs),
    st.lists(pure_literals, max_size=2),
    spatial_formulas,
    st.lists(pure_literals, max_size=2),
    spatial_formulas,
)

SLOW = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
FAST = settings(max_examples=100, deadline=None)


# ---------------------------------------------------------------------------
# Data structures
# ---------------------------------------------------------------------------


@FAST
@given(st.lists(st.integers(min_value=0, max_value=5)), st.lists(st.integers(min_value=0, max_value=5)))
def test_multiset_union_counts(left, right):
    union = Multiset(left).union(Multiset(right))
    for item in set(left + right):
        assert union.count(item) == left.count(item) + right.count(item)


@FAST
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1))
def test_multiset_remove_inverts_add(items):
    base = Multiset(items)
    assert base.add(items[0]).remove(items[0]) == base


@FAST
@given(constants, constants)
def test_eq_atom_symmetry(left, right):
    assert EqAtom(left, right) == EqAtom(right, left)
    assert hash(EqAtom(left, right)) == hash(EqAtom(right, left))


@FAST
@given(st.lists(spatial_atoms, max_size=5))
def test_spatial_formula_is_order_insensitive(atoms):
    shuffled = list(atoms)
    random.Random(0).shuffle(shuffled)
    assert SpatialFormula(atoms) == SpatialFormula(shuffled)


@FAST
@given(st.lists(spatial_atoms, max_size=5))
def test_drop_trivial_is_idempotent(atoms):
    formula = SpatialFormula(atoms)
    assert formula.drop_trivial() == formula.drop_trivial().drop_trivial()


@FAST
@given(constants, constants)
def test_term_order_is_total_and_nil_minimal(left, right):
    order = default_order([Const(n) for n in NAMES if n != "nil"])
    if left != right:
        assert order.greater(left, right) != order.greater(right, left)
    if not left.is_nil:
        assert order.greater(left, NIL)


@FAST
@given(st.dictionaries(program_vars, constants, max_size=3))
def test_rewrite_relation_normal_forms_are_idempotent(edges):
    relation = RewriteRelation()
    for source, target in edges.items():
        if source != target and relation.is_irreducible(source):
            relation.add_edge(source, target)
    try:
        for constant in list(edges) + [NIL]:
            normal = relation.normal_form(constant)
            assert relation.normal_form(normal) == normal
    except Exception as error:  # pragma: no cover - cycles are legitimate here
        from repro.superposition.rewrite import RewriteCycleError

        assert isinstance(error, RewriteCycleError)


# ---------------------------------------------------------------------------
# Prover-level properties
# ---------------------------------------------------------------------------


@SLOW
@given(entailments)
def test_printer_parser_roundtrip(entailment):
    assert parse_entailment(format_entailment(entailment)) == entailment


@SLOW
@given(entailments)
def test_counterexamples_are_genuine(entailment):
    result = prove(entailment)
    if result.is_invalid:
        cex = result.counterexample
        assert falsifies_entailment(cex.stack, cex.heap, entailment)


@SLOW
@given(entailments)
def test_validity_is_invariant_under_renaming(entailment):
    mapping = {
        Const("a"): Const("p"),
        Const("b"): Const("q"),
        Const("c"): Const("r"),
        Const("d"): Const("s"),
    }
    renamed = entailment.rename(mapping)
    assert prove(entailment).is_valid == prove(renamed).is_valid


@SLOW
@given(entailments)
def test_validity_is_preserved_by_cloning(entailment):
    assert prove(entailment).is_valid == prove(clone_entailment(entailment, 2)).is_valid


@SLOW
@given(entailments)
def test_slp_agrees_with_smallfoot_baseline(entailment):
    from repro.baselines.smallfoot import SmallfootProver

    baseline = SmallfootProver(max_steps=200000).prove(entailment)
    if baseline.verdict.value == "unknown":
        return
    assert prove(entailment).is_valid == baseline.is_valid


@SLOW
@given(entailments)
def test_weakening_the_right_hand_side_with_emp_segment_preserves_validity(entailment):
    # lseg(v, v) is emp, so adding it to the right-hand side never changes validity.
    extended = Entailment(
        entailment.lhs_pure,
        entailment.lhs_spatial,
        entailment.rhs_pure,
        entailment.rhs_spatial.add(ListSegment("fresh_v", "fresh_v")),
    )
    assert prove(entailment).is_valid == prove(extended).is_valid


@SLOW
@given(st.integers(min_value=0, max_value=2 ** 30))
def test_random_small_entailments_never_crash(seed):
    rng = random.Random(seed)
    entailment = make_random_entailment(rng, n_vars=4)
    result = prove(entailment)
    assert result.is_valid or result.counterexample is not None


@SLOW
@given(entailments)
def test_indexed_paths_match_reference_paths(entailment):
    # The clause index and the incremental model generator are pure
    # optimisations: verdicts AND the number of generated clauses must be
    # identical to the linear-scan / from-scratch reference implementations.
    from repro.core.config import ProverConfig

    indexed = prove(entailment)
    reference = prove(entailment, ProverConfig().reference())
    assert indexed.is_valid == reference.is_valid
    assert (
        indexed.statistics.generated_clauses == reference.statistics.generated_clauses
    )


@SLOW
@given(st.integers(min_value=0, max_value=2 ** 30))
def test_incremental_model_generator_matches_one_shot(seed):
    # At every round, the incremental generator on a kernel engine and
    # generate_model over the engine's known clauses must build the same
    # model: the same relation and the same generating-clause records.
    from repro.logic.cnf import cnf
    from repro.logic.ordering import default_order
    from repro.superposition.model import (
        IncrementalModelGenerator,
        ModelGenerationError,
        generate_model,
    )
    from repro.superposition.saturation import SaturationEngine

    rng = random.Random(seed)
    entailment = make_random_entailment(rng, n_vars=4)
    embedding = cnf(entailment)
    order = default_order(entailment.constants())
    engine = SaturationEngine(order, use_kernel=True)
    engine.add_clauses(embedding.pure_clauses)
    incremental = IncrementalModelGenerator(order)
    while True:
        result = engine.saturate(max_given=5)
        if result.refuted:
            break
        try:
            one_shot = generate_model(engine.known_pure_clauses(), order)
        except ModelGenerationError:
            one_shot = None
        try:
            rolling = incremental.model_for_engine(engine)
        except ModelGenerationError:
            rolling = None
        assert (one_shot is None) == (rolling is None)
        if one_shot is not None and rolling is not None:
            assert one_shot.relation == rolling.relation
            assert one_shot.generators == rolling.generators
        if result.complete:
            break
