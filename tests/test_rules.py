import random

import pytest

from dpln import (Tape, deduction_strength, fuzzy_and, fuzzy_not, fuzzy_or,
                  load_kb, make_modus_ponens_rule, make_rule_set,
                  modus_ponens_strength, trainable_mp_strength)
from dpln.rules import FormulaError

from conftest import assert_grads_close, fresh_kb, interior


def _mp(tape, p_a, p_bga, p_bgna):
    return modus_ponens_strength(tape.constant(p_a), tape.constant(p_bga),
                                 tape.constant(p_bgna)).value


def test_modus_ponens_certain_antecedent():
    # P(A)=1 leaves only the P(B|A) term
    assert _mp(Tape(), 1.0, 0.7, 0.2) == pytest.approx(0.7)


def test_modus_ponens_impossible_antecedent():
    assert _mp(Tape(), 0.0, 0.7, 0.2) == pytest.approx(0.2)


def test_modus_ponens_mixture():
    # 0.8*0.5 + 0.2*0.5
    assert _mp(Tape(), 0.5, 0.8, 0.2) == pytest.approx(0.5)


def test_modus_ponens_boundary_identities():
    rng = random.Random(1)
    t = Tape()
    for _ in range(50):
        p_bga, p_bgna = interior(rng), interior(rng)
        assert _mp(t, 1.0, p_bga, p_bgna) == pytest.approx(p_bga)
        assert _mp(t, 0.0, p_bga, p_bgna) == pytest.approx(p_bgna)


def test_modus_ponens_monotone_in_conditional():
    rng = random.Random(2)
    t = Tape()
    for _ in range(50):
        p_a, p_bgna = interior(rng), interior(rng)
        lo, hi = sorted((interior(rng), interior(rng)))
        assert _mp(t, p_a, lo, p_bgna) <= _mp(t, p_a, hi, p_bgna) + 1e-12


def test_modus_ponens_out_of_range():
    t = Tape()
    with pytest.raises(FormulaError):
        modus_ponens_strength(t.constant(1.5), t.constant(0.5),
                              t.constant(0.2))


def _ded(tape, s_ab, s_bc, s_b, s_c):
    return deduction_strength(tape.constant(s_ab), tape.constant(s_bc),
                              tape.constant(s_b), tape.constant(s_c)).value


def test_deduction_certainty():
    assert _ded(Tape(), 1.0, 1.0, 0.5, 1.0) == pytest.approx(1.0)


def test_deduction_certain_first_premise():
    assert _ded(Tape(), 1.0, 0.9, 0.5, 0.5) == pytest.approx(0.9)


def test_deduction_hand_value():
    # 0.8*0.9 + 0.2*(0.5 - 0.36)/0.6
    assert _ded(Tape(), 0.8, 0.9, 0.4, 0.5) == pytest.approx(0.72 + 0.2 * 0.14 / 0.6)
    assert _ded(Tape(), 0.8, 0.9, 0.4, 0.5) == pytest.approx(0.76667, abs=5e-6)


def test_deduction_saturated_middle_falls_back():
    assert _ded(Tape(), 0.3, 0.9, 1.0, 0.6) == pytest.approx(0.6)
    assert _ded(Tape(), 0.3, 0.9, 1.0 - 1e-9, 0.6) == pytest.approx(0.6)


def test_deduction_out_of_range():
    t = Tape()
    with pytest.raises(FormulaError):
        deduction_strength(t.constant(0.5), t.constant(-0.1),
                           t.constant(0.5), t.constant(0.5))


def test_fuzzy_and_identity():
    t = Tape()
    rng = random.Random(3)
    for _ in range(20):
        x = interior(rng)
        assert fuzzy_and(t.constant(1.0), t.constant(x)).value == \
            pytest.approx(x)


def test_fuzzy_or_hand_value():
    t = Tape()
    assert fuzzy_or(t.constant(0.3), t.constant(0.4)).value == \
        pytest.approx(0.58)


def test_fuzzy_not_involution():
    t = Tape()
    assert fuzzy_not(fuzzy_not(t.constant(0.7))).value == pytest.approx(0.7)


def test_connective_out_of_range():
    t = Tape()
    with pytest.raises(FormulaError):
        fuzzy_and(t.constant(1.1), t.constant(0.5))
    with pytest.raises(FormulaError):
        fuzzy_not(t.constant(-0.2))


def test_trainable_mp_zero_weights():
    t = Tape()
    w = [t.parameter(0.0) for _ in range(4)]
    rng = random.Random(4)
    for _ in range(20):
        out = trainable_mp_strength(t.constant(interior(rng)),
                                    t.constant(interior(rng)), w)
        assert out.value == pytest.approx(0.5)


def test_trainable_mp_saturated_bias():
    t = Tape()
    w = [t.parameter(0.0) for _ in range(4)]
    w[3].value = 20.0
    out = trainable_mp_strength(t.constant(0.5), t.constant(0.5), w)
    assert out.value == pytest.approx(1.0, abs=1e-8)


def test_trainable_mp_weights_registered():
    t = Tape()
    w = [t.parameter(0.0) for _ in range(4)]
    assert len(t.parameters) == 4
    assert all(r.requires_grad for r in w)


@pytest.mark.parametrize("count", [3, 5])
def test_trainable_mp_rule_needs_four_weights(count):
    """A weight list of another length fails when the rule is built, not
    at its first firing."""
    t, kb = fresh_kb()
    with pytest.raises(FormulaError, match="weights must be 4 tape parameters"):
        make_modus_ponens_rule(kb, weights=[t.parameter(0.0) for _ in range(count)])


def test_trainable_mp_fit_tracks_exact_formula(learn_formula_fit):
    """Gradient-trained sigmoid-linear weights approximate the exact convex
    combination.  Cross-entropy training lands at a max error of about 0.077
    on the 11x11 grid, at the P(A)=1 edge; that is where this training stops,
    not the family's floor (a minimax fit on the 21x21 held-out grid reaches
    about 0.056)."""
    from dpln.cli import _eq1

    res = learn_formula_fit
    t = Tape()
    w = [t.parameter(0.0) for _ in range(4)]
    for i, r in enumerate(w):
        r.value = res["weights"]["w%d" % i]
    grid = [i / 10 for i in range(11)]
    errors = [abs(trainable_mp_strength(t.constant(x), t.constant(y), w).value
                  - _eq1(x, y, 0.2))
              for x in grid for y in grid]
    assert max(errors) <= 0.08
    assert sum(errors) / len(errors) <= 0.02


def test_range_closure_random_inputs():
    """Every formula maps [0,1] inputs into [0,1] on 1000 random points."""
    rng = random.Random(5)
    t = Tape()
    w = [t.parameter(0.0) for _ in range(4)]
    w[0].value, w[1].value, w[2].value, w[3].value = 3.0, -1.5, 0.5, -2.0
    for _ in range(1000):
        u = [rng.random() for _ in range(4)]
        refs = [t.constant(v) for v in u]
        outs = [
            modus_ponens_strength(refs[0], refs[1], refs[2]),
            deduction_strength(refs[0], refs[1], refs[2], refs[3]),
            fuzzy_and(refs[0], refs[1]),
            fuzzy_or(refs[0], refs[1]),
            fuzzy_not(refs[0]),
            trainable_mp_strength(refs[0], refs[1], w),
        ]
        for out in outs:
            assert 0.0 <= out.value <= 1.0


def test_formula_gradient_checks():
    """Each formula vs central differences at >= 100 interior points."""
    rng = random.Random(6)

    def mp(t, r):
        return modus_ponens_strength(r[0], r[1], r[2])

    def ded(t, r):
        return deduction_strength(r[0], r[1], r[2], r[3])

    def tmp_formula(t, r):
        w = [r[2], r[3], r[4], r[5]]
        return trainable_mp_strength(r[0], r[1], w)

    for _ in range(100):
        assert_grads_close(mp, [interior(rng) for _ in range(3)])
        assert_grads_close(lambda t, r: fuzzy_and(r[0], r[1]),
                           [interior(rng), interior(rng)])
        assert_grads_close(lambda t, r: fuzzy_or(r[0], r[1]),
                           [interior(rng), interior(rng)])
        assert_grads_close(lambda t, r: fuzzy_not(r[0]), [interior(rng)])
        assert_grads_close(tmp_formula,
                           [interior(rng), interior(rng)]
                           + [rng.uniform(-2, 2) for _ in range(4)])
        # keep the conditional term away from its clamp boundary
        while True:
            vals = [interior(rng) for _ in range(4)]
            s_ab, s_bc, s_b, s_c = vals
            cond = (s_c - s_b * s_bc) / (1.0 - s_b)
            out = s_ab * s_bc + (1 - s_ab) * min(1.0, max(0.0, cond))
            if 0.02 < cond < 0.98 and 0.02 < out < 0.98 and s_b < 0.9:
                break
        assert_grads_close(ded, vals)


def test_rule_set_composition():
    """The five exact rules; building them adds no tape record."""
    _, kb = fresh_kb()
    records = len(kb.tape)
    rules = make_rule_set(kb)
    assert len(kb.tape) == records
    names = [r.name for r in rules]
    assert names == ["modus-ponens", "deduction", "fuzzy-conjunction",
                     "fuzzy-disjunction", "fuzzy-negation"]
    for rule in rules:
        concl_vars = set()
        stack = [rule.conclusion]
        while stack:
            i = stack.pop()
            a = kb.atom(i)
            if a.type.name == "VariableNode":
                concl_vars.add(i)
            stack.extend(a.outgoing)
        premise_vars = set()
        for p in rule.premises:
            stack = [p]
            while stack:
                i = stack.pop()
                a = kb.atom(i)
                if a.type.name == "VariableNode":
                    premise_vars.add(i)
                stack.extend(a.outgoing)
        assert concl_vars <= premise_vars


def test_neg_conditional_lookup():
    """Modus ponens reads P(B|not A) from an asserted Impl(Not(A), B)."""
    from dpln import ChainConfig, backward_chain, parse_atom
    from dpln.rules import make_modus_ponens_rule

    _, kb = fresh_kb()
    load_kb(kb, """
    (ImplicationLink (stv 0.6 1.0)
        (PredicateNode "apple") (PredicateNode "green"))
    (ImplicationLink (stv 0.45 1.0)
        (NotLink (PredicateNode "apple")) (PredicateNode "green"))
    (EvaluationLink (stv 0.5 1.0)
        (PredicateNode "apple") (ConceptNode "apple-001"))
    """)
    rule = make_modus_ponens_rule(kb)
    target = parse_atom(kb, '(EvaluationLink (PredicateNode "green") '
                            '(ConceptNode "apple-001"))')
    results = backward_chain(kb, [rule], target, ChainConfig(max_depth=2))
    assert len(results) == 1
    # 0.6*0.5 + 0.45*0.5, not the 0.2 default
    assert results[0][1].value == pytest.approx(0.525)
