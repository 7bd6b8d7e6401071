"""Differentiable strength formulas and the concrete rule set.

All formulas are built from tape primitives, map [0,1] inputs into [0,1]
outputs, and stay smooth so gradient checks pass everywhere away from the
deduction clamp boundary.
"""

from __future__ import annotations

from .atomspace import DEFAULT_STRENGTH, AtomSpace
from .autodiff import VarRef
from .chainer import Rule

DEDUCTION_EPS = 1e-6
DEFAULT_NEG_CONDITIONAL = 0.2


class FormulaError(Exception):
    pass


def _check_unit(label: str, *refs: VarRef) -> None:
    """FormulaError("<label> <value> outside [0, 1]") for the first input
    out of range; a traced loss keeps each check as a replay guard."""
    for r in refs:
        r.tape.check_unit(r, FormulaError, label)


def modus_ponens_strength(p_a: VarRef, p_b_given_a: VarRef,
                          p_b_given_not_a: VarRef) -> VarRef:
    """P(B) = P(B|A)*P(A) + P(B|not A)*(1 - P(A)); a convex combination."""
    _check_unit("modus_ponens input", p_a, p_b_given_a, p_b_given_not_a)
    t = p_a.tape
    return t.add(t.mul(p_b_given_a, p_a),
                 t.mul(p_b_given_not_a, t.one_minus(p_a)))


def deduction_strength(s_ab: VarRef, s_bc: VarRef,
                       s_b: VarRef, s_c: VarRef) -> VarRef:
    """Independence-based transitive strength:

        s_ab*s_bc + (1 - s_ab)*(s_c - s_b*s_bc)/(1 - s_b)

    with the conditional term clamped into [0,1] and a fallback to s_c when
    s_b saturates (1 - s_b below epsilon), keeping gradients finite.
    """
    _check_unit("deduction input", s_ab, s_bc, s_b, s_c)
    t = s_ab.tape
    if t.at_least(s_b, 1.0 - DEDUCTION_EPS):
        return s_c
    cond = t.div(t.sub(s_c, t.mul(s_b, s_bc)), t.one_minus(s_b))
    cond = t.clamp01(cond)
    out = t.add(t.mul(s_ab, s_bc), t.mul(t.one_minus(s_ab), cond))
    return t.clamp01(out)


def fuzzy_and(a: VarRef, b: VarRef) -> VarRef:
    """Product conjunction."""
    _check_unit("fuzzy_and input", a, b)
    return a.tape.mul(a, b)


def fuzzy_or(a: VarRef, b: VarRef) -> VarRef:
    """Probabilistic sum: a + b - a*b."""
    _check_unit("fuzzy_or input", a, b)
    t = a.tape
    return t.sub(t.add(a, b), t.mul(a, b))


def fuzzy_not(a: VarRef) -> VarRef:
    """Complement: 1 - a."""
    _check_unit("fuzzy_not input", a)
    return a.tape.one_minus(a)


def trainable_mp_strength(p_a: VarRef, p_b_given_a: VarRef,
                          weights: list[VarRef]) -> VarRef:
    """sigmoid(w0*P(A)*P(B|A) + w1*P(A) + w2*P(B|A) + w3), where ``weights``
    is the list [w0, w1, w2, w3] of tape parameters; always in (0,1)."""
    _check_unit("trainable_mp input", p_a, p_b_given_a)
    t = p_a.tape
    w0, w1, w2, w3 = weights
    z = t.add(t.add(t.mul(w0, t.mul(p_a, p_b_given_a)), t.mul(w1, p_a)),
              t.add(t.mul(w2, p_b_given_a), w3))
    return t.sigmoid(z)


# -- concrete rule set -----------------------------------------------------

def make_modus_ponens_rule(kb: AtomSpace,
                           neg_conditional: float = DEFAULT_NEG_CONDITIONAL,
                           weights: list[VarRef] | None = None) -> Rule:
    """Impl($P, $Q), Eval($P, $X)  |-  Eval($Q, $X).

    The exact formula, rule "modus-ponens", reads P(B|not A) from the term
    Impl(Not($P), $Q), or ``neg_conditional`` when that atom is not
    asserted.  With ``weights``, a list of four tape parameters (else
    FormulaError), rule "trainable-modus-ponens", the conclusion strength
    comes from the trainable sigmoid-linear formula instead, which has no
    terms.
    """
    if weights is not None and len(weights) != 4:
        raise FormulaError("weights must be 4 tape parameters, not %d" % len(weights))
    var_p = kb.node("VariableNode", "$P")
    var_q = kb.node("VariableNode", "$Q")
    var_x = kb.node("VariableNode", "$X")
    impl = kb.link("ImplicationLink", var_p, var_q)
    eval_pa = kb.link("EvaluationLink", var_p, var_x)
    eval_qa = kb.link("EvaluationLink", var_q, var_x)

    if weights is not None:
        terms = []
        formula = lambda inputs: trainable_mp_strength(inputs[1], inputs[0], weights)
    else:
        terms = [(kb.link("ImplicationLink", kb.link("NotLink", var_p), var_q),
                  neg_conditional)]
        formula = lambda inputs: modus_ponens_strength(inputs[1], inputs[0], inputs[2])

    return Rule(
        kb, name="modus-ponens" if weights is None else "trainable-modus-ponens",
        variables=[(var_p, "PredicateNode"), (var_q, "PredicateNode"),
                   (var_x, "ConceptNode")],
        premises=[impl, eval_pa],
        conclusion=eval_qa,
        formula=formula,
        terms=terms,
    )


def make_deduction_rule(kb: AtomSpace) -> Rule:
    """Inh($X, $Y), Inh($Y, $Z)  |-  Inh($X, $Z).

    The terms are the middle and final ConceptNodes; an unvalued one reads
    the default strength 1.0.
    """
    var_x = kb.node("VariableNode", "$DX")
    var_y = kb.node("VariableNode", "$DY")
    var_z = kb.node("VariableNode", "$DZ")
    inh_xy = kb.link("InheritanceLink", var_x, var_y)
    inh_yz = kb.link("InheritanceLink", var_y, var_z)
    inh_xz = kb.link("InheritanceLink", var_x, var_z)

    return Rule(
        kb, name="deduction",
        variables=[(var_x, None), (var_y, None), (var_z, None)],
        premises=[inh_xy, inh_yz],
        conclusion=inh_xz,
        formula=lambda inputs: deduction_strength(*inputs),
        terms=[(var_y, DEFAULT_STRENGTH), (var_z, DEFAULT_STRENGTH)],
    )


def make_connective_rules(kb: AtomSpace) -> list[Rule]:
    """Conjunction, disjunction and negation introduction over evaluations.

    Operands are constrained to EvaluationLinks so forward chaining does not
    flood the queue with compounds over arbitrary atoms.
    """
    var_a = kb.node("VariableNode", "$CA")
    var_b = kb.node("VariableNode", "$CB")
    and_ab = kb.link("AndLink", var_a, var_b)
    or_ab = kb.link("OrLink", var_a, var_b)
    not_a = kb.link("NotLink", var_a)
    binary_vars = [(var_a, "EvaluationLink"), (var_b, "EvaluationLink")]
    return [
        Rule(kb, name="fuzzy-conjunction", variables=list(binary_vars),
             premises=[var_a, var_b], conclusion=and_ab,
             formula=lambda inputs: fuzzy_and(inputs[0], inputs[1])),
        Rule(kb, name="fuzzy-disjunction", variables=list(binary_vars),
             premises=[var_a, var_b], conclusion=or_ab,
             formula=lambda inputs: fuzzy_or(inputs[0], inputs[1])),
        Rule(kb, name="fuzzy-negation", variables=[(var_a, "EvaluationLink")],
             premises=[var_a], conclusion=not_a,
             formula=lambda inputs: fuzzy_not(inputs[0])),
    ]


def make_rule_set(kb: AtomSpace) -> list[Rule]:
    """The standard rule set, all exact formulas: modus ponens, deduction
    and the three connectives; it adds no tape record.  A caller that trains
    a rule builds it with weights it trains, as ``make_modus_ponens_rule(kb,
    weights=[kb.tape.parameter(0.0) for _ in range(4)])``."""
    return [make_modus_ponens_rule(kb), make_deduction_rule(kb),
            *make_connective_rules(kb)]
