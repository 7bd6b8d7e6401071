"""The s-expression loader as it was before the one-pass rewrite: a
tokenizer, a recursive parser into tuples and a recursive atom builder.
Kept in the tests only, as the oracle ``test_sexpr_oracle.py`` checks
``dpln.sexpr.load_kb`` and ``parse_atom`` against.  Here every tokenizer
error comes before every structure error, and those before every build
error; the loader raises the first error in text order instead.
"""

from __future__ import annotations

from dpln.atomspace import TYPES, AtomSpace, TruthValue
from dpln.sexpr import MAX_DEPTH, SexprError


# -- tokenizer -------------------------------------------------------------

def _tokenize(text: str):
    """Yields (token, line) pairs; tokens are '(', ')', strings and symbols."""
    line = 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif c.isspace():
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            yield (c, line)
            i += 1
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise SexprError("unterminated string", line)
                j += 1
            if j >= n:
                raise SexprError("unterminated string", line)
            yield (("str", text[i + 1:j]), line)
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in '();"':
                j += 1
            yield (("sym", text[i:j]), line)
            i = j


def _parse_form(tokens: list, pos: int, depth: int):
    """The form or token at ``pos``, and the next position.  Not a closure:
    a recursive closure is a reference cycle that keeps the tokens alive."""
    tok, line = tokens[pos]
    if tok == "(":
        if depth > MAX_DEPTH:
            raise SexprError("forms nest deeper than %d levels" % MAX_DEPTH, line)
        pos += 1
        if pos >= len(tokens):
            raise SexprError("unexpected end of input", line)
        head, hline = tokens[pos]
        if not (isinstance(head, tuple) and head[0] == "sym"):
            raise SexprError("expected a type symbol after '('", hline)
        pos += 1
        args = []
        while True:
            if pos >= len(tokens):
                raise SexprError("missing ')'", line)
            if tokens[pos][0] == ")":
                return (head[1], args, line), pos + 1
            arg, pos = _parse_form(tokens, pos, depth + 1)
            args.append(arg)
    if tok == ")":
        raise SexprError("unexpected ')'", line)
    return tok, pos + 1  # ('str', s) or ('sym', s)


def _parse_forms(text: str):
    """Parses the whole text into a list of (form, line) trees.

    A form is (head_symbol, [args], line); args are forms or ('str', s).
    """
    tokens = list(_tokenize(text))
    forms = []
    pos = 0
    while pos < len(tokens):
        tok, line = tokens[pos]
        if tok != "(":
            raise SexprError("expected '(' at top level", line)
        form, pos = _parse_form(tokens, pos, 1)
        forms.append(form)
    return forms


# -- building atoms --------------------------------------------------------

def _build_atom(kb: AtomSpace, form,
                stv_ok: bool = True) -> tuple[int, tuple[float, float] | None]:
    """Interns the atom for a parsed form; returns (id, optional stv).
    Asserts a child's stv, or rejects any stv if not ``stv_ok``."""
    head, args, line = form
    if head == "stv":
        raise SexprError("(stv ...) is not an atom", line)
    if head not in TYPES:
        raise SexprError("unknown atom type %r" % head, line)
    stv = None
    name = None
    children = []
    for arg in args:
        if isinstance(arg, tuple) and arg[0] == "str":
            if name is not None:
                raise SexprError("multiple names in one form", line)
            name = arg[1]
        elif isinstance(arg, tuple) and arg[0] == "sym":
            raise SexprError("bare symbol %r (names must be quoted)" % arg[1], line)
        elif arg[0] == "stv":
            if not stv_ok:
                raise SexprError("a query cannot carry a truth value", arg[2])
            stv = _parse_stv(arg)
        else:
            child_id, child_stv = _build_atom(kb, arg, stv_ok)
            if child_stv is not None:
                kb.set_tv(child_id, _make_tv(kb, child_stv))
            children.append(child_id)
    t = TYPES[head]
    try:
        if t.is_node:
            if name is None:
                raise SexprError("node %s needs a quoted name" % head, line)
            if children:
                raise SexprError("node %s cannot have children" % head, line)
            atom_id = kb.intern_node(head, name)
        else:
            if name is not None:
                raise SexprError("link %s cannot have a name" % head, line)
            atom_id = kb.intern_link(head, children)
    except SexprError:
        raise
    except Exception as exc:
        raise SexprError(str(exc), line) from exc
    return atom_id, stv


def _parse_stv(form) -> tuple[float, float]:
    head, args, line = form
    vals = []
    for arg in args:
        if not (isinstance(arg, tuple) and arg[0] == "sym"):
            raise SexprError("stv takes two numbers", line)
        try:
            vals.append(float(arg[1]))
        except ValueError:
            raise SexprError("bad number %r in stv" % arg[1], line) from None
    if len(vals) != 2:
        raise SexprError("stv takes two numbers", line)
    s, c = vals
    if not (0.0 <= s <= 1.0 and 0.0 <= c <= 1.0):  # also rejects nan
        raise SexprError("stv values must lie in [0, 1], got %s %s"
                         % (args[0][1], args[1][1]), line)
    return (s, c)


def _make_tv(kb: AtomSpace, stv: tuple[float, float]) -> TruthValue:
    return TruthValue(kb.tape.constant(stv[0]), stv[1])


def _normalize_lambda_implication(kb: AtomSpace, atom_id: int) -> int:
    """Rewrites Impl(Lambda($X, Eval(P, $X)), Lambda($Y, Eval(Q, $Y))) to the
    abbreviated Impl(P, Q) form; the two renderings are equivalent.  Each
    lambda must bind a VariableNode that is its PredicateNode's argument."""
    atom = kb.atom(atom_id)
    if atom.type.name != "ImplicationLink" or len(atom.outgoing) != 2:
        return atom_id
    preds = []
    for child_id in atom.outgoing:
        child = kb.atom(child_id)
        if child.type.name != "LambdaLink" or len(child.outgoing) != 2:
            return atom_id
        var, body = child.outgoing[0], kb.atom(child.outgoing[1])
        if body.type.name != "EvaluationLink" or body.outgoing[1:] != (var,) \
                or kb.atom(var).type.name != "VariableNode" \
                or kb.atom(body.outgoing[0]).type.name != "PredicateNode":
            return atom_id
        preds.append(body.outgoing[0])
    return kb.intern_link("ImplicationLink", preds)


# -- public API ------------------------------------------------------------

def parse_atom(kb: AtomSpace, text: str) -> int:
    """Parses a single s-expression into an interned atom, abbreviating a
    Lambda-wrapped implication as ``load_kb`` does.  It writes no truth
    value: an (stv ...) at any level is a SexprError."""
    forms = _parse_forms(text)
    if len(forms) != 1:
        raise SexprError("expected exactly one form", 1)
    atom_id, _ = _build_atom(kb, forms[0], stv_ok=False)
    return _normalize_lambda_implication(kb, atom_id)


def load_kb(kb: AtomSpace, text: str) -> list[int]:
    """Loads KB text; every top-level form becomes an asserted fact.

    Facts without an explicit (stv ...) get the store default truth value.
    Lambda-wrapped implications are normalized to the abbreviated
    predicate-to-predicate form.
    """
    top_ids = []
    for form in _parse_forms(text):
        atom_id, stv = _build_atom(kb, form)
        atom_id = _normalize_lambda_implication(kb, atom_id)
        if stv is not None:
            kb.set_tv(atom_id, _make_tv(kb, stv))
        else:
            kb.set_tv(atom_id, kb.get_tv(atom_id))
        top_ids.append(atom_id)
    return top_ids
