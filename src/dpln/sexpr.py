"""Text format for knowledge bases: one s-expression per top-level atom.

    (InheritanceLink (stv 0.9 0.9) (ConceptNode "sparrow") (ConceptNode "bird"))

``(stv s c)`` optionally attaches a truth value and may appear once anywhere
among a form's arguments.  Strings are double-quoted, whitespace is free-form
and ``;`` starts a line comment.

The text is read in one pass, without recursion: one regular expression
tokenizes each line, with a whole one-line node form or (stv s c) as one
match, and each form is interned when its ')' arrives.  The first error in
text order raises a SexprError with its line.
"""

from __future__ import annotations

import re

from .atomspace import TYPES, AtomSpace, TruthValue

# Deepest form nesting accepted.  Parsing is iterative, but the chainer and
# ``format_atom`` recurse over an atom's structure, so deeper input is
# refused up front.
MAX_DEPTH = 256

_NODE_TYPES = frozenset(name for name, t in TYPES.items() if t.is_node)
# One match per token: a whole one-line node form, as its type and name
# groups; a whole (stv s c), as its two number groups; or else, in the last
# group, a comment (the rest of the line), a paren, a string, a symbol, or a
# lone '"' that opens a string no '"' closes on its line.
_TOKEN = re.compile(r'\(\s*(?:(%s)\s*"([^"]*)"|stv\s+([^\s();"]+)\s+'
                    r'([^\s();"]+))\s*\)|(;.*|[()]|"[^"]*"|[^\s();"]+|")'
                    % "|".join(sorted(_NODE_TYPES)))


class SexprError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


def _load(kb: AtomSpace, text: str, query: bool) -> list[int]:
    """The one pass behind ``load_kb`` and ``parse_atom``: tokenizes each
    line, interns each form when its ')' arrives and returns the top-level
    ids.  ``query`` allows no (stv ...) and one form only.  The first error
    in text order raises; forms before it stay loaded."""
    top_ids = []
    # open forms, innermost last: [line, head, name, children, stv]; an
    # (stv ...) form keeps its (number, text) pairs as its children
    stack = []
    want_head = False  # the last token was '('
    for line, chars in enumerate(text.split("\n"), 1):
        for node, name, s_text, c_text, tok in _TOKEN.findall(chars):
            if tok == ")":
                if want_head:
                    raise SexprError("expected a type symbol after '('", line)
                if not stack:
                    raise SexprError("expected '(' at top level", line)
                form_line, head, name, children, stv = stack.pop()
                if head == "stv":
                    stack[-1][4] = _stv(children, form_line)
                    continue
                if head in _NODE_TYPES:
                    if name is None:
                        raise SexprError("node %s needs a quoted name" % head,
                                         form_line)
                    if children:
                        raise SexprError("node %s cannot have children" % head,
                                         form_line)
                    atom_id = kb._node(head, name)
                else:
                    if name is not None:
                        raise SexprError("link %s cannot have a name" % head,
                                         form_line)
                    atom_id = kb._link(TYPES[head], tuple(children))
            elif not tok or tok == "(":  # or a whole node or (stv s c) form
                if want_head:
                    raise SexprError("expected a type symbol after '('", line)
                if stack:
                    if stack[-1][1] == "stv":
                        raise SexprError("stv takes two numbers", stack[-1][0])
                    if len(stack) >= MAX_DEPTH:
                        raise SexprError("forms nest deeper than %d levels"
                                         % MAX_DEPTH, line)
                elif query and top_ids:
                    raise SexprError("expected exactly one form", line)
                if tok:
                    stack.append([line, None, None, [], None])
                    want_head = True
                    continue
                if not node:
                    _check_stv_place(stack, query, line)
                    stack[-1][4] = _stv([_number(s_text, line),
                                         _number(c_text, line)], line)
                    continue
                atom_id, stv = kb._node(node, name), None
            elif tok[0] == ";":
                break
            elif tok == '"':
                raise SexprError("unterminated string", line)
            elif want_head:
                want_head = False
                frame = stack[-1]
                if tok in TYPES:
                    frame[1] = tok
                elif tok[0] == '"':
                    raise SexprError("expected a type symbol after '('", line)
                elif tok != "stv":
                    raise SexprError("unknown atom type %r" % tok, frame[0])
                else:
                    _check_stv_place(stack[:-1], query, frame[0])
                    frame[1] = tok
                continue
            elif not stack:
                raise SexprError("expected '(' at top level", line)
            else:
                frame = stack[-1]
                if frame[1] == "stv":
                    if tok[0] == '"':
                        raise SexprError("stv takes two numbers", frame[0])
                    frame[3].append(_number(tok, frame[0]))
                elif tok[0] != '"':
                    raise SexprError("bare symbol %r (names must be quoted)"
                                     % tok, frame[0])
                elif frame[2] is not None:
                    raise SexprError("multiple names in one form", frame[0])
                else:
                    frame[2] = tok[1:-1]
                continue
            if stack:
                if stv is not None:
                    kb.set_tv(atom_id, _make_tv(kb, stv))
                stack[-1][3].append(atom_id)
                continue
            atom_id = _normalize_lambda_implication(kb, atom_id)
            if stv is not None:
                kb.set_tv(atom_id, _make_tv(kb, stv))
            elif not query and atom_id not in kb.tvs:  # asserted at the default
                kb.set_tv(atom_id, kb.get_tv(atom_id))
            top_ids.append(atom_id)
    if stack:
        raise SexprError("unexpected end of input" if want_head
                         else "missing ')'", stack[-1][0])
    if query and not top_ids:
        raise SexprError("expected exactly one form", 1)
    return top_ids


def _check_stv_place(outer: list, query: bool, line: int) -> None:
    """Raises unless an (stv ...) may open inside the ``outer`` forms."""
    if not outer:
        raise SexprError("(stv ...) is not an atom", line)
    if query:
        raise SexprError("a query cannot carry a truth value", line)
    if outer[-1][4] is not None:
        raise SexprError("multiple truth values in one form", line)


def _number(tok: str, line: int) -> tuple[float, str]:
    """An stv number as its (value, text) pair."""
    try:
        return (float(tok), tok)
    except ValueError:
        raise SexprError("bad number %r in stv" % tok, line) from None


def _stv(numbers: list, line: int) -> tuple[float, float]:
    """The (strength, confidence) of an (stv ...) form's (number, text) pairs."""
    if len(numbers) != 2:
        raise SexprError("stv takes two numbers", line)
    (s, s_text), (c, c_text) = numbers
    if not (0.0 <= s <= 1.0 and 0.0 <= c <= 1.0):  # also rejects nan
        raise SexprError("stv values must lie in [0, 1], got %s %s"
                         % (s_text, c_text), line)
    return (s, c)


def _make_tv(kb: AtomSpace, stv: tuple[float, float]) -> TruthValue:
    return TruthValue(kb.tape.constant(stv[0]), stv[1])


def _normalize_lambda_implication(kb: AtomSpace, atom_id: int) -> int:
    """Rewrites Impl(Lambda($X, Eval(P, $X)), Lambda($Y, Eval(Q, $Y))) to the
    abbreviated Impl(P, Q) form; the two renderings are equivalent.  Each
    lambda must bind a VariableNode that is its PredicateNode's argument."""
    atoms = kb.atoms
    atom = atoms[atom_id]
    if atom.type.name != "ImplicationLink" or len(atom.outgoing) != 2:
        return atom_id
    preds = []
    for child_id in atom.outgoing:
        child = atoms[child_id]
        if child.type.name != "LambdaLink" or len(child.outgoing) != 2:
            return atom_id
        var, body = child.outgoing[0], atoms[child.outgoing[1]]
        if body.type.name != "EvaluationLink" or body.outgoing[1:] != (var,) \
                or atoms[var].type.name != "VariableNode" \
                or atoms[body.outgoing[0]].type.name != "PredicateNode":
            return atom_id
        preds.append(body.outgoing[0])
    return kb._link(TYPES["ImplicationLink"], tuple(preds))


# -- public API ------------------------------------------------------------

def parse_atom(kb: AtomSpace, text: str) -> int:
    """Parses a single s-expression into an interned atom, abbreviating a
    Lambda-wrapped implication as ``load_kb`` does.  It writes no truth
    value: an (stv ...) at any level is a SexprError."""
    return _load(kb, text, query=True)[0]


def load_kb(kb: AtomSpace, text: str) -> list[int]:
    """Loads KB text; every top-level form becomes an asserted fact.

    Facts without an explicit (stv ...) get the store default truth value.
    Lambda-wrapped implications are normalized to the abbreviated
    predicate-to-predicate form.
    """
    return _load(kb, text, query=False)


def format_atom(kb: AtomSpace, atom_id: int, with_tv: bool = False) -> str:
    """Renders an atom back into the text format."""
    atom = kb.atom(atom_id)
    parts = [atom.type.name]
    if with_tv and kb.has_asserted_tv(atom_id):
        tv = kb.get_tv(atom_id)
        parts.append("(stv %.9g %.9g)" % (tv.strength.value, tv.confidence))
    if atom.type.is_node:
        parts.append('"%s"' % atom.name)
    else:
        parts.extend(format_atom(kb, oid) for oid in atom.outgoing)
    return "(%s)" % " ".join(parts)
