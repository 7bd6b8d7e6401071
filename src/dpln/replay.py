"""The compiled replay that ``autodiff.trace_loss`` returns.

The replayed records of one opcode, input kinds and depth between the same
two guards form a lane: one list comprehension recomputes it, and one per
input its adjoint terms; the grads that one adjoint feeds add in one loop.
One rule fuses loops: a list, a lane's values or a column of adjoint
terms, that exactly one loop reads, whole and in member order, and nothing
reads member by member (a guard, the loss, a sum, a lone record, a slice,
a parameter's leftover grad loop) is computed inside that loop; a lane's
values only if its op neither raises nor binds a name.
Adjoint terms that no parameter changes are computed at compile time.
Sums keep the eager order, so the loss and the grads are bit-identical to
a re-trace.  Lists live in a scratch list ``w``, a lone value or term in
a local.  A short loss is one function, the step loop, which runs a fit's
steps: each replays, calls the step function and zeroes the grads.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from functools import reduce
from itertools import count, zip_longest

from .autodiff import _CHUNK, _UNIT_GUARD, OPS, AutodiffError, Tape, VarRef, _functions

# inputs per statement of a sum: a long expression costs compile memory
_ADDS = 16


def _code(elements: list, w: list) -> str:
    """Replay code for one element or a list of them: ``(s, p)`` is item p of
    the list at s of the scratch list ``w``, the float at s if p is None, or
    the code s, a local or a literal.  A run of one list's items is a slice
    of it."""
    runs = []  # [s, first, end] for the slice w[s][first:end], or [None, codes]
    for s, p in elements:
        if p is None:
            code = s if isinstance(s, str) else "w[%d]" % s
            if runs and runs[-1][0] is None:
                runs[-1][1].append(code)
            else:
                runs.append([None, [code]])
        elif runs and runs[-1][0] == s and runs[-1][2] == p:
            runs[-1][2] += 1
        else:
            runs.append([s, p, p + 1])
    if len(elements) == 1:
        return runs[0][1][0] if runs[0][0] is None else "w[%d][%d]" % elements[0]
    return " + ".join("[%s]" % ", ".join(r[1]) if r[0] is None else "w[%d]" % r[0]
                      if r[2] - r[1] == len(w[r[0]]) else "w[%d][%d:%d]" % tuple(r)
                      for r in runs)


def _each(size: int, *parts: tuple) -> str:
    """Code that sets each (target, template, sources) part's target to its
    template over its sources (placeholder -> code, or the template and
    sources of an inlined lane or term column, nested to any depth): a
    statement for a lone record, else a list comprehension over a lane's
    ``size`` members.  It binds a parameter's scalar, ``v[i]``, once, and
    per member an inlined value read more than once or by several parts.
    Grads ``g[p]`` add their values in reverse, in one loop, a sum each."""
    target, template, sources = parts[0]
    if size == 1:
        return "%s = %s" % (target, template.format(**sources))
    names, binds, bound, tags, grad = {}, [], {}, count(1), target[0] == "g"
    shared = {id(s) for *_, src in parts[1:] for s in src.values()}  # read by two parts

    def inline(template, sources, tag):  # an inlined lane's names are fresh
        subs = {}
        for k, s in sources.items():
            uses = template.count("{%s}" % k)
            if uses and isinstance(s, tuple):
                if id(s) not in bound:  # computed once per member
                    e = inline(*s, "_%d" % next(tags))
                    if uses > 1 or id(s) in shared:
                        binds.append((bound.setdefault(id(s), k + tag), e))
                subs[k] = bound.get(id(s)) or "(%s)" % e
            elif uses:
                subs[k] = names.setdefault(s, k + tag)
        return template.format(**subs)
    values = [inline(t, s, "_%d" % next(tags) if k else "")
              for k, (_, t, s) in enumerate(parts)]
    lists = [(n, "reversed(%s)" % s if grad else s) for s, n in names.items()
             if s[0] != "v"] or [("_", "range(%d)" % size)]
    clauses = ["for %s in (%s,)" % (n, s) for s, n in names.items() if s[0] == "v"]
    clauses += ["for %s in %s" % (", ".join(n for n, _ in lists), lists[0][1] if len(
        lists) == 1 else "zip(%s)" % ", ".join(s for _, s in lists))]
    if grad:  # in reverse order, as nested loops, the sum of part k in a<k>
        return "".join("a%d = " % k for k in range(len(parts))) + "0.0%s %s%s" % ("".join(
            "\n%s%s:" % (" " * k, c) for k, c in enumerate(clauses)), "; ".join(
            ["%s = %s" % b for b in binds] + ["a%d += %s" % a for a in enumerate(values)]),
            "".join("\nif a%d: %s += a%d" % (k, p[0], k) for k, p in enumerate(parts)))
    return "%s = [%s %s]" % (target, values[0], " ".join(
        clauses + ["for %s in (%s,)" % b for b in binds]))


def compile_replay(tape: Tape, params: list[VarRef], mark: int, loss: int,
                   reads: set[int], guards: list[tuple]) -> Callable[..., bool | int]:
    """``trace_loss``'s replay of the loss record ``loss``, traced from
    ``mark`` on, given the records it read and its guards."""
    deps, values = tape._deps, tape._values
    indices = sorted({p.index for p in params})
    # every parameter and every record that depends on one; the walk starts
    # at the first parameter to find such records from before the call too
    reached = set(indices)
    for i in range(indices[0], len(deps)):
        if not reached.isdisjoint(deps[i][1::2]):
            reached.add(i)
    if reads & reached:
        raise AutodiffError("the loss read or set the value of record %d, "
                            "which a parameter reaches: branch with "
                            "Tape.at_least" % min(reads & reached))
    before = {i for i in reached if i < mark and deps[i]}
    stale = before and before & {loss, *(g[1] for g in guards),
                                 *(j for rec in deps[mark:] for j in rec[1::2])}
    if stale:
        raise AutodiffError("the loss uses record %d, computed from a "
                            "parameter before the loss was traced; compute "
                            "it inside the loss" % min(stale))

    # a guard on a value that no parameter reaches cannot fail later, nor one
    # that repeats a test (a range check's ignores its payload).  A lane's key:
    # the guards before it, its depth, opcode and per input "r" for a replayed
    # record, "c" for a constant, captured now, or a parameter's index, read once
    tests = {}
    for g in guards:
        tests.setdefault((g[1], g[2], None if g[2] == _UNIT_GUARD else g[3]), g)
    guards = [g for g in tests.values() if g[1] in reached]
    lanes, n, depth, kind = {}, 0, {}, {p: p for p in tape._param_indices}
    for i in (i for i in range(mark, len(deps)) if i in reached):
        while n < len(guards) and guards[n][0] <= i:
            n += 1
        ins = deps[i][1::2]
        depth[i] = 1 + max(depth.get(j, 0) for j in ins)
        key = (n, depth[i], deps[i][0], *(kind.get(j, "c") for j in ins))
        lanes.setdefault(key, []).append(i)
        kind[i] = "r"
    # a record's adjoint adds its consumers' terms in reverse record order,
    # the loss's a seed of 1; a term's key is (consumer, input)
    terms, term = ({loss: [-1]} if loss in reached else {}), {-1: 1.0}
    for i in range(loss, mark - 1, -1):
        for q, j in enumerate(deps[i][1::2] if i in terms else ()):
            if j in reached:
                terms.setdefault(j, []).append(c := (i, q))
                term[c] = len(terms[j])  # its place in j's terms, till swept

    # the scratch list w holds the lists: lane values, captured constants
    # and adjoint terms.  A lone value or term is the local s<k>, k its
    # slot, and a lone finite constant a literal.  A block is a list of
    # lines, each code or, till the read counts are known, (size, parts, k)
    # for _each, k the list it makes; a source is code, a whole list's slot
    # or a (template, sources) sum of columns
    w, at, sources, blocks, n = [], {}, {}, [], 0  # at: record -> element
    lines, count = {}, {}  # fusible list -> its (template, sources); reads
    order = sorted(lanes, key=lambda key: key[:2])

    def place(items):  # the items as elements
        k, x = len(w), items[0]
        w.append(items if len(items) > 1 else x)
        return [(k, p) for p in range(len(items))] if len(items) > 1 else [(
            "s%d" % k if x is None else repr(x) if math.isfinite(x) else k, None)]

    def read(elements, whole=True):  # one whole list as its slot, else code
        k = elements[0][0]
        if whole and elements[0][1] == 0 and elements == [(k, p) for p in range(len(w[k]))]:
            return k  # its loops count their reads
        count.update((s, 2) for s, p in elements if p is not None)  # read by element
        return _code(elements, w)

    def value(i):
        return read([at[i]]) if i in at else "v[%d]" % i

    def line(size, parts, k=None):
        """A line of parts that makes list k if k is fusible.  A placeholder
        that names a list is one read of it, however many parts use it."""
        def named(template, src):
            for name, s in src.items():
                if "{%s}" % name in template:
                    yield from named(*s) if type(s) is tuple else [(name, s)] * (type(s) is int)
        for _, s in {r for _, t, src in parts for r in named(t, src)}:
            count[s] = count.get(s, 0) + 1
        if k is not None and size > 1:
            lines[k] = parts[0][1:]
        return size, parts, k
    for key in order + [(len(guards),)]:
        blocks += [[guards[k][2].format(value(guards[k][1]), k)] for k in range(n, key[0])]
        if key not in lanes:
            break
        n, members = key[0], lanes[key]
        if key[2] == "sum" and len(key) == 4:  # a one-input sum is its input: no copy
            at.update((i, at.get(j) or (value(j), None)) for i in members for j in deps[i][1::2])
            sources[key] = {}
            continue
        at.update(zip(members, z := place([None] * len(members))))
        src = sources[key] = {"z": read(z)}
        if key[2] == "sum":  # added left to right, _ADDS inputs a statement
            for i in members:
                z, ins = value(i), [value(j) for j in deps[i][1::2]]
                blocks += [["%s = %s" % (z, " + ".join(([z] if s else []) + ins[s:s + _ADDS]))]
                           for s in range(0, len(ins), _ADDS)]
            continue
        for q, k in enumerate(key[3:]):
            ins = [deps[i][1 + 2 * q] for i in members]
            src["xy"[q]] = "v[%d]" % k if k not in ("r", "c") else read(
                place([values[j] for j in ins]) if k == "c" else [at[j] for j in ins])
        if "1.0" in (src.get("x"), src.get("y")) and key[2] == "mul":  # x * 1.0 is x
            at[members[0]] = (src["x" if src["y"] == "1.0" else "y"], None)
        else:  # the values of an op that raises or binds a name stay a list
            op = OPS[key[2]].value
            blocks.append([line(len(members), [(_code(z, w), op, src)],
                                None if "fail(" in op or ":=" in op else z[0][0])])
    if loss in at:
        blocks.append(["v[%d] = %s" % (loss, value(loss))])

    def elements(ts):  # terms as elements, a column of constants one list
        return place(ts) if all(type(t) is float for t in ts) else [
            t if type(t) is tuple else place([t])[0] for t in ts]
    grads = {}  # an adjoint's code -> the size and the (grad, template, sources) it feeds
    for key in reversed(order):
        members, size = lanes[key], len(lanes[key])
        if terms.keys().isdisjoint(members):
            continue
        # a member with fewer terms adds 0.0; a lane adds its columns per
        # member, in the loops of its partials, and constants are added here
        columns = list(zip_longest(*[[term[c] for c in terms.get(i, ())]
                                     for i in members], fillvalue=0.0))
        if known := all(type(t) is float for col in columns for t in col):
            columns = [[reduce(float.__add__, ts) for ts in zip(*columns)]]
        cols = {"d%d" % c: read(elements(col)) for c, col in enumerate(columns)}
        block = []
        if size == 1 < len(cols):  # a lone adjoint: the sum, in its own slot
            columns = [place([None])]
            block.append("%s = %s" % (columns[0][0][0], " + ".join(cols.values())))
            cols = {"d0": columns[0][0][0]}
        d = cols["d0"] if len(cols) == 1 else (" + ".join("{%s}" % c for c in cols), cols)
        src = dict(sources[key], d=d)
        # inputs with the same partial share their terms, a sum's all; a term
        # is a constant where the adjoint is, if it is 0 or the partial reads constants
        slots, ins, adjoint = {}, deps[members[0]][1::2], columns[0]
        partials = ("1.0",) * len(ins) if key[2] == "sum" else OPS[key[2]].partials
        fixed = {"{%s}" % n for n, k in zip("xy", key[3:]) if k == "c"}
        for q, partial in enumerate(partials):
            p, cs = key[3 + q], [(i, q) for i in members]  # p: a parameter, "r" or "c"
            # a product by the literal 1.0 passes d on: "d * 1.0 if d else 0.0" is d
            # but for a zero's sign, and consumers test "if d", or "if a:" for a grad
            if partial in ("{x}", "{y}") and src.get(partial[1]) == "1.0":
                partial = "1.0"
            template = {"1.0": "{d}", "-1.0": "-{d}"}.get(partial, "{d} * (%s)%s" % (
                partial, "" if known and all(adjoint) else " if {d} else 0.0"))
            if known and (not any(adjoint) or set(re.findall(r"{\w}", partial)) <= fixed):
                term.update((c, a if partial == "1.0" else -a if partial == "-1.0"
                             else a * deps[i][2 + 2 * q] if a else 0.0)
                            for c, i, a in zip(cs, members, adjoint))
            elif size > 1 and terms.get(p) == cs[::-1]:
                grads.setdefault(str(d), (size, []))[1].append(("g[%d]" % p, template, src))
                del terms[p]  # this lane made all of p's terms
            elif partial == "1.0" and len(columns) == 1:
                term.update(zip(cs, adjoint))  # the adjoint itself
            elif ins[q] in reached:
                if partial not in slots:
                    slots[partial] = t = place([None] * size)
                    block.append(line(size, [(_code(t, w), template, src)], t[0][0]))
                term.update(zip(cs, slots[partial]))
        blocks.append(block)
    blocks += [[line(size, parts)] for size, parts in grads.values()]
    for p in indices:  # a parameter's grad adds its terms in reverse record order
        ts = [term[c] for c in terms.get(p, ())]
        if any(type(t) is tuple for t in ts):  # a lone term is added as it is
            blocks.append(["if {0}: g[{1}] += {0}".format(read(ts, False), p) if len(ts) == 1
                           else "a = 0.0\nfor t in reversed(%s): a += t\nif a: g[%d] += a"
                           % (read(elements(ts[::-1]), False), p)])
        elif a := reduce(float.__add__, ts, 0.0):
            blocks.append(["g[%d] += %s" % (p, _code(place([a]), w))])

    # a list that one loop alone reads is computed in that loop
    fused, inlined = {k for k in lines if count.get(k) == 1}, {}
    w[:] = [None if k in fused else x for k, x in enumerate(w)]  # never written

    def resolve(template, src):  # the sources template reads, a fused list inlined
        subs = {name: s for name, s in src.items() if "{%s}" % name in template}
        for name, s in subs.items():
            if type(s) is int:
                s = subs[name] = lines[s] if s in fused else "w[%d]" % s
            if type(s) is tuple:
                subs[name] = inlined.get(id(s)) or inlined.setdefault(id(s), (s[0], resolve(*s)))
        return subs
    blocks = [b for b in ("\n".join(x if type(x) is str else _each(x[0], *[
        (t, tp, resolve(tp, src)) for t, tp, src in x[1]]) for x in block
        if type(x) is str or x[2] not in fused) for block in blocks) if b]
    # a local that two functions of _CHUNK blocks use is read from its slot
    chunks = {}
    for b, block in enumerate(blocks):
        for name in re.findall(r"\bs\d+\b", block):
            chunks.setdefault(name, set()).add(b // _CHUNK)
    # the step loop: steps k ... n - 1, each the blocks, its loss, a call of
    # step and the grads zeroed; a flipped branch returns its step
    f, *_ = _functions([re.sub(r"\bs(\d+)\b", lambda m: "w[%s]" % m[1] if len(
        chunks[m[0]]) > 1 else m[0], block) for block in blocks],
        "def f(v, g, w, k, n, step, params, rate, losses):\n    for k in range(k, n):"
        "\n        {}\n        if step is None: return n\n        losses.append(v[%d])"
        "\n        step(params, rate)\n        %s = 0.0\n    return n" % (
            loss, " = ".join("g[%d]" % p for p in indices)), [g[3] for g in guards])

    def replay(k=0, n=1, step=None, rate=None, losses=None) -> bool | int:
        stop = f(tape._values, tape._grads, w, k, n, step, params, rate, losses)
        return stop if step else stop == n
    return replay
