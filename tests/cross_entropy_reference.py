"""``dpln.training.cross_entropy`` as it was before it merged examples by
prediction record alone: one term per (record, label) pair, a label of 0 or
1 contributing its single log term, a repeated pair scaled by its count,
and the negated sum scaled by 1/n.  Kept in the tests only, as the oracle
that ``test_training.py`` checks the one-term-per-record loss against.
"""

from __future__ import annotations

from dpln.autodiff import VarRef


def cross_entropy(preds: list[VarRef], labels: list[float]) -> VarRef:
    merged: dict = {}
    for p, y in zip(preds, labels):
        merged.setdefault((p.tape, p.index, y), [p, 0])[1] += 1
    tape, terms = preds[0].tape, []
    for (_, _, y), (p, count) in merged.items():
        if 0.0 < y < 1.0:
            term = tape.add(tape.mul(tape.constant(y), tape.log(p)),
                            tape.mul(tape.constant(1.0 - y),
                                     tape.log(tape.one_minus(p))))
        elif y:  # 1
            term = tape.log(p)
        else:  # 0
            term = tape.log(tape.one_minus(p))
        terms.append(term if count == 1 else
                     tape.mul(tape.constant(float(count)), term))
    return tape.mul(tape.constant(1.0 / len(preds)), tape.neg(tape.sum(terms)))
