"""The package's value classes: each compares and hashes by its fields,
shows them in its repr, and refuses assignment and deletion."""

import pytest

from legmon.braids import BraidWord, Move
from legmon.explorer import Report, SeparationWitness
from legmon.fields import ModP, PrimeField, RationalField
from legmon.moduli import Family, FlagTuple, ModuliPoint

F7 = PrimeField(7)
FORM = (((1, 0), 1), ((0, 1), 1), ((1, 1), 1), ((1, 2), 1))


def point(form=FORM):
    return ModuliPoint(Family(2, 1), F7, form)


# (make, a field or None, the repr, a value that differs): each `make()`
# is a new object equal to the last.
VALUES = [
    (lambda: Family(3, 2), "k", "Family(k=3, s=2)", Family(3, 1)),
    (lambda: PrimeField(7), "p", "PrimeField(p=7)", PrimeField(11)),
    (lambda: RationalField(), None, "RationalField()", PrimeField(7)),
    (point, "form",
     "ModuliPoint(family=Family(k=2, s=1), field=PrimeField(p=7), "
     "form=(((1, 0), 1), ((0, 1), 1), ((1, 1), 1), ((1, 2), 1)))",
     point(FORM[::-1])),
    (lambda: FlagTuple(2, 5, ((0,), (1,))), "flags",
     "FlagTuple(ambient=2, n_columns=5, flags=((0,), (1,)))", FlagTuple(2, 5, ((0,), (2,)))),
    (lambda: BraidWord(3, (1, 2, 1)), "letters", "BraidWord(strands=3, letters=(1, 2, 1))",
     BraidWord(3, (2, 1, 2))),
    (lambda: Move("comm", 2), "pos", "Move(kind='comm', pos=2)", Move("comm", 3)),
    (lambda: Move("shift"), "kind", "Move(kind='shift', pos=None)", Move("comm", 1)),
    (lambda: SeparationWitness(("A",), (), point(), ModP(1, 7), ModP(2, 7)), "lhs",
     "SeparationWitness(word=('A',), probe=(), point=" + repr(point()) +
     ", lhs=ModP(1, 7), rhs=ModP(2, 7))",
     SeparationWitness(("A",), ("B",), point(), ModP(1, 7), ModP(2, 7))),
    (lambda: Report({"all_pass": True}, True), "ok", "Report(json={'all_pass': True}, ok=True)",
     Report({"all_pass": True}, False)),
]


@pytest.mark.parametrize("make, field, text, other", VALUES,
                         ids=[text.split("(")[0] for _, _, text, _ in VALUES])
def test_value_class_contract(make, field, text, other):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != other and repr(a) == text
    if type(a) is Report:  # its JSON is a dict, so it has no hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    for name in filter(None, (field, "extra")):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == make() and repr(a) == text

