"""The contract of the frozen value types (every ``kgh.Frozen`` subclass
with fields): equal fields give equal objects with equal hashes, an
object equals nothing of another class, its ``repr`` reads as the
dataclass text it replaced, its fields cannot be assigned or deleted,
pickle and deepcopy round-trip to an equal object, and the unchecked
``_of`` stores what the constructor stores.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from asgs.kgh import AuthorizedShareSet, Frozen, MaskSet, SchemeParams, SetRole, ShareVector
from asgs.protocol import Message, Party, SafeSharesState, TamperRule, Violation
from asgs.pvss import BulletinBoard, KeyAssignment, Verdict, VerificationResult


def p8():
    return SchemeParams(8)


# (build a fresh object, its repr text). Each call builds every part anew,
# so two calls give equal objects that share nothing but interned values.
SAMPLES = [
    (p8, "SchemeParams(dimension=8)"),
    (lambda: AuthorizedShareSet(SetRole.MASTER, (1, 2), p8()),
     "AuthorizedShareSet(role=<SetRole.MASTER: '2'>, ints=(1, 2), "
     "params=SchemeParams(dimension=8))"),
    (lambda: MaskSet((3, 3), p8()), "MaskSet(ints=(3, 3), params=SchemeParams(dimension=8))"),
    (lambda: Party("participant", "1", 2), "Party(role='participant', set_tag='1', index=2)"),
    (lambda: Party("dealer"), "Party(role='dealer', set_tag=None, index=None)"),
    (lambda: TamperRule("dealer", "key", 1, 0),
     "TamperRule(party='dealer', kind='key', occurrence=1, bit=0)"),
    (lambda: Violation(4, "dealer", "secret", "secret"),
     "Violation(seq=4, recipient='dealer', value_class='secret', kind='secret')"),
    (lambda: SafeSharesState(p8(), (1, 2), (1, 2), MaskSet((3, 3), p8()), (5, 6), (2, 1)),
     "SafeSharesState(params=SchemeParams(dimension=8), protected_ints=(1, 2), "
     "key_ints=(1, 2), masks=MaskSet(ints=(3, 3), params=SchemeParams(dimension=8)), "
     "owner_share_ints=(5, 6), assignment=(2, 1))"),
    (lambda: BulletinBoard((1,), (2,), p8()),
     "BulletinBoard(set1_ints=(1,), set2_ints=(2,), params=SchemeParams(dimension=8))"),
    (lambda: KeyAssignment((1,), (2, 3), p8()),
     "KeyAssignment(set1_ints=(1,), set2_ints=(2, 3), params=SchemeParams(dimension=8))"),
    (lambda: Message(3, Party("accumulator"), Party("participant", "2", 1), "mask_element",
                     ShareVector.from_int(p8(), 0x42), 1),
     "Message(seq=3, sender=Party(role='accumulator', set_tag=None, index=None), "
     "recipient=Party(role='participant', set_tag='2', index=1), kind='mask_element', "
     "payload=ShareVector(params=SchemeParams(dimension=8), value=0x42), element_index=1)"),
    (lambda: VerificationResult(Verdict.POSITIVE, ShareVector.from_int(p8(), 1),
                                ShareVector.from_int(p8(), 1)),
     "VerificationResult(verdict=<Verdict.POSITIVE: 'POSITIVE'>, "
     "xored_keys=ShareVector(params=SchemeParams(dimension=8), value=0x1), "
     "xored_encrypted_shares=ShareVector(params=SchemeParams(dimension=8), value=0x1))"),
]


# The attributes a constructor derives from the fields, beside them.
DERIVED = {SchemeParams: {"xor_ints"}, Party: {"key", "_label"}}


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def test_every_value_type_has_a_sample():
    sampled = {type(build()) for build, _ in SAMPLES}
    assert sampled == {cls for cls in subclasses(Frozen) if "_fields" in vars(cls)}


@pytest.mark.parametrize("build, text", SAMPLES,
                         ids=[type(build()).__name__ for build, _ in SAMPLES])
def test_value_contract(build, text):
    made, again = build(), build()
    assert made is not again
    assert made == again and not made != again
    assert hash(made) == hash(again)

    values = tuple(getattr(made, name) for name in made._fields)
    twin = object.__new__(type(type(made).__name__, (type(made),), {}))
    twin.__dict__.update(vars(made))
    for other in (values, twin, object()):
        assert made != other and other != made

    assert repr(made) == text

    for name in (*made._fields, "unknown"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(made, name, None)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(made, name)
    assert made == again

    for restored in (pickle.loads(pickle.dumps(made)), copy.deepcopy(made)):
        assert restored == made
        assert hash(restored) == hash(made)
        assert repr(restored) == text

    unchecked = type(made)._of(*values)
    assert unchecked == made and hash(unchecked) == hash(made)
    derived = DERIVED.get(type(made), set())
    assert vars(unchecked) == {name: value for name, value in vars(made).items()
                               if name not in derived}
    assert set(vars(made)) - set(vars(unchecked)) == derived


@pytest.mark.parametrize("cls, values", [
    (Violation, (4, "dealer", "secret", "secret")),
    (VerificationResult, (Verdict.POSITIVE, 1, 1)),
], ids=["Violation", "VerificationResult"])
def test_the_store_takes_one_value_per_field(cls, values):
    assert cls(*values)._values == values
    for wrong in (values[:-1], values + (None,)):
        with pytest.raises(TypeError):
            cls(*wrong)
