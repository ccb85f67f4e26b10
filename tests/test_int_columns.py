"""Result types store int columns; their vectors are cached views.

One property per type, over widths 1/8/128/4096 and columns of 1 to 625
values: the vector classmethod and the int constructor agree, each view
is ``from_ints`` of its column and is built once, fields are frozen,
pickle and deepcopy round-trip to an equal object with an equal hash,
and the int constructor rejects an empty column, a negative value and a
value one bit too wide.
"""

import copy
import pickle
import random
from dataclasses import FrozenInstanceError
from functools import reduce
from operator import xor

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from asgs.kgh import (
    AsgsError,
    AuthorizedShareSet,
    MaskSet,
    MixedParams,
    SchemeParams,
    SetRole,
    ShareVector,
    from_ints,
)
from asgs.protocol import SafeSharesState
from asgs.pvss import BulletinBoard, KeyAssignment, MissingKey

WIDTHS = st.sampled_from([1, 8, 128, 4096])
LENGTHS = st.integers(1, 625)
SEEDS = st.integers(0, 2**32)


def draw_ints(rng, bits, count):
    return tuple(rng.getrandbits(bits) for _ in range(count))


def zero_sum(rng, bits, count):
    head = draw_ints(rng, bits, count - 1)
    return head + (reduce(xor, head, 0),)


def check_result(made, from_vectors, views, rebuild, column):
    """``views`` maps each view attribute to its int column; ``rebuild``
    builds the type with ``column`` replaced (None: as it is)."""
    assert made == rebuild(None)
    assert hash(made) == hash(rebuild(None))
    if from_vectors is not None:
        assert from_vectors == made
        assert hash(from_vectors) == hash(made)
    for name, ints in views.items():
        view = getattr(made, name)
        assert view is getattr(made, name)
        assert view == from_ints(made.params, ints)
    for name in (*views, *made._fields):
        with pytest.raises(FrozenInstanceError):
            setattr(made, name, None)
    for restored in (pickle.loads(pickle.dumps(made)), copy.deepcopy(made)):
        assert restored == made
        assert hash(restored) == hash(made)
    empty = "must not be empty|no entries|equal length"
    with pytest.raises((ValueError, AsgsError), match=empty):
        rebuild(())
    for bad in (-1, 1 << made.params.dimension):
        with pytest.raises(ValueError, match="does not fit"):
            rebuild((bad, *column[1:]))


@given(WIDTHS, LENGTHS, SEEDS)
def test_authorized_share_set(bits, count, seed):
    params = SchemeParams.binary(bits)
    ints = draw_ints(random.Random(seed), bits, count)
    made = AuthorizedShareSet(SetRole.MASTER, ints, params)
    check_result(
        made, AuthorizedShareSet.from_shares(SetRole.MASTER, from_ints(params, ints)),
        {"shares": ints},
        lambda bad: AuthorizedShareSet(SetRole.MASTER, ints if bad is None else bad, params),
        ints,
    )
    assert len(made) == count


@given(WIDTHS, LENGTHS, SEEDS)
def test_mask_set(bits, count, seed):
    params = SchemeParams.binary(bits)
    ints = zero_sum(random.Random(seed), bits, count)
    made = MaskSet(ints, params)
    check_result(
        made, MaskSet.from_vectors(from_ints(params, ints)), {"vectors": ints},
        lambda bad: MaskSet(ints if bad is None else bad, params), ints,
    )
    assert len(made) == count


@given(WIDTHS, LENGTHS, LENGTHS, SEEDS)
def test_bulletin_board(bits, count1, count2, seed):
    params = SchemeParams.binary(bits)
    rng = random.Random(seed)
    set1, set2 = draw_ints(rng, bits, count1), draw_ints(rng, bits, count2)
    made = BulletinBoard(set1, set2, params)
    check_result(
        made, BulletinBoard.from_entries(from_ints(params, set1), from_ints(params, set2)),
        {"set1_entries": set1, "set2_entries": set2},
        lambda bad: BulletinBoard(set1, set2 if bad is None else bad, params), set2,
    )


@given(WIDTHS, st.integers(0, 625), st.integers(0, 625), SEEDS)
def test_key_assignment(bits, count1, count2, seed):
    assume(count1 + count2)  # one set may hold no key, but not both
    params = SchemeParams.binary(bits)
    values = draw_ints(random.Random(seed), bits, count1 + count2)
    slots = [("1", i) for i in range(1, count1 + 1)] + [("2", i) for i in range(1, count2 + 1)]
    entries = dict(zip(slots, from_ints(params, values)))

    def rebuild(bad):
        column = values if bad is None else bad
        return KeyAssignment(column[:count1], column[count1:], params)

    made = rebuild(None)
    check_result(made, KeyAssignment.from_entries(entries), {}, rebuild, values)
    assert (len(made.set1_ints), len(made.set2_ints)) == (count1, count2)
    # entries is built afresh on each read, so a write to one reaches nothing.
    made.entries.clear()
    assert made.entries == entries
    assert made.key_for(*slots[-1]) == made.entries[slots[-1]]
    for tag, count in (("1", count1), ("2", count2)):
        for index in (0, count + 1):
            with pytest.raises(MissingKey):
                made.key_for(tag, index)
    key, wide = entries[slots[0]], ShareVector.from_int(SchemeParams.binary(bits + 1), 0)
    for bad in ({**entries, ("3", 1): key}, {**entries, ("2", count2 + 2): key}):
        with pytest.raises(ValueError, match="unknown set tag|gap"):
            KeyAssignment.from_entries(bad)
    with pytest.raises(MixedParams):
        KeyAssignment.from_entries({**entries, ("2", count2 + 1): wide})


@given(WIDTHS, LENGTHS, SEEDS)
def test_safe_shares_state(bits, count, seed):
    params = SchemeParams.binary(bits)
    rng = random.Random(seed)
    protected, owner = draw_ints(rng, bits, count), draw_ints(rng, bits, count)
    keys = draw_ints(rng, bits, count)
    if not reduce(xor, keys, 0):
        keys = keys[:-1] + (keys[-1] ^ 1,)
    masks = MaskSet(zero_sum(rng, bits, count), params)
    assignment = tuple(rng.sample(range(1, count + 1), count))

    def rebuild(bad):
        column = protected if bad is None else bad
        return SafeSharesState(params, column, keys, masks, owner, assignment)

    check_result(
        rebuild(None), None,
        {"protected": protected, "keys": keys, "owner_shares": owner},
        rebuild, protected,
    )
    assert rebuild(None).protected_set().ints == protected
