"""Result types store int columns; their vectors are cached views.

One property per type, over widths 1/8/128/4096 and columns of 1 to 625
values: columns given as tuples, lists or iterators build one value with
one hash and are stored as tuples that a later write to an input list
cannot reach, each view is ``from_ints`` of its column and is built
once, fields are frozen, pickle and deepcopy round-trip to an equal
object with an equal hash, and the constructor rejects an empty column,
a negative value and a value one bit too wide.
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
    LANE_MIN,
    AsgsError,
    AuthorizedShareSet,
    MaskSet,
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


def check_any_iterable(build, columns):
    """``build(wrap)`` builds the type with each input column passed
    through ``wrap``; ``columns`` names the fields that store them."""
    made = build(tuple)
    inputs = []

    def kept_list(column):
        inputs.append(list(column))
        return inputs[-1]

    from_list, from_iter = build(kept_list), build(iter)
    for other in (from_list, from_iter):
        assert other == made
        assert hash(other) == hash(made)
        assert all(type(getattr(other, name)) is tuple for name in columns)
    stored = [getattr(from_list, name) for name in columns]
    for column in inputs:
        column.append(column[0] if column else 1)
    assert [getattr(from_list, name) for name in columns] == stored
    assert from_list == made


def check_result(made, views, rebuild, column):
    """``views`` maps each view attribute to its int column; ``rebuild``
    builds the type with ``column`` replaced (None: as it is)."""
    assert made == rebuild(None)
    assert hash(made) == hash(rebuild(None))
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
    from_shares = AuthorizedShareSet.from_shares(SetRole.MASTER, from_ints(params, ints))
    assert from_shares == made
    assert hash(from_shares) == hash(made)
    check_any_iterable(lambda wrap: AuthorizedShareSet(SetRole.MASTER, wrap(ints), params),
                       ("ints",))
    check_result(
        made, {"shares": ints},
        lambda bad: AuthorizedShareSet(SetRole.MASTER, ints if bad is None else bad, params),
        ints,
    )
    assert len(made) == count


@given(WIDTHS, LENGTHS, SEEDS)
def test_mask_set(bits, count, seed):
    params = SchemeParams.binary(bits)
    ints = zero_sum(random.Random(seed), bits, count)
    made = MaskSet(ints, params)
    check_any_iterable(lambda wrap: MaskSet(wrap(ints), params), ("ints",))
    check_result(
        made, {"vectors": ints}, lambda bad: MaskSet(ints if bad is None else bad, params), ints,
    )
    assert len(made) == count


@given(WIDTHS, LENGTHS, LENGTHS, SEEDS)
def test_bulletin_board(bits, count1, count2, seed):
    params = SchemeParams.binary(bits)
    rng = random.Random(seed)
    set1, set2 = draw_ints(rng, bits, count1), draw_ints(rng, bits, count2)
    made = BulletinBoard(set1, set2, params)
    check_any_iterable(lambda wrap: BulletinBoard(wrap(set1), wrap(set2), params),
                       ("set1_ints", "set2_ints"))
    check_result(
        made, {"set1_entries": set1, "set2_entries": set2},
        lambda bad: BulletinBoard(set1, set2 if bad is None else bad, params), set2,
    )


@given(WIDTHS, st.integers(0, 625), st.integers(0, 625), SEEDS)
def test_key_assignment(bits, count1, count2, seed):
    assume(count1 + count2)  # one set may hold no key, but not both
    params = SchemeParams.binary(bits)
    values = draw_ints(random.Random(seed), bits, count1 + count2)

    def rebuild(bad):
        column = values if bad is None else bad
        return KeyAssignment(column[:count1], column[count1:], params)

    made = rebuild(None)
    check_any_iterable(
        lambda wrap: KeyAssignment(wrap(values[:count1]), wrap(values[count1:]), params),
        ("set1_ints", "set2_ints"))
    check_result(made, {}, rebuild, values)
    assert (len(made.set1_ints), len(made.set2_ints)) == (count1, count2)
    last = ("2", count2) if count2 else ("1", count1)
    assert made.key_for(*last) == ShareVector.from_int(params, values[-1])
    for tag, count in (("1", count1), ("2", count2)):
        for index in (0, count + 1):
            with pytest.raises(MissingKey):
                made.key_for(tag, index)


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

    check_any_iterable(
        lambda wrap: SafeSharesState(params, wrap(protected), wrap(keys),
                                     MaskSet(wrap(masks.ints), params), wrap(owner),
                                     wrap(assignment)),
        ("protected_ints", "key_ints", "owner_share_ints", "assignment"))
    check_result(
        rebuild(None), {"protected": protected, "keys": keys, "owner_shares": owner},
        rebuild, protected,
    )
    assert rebuild(None).protected_set().ints == protected


def test_key_assignment_takes_a_list_and_a_tuple():
    # A list column and a tuple column once met in a list + tuple concatenation.
    made = KeyAssignment([1], (2,), SchemeParams.binary(8))
    assert (made.set1_ints, made.set2_ints) == ((1,), (2,))
    assert made == KeyAssignment((1,), [2], SchemeParams.binary(8))


@pytest.mark.parametrize("assignment", [(True, 2), (2, True), (1.0, 2), (1, 2.0)])
def test_safe_shares_assignment_entries_are_ints(assignment):
    # (True, 2) sorts like (1, 2), but its document would read [true, 2].
    params = SchemeParams.binary(8)
    masks = MaskSet((3, 3), params)
    with pytest.raises(ValueError, match="assignment entries must be ints"):
        SafeSharesState(params, (1, 2), (1, 2), masks, (1, 2), assignment)
    assert SafeSharesState(params, (1, 2), (1, 2), masks, (1, 2), [2, 1]).assignment == (2, 1)


@pytest.mark.parametrize("bits", [8, 16, 32])
@pytest.mark.parametrize("bad", [-1, 2**32, 2**64, 2**32 + 1])
@pytest.mark.parametrize("count", [2, LANE_MIN])
def test_a_key_out_of_range_is_a_range_error_before_any_fold(bits, bad, count):
    # Narrow columns of LANE_MIN keys or more are folded as packed 32-bit
    # lanes, which cannot hold these values: the range check must come
    # first. An even count of equal keys would also cancel to zero.
    params = SchemeParams.binary(bits)
    masks = MaskSet((3,) * count, params)
    ones = (1,) * (count - 1)
    fits = f"does not fit in {bits} bits"
    for keys in ((bad,) + ones, (bad,) * count, ones + (bad,)):
        with pytest.raises(ValueError, match=fits):
            SafeSharesState(params, ones + (2,), keys, masks, ones + (2,), range(1, count + 1))
        with pytest.raises(ValueError, match=fits):
            KeyAssignment(keys[:1], keys[1:], params)
        with pytest.raises(ValueError, match=fits):
            MaskSet(keys, params)


def test_an_int_column_refuses_a_float_where_it_is_built():
    # The range check ORs the column, and a float takes no ``|``: it fails
    # at construction, not later when a document would encode it. A bool
    # is an int. 200 values at 16 bits take the packed-lane check.
    p8, p16 = SchemeParams.binary(8), SchemeParams.binary(16)
    with pytest.raises(TypeError):
        AuthorizedShareSet(SetRole.MASTER, (1.0, 2), p8)
    with pytest.raises(TypeError):
        KeyAssignment((0.5,), (3,), p8)
    assert AuthorizedShareSet(SetRole.MASTER, (True, 2), p8).ints == (True, 2)
    for bad in (-1, 1 << 8):
        with pytest.raises(ValueError) as refused:
            AuthorizedShareSet(SetRole.MASTER, (bad, 2), p8)
        assert str(refused.value) == "an authorized set holds a value that does not fit in 8 bits"
    assert 200 >= LANE_MIN
    for at in (0, 100, 199):
        for bad, error in ((7.0, TypeError), (-1, ValueError), (1 << 16, ValueError)):
            column = [7] * 200
            column[at] = bad
            with pytest.raises(error) as refused:
                MaskSet(column, p16)
            if error is ValueError:
                assert str(refused.value) == "a mask set holds a value that does not fit in 16 bits"
