"""Publicly verifiable consistency checking for two authorized sets.

Every share is published on a bulletin board encrypted with a fresh
one-time key that only its participant receives. Anyone can XOR the
whole bulletin together; the participants jointly recover the XOR of
all keys through the accumulator without exposing any single key. The
two aggregates coincide exactly when both sets encode the same secret,
so consistency can be checked without reconstructing anything.

The bulletin and the key assignment have the same shape: one column of
packed ints per set, position i holding participant i's entry or key.
Key recovery takes the whole assignment, the shorter column padded with
zero contributions.
"""

from __future__ import annotations

import enum
import warnings
from operator import xor
from typing import Iterable

from asgs.kgh import (
    AsgsError,
    AuthorizedShareSet,
    Frozen,
    SchemeParams,
    ShareVector,
    check_ints,
    vector_view,
)
from asgs.protocol import (
    ACCUMULATOR,
    DEALER,
    KIND_KEY,
    CardinalityMismatch,
    ProtocolEnv,
    ROLE_DEALER,
    _check_params,
    _participants,
)


class MissingKey(AsgsError):
    """The key assignment lacks an entry required for recovery."""

    def __init__(self, set_tag: str, index: int):
        self.set_tag = set_tag
        self.index = index
        super().__init__(f"no key assigned to participant {index} of set {set_tag}")


class Verdict(enum.Enum):
    POSITIVE = "POSITIVE"
    NEGATIVE = "NEGATIVE"


class BulletinBoard(Frozen, fields=("set1_ints", "set2_ints", "params")):
    """Published encrypted shares of the two sets under comparison, as
    tuples of packed ints; ``set1_entries`` and ``set2_entries`` are their
    vector views. An authorized set holds at least one share, so neither
    is empty.
    """

    def __init__(self, set1_ints: Iterable[int], set2_ints: Iterable[int],
                 params: SchemeParams) -> None:
        set1_ints, set2_ints = tuple(set1_ints), tuple(set2_ints)
        for tag, column in (("1", set1_ints), ("2", set2_ints)):
            if not column:
                raise CardinalityMismatch(f"set {tag}: the bulletin has no entries, "
                                          "but an authorized set holds at least one share")
            check_ints(column, params, f"bulletin set {tag}")
        super().__init__(set1_ints, set2_ints, params)

    set1_entries = vector_view("set1_ints")
    set2_entries = vector_view("set2_ints")


class KeyAssignment(Frozen, fields=("set1_ints", "set2_ints", "params")):
    """Per-participant one-time keys of the two sets, as tuples of packed
    ints: ``set1_ints[i - 1]`` is the key of participant i of set 1, and
    ``set2_ints`` likewise for set 2. One set may hold no key, but not
    both.
    """

    def __init__(self, set1_ints: Iterable[int], set2_ints: Iterable[int],
                 params: SchemeParams) -> None:
        set1_ints, set2_ints = tuple(set1_ints), tuple(set2_ints)
        check_ints(set1_ints + set2_ints, params, "a key assignment")
        super().__init__(set1_ints, set2_ints, params)

    def key_for(self, set_tag: str, index: int) -> ShareVector:
        if type(set_tag) is not str:
            raise ValueError(f"keys need a str set tag, got {set_tag!r}")
        if type(index) is not int:
            raise ValueError(f"keys need a 1-based int index, got {index!r}")
        column = {"1": self.set1_ints, "2": self.set2_ints}.get(set_tag, ())
        if not 1 <= index <= len(column):
            raise MissingKey(set_tag, index)
        return ShareVector.from_int(self.params, column[index - 1])


class VerificationResult(Frozen, fields=("verdict", "xored_keys", "xored_encrypted_shares")):
    """The outcome of :func:`verify` and the two aggregates it compared."""


def distribute_shares_and_keys(
    set1: AuthorizedShareSet, set2: AuthorizedShareSet, env: ProtocolEnv
) -> tuple[BulletinBoard, KeyAssignment]:
    """Encrypt every share with a fresh key and publish the results.

    Keys are drawn from the dealer's stream, sent privately to their
    participants, and never published; the bulletin carries share XOR
    key for each position of both sets. A zero key would publish its
    share in clear, which is legal but worth flagging.
    """
    _check_params(env, set1, set2)
    env.note_operation("distribute_shares_and_keys", h=len(set1), g=len(set2))
    params = env.params
    split = len(set1)
    first, second = range(1, split + 1), range(1, len(set2) + 1)
    holders = _participants("1", first) + _participants("2", second)
    keys = env.source(ROLE_DEALER).next_ints(params, len(holders))
    if not all(keys):
        for holder, key in zip(holders, keys):
            if not key:
                warnings.warn(
                    f"zero one-time key for participant {holder.index} of set "
                    f"{holder.set_tag}; the matching bulletin entry exposes the share in clear",
                    stacklevel=2,
                )
    delivered = env.deliver_round(DEALER, holders, KIND_KEY, keys, [*first, *second])
    published = tuple(map(xor, set1.ints + set2.ints, keys))
    return (
        BulletinBoard._of(published[:split], published[split:], params),
        KeyAssignment._of(tuple(delivered[:split]), tuple(delivered[split:]), params),
    )


def recover_xored_keys(assignment: KeyAssignment, env: ProtocolEnv) -> ShareVector:
    """Fold every participant key into the register, interleaved by rounds.

    Round i takes a contribution from position i of set 1 and then of
    set 2; a position past the shorter column's end contributes the zero
    vector, and those padding contributions are real messages. The final
    register value is the XOR of all keys, with no single key exposed
    along the way. It is one round of two equal parts with their own
    seqs (:meth:`ProtocolEnv.deliver_parts`), set 1's contributions and
    then set 2's, padding included.
    """
    _check_params(env, assignment)
    set1, set2 = assignment.set1_ints, assignment.set2_ints
    env.note_operation("recover_xored_keys", h=len(set1), g=len(set2))
    rounds = range(1, max(len(set1), len(set2)) + 1)
    first, second = env.deliver_parts(
        (_participants("1", rounds), ACCUMULATOR, KIND_KEY,
         set1 + (0,) * (len(rounds) - len(set1)), rounds),
        (_participants("2", rounds), ACCUMULATOR, KIND_KEY,
         set2 + (0,) * (len(rounds) - len(set2)), rounds),
    )
    fold = env.params.xor_ints
    return ShareVector.from_int(env.params, fold(second, fold(first, 0)))


def verify(
    bulletin: BulletinBoard, assignment: KeyAssignment, env: ProtocolEnv
) -> VerificationResult:
    """Compare the public bulletin aggregate with the recovered key XOR.

    POSITIVE exactly when the XOR of all bulletin entries equals the XOR
    of all keys, i.e. when the two published sets combine to the same
    secret. The assignment must hold one key per bulletin entry of each
    set; a key with no entry would otherwise be ignored.
    """
    _check_params(env, bulletin)
    set1, set2 = bulletin.set1_ints, bulletin.set2_ints
    for tag, entries, keys in (("1", set1, assignment.set1_ints),
                               ("2", set2, assignment.set2_ints)):
        if len(keys) != len(entries):
            raise CardinalityMismatch(
                f"set {tag}: bulletin has {len(entries)} entries, "
                f"key assignment has {len(keys)} keys"
            )
    env.note_operation("verify", h=len(set1), g=len(set2))
    encrypted = ShareVector.from_int(env.params, env.params.xor_ints(set1 + set2, 0))
    keys = recover_xored_keys(assignment, env)
    verdict = Verdict.POSITIVE if encrypted == keys else Verdict.NEGATIVE
    return VerificationResult(verdict, keys, encrypted)
