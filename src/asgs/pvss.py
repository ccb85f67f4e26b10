"""Publicly verifiable consistency checking for two authorized sets.

Every share is published on a bulletin board encrypted with a fresh
one-time key that only its participant receives. Anyone can XOR the
whole bulletin together; the participants jointly recover the XOR of
all keys through the accumulator without exposing any single key. The
two aggregates coincide exactly when both sets encode the same secret,
so consistency can be checked without reconstructing anything.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import repeat
from operator import xor
from typing import Iterable, Mapping

from asgs.kgh import (
    AsgsError,
    AuthorizedShareSet,
    SchemeParams,
    ShareVector,
    check_ints,
    from_ints,
    to_ints,
    vector_params,
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


@dataclass(frozen=True)
class BulletinBoard:
    """Published encrypted shares of the two sets under comparison, as
    packed ints; ``set1_entries`` and ``set2_entries`` are their vector
    views. An authorized set holds at least one share, so neither is empty.
    """

    set1_ints: tuple[int, ...]
    set2_ints: tuple[int, ...]
    params: SchemeParams

    def __post_init__(self) -> None:
        for tag, column in (("1", self.set1_ints), ("2", self.set2_ints)):
            if not column:
                raise CardinalityMismatch(f"set {tag}: the bulletin has no entries, "
                                          "but an authorized set holds at least one share")
            check_ints(column, self.params, f"bulletin set {tag}")

    @classmethod
    def from_entries(
        cls, set1_entries: Iterable[ShareVector], set2_entries: Iterable[ShareVector]
    ) -> BulletinBoard:
        set1, set2 = tuple(set1_entries), tuple(set2_entries)
        return cls(tuple(to_ints(set1)), tuple(to_ints(set2)), vector_params(set1 + set2))

    set1_entries = vector_view("set1_ints")
    set2_entries = vector_view("set2_ints")


@dataclass(frozen=True)
class KeyAssignment:
    """Per-participant one-time keys, addressed by (set tag, 1-based index).

    ``ints`` maps each address to a packed int, ``entries`` to a vector;
    the hash reads only ``params``, since a dict has none. The keys of
    each set tag are counted once, when the assignment is built:
    :func:`verify`, the key-assignment writer and the CLI all ask.
    """

    ints: Mapping[tuple[str, int], int] = field(hash=False)
    params: SchemeParams
    _counts: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_ints(self.ints.values(), self.params, "a key assignment")
        # One C-level count per distinct tag: every producer uses the two
        # tags "1" and "2". collections.Counter's Python-level
        # constructor would cost more than the count for a small run.
        tags = [tag for tag, _ in self.ints]
        object.__setattr__(self, "_counts", {tag: tags.count(tag) for tag in set(tags)})

    @classmethod
    def from_entries(cls, entries: Mapping[tuple[str, int], ShareVector]) -> KeyAssignment:
        keys = tuple(entries.values())
        return cls(dict(zip(entries, to_ints(keys))), vector_params(keys))

    @cached_property
    def entries(self) -> dict[tuple[str, int], ShareVector]:
        return dict(zip(self.ints, from_ints(self.params, self.ints.values())))

    def key_int(self, set_tag: str, index: int) -> int:
        try:
            return self.ints[(set_tag, index)]
        except KeyError:
            raise MissingKey(set_tag, index) from None

    def key_for(self, set_tag: str, index: int) -> ShareVector:
        return ShareVector.from_int(self.params, self.key_int(set_tag, index))

    def count_for(self, set_tag: str) -> int:
        return self._counts.get(set_tag, 0)


@dataclass(frozen=True)
class VerificationResult:
    verdict: Verdict
    xored_keys: ShareVector
    xored_encrypted_shares: ShareVector


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
    published = [share ^ key for share, key in zip(set1.ints + set2.ints, keys)]
    return (
        BulletinBoard(tuple(published[:split]), tuple(published[split:]), params),
        KeyAssignment(dict(zip(
            [*zip(repeat("1"), first), *zip(repeat("2"), second)], delivered
        )), params),
    )


def recover_xored_keys(
    assignment: KeyAssignment, set1_count: int, set2_count: int, env: ProtocolEnv
) -> ShareVector:
    """Fold every participant key into the register, interleaved by rounds.

    Round i takes a contribution from position i of set 1 and then of
    set 2; a position past a set's cardinality contributes the zero
    vector, and those padding contributions are real messages. The final
    register value is the XOR of all keys, with no single key exposed
    along the way.
    """
    _check_params(env, assignment)
    env.note_operation("recover_xored_keys", h=set1_count, g=set2_count)
    rounds = range(1, max(set1_count, set2_count) + 1)
    width = 2 * len(rounds)
    # The woven column: round i fills slot 2i - 2 from set 1 and slot
    # 2i - 1 from set 2; a padding slot holds 0 and a missing key None.
    key_of = assignment.ints.get
    keys = [0] * width
    keys[0:2 * set1_count:2] = map(key_of, zip(repeat("1"), rounds[:set1_count]))
    keys[1:2 * set2_count:2] = map(key_of, zip(repeat("2"), rounds[:set2_count]))
    # Every key is looked up before the first message, so a failed
    # recovery leaves no rows behind.
    if None in keys:
        slot = keys.index(None)
        raise MissingKey("12"[slot % 2], slot // 2 + 1)
    senders = [None] * width
    senders[0::2] = _participants("1", rounds)
    senders[1::2] = _participants("2", rounds)
    indices = [None] * width
    indices[0::2] = rounds
    indices[1::2] = rounds
    delivered = env.deliver_round(senders, ACCUMULATOR, KIND_KEY, keys, indices)
    return ShareVector.from_int(env.params, reduce(xor, delivered, 0))


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
    for tag, entries in (("1", set1), ("2", set2)):
        if assignment.count_for(tag) != len(entries):
            raise CardinalityMismatch(
                f"set {tag}: bulletin has {len(entries)} entries, "
                f"key assignment has {assignment.count_for(tag)} keys"
            )
    env.note_operation("verify", h=len(set1), g=len(set2))
    encrypted = ShareVector.from_int(env.params, reduce(xor, set1 + set2, 0))
    keys = recover_xored_keys(assignment, len(set1), len(set2), env)
    verdict = Verdict.POSITIVE if encrypted == keys else Verdict.NEGATIVE
    return VerificationResult(verdict, keys, encrypted)
