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
from dataclasses import dataclass
from typing import Mapping

from asgs.devices import Accumulator
from asgs.kgh import (
    AsgsError,
    AuthorizedShareSet,
    SchemeParams,
    ShareVector,
    combine,
)
from asgs.protocol import (
    ACCUMULATOR,
    DEALER,
    KIND_KEY,
    CardinalityMismatch,
    ProtocolEnv,
    ROLE_DEALER,
    _check_params,
    participant,
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
    """Published encrypted shares of the two sets under comparison."""

    set1_entries: tuple[ShareVector, ...]
    set2_entries: tuple[ShareVector, ...]
    params: SchemeParams


@dataclass(frozen=True)
class KeyAssignment:
    """Per-participant one-time keys, addressed by (set tag, 1-based index)."""

    entries: Mapping[tuple[str, int], ShareVector]

    def key_for(self, set_tag: str, index: int) -> ShareVector:
        try:
            return self.entries[(set_tag, index)]
        except KeyError:
            raise MissingKey(set_tag, index) from None

    def count_for(self, set_tag: str) -> int:
        return sum(1 for tag, _ in self.entries if tag == set_tag)


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
    env.note_operation(
        "distribute_shares_and_keys", h=len(set1.shares), g=len(set2.shares)
    )
    source = env.source(ROLE_DEALER)
    entries: dict[str, list[ShareVector]] = {"1": [], "2": []}
    keys: dict[tuple[str, int], ShareVector] = {}
    for tag, shares in (("1", set1.shares), ("2", set2.shares)):
        for i, share in enumerate(shares, start=1):
            key = source.next_vector(env.params)
            if key.is_zero():
                warnings.warn(
                    f"zero one-time key for participant {i} of set {tag}; "
                    "the matching bulletin entry exposes the share in clear",
                    stacklevel=2,
                )
            delivered = env.deliver(
                DEALER, participant(tag, i), KIND_KEY, key, element_index=i
            )
            assert isinstance(delivered, ShareVector)
            keys[(tag, i)] = delivered
            entries[tag].append(share + key)
    return (
        BulletinBoard(tuple(entries["1"]), tuple(entries["2"]), env.params),
        KeyAssignment(keys),
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
    env.note_operation("recover_xored_keys", h=set1_count, g=set2_count)
    register = Accumulator(env.params)
    zero = ShareVector.zero(env.params)
    rounds = max(set1_count, set2_count)
    for i in range(1, rounds + 1):
        for tag, total in (("1", set1_count), ("2", set2_count)):
            contribution = assignment.key_for(tag, i) if i <= total else zero
            delivered = env.deliver(
                participant(tag, i), ACCUMULATOR, KIND_KEY, contribution, element_index=i
            )
            assert isinstance(delivered, ShareVector)
            register.store(delivered)
    return register.read()


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
    for tag, entries in (("1", bulletin.set1_entries), ("2", bulletin.set2_entries)):
        if assignment.count_for(tag) != len(entries):
            raise CardinalityMismatch(
                f"set {tag}: bulletin has {len(entries)} entries, "
                f"key assignment has {assignment.count_for(tag)} keys"
            )
    env.note_operation(
        "verify", h=len(bulletin.set1_entries), g=len(bulletin.set2_entries)
    )
    encrypted = combine(bulletin.set1_entries + bulletin.set2_entries, env.params)
    keys = recover_xored_keys(
        assignment, len(bulletin.set1_entries), len(bulletin.set2_entries), env
    )
    verdict = Verdict.POSITIVE if encrypted == keys else Verdict.NEGATIVE
    return VerificationResult(verdict, keys, encrypted)
