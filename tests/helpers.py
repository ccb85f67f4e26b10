"""Small constructors shared by the test modules."""

from __future__ import annotations

from typing import Sequence

from asgs.devices import RandSource
from asgs.kgh import SchemeParams, ShareVector
from asgs.protocol import Message, ProtocolEnv, Transcript

P8 = SchemeParams.binary(8)


def bv(value: int, params: SchemeParams = P8) -> ShareVector:
    return ShareVector.from_int(params, value)


def bvs(values: Sequence[int], params: SchemeParams = P8) -> list[ShareVector]:
    return [bv(v, params) for v in values]


def fixture_source(values: Sequence[int], params: SchemeParams = P8) -> RandSource:
    return RandSource.fixture(params, values)


def ints(vectors) -> list[int]:
    return [v.to_int() for v in vectors]


def append(transcript: Transcript, message: Message) -> None:
    """Record ``message`` as a one-row round."""
    payload = message.payload if type(message.payload) is bool else message.payload.to_int()
    transcript.record(((message.seq,), message.sender, message.recipient, message.kind,
                       (payload,), message.element_index))


def rows(transcript: Transcript) -> list[tuple]:
    """``(seq, sender, recipient, kind, payload, element_index)`` for each
    message iteration yields, with the payload as a packed int or bool."""
    return [(m.seq, m.sender, m.recipient, m.kind,
             m.payload if type(m.payload) is bool else m.payload.to_int(), m.element_index)
            for m in transcript]


def per_row(values, count: int) -> list:
    """A round column as one value per row."""
    return list(values) if isinstance(values, (list, tuple, range)) else [values] * count


class EagerWeaveEnv(ProtocolEnv):
    """Reference for two-part rounds, for tests only: each is sent and
    tampered as the engine sends it, then logged as a one-part round
    woven row by row when it is sent, the record that relay and
    key-recovery rounds had before they were logged as two parts."""

    def deliver_parts(self, first, second):
        delivered = super().deliver_parts(first, second)
        first, second = self.transcript.rounds.pop()
        count = len(first[0])
        columns = [range(first[0].start, second[0].stop)] if count else [()]
        for one, two in zip(first[1:], second[1:]):
            one, two = per_row(one, count), per_row(two, count)
            columns.append([value for pair in zip(one, two) for value in pair])
        self.transcript.rounds.append((tuple(columns),))
        return delivered
