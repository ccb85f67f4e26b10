"""The two primitive devices behind the automatic protocols.

An :class:`Accumulator` is an l-bit register that can only be reset,
read, and written by XOR. A :class:`RandSource` hands out l-bit vectors
either from a seeded deterministic generator or from a fixture stream,
one column of packed ints under one ``SchemeParams``. Every protocol run
is a pure function of its devices' contents.

The protocol engine draws whole columns with :meth:`RandSource.next_ints`
(``count`` packed ints in one call, the same values as ``count`` calls
of :meth:`RandSource.next_int`; a batch that fails consumes nothing) and
keeps each register as a plain int XORed in place; :class:`Accumulator`
is that register as a library device. A seeded source draws every
column of at most ``LANE_BITS`` bits as packed 32-bit lanes, one
generator call per chunk, with the values and generator state of the
value-by-value draw; a caller that asks for the column's balance gets
it folded from those lanes.
"""

from __future__ import annotations

import hashlib
import random
import struct
import sys
from functools import cache
from itertools import repeat
from typing import Iterable

from asgs.kgh import (
    LANE_BITS,
    AsgsError,
    MixedParams,
    SchemeParams,
    ShareVector,
    check_ints,
    fold_lanes,
)

# ``getrandbits`` takes its bit count as a C int, so one call draws at
# most 2^31 - 1 bits, 67,108,863 lanes. A lane column is therefore drawn
# in chunks of LANE_CHUNK lanes (2^17 bits per call), which also bounds
# the temporary ints of a draw and each width's cached lane mask (16 KiB).
LANE_CHUNK = 1 << 12


@cache
def _lane_mask(bits: int) -> int:
    """LANE_CHUNK lanes, each the low ``bits`` bits set."""
    return int.from_bytes(((1 << bits) - 1).to_bytes(4, "little") * LANE_CHUNK, "little")


def _draw_lanes(rng: random.Random, bits: int, count: int, balance: int | None) -> list[int]:
    """``count`` values of ``rng.getrandbits(bits)`` (``bits <= LANE_BITS``),
    drawn as lanes, then ``balance`` XOR all of them if it is an int.

    ``getrandbits(32 * k)`` takes k 32-bit outputs, the i-th in lane i,
    and ``getrandbits(bits)`` is the top ``bits`` of one output, so one
    shift and one mask of the k-lane int give k values in order and
    leave the generator where k single draws would. The lanes are split
    as little-endian 32-bit words, whatever the host's byte order.
    """
    shift, mask = LANE_BITS - bits, _lane_mask(bits)
    column: list[int] = []
    while count:
        lanes = min(count, LANE_CHUNK)
        count -= lanes
        packed = (rng.getrandbits(lanes << 5) >> shift) & mask
        column += struct.unpack(f"<{lanes}I", packed.to_bytes(lanes << 2, "little"))
        if balance is not None:
            balance ^= fold_lanes(packed, lanes)
    if balance is not None:
        column.append(balance)
    return column


def bad_draw_count(count: int) -> ValueError:
    """The error for a draw count outside ``0..sys.maxsize``."""
    return ValueError(f"draw count must lie in 0..{sys.maxsize}, got {count}")


class FixtureExhausted(AsgsError):
    """A fixture source ran out of prepared vectors (test misconfiguration)."""


class Accumulator:
    """An l-bit register, reachable only via reset/read/store.

    store XORs its argument into the register, so storing the same value
    twice cancels it. Nothing else observes or serializes the register.
    """

    def __init__(self, params: SchemeParams) -> None:
        self._params = params
        self._register = ShareVector.zero(params)

    def reset(self) -> None:
        self._register = ShareVector.zero(self._params)

    def read(self) -> ShareVector:
        return self._register

    def store(self, vector: ShareVector) -> None:
        if vector.params is not self._params and vector.params != self._params:
            raise MixedParams(
                f"register holds {self._params}, got a vector under {vector.params}"
            )
        self._register = self._register + vector


class RandSource:
    """Deterministic vector stream, seeded or replayed from a fixture.

    Seeded mode draws from MT19937 (``random.Random``) initialised with
    the given integer: a vector is ``getrandbits(bits)`` taken as its
    packed value (component 1 is the top bit). This generator choice is
    frozen; repeat runs with equal seeds reproduce identical streams.
    ``rng`` may also be the int seed of that generator, which is then
    built at the first draw, so a source never drawn from seeds none.
    Fixture mode replays a ``(params, ints)`` stream in order, serves
    draws under those params only, and refuses to wrap around.
    """

    def __init__(
        self,
        rng: random.Random | int | None = None,
        values: tuple[SchemeParams, list[int]] | None = None,
    ) -> None:
        if (rng is None) == (values is None):
            raise ValueError("construct via RandSource.seeded or RandSource.fixture")
        self._rng = rng
        self._params, self._stream = (None, None) if values is None else values
        self._cursor = 0

    @classmethod
    def seeded(cls, seed: int) -> RandSource:
        """The stream of ``random.Random(seed)``. An int seed, which no
        generator refuses, is kept until the first draw; any other seed
        builds the generator now, so one it refuses fails here."""
        return cls(rng=seed if isinstance(seed, int) else random.Random(seed))

    @classmethod
    def fixture(cls, params: SchemeParams, values: Iterable[int]) -> RandSource:
        """Replay the packed ints ``values`` under ``params``. A non-empty
        column is checked here, once, by :func:`~asgs.kgh.check_ints`."""
        values = list(values)
        if values:
            check_ints(values, params, "a fixture stream")
        return cls(values=(params, values))

    @property
    def consumed(self) -> int:
        """How many vectors have been drawn so far."""
        return self._cursor

    def next_ints(
        self, params: SchemeParams, count: int, balance: int | None = None
    ) -> list[int]:
        """The batch draw: the next ``count`` vectors as packed ints.

        Draws exactly what ``count`` calls of :meth:`next_int` would, in
        one call. A failed batch consumes nothing: a draw from a fixture
        under other params raises :class:`MixedParams`, whatever the
        count, and a batch that overruns the fixture raises
        :class:`FixtureExhausted`.

        With ``balance`` an int, one more int follows the draws:
        ``balance`` XOR every draw, the element that balances a mask set
        or a share split. It is not a draw and is not counted in
        :attr:`consumed`. A seeded source draws every column of up to
        ``LANE_BITS`` bits as lanes, at every count, and folds the
        balance from them, with no second pass over the column.
        """
        if not 0 <= count <= sys.maxsize:
            raise bad_draw_count(count)
        values = self._stream
        if values is None:
            rng = self._rng
            if isinstance(rng, int):
                rng = self._rng = random.Random(rng)
            bits = params.dimension
            if bits <= LANE_BITS:
                batch = _draw_lanes(rng, bits, count, balance)
            else:
                batch = list(map(rng.getrandbits, repeat(bits, count)))
                if balance is not None:
                    batch.append(params.xor_ints(batch, balance))
            self._cursor += count
            return batch
        if params != self._params:
            raise MixedParams(f"the fixture stream carries {self._params}, requested {params}")
        cursor = self._cursor
        batch = values[cursor:cursor + count]
        if len(batch) < count:
            raise FixtureExhausted(f"fixture drained after {len(values)} vectors")
        self._cursor = cursor + count
        if balance is not None:
            batch.append(params.xor_ints(batch, balance))
        return batch

    def next_int(self, params: SchemeParams) -> int:
        """The single draw: the next vector as its packed int."""
        return self.next_ints(params, 1)[0]

    def next_vector(self, params: SchemeParams) -> ShareVector:
        return ShareVector.from_int(params, self.next_int(params))


def derive_stream_seed(seed: int, label: str) -> int:
    """Stable per-role sub-seed for one run-level seed.

    Hashes seed and role label together so the parties' streams are
    distinct but jointly reproducible from the single run seed.
    """
    digest = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")
