"""The two primitive devices behind the automatic protocols.

An :class:`Accumulator` is an l-bit register that can only be reset,
read, and written by XOR. A :class:`RandSource` hands out l-bit vectors
either from a seeded deterministic generator or from an explicit fixture
list. Every protocol run is a pure function of its devices' contents.

The protocol engine draws whole columns with :meth:`RandSource.next_ints`
(``count`` packed ints in one call, the same values as ``count`` calls
of :meth:`RandSource.next_int`; a batch that fails consumes nothing) and
keeps each register as a plain int XORed in place; :class:`Accumulator`
is that register as a library device.
"""

from __future__ import annotations

import hashlib
import random
import sys
from itertools import repeat
from typing import Iterable, Sequence

from asgs.kgh import (
    AsgsError,
    MixedParams,
    SchemeParams,
    ShareVector,
    params_identical,
    to_ints,
)


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
    Fixture mode replays the prepared vectors in order, checks that each
    carries the requested params, and refuses to wrap around.
    """

    def __init__(
        self,
        rng: random.Random | int | None = None,
        values: Sequence[ShareVector] | None = None,
    ) -> None:
        if (rng is None) == (values is None):
            raise ValueError("construct via RandSource.seeded or RandSource.fixture")
        self._rng = rng
        self._values = tuple(values) if values is not None else None
        self._cursor = 0

    @classmethod
    def seeded(cls, seed: int) -> RandSource:
        """The stream of ``random.Random(seed)``. An int seed, which no
        generator refuses, is kept until the first draw; any other seed
        builds the generator now, so one it refuses fails here."""
        return cls(rng=seed if isinstance(seed, int) else random.Random(seed))

    @classmethod
    def fixture(cls, values: Iterable[ShareVector]) -> RandSource:
        return cls(values=tuple(values))

    @property
    def consumed(self) -> int:
        """How many vectors have been drawn so far."""
        return self._cursor

    def next_ints(self, params: SchemeParams, count: int) -> list[int]:
        """The batch draw: the next ``count`` vectors as packed ints.

        Draws exactly what ``count`` calls of :meth:`next_int` would, in
        one call. A failed batch consumes nothing: a fixture vector
        under other params raises :class:`MixedParams` naming the same
        1-based vector that :meth:`next_int` would, and a batch that
        overruns the fixture raises :class:`FixtureExhausted`.
        """
        if not 0 <= count <= sys.maxsize:
            raise ValueError(f"draw count must lie in 0..{sys.maxsize}, got {count}")
        values = self._values
        if values is None:
            rng = self._rng
            if isinstance(rng, int):
                rng = self._rng = random.Random(rng)
            batch = list(map(rng.getrandbits, repeat(params.dimension, count)))
            self._cursor += count
            return batch
        cursor = self._cursor
        batch = values[cursor:cursor + count]
        if not params_identical(batch, params):
            for offset, value in enumerate(batch, start=cursor + 1):
                if value.params != params:
                    raise MixedParams(
                        f"fixture vector {offset} carries {value.params}, "
                        f"requested {params}"
                    )
        if len(batch) < count:
            raise FixtureExhausted(f"fixture drained after {len(values)} vectors")
        self._cursor = cursor + count
        return to_ints(batch)

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
