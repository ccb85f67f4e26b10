"""The two primitive devices behind the automatic protocols.

An :class:`Accumulator` is an l-bit register that can only be reset,
read, and written by XOR. A :class:`RandSource` hands out vectors either
from a seeded deterministic generator or from an explicit fixture list.
Every protocol run is a pure function of its devices' contents.

The protocol engine draws with :meth:`RandSource.next_int` and keeps
each register as a plain int XORed in place; :class:`Accumulator` is
that register as a library device.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, Sequence

from asgs.kgh import AsgsError, MixedParams, SchemeParams, ShareVector

# A device handed a vector under the wrong params raises the same error
# as any other mix of params; the old name stays for existing callers.
ParamMismatch = MixedParams


class FixtureExhausted(AsgsError):
    """A fixture source ran out of prepared vectors (test misconfiguration)."""


class Accumulator:
    """A binary register of fixed width, reachable only via reset/read/store.

    store XORs its argument into the register, so storing the same value
    twice cancels it. Nothing else observes or serializes the register.
    """

    def __init__(self, params: SchemeParams) -> None:
        if params.modulus != 2:
            raise ValueError("the accumulator register is binary only")
        self._params = params
        self._register = ShareVector.zero(params)

    def reset(self) -> None:
        self._register = ShareVector.zero(self._params)

    def read(self) -> ShareVector:
        return self._register

    def store(self, vector: ShareVector) -> None:
        if vector.params is not self._params and vector.params != self._params:
            raise ParamMismatch(
                f"register holds {self._params}, got a vector under {vector.params}"
            )
        self._register = self._register + vector


class RandSource:
    """Deterministic vector stream, seeded or replayed from a fixture.

    Seeded mode draws from MT19937 (``random.Random``) initialised with
    the given integer: a binary vector is ``getrandbits(bits)`` taken as
    its packed value (component 1 is the top bit), other moduli draw one
    ``randrange(k)`` per component, left to right. This generator choice is frozen; repeat
    runs with equal seeds reproduce identical streams. Fixture mode
    replays the prepared vectors in order and refuses to wrap around.
    """

    def __init__(
        self,
        rng: random.Random | None = None,
        values: Sequence[ShareVector] | None = None,
    ) -> None:
        if (rng is None) == (values is None):
            raise ValueError("construct via RandSource.seeded or RandSource.fixture")
        self._rng = rng
        self._values = tuple(values) if values is not None else None
        self._cursor = 0

    @classmethod
    def seeded(cls, seed: int) -> RandSource:
        return cls(rng=random.Random(seed))

    @classmethod
    def fixture(cls, values: Iterable[ShareVector]) -> RandSource:
        return cls(values=tuple(values))

    @property
    def consumed(self) -> int:
        """How many vectors have been drawn so far."""
        return self._cursor

    def next_int(self, params: SchemeParams) -> int:
        """The one binary draw: a vector as its packed int."""
        if params.modulus != 2:
            raise ValueError("packed draws are defined for modulus 2 only")
        if self._values is not None:
            return self.next_vector(params).to_int()
        assert self._rng is not None
        self._cursor += 1
        return self._rng.getrandbits(params.dimension)

    def next_vector(self, params: SchemeParams) -> ShareVector:
        if self._values is not None:
            if self._cursor >= len(self._values):
                raise FixtureExhausted(
                    f"fixture drained after {len(self._values)} vectors"
                )
            value = self._values[self._cursor]
            if value.params is not params and value.params != params:
                raise ParamMismatch(
                    f"fixture vector {self._cursor + 1} carries {value.params}, "
                    f"requested {params}"
                )
            self._cursor += 1
            return value
        if params.modulus == 2:
            return ShareVector.from_int(params, self.next_int(params))
        assert self._rng is not None
        vector = ShareVector(
            params,
            tuple(self._rng.randrange(params.modulus) for _ in range(params.dimension)),
        )
        self._cursor += 1
        return vector


def derive_stream_seed(seed: int, label: str) -> int:
    """Stable per-role sub-seed for one run-level seed.

    Hashes seed and role label together so the parties' streams are
    distinct but jointly reproducible from the single run seed.
    """
    digest = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")
