"""Additive share algebra in the Karnin-Greene-Hellman style.

Secrets, shares, masks, and one-time keys are all the same kind of value:
a fixed-dimension vector of residues mod k. A secret is recovered by
adding the shares of an authorized set component-wise. With modulus 2
every operation collapses to XOR on l-bit strings, which is the form the
automatic protocols in :mod:`asgs.protocol` work in. A binary vector is
therefore stored as one packed unsigned int, component 1 in the most
significant bit, and adding two of them is a single ``^``; its
``components`` tuple is a derived view. Other moduli keep a tuple of
residues and add component-wise.
"""

from __future__ import annotations

import enum
from dataclasses import FrozenInstanceError, dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from asgs.devices import RandSource


class AsgsError(Exception):
    """Base class for every error raised by this package."""


class MixedParams(AsgsError):
    """Vectors with different (modulus, dimension) cannot be combined."""


class IndexOutOfRange(AsgsError):
    """A 1-based element index fell outside the addressed collection."""


# Widest vector dimension (bit width) any scheme accepts: far above the
# widths in use (at most 4096), far below what would exhaust memory.
MAX_DIMENSION = 1 << 16


@dataclass(frozen=True)
class SchemeParams:
    """Algebra parameters: residue modulus and vector dimension.

    In the binary case (modulus 2) the dimension is a bit width and
    vectors behave like l-bit strings under XOR. The dimension lies in
    ``1..MAX_DIMENSION``.
    """

    modulus: int
    dimension: int

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.dimension > MAX_DIMENSION:
            raise ValueError(f"dimension must be <= {MAX_DIMENSION}, got {self.dimension}")

    @classmethod
    def binary(cls, bits: int = 128) -> SchemeParams:
        """Parameters for bit-string vectors of the given width."""
        return cls(2, bits)

    @property
    def bits(self) -> int:
        """Bit width of a binary vector (alias for ``dimension``)."""
        return self.dimension


class ShareVector:
    """One element of Z_k^dimension, the unit every protocol value is made of.

    A binary vector (modulus 2) is stored as one unsigned int of
    ``dimension`` bits with component 1 in the most significant bit, so
    ``+`` and ``-`` are a single XOR. Other moduli keep a tuple of
    residues. ``components`` is a derived, read-only view either way.
    Inputs are validated where they enter (the constructor and
    :meth:`from_int`); results of arithmetic on valid vectors are valid
    by construction and are not checked again. Vectors are immutable,
    hashable, and equal exactly when their params and components are.
    """

    __slots__ = ("params", "_data")

    def __init__(self, params: SchemeParams, components: Sequence[int]) -> None:
        components = tuple(components)
        if len(components) != params.dimension:
            raise ValueError(
                f"expected {params.dimension} components, got {len(components)}"
            )
        k = params.modulus
        if any(c < 0 or c >= k for c in components):
            raise ValueError(f"components must lie in [0, {k})")
        if k == 2:
            data = int("".join("1" if c else "0" for c in components), 2)
        else:
            data = components
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "_data", data)

    @classmethod
    def zero(cls, params: SchemeParams) -> ShareVector:
        return _vector(params, 0 if params.modulus == 2 else (0,) * params.dimension)

    @classmethod
    def from_int(cls, params: SchemeParams, value: int) -> ShareVector:
        """Wrap an unsigned integer as a binary vector, MSB first.

        Component 1 is the most significant bit of ``value`` at the
        declared width.
        """
        if params.modulus != 2:
            raise ValueError("integer packing is defined for modulus 2 only")
        width = params.dimension
        if value < 0 or value >> width:
            raise ValueError(f"value {value:#x} does not fit in {width} bits")
        return _vector(params, value)

    def to_int(self) -> int:
        """The packed unsigned integer of a binary vector, component 1 first."""
        if self.params.modulus != 2:
            raise ValueError("integer packing is defined for modulus 2 only")
        return self._data

    @property
    def components(self) -> tuple[int, ...]:
        """The residues, component 1 first (unpacked MSB first when binary)."""
        if self.params.modulus != 2:
            return self._data
        return tuple(map(int, format(self._data, f"0{self.params.dimension}b")))

    def is_zero(self) -> bool:
        if self.params.modulus == 2:
            return not self._data
        return not any(self._data)

    def _require_same_params(self, other: ShareVector) -> None:
        if other.params is not self.params and other.params != self.params:
            raise MixedParams(
                f"cannot mix vectors under {self.params} and {other.params}"
            )

    def __add__(self, other: ShareVector) -> ShareVector:
        if not isinstance(other, ShareVector):
            return NotImplemented
        self._require_same_params(other)
        k = self.params.modulus
        if k == 2:
            return _vector(self.params, self._data ^ other._data)
        return _vector(
            self.params, tuple((a + b) % k for a, b in zip(self._data, other._data))
        )

    def __sub__(self, other: ShareVector) -> ShareVector:
        if not isinstance(other, ShareVector):
            return NotImplemented
        self._require_same_params(other)
        k = self.params.modulus
        if k == 2:
            return _vector(self.params, self._data ^ other._data)
        return _vector(
            self.params, tuple((a - b) % k for a, b in zip(self._data, other._data))
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShareVector):
            return NotImplemented
        return self._data == other._data and self.params == other.params

    def __hash__(self) -> int:
        return hash((self.params, self._data))

    def __repr__(self) -> str:
        return f"ShareVector(params={self.params!r}, components={self.components!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return ShareVector, (self.params, self.components)


def _vector(params: SchemeParams, data: int | tuple[int, ...]) -> ShareVector:
    """Build a vector from already-valid packed data, skipping validation."""
    vector = object.__new__(ShareVector)
    object.__setattr__(vector, "params", params)
    object.__setattr__(vector, "_data", data)
    return vector


class SetRole(enum.Enum):
    """Lifecycle tag of an authorized share set.

    The enum value is the short tag used in serialized documents.
    """

    TEMPLATE = "1"
    MASTER = "2"
    DERIVED = "3"
    OWNER = "o"
    PROTECTED = "p"
    ACTIVATED = "a"


@dataclass(frozen=True)
class AuthorizedShareSet:
    """An ordered set of shares that jointly recover one secret."""

    role: SetRole
    shares: tuple[ShareVector, ...]
    params: SchemeParams

    def __post_init__(self) -> None:
        if not self.shares:
            raise ValueError("an authorized set holds at least one share")
        if any(s.params != self.params for s in self.shares):
            raise MixedParams("all shares of a set carry the same params")

    @classmethod
    def from_shares(
        cls, role: SetRole, shares: Iterable[ShareVector]
    ) -> AuthorizedShareSet:
        shares = tuple(shares)
        if not shares:
            raise ValueError("an authorized set holds at least one share")
        return cls(role, shares, shares[0].params)

    def __len__(self) -> int:
        return len(self.shares)


@dataclass(frozen=True)
class MaskSet:
    """An ordered set of vectors whose group sum is the zero vector."""

    vectors: tuple[ShareVector, ...]
    params: SchemeParams

    def __post_init__(self) -> None:
        if any(v.params != self.params for v in self.vectors):
            raise MixedParams("all mask elements carry the same params")
        if not check_zero_sum(self.vectors, self.params):
            raise ValueError("mask set elements must combine to the zero vector")

    @classmethod
    def from_vectors(cls, vectors: Iterable[ShareVector]) -> MaskSet:
        vectors = tuple(vectors)
        if not vectors:
            raise ValueError("need at least one vector to infer params")
        return cls(vectors, vectors[0].params)

    def __len__(self) -> int:
        return len(self.vectors)


def combine(
    shares: Iterable[ShareVector], params: SchemeParams | None = None
) -> ShareVector:
    """Component-wise mod-k sum of the given vectors (XOR when k == 2).

    The empty combination is the zero vector, which needs explicit
    ``params`` since there is no vector to infer them from.
    """
    shares = tuple(shares)
    if not shares:
        if params is None:
            raise ValueError("combining nothing needs explicit params")
        return ShareVector.zero(params)
    first = shares[0].params
    if params is not None and first != params:
        raise MixedParams(f"shares carry {first}, expected {params}")
    for share in shares:
        if share.params is not first and share.params != first:
            raise MixedParams(f"cannot mix vectors under {first} and {share.params}")
    k = first.modulus
    if k == 2:
        acc = 0
        for share in shares:
            acc ^= share._data
        return _vector(first, acc)
    return _vector(
        first, tuple(sum(column) % k for column in zip(*(s._data for s in shares)))
    )


def kgh_split(
    secret: ShareVector, count: int, rand: RandSource
) -> AuthorizedShareSet:
    """Split a known secret into ``count`` additive shares.

    The first ``count - 1`` shares are successive draws from ``rand``;
    the last is the secret minus their running sum, so the whole set
    combines back to the secret. Any proper subset of the result is
    uniformly distributed.
    """
    if count < 1:
        raise ValueError(f"share count must be >= 1, got {count}")
    drawn = [rand.next_vector(secret.params) for _ in range(count - 1)]
    last = secret - combine(drawn, secret.params)
    return AuthorizedShareSet.from_shares(SetRole.OWNER, drawn + [last])


def generate_mask_set(
    count: int, rand: RandSource, params: SchemeParams
) -> MaskSet:
    """Generate a fresh zero-sum mask set of the given cardinality.

    Mirrors the accumulator register protocol: reset, store count - 1
    random draws, and read the balancing element off the register. Only
    defined for the binary algebra, where store is XOR and the final
    read cancels everything stored so far. This is the one mask
    generator: every protocol operation in :mod:`asgs.protocol` draws
    its masks through it.
    """
    if params.modulus != 2:
        raise ValueError("mask generation is defined for modulus 2 only")
    if count < 1:
        raise ValueError(f"mask set cardinality must be >= 1, got {count}")
    drawn = [rand.next_vector(params) for _ in range(count - 1)]
    balance = combine(drawn, params)
    return MaskSet(tuple(drawn + [balance]), params)


def check_zero_sum(
    vectors: MaskSet | Iterable[ShareVector], params: SchemeParams | None = None
) -> bool:
    """True when the vectors combine to the zero vector.

    Accepts a plain sequence as well as a MaskSet so that candidate sets
    can be tested before construction.
    """
    if isinstance(vectors, MaskSet):
        params = vectors.params
        vectors = vectors.vectors
    vectors = tuple(vectors)
    if not vectors and params is None:
        return True
    return combine(vectors, params).is_zero()


def partition_sums(
    masks: MaskSet, left_indices: Iterable[int]
) -> tuple[ShareVector, ShareVector]:
    """Combine the two halves of a mask set split by 1-based indices.

    Returns (left combination, right combination); either side may be
    empty. For any valid mask set the two results are equal, since the
    whole set cancels to zero.
    """
    chosen = set(left_indices)
    total = len(masks.vectors)
    for index in chosen:
        if not isinstance(index, int) or index < 1 or index > total:
            raise IndexOutOfRange(
                f"index {index!r} outside 1..{total}"
            )
    left = [v for i, v in enumerate(masks.vectors, start=1) if i in chosen]
    right = [v for i, v in enumerate(masks.vectors, start=1) if i not in chosen]
    return combine(left, masks.params), combine(right, masks.params)
