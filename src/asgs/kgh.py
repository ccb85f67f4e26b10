"""Additive share algebra in the Karnin-Greene-Hellman style, over XOR.

Secrets, shares, masks, and one-time keys are all the same kind of value:
an l-bit string. A secret is recovered by XORing the shares of an
authorized set, which is the form the automatic protocols in
:mod:`asgs.protocol` work in. A vector is one packed unsigned int,
component 1 in the most significant bit, so adding or subtracting two
of them is a single ``^``. The protocol engine computes on the packed
ints themselves (:func:`to_ints`, :func:`from_ints`), and the owner's
split of a known secret is :func:`asgs.protocol.fast_share`. A result
is built from its int columns plus ``params`` and stores each column as
a tuple; its vector attributes are views built on first read and
cached. Vectors enter through one classmethod,
:meth:`AuthorizedShareSet.from_shares`. Constructors and readers check;
the engine builds its results with ``Frozen._of`` from columns that are
valid by construction (XORs of checked values, draws at the width),
which are not checked again. :func:`combine` takes its params from the
vectors it folds.
"""

from __future__ import annotations

import enum
import sys
from array import array
from functools import cached_property, partial, reduce
from operator import or_, xor
from typing import TYPE_CHECKING, Collection, Iterable, Sequence

if TYPE_CHECKING:
    from asgs.devices import RandSource


class AsgsError(Exception):
    """Base class for every error raised by this package."""


class MixedParams(AsgsError):
    """Vectors of different widths (``SchemeParams``) cannot be combined."""


class IndexOutOfRange(AsgsError):
    """A 1-based element index fell outside the addressed collection."""


# Widest vector dimension (bit width) any scheme accepts: far above the
# widths in use (at most 4096), far below what would exhaust memory.
MAX_DIMENSION = 1 << 16

# The width of a run that names none (a CLI command without input
# documents or ``--bits``, ``SchemeParams.binary()``, ``ProtocolEnv.seeded``).
DEFAULT_BITS = 128

# Widths up to LANE_BITS travel as packed 32-bit lanes: a column of n
# such ints is one int of n lanes, value i in bits 32i..32i+31, so an
# XOR fold over the column is a few big-int operations instead
# of one Python-level step per value. ``array("I")`` is 32 bits wide on
# every platform CPython supports; it packs in the host's byte order,
# which no fold depends on.
LANE_BITS = 32


def fold_lanes(packed: int, lanes: int) -> int:
    """XOR the ``lanes`` 32-bit lanes of ``packed`` into one, by halving:
    the low half of the lanes with the high half, until one lane is left."""
    while lanes > 1:
        lanes = (lanes + 1) >> 1
        shift = lanes << 5
        packed = (packed & ((1 << shift) - 1)) ^ (packed >> shift)
    return packed


def xor_lanes(values: Collection[int], start: int) -> int:
    """``start`` XOR every value of a column of ints in ``0..2^32 - 1``,
    packed with ``array("I")`` and folded as lanes. Another value makes
    ``array`` raise, so a column that has not been range-checked goes
    through :func:`check_ints` first."""
    return start ^ fold_lanes(int.from_bytes(array("I", values), sys.byteorder), len(values))


# A wide column folds in one C-level ``reduce(xor, values, start)`` call.
_xor_reduce = partial(reduce, xor)


class Frozen:
    """Base of the immutable value types.

    A subclass names its fields, ``class T(Frozen, fields=("a", "b"))``.
    ``Frozen.__init__`` is the one store: it takes the field values in
    order and writes each, and their tuple as ``_values``, through
    ``self.__dict__``, since assigning or deleting an attribute raises
    :class:`dataclasses.FrozenInstanceError`; a checking subclass ends
    its ``__init__`` with it. Instances are equal when they are of one
    class with equal ``_values``, hash by them, and print as
    ``T(a=..., b=...)``. The engine builds its results with :meth:`_of`
    from columns that are valid by construction.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, fields: tuple[str, ...] = (), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if fields:
            cls._fields = fields

    def __init__(self, *values) -> None:
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__qualname__} takes {fields}, got {values!r}")
        self.__dict__.update(zip(fields, values), _values=values)

    @classmethod
    def _of(cls, *values):
        """An instance from its field values in ``_fields`` order, unchecked,
        for a type that stores its fields and nothing else."""
        self = object.__new__(cls)
        self.__dict__.update(zip(cls._fields, values), _values=values)
        return self

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class SchemeParams(Frozen, fields=("dimension",)):
    """Algebra parameters: the bit width of every vector.

    Vectors behave like l-bit strings under XOR, with l = ``dimension``
    an int in ``1..MAX_DIMENSION``. ``xor_ints(values, start)`` is the
    fold of an int column that fits the width: ``start`` XOR every
    value. Up to ``LANE_BITS`` bits it is :func:`xor_lanes`, above that
    ``reduce(xor, values, start)`` itself, so a wide fold adds no Python
    call; it is picked here, once per params object.
    """

    def __init__(self, dimension: int) -> None:
        if type(dimension) is not int:
            raise ValueError(f"dimension must be an int, got {dimension!r}")
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        if dimension > MAX_DIMENSION:
            raise ValueError(f"dimension must be <= {MAX_DIMENSION}, got {dimension}")
        super().__init__(dimension)
        self.__dict__["xor_ints"] = xor_lanes if dimension <= LANE_BITS else _xor_reduce

    @classmethod
    def binary(cls, bits: int = DEFAULT_BITS) -> SchemeParams:
        """Parameters for bit-string vectors of the given width: one
        object per width, so one run's values share it."""
        if type(bits) is not int or bits not in _BINARY:
            _BINARY[bits] = cls(bits)  # raises unless bits is a valid int
        return _BINARY[bits]


_BINARY: dict[int, SchemeParams] = {}


class ShareVector(Frozen):
    """One l-bit vector, the unit every protocol value is made of.

    It is one unsigned int ``value`` of ``dimension`` bits with
    component 1 in the most significant bit, so ``+`` and ``-`` are a
    single XOR. Inputs are validated where they enter (the constructor
    and :meth:`from_int`); results of arithmetic on valid vectors are not
    checked again. Vectors are immutable, hashable, and equal exactly
    when their params and bits are. Unlike the other value types it is
    slotted, with its own ``__eq__`` and ``__hash__``: as a dict-backed
    ``Frozen`` one unchecked build took about 980 ns instead of 340 ns
    (2-core Xeon, Python 3.11.7), paid for every vector handed out.
    """

    __slots__ = ("params", "_data")

    def __init__(self, params: SchemeParams, value: int) -> None:
        width = params.dimension
        if value < 0 or value >> width:
            raise ValueError(f"value {value:#x} does not fit in {width} bits")
        _set_params(self, params)
        _set_data(self, value)

    @classmethod
    def zero(cls, params: SchemeParams) -> ShareVector:
        return _vector(params, 0)

    @classmethod
    def from_int(cls, params: SchemeParams, value: int) -> ShareVector:
        """Wrap an unsigned integer as a vector: component 1 is the most
        significant bit of ``value`` at the declared width."""
        width = params.dimension
        if value < 0 or value >> width:
            raise ValueError(f"value {value:#x} does not fit in {width} bits")
        return _vector(params, value)

    def to_int(self) -> int:
        """The packed unsigned integer, component 1 first."""
        return self._data

    def is_zero(self) -> bool:
        return not self._data

    def __add__(self, other: ShareVector) -> ShareVector:
        if not isinstance(other, ShareVector):
            return NotImplemented
        if other.params is not self.params and other.params != self.params:
            raise MixedParams(f"cannot mix vectors under {self.params} and {other.params}")
        return _vector(self.params, self._data ^ other._data)

    # Every vector is its own inverse under XOR.
    __sub__ = __add__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShareVector):
            return NotImplemented
        return self._data == other._data and self.params == other.params

    def __hash__(self) -> int:
        return hash((self.params, self._data))

    def __repr__(self) -> str:
        return f"ShareVector(params={self.params!r}, value={self._data:#x})"

    def __reduce__(self):
        return ShareVector, (self.params, self._data)


# The slot descriptors' setters write the two fields past the frozen
# ``__setattr__``; every vector is built through them.
_set_params = ShareVector.params.__set__
_set_data = ShareVector._data.__set__


def _vector(params: SchemeParams, data: int) -> ShareVector:
    """Build a vector from an int that already fits the width, unchecked."""
    vector = object.__new__(ShareVector)
    _set_params(vector, params)
    _set_data(vector, data)
    return vector


def to_ints(vectors: Iterable[ShareVector]) -> list[int]:
    """The packed ints of vectors whose params the caller checked."""
    return [vector._data for vector in vectors]


def from_ints(params: SchemeParams, values: Iterable[int]) -> tuple[ShareVector, ...]:
    """Wrap packed ints that already fit the width, unchecked."""
    return tuple(map(partial(_vector, params), values))


def vector_params(vectors: Sequence[ShareVector]) -> SchemeParams:
    """The params of a non-empty column of vectors; raises on mixed params.

    ``list.count`` tries identity before ``==``, so a column whose vectors
    share one params object, as one run's do, costs no Python call.
    """
    if not vectors:
        raise ValueError("need at least one vector to infer params")
    params = vectors[0].params
    if [vector.params for vector in vectors].count(params) != len(vectors):
        raise MixedParams(f"a column mixes vectors under {params} with other params")
    return params


def check_ints(values: Collection[int], params: SchemeParams, what: str) -> None:
    """Reject an empty int column, or one holding a value outside
    ``0..2^l - 1``: the OR of the column, shifted right by l, must be 0.
    A negative value makes the OR negative, and a value that is not an
    int (a float) makes ``|`` raise ``TypeError``; a bool is an int.
    """
    if not values:
        raise ValueError(f"{what} must not be empty")
    width = params.dimension
    if reduce(or_, values, 0) >> width:
        raise ValueError(f"{what} holds a value that does not fit in {width} bits")


def vector_view(column: str) -> cached_property:
    """A result type's vector view of its int column ``column``, cached."""
    return cached_property(lambda result: from_ints(result.params, getattr(result, column)))


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


class AuthorizedShareSet(Frozen, fields=("role", "ints", "params")):
    """An ordered set of shares that jointly recover one secret, held as
    a tuple of packed ints; ``shares`` is their vector view."""

    def __init__(self, role: SetRole, ints: Iterable[int], params: SchemeParams) -> None:
        ints = tuple(ints)
        check_ints(ints, params, "an authorized set")
        super().__init__(role, ints, params)

    @classmethod
    def from_shares(
        cls, role: SetRole, shares: Iterable[ShareVector]
    ) -> AuthorizedShareSet:
        shares = tuple(shares)
        return cls(role, to_ints(shares), vector_params(shares))

    shares = vector_view("ints")

    def __len__(self) -> int:
        return len(self.ints)


class MaskSet(Frozen, fields=("ints", "params")):
    """An ordered set of vectors whose group sum is the zero vector, held
    as a tuple of packed ints; ``vectors`` is their vector view."""

    def __init__(self, ints: Iterable[int], params: SchemeParams) -> None:
        ints = tuple(ints)
        check_ints(ints, params, "a mask set")
        if params.xor_ints(ints, 0):
            raise ValueError("mask set elements must combine to the zero vector")
        super().__init__(ints, params)

    vectors = vector_view("ints")

    def __len__(self) -> int:
        return len(self.ints)


def combine(shares: Iterable[ShareVector]) -> ShareVector:
    """The XOR of a non-empty run of vectors under one params; an empty
    run raises ``ValueError``, a mixed one :class:`MixedParams`."""
    shares = tuple(shares)
    params = vector_params(shares)
    return _vector(params, params.xor_ints(to_ints(shares), 0))


def mask_ints(count: int, rand: RandSource, params: SchemeParams) -> list[int]:
    """A fresh zero-sum mask set of the given cardinality, as packed ints.

    Mirrors the accumulator register protocol: reset, store count - 1
    random draws, and read the balancing element off the register:
    store is XOR, so the final read cancels everything stored so far.
    This is the one mask generator: every protocol operation draws its
    masks through it. The register is the balance that
    :meth:`RandSource.next_ints` appends to the draws; a seeded source
    folds it from the packed lanes it drew when the values have up to
    ``LANE_BITS`` bits, with no second pass over the list.
    """
    if count < 1:
        raise ValueError(f"mask set cardinality must be >= 1, got {count}")
    return rand.next_ints(params, count - 1, 0)


def generate_mask_set(
    count: int, rand: RandSource, params: SchemeParams
) -> MaskSet:
    """:func:`mask_ints` as a :class:`MaskSet`."""
    return MaskSet._of(tuple(mask_ints(count, rand, params)), params)


def check_zero_sum(masks: MaskSet) -> bool:
    """True when the mask set's elements combine to the zero vector, as
    its constructor requires; the engine builds mask sets unchecked
    (``MaskSet._of``). For a run of vectors: ``combine(vectors).is_zero()``."""
    return not masks.params.xor_ints(masks.ints, 0)


def partition_sums(
    masks: MaskSet, left_indices: Iterable[int]
) -> tuple[ShareVector, ShareVector]:
    """Combine the two halves of a mask set split by 1-based indices.

    Returns (left combination, right combination); either side may be
    empty. For any valid mask set the two results are equal, since the
    whole set cancels to zero.
    """
    chosen = set(left_indices)
    total = len(masks.ints)
    for index in chosen:
        if type(index) is not int or not 1 <= index <= total:
            raise IndexOutOfRange(f"index {index!r} outside 1..{total}")
    fold = masks.params.xor_ints
    left = fold([v for i, v in enumerate(masks.ints, start=1) if i in chosen], 0)
    right = fold([v for i, v in enumerate(masks.ints, start=1) if i not in chosen], 0)
    return _vector(masks.params, left), _vector(masks.params, right)
