"""Deterministic multi-party simulator for automatic secret generation
and sharing.

The modeled parties (a dealer, an owner, an automatic accumulator
device, and indexed share participants) exchange point-to-point messages
over assumed-secure channels, a whole round at a time: a deal of mask
elements, a relay of blinded shares, a release of keys. Every round
lands in the transcript as one record, optional tamper rules mutate
payloads in flight, and a visibility policy can audit a finished
transcript, round by round, for values that reached a party that must
never see them.

The engine plays all parties in program order, so a run is a pure
function of the environment: parameters, per-party randomness, tamper
rules, and the envelope assignment. Replaying an environment reproduces
the transcript bit for bit.

The engine computes on packed ints (see :class:`~asgs.kgh.ShareVector`)
from draw to delivery, and its results store them: each operation takes
and returns int columns, so a chain of operations builds no vector.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from itertools import accumulate, compress, repeat
from operator import attrgetter, itemgetter, not_, xor
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from asgs.devices import RandSource, derive_stream_seed
from asgs.kgh import (
    MAX_DIMENSION,
    AsgsError,
    AuthorizedShareSet,
    MaskSet,
    MixedParams,
    SchemeParams,
    SetRole,
    ShareVector,
    check_ints,
    from_ints,
    mask_ints,
    vector_view,
)

KEY_RETRY_LIMIT = 64

ROLE_DEALER = "dealer"
ROLE_OWNER = "owner"
ROLE_ACCUMULATOR = "accumulator"
ROLE_PARTICIPANT = "participant"

KIND_MASK_ELEMENT = "mask_element"
KIND_MASKED_SHARE = "masked_share"
KIND_DERIVED_SHARE = "derived_share"
KIND_SECRET = "secret"
KIND_OWNER_SHARE = "owner_share"
KIND_ENVELOPE_SHARE = "envelope_share"
KIND_KEY = "key"
KIND_KEY_REQUEST = "key_request"
KIND_IDENTIFICATION = "identification"

MESSAGE_KINDS = frozenset(
    {
        KIND_MASK_ELEMENT,
        KIND_MASKED_SHARE,
        KIND_DERIVED_SHARE,
        KIND_SECRET,
        KIND_OWNER_SHARE,
        KIND_ENVELOPE_SHARE,
        KIND_KEY,
        KIND_KEY_REQUEST,
        KIND_IDENTIFICATION,
    }
)

# Boolean-payload kinds; everything else carries a vector.
CONTROL_KINDS = frozenset({KIND_KEY_REQUEST, KIND_IDENTIFICATION})

# The roles that own a randomness source, in stream-derivation order.
SOURCE_ROLES = (ROLE_DEALER, ROLE_OWNER, ROLE_ACCUMULATOR)


class CardinalityMismatch(AsgsError):
    """A mask set or share set has the wrong cardinality for the operation."""


class InvalidTarget(AsgsError):
    """The requested target cardinality is not reachable by this operation."""


class KeyRegenerationExhausted(AsgsError):
    """The zero-sum guard rejected the drawn keys too many times in a row."""


class IdentificationFailed(AsgsError):
    """One or more participants failed identification during activation.

    ``pending`` lists the participant indices whose shares stayed
    unactivated; ``activated`` maps the indices that did succeed to
    their activated shares.
    """

    def __init__(self, pending: Sequence[int], activated: Mapping[int, ShareVector]):
        self.pending = tuple(pending)
        self.activated = dict(activated)
        super().__init__(
            f"identification failed for participants {list(self.pending)}; "
            "their shares remain unactivated"
        )


@dataclass(frozen=True)
class Party:
    """One modeled protocol party; participants carry a set tag and index.

    The role is a ``ROLE_*`` name and a set tag non-empty ASCII
    ``[0-9A-Za-z]``, so labels are ASCII words JSON writes unescaped.
    ``key`` is the policy lookup key: the role, refined by set tag for
    participants. It and the label are built once, at construction,
    because the audit, the encoder and tamper matching read them per
    message; they take no part in equality or hashing.
    """

    role: str
    set_tag: str | None = None
    index: int | None = None
    key: str = field(init=False, repr=False, compare=False)
    _label: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.role == ROLE_PARTICIPANT:
            tag = self.set_tag
            if not (isinstance(tag, str) and tag.isascii() and tag.isalnum()):
                raise ValueError(f"set tag must be non-empty ASCII [0-9A-Za-z], got {tag!r}")
            if self.index is None or self.index < 1:
                raise ValueError("participants need a set tag and a 1-based index")
            key, label = f"participant:{self.set_tag}", f"p{self.set_tag}-{self.index}"
        elif self.role not in (ROLE_DEALER, ROLE_OWNER, ROLE_ACCUMULATOR):
            raise ValueError(f"unknown role {self.role!r}")
        elif self.set_tag is not None or self.index is not None:
            raise ValueError(f"{self.role} carries no set tag or index")
        else:
            key = label = self.role
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_label", label)

    def label(self) -> str:
        """Compact document form: dealer | owner | accumulator | p<set>-<index>."""
        return self._label


DEALER = Party(ROLE_DEALER)
OWNER = Party(ROLE_OWNER)
ACCUMULATOR = Party(ROLE_ACCUMULATOR)


_ROLE_PARTIES = {party.role: party for party in (DEALER, OWNER, ACCUMULATOR)}


@functools.cache
def participant(set_tag: str, index: int) -> Party:
    """The participant ``index`` of set ``set_tag``, built once per process.

    Every message to or from a participant names one, so equal arguments
    return the same object. A rejected index raises on every call, since
    the cache keeps only results.
    """
    return Party(ROLE_PARTICIPANT, set_tag, index)


def parse_party(label: str) -> Party:
    """Inverse of :meth:`Party.label`: accepts exactly the labels it
    prints, so ``p1-03`` and non-ASCII digits are rejected."""
    if label in _ROLE_PARTIES:
        return _ROLE_PARTIES[label]
    if label.startswith("p") and "-" in label:
        tag, _, index_text = label[1:].partition("-")
        if tag.isascii() and tag.isalnum() and index_text.isdigit():
            party = participant(tag, int(index_text))
            if party.label() == label:
                return party
    raise ValueError(f"unrecognized party label {label!r}")


class Message:
    """One delivered payload. ``element_index`` records, for mask and
    share deliveries, which 1-based element the payload is.

    It is the per-message view of a :class:`Transcript` row. Two
    messages are equal when all their fields are; a message is never
    equal to a tuple and cannot be indexed.
    """

    __slots__ = ("seq", "sender", "recipient", "kind", "payload", "element_index")

    def __init__(
        self,
        seq: int,
        sender: Party,
        recipient: Party,
        kind: str,
        payload: ShareVector | bool,
        element_index: int | None = None,
    ) -> None:
        self.seq = seq
        self.sender = sender
        self.recipient = recipient
        self.kind = kind
        self.payload = payload
        self.element_index = element_index

    def _astuple(self) -> tuple:
        return (self.seq, self.sender, self.recipient, self.kind, self.payload,
                self.element_index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Message):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"Message({fields})"


# The sequence types a round column may take; any other value is one
# value for every row.
_ROW_TYPES = (list, tuple, range)


def _column(values, count: int) -> Sequence:
    """A round column of ``count`` rows, as a sequence."""
    return values if type(values) in _ROW_TYPES else [values] * count


def _rows(values, count: int) -> Iterable:
    """A round column of ``count`` rows, to iterate once."""
    return values if type(values) in _ROW_TYPES else repeat(values, count)


def _row_view(field_index: int) -> property:
    def column(self: Transcript) -> list:
        rows: list = []
        for record in self.rounds:
            rows += _rows(record[field_index], len(record[0]))
        return rows
    return property(column, doc="A fresh list of this field, one value per row.")


class Transcript:
    """Ordered record of every delivered message plus the environment
    summary that produced it.

    A log of rounds: ``rounds`` holds one ``(seqs, senders, recipients,
    kinds, payloads, element_indices)`` record per round sent, in order.
    ``seqs`` is a sequence of ints (a ``range`` for a round the engine
    sent), ``payloads`` a tuple or list with one value per row (packed
    ints under ``params``, bools for control kinds), and each other
    column is one value for every row or a list, tuple or range with one
    per row, as :meth:`ProtocolEnv.deliver_round` takes them. The
    readers (the writer in :mod:`asgs.formats`, :func:`check_visibility`)
    read the rounds; the row views (``seqs``, ``senders``, ...) build a
    fresh list per read, for tests and scripts.

    ``params`` is the one given, else the binary params of a valid
    config ``bits`` (so the written document's width matches its
    payloads), else those of the first vector appended. Iteration and
    :meth:`append` use :class:`Message` values.
    """

    def __init__(self, config: Mapping | None = None, params: SchemeParams | None = None):
        self.config: dict = dict(config or {})
        if params is None:
            bits = self.config.get("bits")
            if type(bits) is int and 1 <= bits <= MAX_DIMENSION:
                params = SchemeParams.binary(bits)
        self.params = params
        self.rounds: list[tuple] = []
        self._length = 0

    seqs = _row_view(0)
    senders = _row_view(1)
    recipients = _row_view(2)
    kinds = _row_view(3)
    payloads = _row_view(4)
    element_indices = _row_view(5)

    def record(
        self,
        seqs: Sequence[int],
        senders: Party | Sequence[Party],
        recipients: Party | Sequence[Party],
        kinds: str | Sequence[str],
        payloads: Sequence[int | bool],
        element_indices: int | None | Sequence[int | None],
    ) -> None:
        """Log one round as given: the caller must not change its
        sequences afterwards."""
        self.rounds.append((seqs, senders, recipients, kinds, payloads, element_indices))
        self._length += len(seqs)

    def append(self, message: Message) -> None:
        """Record ``message`` as a one-row round."""
        payload = message.payload
        if type(payload) is not bool:
            params = payload.params
            if self.params is not None and params is not self.params and params != self.params:
                raise MixedParams(
                    f"transcript holds payloads under {self.params}, got one under {params}"
                )
            payload = payload.to_int()
            self.params = self.params or params
        self.record((message.seq,), message.sender, message.recipient, message.kind,
                    (payload,), message.element_index)

    def __iter__(self) -> Iterator[Message]:
        params = self.params
        for seqs, senders, recipients, kinds, payloads, element_indices in self.rounds:
            count = len(seqs)
            for seq, sender, recipient, kind, payload, element_index in zip(
                seqs, _rows(senders, count), _rows(recipients, count), _rows(kinds, count),
                payloads, _rows(element_indices, count),
            ):
                if type(payload) is not bool:
                    payload = ShareVector.from_int(params, payload)
                yield Message(seq, sender, recipient, kind, payload, element_index)

    def __len__(self) -> int:
        return self._length


@dataclass(frozen=True)
class TamperRule:
    """Flip one bit of the occurrence-th ``kind`` message sent by ``party``.

    ``party`` is a party label as produced by :meth:`Party.label`;
    ``occurrence`` counts that party's messages of that kind from 1.
    :class:`ProtocolEnv` checks the bit against its payload width.
    """

    party: str
    kind: str
    occurrence: int
    bit: int

    def __post_init__(self) -> None:
        parse_party(self.party)
        if self.kind not in MESSAGE_KINDS:
            raise ValueError(f"unknown message kind {self.kind!r}")
        if self.occurrence < 1:
            raise ValueError("occurrence counts from 1")
        if self.bit < 0:
            raise ValueError("bit index must be >= 0")

    def spec(self) -> str:
        return f"{self.party}:{self.kind}:{self.occurrence}:bit:{self.bit}"


# ---------------------------------------------------------------------------
# Visibility auditing
# ---------------------------------------------------------------------------

CLASS_SECRET = "secret"
CLASS_OWNER_SHARE = "owner_share"
CLASS_PROTECTED_SHARE = "protected_share"
CLASS_DERIVED_SHARE = "derived_share"
CLASS_KEY = "key"
CLASS_SEALED_MASK = "sealed_mask"
CLASS_MASKED_SHARE = "masked_share"
CLASS_MASK_OWN = "mask_own"
CLASS_MASK_FOREIGN = "mask_foreign"
CLASS_CONTROL = "control"


_KIND_CLASSES = {
    KIND_SECRET: CLASS_SECRET,
    KIND_OWNER_SHARE: CLASS_OWNER_SHARE,
    KIND_ENVELOPE_SHARE: CLASS_PROTECTED_SHARE,
    KIND_DERIVED_SHARE: CLASS_DERIVED_SHARE,
    KIND_KEY: CLASS_KEY,
}

# Value class -> the kinds whose messages can have it (see _value_class),
# for every class but control, which every other kind has.
_CLASS_KINDS = {
    CLASS_SEALED_MASK: (KIND_MASKED_SHARE,),
    CLASS_MASKED_SHARE: (KIND_MASKED_SHARE,),
    CLASS_MASK_OWN: (KIND_MASK_ELEMENT,),
    CLASS_MASK_FOREIGN: (KIND_MASK_ELEMENT,),
    **{value_class: (kind,) for kind, value_class in _KIND_CLASSES.items()},
}


def _value_class(
    kind: str, sender: Party, recipient: Party, element_index: int | None
) -> str:
    """The value class a delivered payload exposes, from the message's
    column values.

    Mask elements count as ``mask_own`` only when delivered to the
    participant whose 1-based index matches the recorded element index;
    every other mask delivery is foreign. A masked share from the dealer
    is a sealed mask (mask XOR key); from anyone else it is a share
    blinded by a mask.
    """
    if kind == KIND_MASKED_SHARE:
        return CLASS_SEALED_MASK if sender.role == ROLE_DEALER else CLASS_MASKED_SHARE
    if kind == KIND_MASK_ELEMENT:
        if (
            recipient.role == ROLE_PARTICIPANT
            and element_index is not None
            and element_index == recipient.index
        ):
            return CLASS_MASK_OWN
        return CLASS_MASK_FOREIGN
    return _KIND_CLASSES.get(kind, CLASS_CONTROL)


@dataclass(frozen=True)
class VisibilityPolicy:
    """Which (recipient, value class) pairs a transcript may contain.

    The table is total: any pair not in ``forbidden`` is permitted, so
    auditing never fails on an unknown kind.
    """

    forbidden: frozenset[tuple[str, str]]

    def permits(self, recipient_key: str, value_class: str) -> bool:
        return (recipient_key, value_class) not in self.forbidden

    @functools.cached_property
    def _flagged(self) -> dict[str, frozenset[str]] | None:
        """Kind -> the recipient keys whose rows of that kind can have a
        forbidden class, or None when any row can: every unknown kind
        has class control."""
        if any(value_class == CLASS_CONTROL for _, value_class in self.forbidden):
            return None
        flagged: dict[str, set[str]] = {}
        for key, value_class in self.forbidden:
            for kind in _CLASS_KINDS.get(value_class, ()):
                flagged.setdefault(kind, set()).add(key)
        return {kind: frozenset(keys) for kind, keys in flagged.items()}

    @functools.cached_property
    def _flagged_pairs(self) -> frozenset[tuple[str, str]]:
        """:attr:`_flagged` as (recipient key, kind) pairs."""
        return frozenset((key, kind) for kind, keys in self._flagged.items() for key in keys)


@functools.cache
def default_visibility_policy() -> VisibilityPolicy:
    """The confidentiality contract of the honest protocols.

    - the dealer never receives the secret, an owner share, or a
      protected share;
    - the owner never receives a mask element or a bare key;
    - a master-set participant never receives a derived share or a
      mask element other than its own.

    Built once per process; a policy is immutable.
    """
    return VisibilityPolicy(
        frozenset(
            {
                (ROLE_DEALER, CLASS_SECRET),
                (ROLE_DEALER, CLASS_OWNER_SHARE),
                (ROLE_DEALER, CLASS_PROTECTED_SHARE),
                (ROLE_OWNER, CLASS_MASK_OWN),
                (ROLE_OWNER, CLASS_MASK_FOREIGN),
                (ROLE_OWNER, CLASS_KEY),
                ("participant:2", CLASS_MASK_FOREIGN),
                ("participant:2", CLASS_DERIVED_SHARE),
            }
        )
    )


@dataclass(frozen=True)
class Violation:
    """One forbidden delivery found by a visibility audit."""

    seq: int
    recipient: str
    value_class: str
    kind: str


_key = attrgetter("key")
_NO_KEYS: frozenset[str] = frozenset()


def check_visibility(
    transcript: Transcript, policy: VisibilityPolicy | None = None
) -> list[Violation]:
    """Audit a transcript against a visibility policy.

    Returns one violation per message whose recipient is not permitted
    to see the message's value class; an honest run yields none.
    """
    policy = policy or default_visibility_policy()
    permits = policy.permits
    flagged = policy._flagged
    found = []
    for seqs, senders, recipients, kinds, _, element_indices in transcript.rounds:
        count = len(seqs)
        selectors: Iterable[bool] | None = None
        # Only the rows that can have a forbidden class are classified;
        # a round is skipped when no kind of it flags any recipient.
        if flagged is None:
            pass
        elif type(kinds) in _ROW_TYPES:
            keys = _NO_KEYS.union(*map(flagged.get, set(kinds), repeat(_NO_KEYS)))
            if type(recipients) in _ROW_TYPES:
                if keys.isdisjoint(map(_key, recipients)):
                    continue
            elif recipients.key not in keys:
                continue
            selectors = map(policy._flagged_pairs.__contains__,
                            zip(map(_key, _rows(recipients, count)), kinds))
        elif type(recipients) in _ROW_TYPES:
            keys = flagged.get(kinds, _NO_KEYS)
            if keys.isdisjoint(map(_key, recipients)):
                continue
            selectors = map(keys.__contains__, map(_key, recipients))
        elif recipients.key not in flagged.get(kinds, _NO_KEYS):
            continue
        rows: Iterable = zip(seqs, _rows(senders, count), _rows(recipients, count),
                             _rows(kinds, count), _rows(element_indices, count))
        if selectors is not None:
            rows = compress(rows, selectors)
        for seq, sender, recipient, kind, element_index in rows:
            value_class = _value_class(kind, sender, recipient, element_index)
            if not permits(recipient.key, value_class):
                found.append(Violation(seq, recipient.label(), value_class, kind))
    return found


# ---------------------------------------------------------------------------
# Protocol environment
# ---------------------------------------------------------------------------


class ProtocolEnv:
    """Everything one protocol run depends on.

    Holds the binary algebra parameters, one randomness source per
    randomness-owning role, the tamper rules, the identification
    predicate for activation, the envelope-assignment control, and the
    transcript under construction.

    The transcript ``config`` summarises the run and is built here, once:
    ``bits`` from ``params``, ``randomness`` as given (``{"mode":
    "seeded", "seed": ...}`` or ``{"mode": "fixture", "parties":
    [...]}``), ``tamper`` as the spec of each rule, and then the entries
    of ``config``, which are merged last.
    """

    def __init__(
        self,
        params: SchemeParams,
        sources: Mapping[str, RandSource],
        randomness: Mapping,
        *,
        tamper_rules: Iterable[TamperRule] = (),
        assignment: Sequence[int] | None = None,
        assignment_rng: random.Random | int | None = None,
        identify: Callable[[int], bool] | None = None,
        config: Mapping | None = None,
    ) -> None:
        self.params = params
        self._sources = dict(sources)
        self.tamper_rules = tuple(tamper_rules)
        # The rules by the (sender label, kind) they count, each with the
        # mask that flips its bit (True keeps a control payload a bool).
        self._tamper_groups: dict[tuple[str, str], list[tuple[TamperRule, int]]] = {}
        for rule in self.tamper_rules:
            control = rule.kind in CONTROL_KINDS
            width = 1 if control else params.dimension
            if rule.bit >= width:
                raise ValueError(
                    f"tamper rule {rule.spec()}: bit index {rule.bit} outside 0..{width - 1}"
                )
            mask = True if control else 1 << rule.bit
            self._tamper_groups.setdefault((rule.party, rule.kind), []).append((rule, mask))
        self._tamper_counts = dict.fromkeys(self._tamper_groups, 0)
        # (rule, seq of the message it flipped), in seq order. Kept out
        # of the transcript so its bytes do not depend on it.
        self.tamper_fired: list[tuple[TamperRule, int]] = []
        self._fixed_assignment = tuple(assignment) if assignment is not None else None
        self._assignment_rng = assignment_rng
        self.identify = identify
        self.transcript = Transcript(
            {
                "bits": params.dimension,
                "randomness": randomness,
                "tamper": [rule.spec() for rule in self.tamper_rules],
                **(config or {}),
            },
            params=params,
        )

    @classmethod
    def seeded(
        cls, seed: int, bits: int = 128, *, tamper_rules: Iterable[TamperRule] = ()
    ) -> ProtocolEnv:
        """Derive every party's stream from one 64-bit run seed. Each
        generator is seeded at its first draw."""
        sources = {
            role: RandSource.seeded(derive_stream_seed(seed, role)) for role in SOURCE_ROLES
        }
        return cls(
            SchemeParams.binary(bits),
            sources,
            {"mode": "seeded", "seed": seed},
            tamper_rules=tamper_rules,
            assignment_rng=derive_stream_seed(seed, "assignment"),
        )

    @classmethod
    def with_fixtures(
        cls,
        params: SchemeParams,
        *,
        dealer: Iterable[ShareVector] | None = None,
        owner: Iterable[ShareVector] | None = None,
        accumulator: Iterable[ShareVector] | None = None,
        assignment: Sequence[int] | None = None,
        tamper_rules: Iterable[TamperRule] = (),
        identify: Callable[[int], bool] | None = None,
        config: Mapping | None = None,
    ) -> ProtocolEnv:
        """Replay prepared vectors; the envelope assignment defaults to
        identity so fixture runs stay fully explicit."""
        streams = {ROLE_DEALER: dealer, ROLE_OWNER: owner, ROLE_ACCUMULATOR: accumulator}
        sources = {
            role: RandSource.fixture(values)
            for role, values in streams.items()
            if values is not None
        }
        return cls(
            params,
            sources,
            {"mode": "fixture", "parties": sorted(sources)},
            tamper_rules=tamper_rules,
            assignment=assignment,
            identify=identify,
            config=config,
        )

    def source(self, role: str) -> RandSource:
        try:
            return self._sources[role]
        except KeyError:
            raise ValueError(f"no randomness source configured for {role!r}") from None

    def note_operation(self, name: str, **args: object) -> None:
        entry: dict = {"algorithm": name}
        entry.update(args)
        self.transcript.config.setdefault("operations", []).append(entry)

    def draw_assignment(self, count: int) -> tuple[int, ...]:
        """Permutation of 1..count mapping original share index to the
        participant that receives the envelope.

        Seeded environments sample without replacement from the
        assignment stream (``assignment_rng``, a generator or the int
        seed of one, built here at the first draw); fixture environments
        use the explicit permutation, or identity when none was given.
        """
        rng = self._assignment_rng
        if rng is None:
            identity = tuple(range(1, count + 1))
            assignment = identity if self._fixed_assignment is None else self._fixed_assignment
            if sorted(assignment) != list(identity):
                raise ValueError(
                    f"assignment {assignment} is not a permutation of 1..{count}"
                )
            return assignment
        if isinstance(rng, int):
            rng = self._assignment_rng = random.Random(rng)
        remaining = list(range(1, count + 1))
        chosen = []
        for _ in range(count):
            chosen.append(remaining.pop(rng.randrange(len(remaining))))
        return tuple(chosen)

    def _tamper(
        self, senders: Party | Sequence[Party], kind: str, payloads: Sequence
    ) -> tuple[Sequence, Sequence[tuple[TamperRule, int]]]:
        """Apply the tamper rules to one column of ``kind`` rows, row i
        sent by sender i (``senders`` as :meth:`deliver_round` takes it).

        Returns the payloads as delivered (``payloads`` itself when no
        rule fires, else a flipped copy) and the ``(rule, row)`` pairs
        that fired; the caller passes them to :meth:`_note_fired` once
        it knows the seq of each row.
        """
        if not self._tamper_groups:
            return payloads, ()
        tampered, fired = payloads, []
        for (label, rule_kind), rules in self._tamper_groups.items():
            if rule_kind != kind:
                continue
            column = _column(senders, len(payloads))
            rows = [row for row, sender in enumerate(column) if sender.label() == label]
            seen = self._tamper_counts[label, kind]
            self._tamper_counts[label, kind] = seen + len(rows)
            for rule, mask in rules:
                if seen < rule.occurrence <= seen + len(rows):
                    row = rows[rule.occurrence - seen - 1]
                    if tampered is payloads:
                        tampered = list(payloads)
                    tampered[row] ^= mask
                    fired.append((rule, row))
        return tampered, fired

    def _note_fired(self, fired: Sequence[tuple[TamperRule, int]], seqs: Sequence[int]) -> None:
        """Record each fired ``(rule, row)`` with ``seqs[row]``."""
        self.tamper_fired += [(rule, seqs[row]) for rule, row in fired]
        # Stable, so two rules on one row stay in rule order.
        self.tamper_fired.sort(key=itemgetter(1))

    def deliver(
        self,
        sender: Party,
        recipient: Party,
        kind: str,
        payload: int | bool,
        element_index: int | None = None,
    ) -> int | bool:
        """Send one message as a one-row :meth:`deliver_round` and return
        its payload as delivered. No operation calls it: it stays for
        callers outside the engine, among them the benchmark's span list
        (``perfbench/spans.py``), which wraps it by name."""
        return self.deliver_round(sender, recipient, kind, [payload], element_index)[0]

    def deliver_round(
        self,
        senders: Party | Sequence[Party],
        recipients: Party | Sequence[Party],
        kind: str,
        payloads: Sequence[int],
        element_indices: int | Sequence[int] | None = None,
    ) -> Sequence[int]:
        """Send one round of ``kind`` messages: row i carries
        ``payloads[i]`` (a packed int, or a bool for a control kind) from
        sender i to recipient i with element index i.

        ``senders``, ``recipients`` and ``element_indices`` each take one
        value for every row (None: no element index) or a list, tuple or
        range with one per row. The round is tampered as one column and
        logged as one record, which keeps a tuple of the delivered
        payloads, so the caller may grow the list it gets back.
        Returns the payloads as delivered, ``payloads`` itself unless a
        rule fired; engine code must compute with them, never the
        original.
        """
        transcript = self.transcript
        first = transcript._length + 1
        seqs = range(first, first + len(payloads))
        payloads, fired = self._tamper(senders, kind, payloads)
        if fired:
            self._note_fired(fired, seqs)
        transcript.record(seqs, senders, recipients, kind, tuple(payloads), element_indices)
        return payloads

    def relay_round(
        self,
        senders: Party | Sequence[Party],
        relay: Party,
        kind: str,
        payloads: Sequence[int],
        recipients: Sequence[Party],
        forward_kind: str,
        operands: Sequence[int],
        forward_indices: Sequence[int],
    ) -> tuple[Sequence[int], list[int]]:
        """Send ``payloads`` to ``relay`` as ``kind`` messages; the relay
        forwards each of the first ``len(operands)`` values it received,
        XOR ``operands[i]``, to ``recipients[i]`` as a ``forward_kind``
        message with element index ``forward_indices[i]``, right after
        the message it came in on. ``senders`` takes the forms
        :meth:`deliver_round` takes.

        The inbound column is tampered first, so each forward carries the
        value the relay was delivered, then the forward column; the round
        is logged as one woven record. Both callers have ``kind !=
        forward_kind``, so the two columns' occurrence counts are
        independent.

        Returns the received and the forwarded payloads as delivered.
        """
        count, relayed = len(payloads), len(operands)
        transcript = self.transcript
        first = transcript._length + 1
        received, inbound_fired = self._tamper(senders, kind, payloads)
        forwarded = [value ^ operand for value, operand in zip(received, operands)]
        forwarded, forward_fired = self._tamper(relay, forward_kind, forwarded)
        seqs = range(first, first + count + relayed)
        if inbound_fired or forward_fired:
            # Inbound row i sits at 2i while it is relayed, then at
            # i + relayed; forward row i at 2i + 1.
            self._note_fired([(rule, 2 * row if row < relayed else row + relayed)
                              for rule, row in inbound_fired]
                             + [(rule, 2 * row + 1) for rule, row in forward_fired], seqs)
        transcript.record(
            seqs,
            _weave(senders, relay, count, relayed),
            _weave(relay, recipients, count, relayed),
            _weave(kind, forward_kind, count, relayed),
            _weave(received, forwarded, count, relayed),
            _weave(None, forward_indices, count, relayed),
        )
        return received, forwarded

    def activation_round(
        self, holders: Sequence[Party], claims: Sequence[bool], keys: Sequence[int]
    ) -> tuple[Sequence[bool], Sequence[int]]:
        """Send the activation round: for each i in order, the dealer's
        key request to ``holders[i]``, that holder's identification
        ``claims[i]`` to the dealer, and, when the identification
        arrived true, ``keys[i]`` to the holder with element index
        i + 1, logged as one woven record.

        The identification column is tampered first, because its
        delivered values decide which keys are sent, then the request
        column, then the column of the keys sent. Returns the
        identifications as delivered and the keys as delivered, one per
        identification that arrived true.
        """
        count = len(holders)
        passed, fired = self._tamper(holders, KIND_IDENTIFICATION, claims)
        requests, request_fired = self._tamper(DEALER, KIND_KEY_REQUEST, [True] * count)
        everyone = all(passed)
        served = range(count) if everyone else list(compress(range(count), passed))
        released, key_fired = self._tamper(
            DEALER, KIND_KEY, keys if everyone else [keys[i] for i in served]
        )
        # Three rows per index: request, identification, key.
        rows = 3 * count
        senders, recipients = [DEALER] * rows, [DEALER] * rows
        senders[1::3] = recipients[0::3] = recipients[2::3] = holders
        payloads = [None] * rows
        payloads[0::3], payloads[1::3] = requests, passed
        indices = [None] * rows
        indices[2::3] = range(1, count + 1)
        columns = [senders, recipients, [KIND_KEY_REQUEST, KIND_IDENTIFICATION, KIND_KEY] * count,
                   payloads, indices]
        position: Sequence[int] = range(rows)
        if everyone:
            payloads[2::3] = released
        else:
            # Drop the key rows of the identifications that arrived false.
            for index, key in zip(served, released):
                payloads[3 * index + 2] = key
            kept = [True] * rows
            kept[2::3] = passed
            columns = [list(compress(column, kept)) for column in columns]
            position = list(accumulate(kept, initial=0))
        first = self.transcript._length + 1
        seqs = range(first, first + len(columns[0]))
        if fired or request_fired or key_fired:
            # position[p] is where the row at 3-per-index position p landed.
            self._note_fired([(rule, position[3 * row]) for rule, row in request_fired]
                             + [(rule, position[3 * row + 1]) for rule, row in fired]
                             + [(rule, position[3 * served[row] + 2]) for rule, row in key_fired],
                             seqs)
        self.transcript.record(seqs, *columns)
        return passed, released


def _weave(inbound, forwarded, count: int, relayed: int) -> list:
    """A relay round's column: inbound rows ``0..relayed-1``, each
    followed by its forward, then inbound rows ``relayed..count-1``.
    A forwarded sequence holds exactly ``relayed`` rows."""
    inbound_rows = type(inbound) in _ROW_TYPES
    forwarded_rows = type(forwarded) in _ROW_TYPES
    column = [None if inbound_rows else inbound, None if forwarded_rows else forwarded] * relayed
    if inbound_rows:
        column[::2] = inbound[:relayed]
    if forwarded_rows:
        column[1::2] = forwarded
    if count > relayed:
        column += inbound[relayed:] if inbound_rows else [inbound] * (count - relayed)
    return column


@dataclass(frozen=True)
class SafeSharesState:
    """Outcome of pre-positioning: everything each party is left holding.

    ``protected`` (the vector view of ``protected_ints``) is ordered by
    participant index; ``assignment`` maps each original share index
    (1-based position) to the participant that received its envelope.
    The keys are the dealer's, ordered by original index.
    """

    params: SchemeParams
    protected_ints: tuple[int, ...]
    key_ints: tuple[int, ...]
    masks: MaskSet
    owner_share_ints: tuple[int, ...]
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        count = len(self.protected_ints)
        if not (
            len(self.key_ints) == len(self.masks) == len(self.owner_share_ints) == count
        ):
            raise ValueError("all per-share sequences must have equal length")
        if sorted(self.assignment) != list(range(1, count + 1)):
            raise ValueError("assignment must be a permutation of participant indices")
        if not functools.reduce(xor, self.key_ints, 0):
            raise ValueError("key set must not cancel to zero")
        for column in (self.protected_ints, self.key_ints, self.owner_share_ints):
            check_ints(column, self.params, "a safe-shares column")

    protected = vector_view("protected_ints")
    keys = vector_view("key_ints")
    owner_shares = vector_view("owner_share_ints")

    def protected_set(self) -> AuthorizedShareSet:
        return AuthorizedShareSet(SetRole.PROTECTED, self.protected_ints, self.params)


# ---------------------------------------------------------------------------
# Engine operations
# ---------------------------------------------------------------------------


def _check_params(env: ProtocolEnv, *items) -> None:
    """Every item is anything with ``.params``: a vector, share or mask
    set, safe-shares state, bulletin or key assignment."""
    for item in items:
        if item.params is not env.params and item.params != env.params:
            raise MixedParams(
                f"operation runs under {env.params}, got input under {item.params}"
            )


def _share_set(role: SetRole, params: SchemeParams, values: Iterable[int]) -> AuthorizedShareSet:
    return AuthorizedShareSet(role, tuple(values), params)


@functools.lru_cache(maxsize=32)
def _participants(tag: str, indices: range) -> tuple[Party, ...]:
    """The participants ``indices`` of set ``tag``, in order.

    Cached because the same (tag, range) recurs whenever operations run
    in one process: a chain of set generation, replications and pvss
    asks for the same ranges at each of its steps, and again in every
    chain of the same shape. A single CLI command gets no hits.
    """
    return tuple(map(participant, repeat(tag), indices))


def set_generate_m(
    template_count: int, master_count: int, env: ProtocolEnv
) -> tuple[AuthorizedShareSet, AuthorizedShareSet]:
    """Create two share sets of a fresh secret nobody has seen.

    The accumulator generates one zero-sum mask set covering both
    cardinalities and deals the first ``template_count`` elements to the
    template participants and the rest to the master participants. Both
    halves combine to the same value, which never exists as a single
    vector anywhere in the run.
    """
    if template_count < 1 or master_count < 1:
        raise ValueError("both set cardinalities must be >= 1")
    env.note_operation("set_generate_m", d=template_count, n=master_count)
    params = env.params
    masks = mask_ints(template_count + master_count, env.source(ROLE_ACCUMULATOR), params)
    templates = range(1, template_count + 1)
    masters = range(1, master_count + 1)
    shares = env.deliver_round(
        ACCUMULATOR,
        _participants(SetRole.TEMPLATE.value, templates)
        + _participants(SetRole.MASTER.value, masters),
        KIND_MASK_ELEMENT, masks, [*templates, *masters],
    )
    return (
        _share_set(SetRole.TEMPLATE, params, shares[:template_count]),
        _share_set(SetRole.MASTER, params, shares[template_count:]),
    )


def _replicate_rounds(
    masks: Sequence[int],
    shares: Sequence[int],
    env: ProtocolEnv,
    keep: int | None = None,
) -> tuple[list[int], list[int]]:
    """The two message rounds of replication: each of the n source
    holders blinds its share with its own mask element and hands it to
    the accumulator, which strips the first ``keep`` (default n) with
    element n + i on the way to the new holders.

    Returns the re-dealt shares and the blinded shares the accumulator
    received but did not re-deal.
    """
    n = len(shares)
    keep = n if keep is None else keep
    indices = range(1, n + 1)
    holders = _participants(SetRole.MASTER.value, indices)
    dealt = env.deliver_round(ACCUMULATOR, holders, KIND_MASK_ELEMENT, masks[:n], indices)
    received, derived = env.relay_round(
        holders, ACCUMULATOR, KIND_MASKED_SHARE,
        [share ^ mask for share, mask in zip(shares, dealt)],
        _participants(SetRole.DERIVED.value, indices[:keep]), KIND_DERIVED_SHARE,
        masks[n:n + keep], indices[:keep],
    )
    return derived, received[keep:]


def set_replicate(
    masks: MaskSet, master: AuthorizedShareSet, env: ProtocolEnv
) -> AuthorizedShareSet:
    """Replicate a share set into a fresh equal-size set using the given
    zero-sum mask set of twice its cardinality."""
    _check_params(env, masks, master)
    n = len(master)
    if len(masks) != 2 * n:
        raise CardinalityMismatch(
            f"replication over {n} shares needs 2n = {2 * n} mask elements, "
            f"got {len(masks)}"
        )
    env.note_operation("set_replicate", n=n)
    derived, _ = _replicate_rounds(masks.ints, master.ints, env)
    return _share_set(SetRole.DERIVED, env.params, derived)


def equal_set_replicate(
    master: AuthorizedShareSet, env: ProtocolEnv
) -> AuthorizedShareSet:
    """Replicate a share set into a fresh set of the same cardinality."""
    _check_params(env, master)
    n = len(master)
    env.note_operation("equal_set_replicate", n=n)
    masks = mask_ints(2 * n, env.source(ROLE_ACCUMULATOR), env.params)
    derived, _ = _replicate_rounds(masks, master.ints, env)
    return _share_set(SetRole.DERIVED, env.params, derived)


def set_replicate_to_bigger(
    master: AuthorizedShareSet, target_count: int, env: ProtocolEnv
) -> AuthorizedShareSet:
    """Replicate a share set into a strictly larger one.

    The first n derived shares come from the usual two rounds; each
    extra holder receives an unused balancing mask element directly,
    which keeps the combination unchanged because the whole mask set
    cancels.
    """
    _check_params(env, master)
    n = len(master)
    if target_count <= n:
        raise InvalidTarget(
            f"target cardinality {target_count} must exceed source cardinality {n}"
        )
    env.note_operation("set_replicate_to_bigger", n=n, d=target_count)
    masks = mask_ints(target_count + n, env.source(ROLE_ACCUMULATOR), env.params)
    derived, _ = _replicate_rounds(masks, master.ints, env)
    extra = range(n + 1, target_count + 1)
    derived += env.deliver_round(
        ACCUMULATOR, _participants(SetRole.DERIVED.value, extra), KIND_DERIVED_SHARE,
        masks[2 * n:], extra,
    )
    return _share_set(SetRole.DERIVED, env.params, derived)


def set_replicate_to_smaller(
    master: AuthorizedShareSet, target_count: int, env: ProtocolEnv
) -> AuthorizedShareSet:
    """Replicate a share set into a strictly smaller (nonempty) one.

    The first target_count - 1 derived shares are produced as usual;
    the accumulator combines the blinded remainder of the source set
    into the single last share.
    """
    _check_params(env, master)
    n = len(master)
    if target_count < 1 or target_count >= n:
        raise InvalidTarget(
            f"target cardinality {target_count} must lie in 1..{n - 1}"
        )
    env.note_operation("set_replicate_to_smaller", n=n, d=target_count)
    masks = mask_ints(n + target_count - 1, env.source(ROLE_ACCUMULATOR), env.params)
    derived, rest = _replicate_rounds(
        masks, master.ints, env, keep=target_count - 1
    )
    derived += env.deliver_round(
        ACCUMULATOR, participant(SetRole.DERIVED.value, target_count), KIND_DERIVED_SHARE,
        [functools.reduce(xor, rest, 0)], target_count,
    )
    return _share_set(SetRole.DERIVED, env.params, derived)


def _fast_share_rounds(secret: int, count: int, env: ProtocolEnv) -> list[int]:
    """The owner's split as messages to the accumulator.

    Unlike :func:`asgs.kgh.kgh_split`, the last share is read off the
    register from the *delivered* values, which tamper rules may have
    changed; ``kgh_split`` sends nothing, so it has nothing to tamper.
    """
    shares = env.source(ROLE_OWNER).next_ints(env.params, count - 1)
    delivered = env.deliver_round(OWNER, ACCUMULATOR, KIND_OWNER_SHARE, shares, range(1, count))
    register = functools.reduce(xor, delivered, 0)
    shares.append(register ^ env.deliver_round(OWNER, ACCUMULATOR, KIND_SECRET, [secret])[0])
    return shares


def fast_share(
    secret: ShareVector, count: int, env: ProtocolEnv
) -> AuthorizedShareSet:
    """Split an owner-supplied secret into ``count`` shares on the register.

    count - 1 shares are drawn at random; the last is read off the
    register after the secret is folded in, so the set combines back to
    the secret while any proper subset stays uniform.
    """
    if count < 1:
        raise ValueError(f"share count must be >= 1, got {count}")
    _check_params(env, secret)
    env.note_operation("fast_share", n=count)
    return _share_set(
        SetRole.OWNER, env.params, _fast_share_rounds(secret.to_int(), count, env)
    )


def safe_shares(
    secret: ShareVector, count: int, env: ProtocolEnv
) -> SafeSharesState:
    """Pre-position a secret: distribute masked shares that are useless
    until activation keys are released.

    The dealer generates a mask set and a key set (guarded so the keys
    never cancel to zero), the owner splits the secret, and each
    participant receives one protected share through an anonymising
    envelope assignment. Nobody ends up with both a protected share and
    its key, and the protected set combines to the secret XOR the key
    sum, never the secret itself.
    """
    if count < 1:
        raise ValueError(f"share count must be >= 1, got {count}")
    _check_params(env, secret)
    env.note_operation("safe_shares", n=count)
    params = env.params
    dealer_source = env.source(ROLE_DEALER)
    masks = mask_ints(count, dealer_source, params)
    owner_shares = _fast_share_rounds(secret.to_int(), count, env)
    assignment = env.draw_assignment(count)
    # Deliveries draw nothing, so every key can be drawn first.
    keys = dealer_source.next_ints(params, count - 1)
    register = functools.reduce(xor, keys, 0)
    for _ in range(KEY_RETRY_LIMIT):
        key = dealer_source.next_int(params)
        if register ^ key:
            break
    else:
        raise KeyRegenerationExhausted(
            f"zero-sum guard rejected {KEY_RETRY_LIMIT} key draws in a row"
        )
    keys.append(key)
    protected_tag = SetRole.PROTECTED.value
    _, envelopes = env.relay_round(
        DEALER, OWNER, KIND_MASKED_SHARE, [mask ^ key for mask, key in zip(masks, keys)],
        [participant(protected_tag, target) for target in assignment], KIND_ENVELOPE_SHARE,
        owner_shares, assignment,
    )
    protected = [0] * count
    for target, envelope in zip(assignment, envelopes):
        protected[target - 1] = envelope
    return SafeSharesState(
        params=params,
        protected_ints=tuple(protected),
        key_ints=tuple(keys),
        masks=MaskSet(tuple(masks), params),
        owner_share_ints=tuple(owner_shares),
        assignment=assignment,
    )


def activate_shares(state: SafeSharesState, env: ProtocolEnv) -> AuthorizedShareSet:
    """Release the activation keys so the protected shares become usable.

    The dealer contacts every participant, runs the identification
    predicate, and on success hands over that participant's key; the
    participant folds it into its protected share. The activated set
    combines to the original secret for every envelope assignment,
    because the keys embedded at pre-positioning and the keys released
    here cancel pairwise.

    The whole exchange is one round (:meth:`ProtocolEnv.activation_round`),
    so the predicate runs for every index, in order, before any message
    is sent: a predicate that raises leaves no activation row behind.
    """
    _check_params(env, state)
    count = len(state.protected_ints)
    env.note_operation("activate_shares", n=count)
    indices = range(1, count + 1)
    identify = env.identify
    claims = [True] * count if identify is None else [bool(identify(i)) for i in indices]
    passed, released = env.activation_round(
        _participants(SetRole.PROTECTED.value, indices), claims, state.key_ints
    )
    activated = map(xor, compress(state.protected_ints, passed), released)
    if all(passed):
        return _share_set(SetRole.ACTIVATED, env.params, activated)
    raise IdentificationFailed(
        list(compress(indices, map(not_, passed))),
        dict(zip(compress(indices, passed), from_ints(env.params, activated))),
    )
