"""Deterministic multi-party simulator for automatic secret generation
and sharing.

The modeled parties (a dealer, an owner, an automatic accumulator
device, and indexed share participants) exchange point-to-point messages
over assumed-secure channels, a whole round at a time: a deal of mask
elements, a relay of blinded shares, a release of keys. Every round
lands in the transcript as its parts, optional tamper rules mutate
payloads in flight, and an audit checks a finished transcript, round
by round, against the one table of deliveries a party must never
receive (:data:`FORBIDDEN`, by recipient and kind).

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
import sys
from itertools import accumulate, compress, repeat
from operator import attrgetter, itemgetter, not_, xor
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from asgs.devices import RandSource, bad_draw_count, derive_stream_seed
from asgs.kgh import (
    DEFAULT_BITS,
    MAX_DIMENSION,
    AsgsError,
    AuthorizedShareSet,
    Frozen,
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


class Party(Frozen, fields=("role", "set_tag", "index")):
    """One modeled protocol party; participants carry a set tag and index.

    The role is a ``ROLE_*`` name and a set tag non-empty ASCII
    ``[0-9A-Za-z]``, so labels are ASCII words JSON writes unescaped.
    ``key`` is the audit's lookup key: the role, refined by set tag for
    participants. It and the label are built once, at construction,
    because the audit, the encoder and tamper matching read them per
    message; they take no part in equality or hashing.
    """

    def __init__(self, role: str, set_tag: str | None = None, index: int | None = None) -> None:
        if role == ROLE_PARTICIPANT:
            if not (isinstance(set_tag, str) and set_tag.isascii() and set_tag.isalnum()):
                raise ValueError(f"set tag must be non-empty ASCII [0-9A-Za-z], got {set_tag!r}")
            if type(index) is not int or index < 1:
                raise ValueError(f"participants need a 1-based int index, got {index!r}")
            key, label = f"participant:{set_tag}", f"p{set_tag}-{index}"
        elif role not in (ROLE_DEALER, ROLE_OWNER, ROLE_ACCUMULATOR):
            raise ValueError(f"unknown role {role!r}")
        elif set_tag is not None or index is not None:
            raise ValueError(f"{role} carries no set tag or index")
        else:
            key = label = role
        super().__init__(role, set_tag, index)
        self.__dict__.update(key=key, _label=label)

    def label(self) -> str:
        """Compact document form: dealer | owner | accumulator | p<set>-<index>."""
        return self._label


DEALER = Party(ROLE_DEALER)
OWNER = Party(ROLE_OWNER)
ACCUMULATOR = Party(ROLE_ACCUMULATOR)


_ROLE_PARTIES = {party.role: party for party in (DEALER, OWNER, ACCUMULATOR)}
# Interns participants; for callers that built ``index`` as an int themselves.
_participant = functools.cache(functools.partial(Party, ROLE_PARTICIPANT))


def participant(set_tag: str, index: int) -> Party:
    """The participant ``index`` of set ``set_tag``, built once per process.

    Every message to or from a participant names one, so equal arguments
    return the same object. The index type is checked before the cache,
    whose keys do not tell ``True`` from ``1``.
    """
    if type(index) is not int:
        raise ValueError(f"participants need a 1-based int index, got {index!r}")
    return _participant(set_tag, index)


def parse_party(label: str) -> Party:
    """Inverse of :meth:`Party.label`: accepts exactly the labels it
    prints, so ``p1-0``, ``p1-03`` and non-ASCII digits are rejected
    before any party is built."""
    if label in _ROLE_PARTIES:
        return _ROLE_PARTIES[label]
    if label.startswith("p") and "-" in label and label.isascii():
        tag, _, index_text = label[1:].partition("-")
        if tag.isalnum() and index_text.isdigit() and index_text[0] != "0":
            return _participant(tag, int(index_text))
    raise ValueError(f"unrecognized party label {label!r}")


class Message(Frozen, fields=("seq", "sender", "recipient", "kind", "payload",
                              "element_index")):
    """One delivered payload, the per-message view of a :class:`Transcript`
    row. ``element_index`` records, for mask and share deliveries, which
    1-based element the payload is."""

    def __init__(self, seq: int, sender: Party, recipient: Party, kind: str,
                 payload: ShareVector | bool, element_index: int | None = None) -> None:
        super().__init__(seq, sender, recipient, kind, payload, element_index)


# The sequence types a round column may take; any other value is one
# value for every row.
_ROW_TYPES = (list, tuple, range)


def _rows(values, count: int) -> Iterable:
    """A round column of ``count`` rows, to iterate once."""
    return values if type(values) in _ROW_TYPES else repeat(values, count)


def _in_seq_order(parts: tuple, values_of: Callable[[tuple], Iterable]) -> Iterable:
    """``values_of(part)`` for each of a round's parts, one value per row,
    in seq order: a one-part round's as they come, else placed by
    extended-slice assignment for a ``range`` of seqs, row by row for a list."""
    if len(parts) == 1:
        return values_of(parts[0])
    first = min([part[0][0] for part in parts if part[0]], default=0)
    ordered = [None] * sum([len(part[0]) for part in parts])
    for part in parts:
        seqs = part[0]
        if type(seqs) is range:
            ordered[seqs.start - first:seqs.stop - first:seqs.step] = values_of(part)
        else:
            for seq, value in zip(seqs, values_of(part)):
                ordered[seq - first] = value
    return ordered


class Transcript:
    """Ordered record of every delivered message plus the environment
    summary that produced it.

    A log of rounds: ``rounds`` holds one tuple of parts per round sent,
    in order, each part ``(seqs, senders, recipients, kinds, payloads,
    element_indices)`` with its own seqs. A plain round is one part, a
    relay round or key recovery two, activation three. ``seqs`` is a
    sequence of ints (a ``range`` for a part the engine sent, unless an
    identification arrived false), ``payloads`` a tuple or list with one
    value per row (packed ints under ``params``, bools for control
    kinds), and each other column is one value for every row or a list,
    tuple or range with one per row, as :meth:`ProtocolEnv.deliver_round`
    takes them. Readers read each part as it is. Iteration, the one row
    reader, yields :class:`Message` values with vector payloads under
    ``params``, a round's rows in seq order per read, and keeps nothing.

    A transcript's width is its config's: ``params`` is the binary params
    of ``config["bits"]`` when that is an int in 1..MAX_DIMENSION, else
    None. :meth:`record` is the only write.
    """

    def __init__(self, config: Mapping | None = None):
        self.config: dict = dict(config or {})
        bits = self.config.get("bits")
        valid = type(bits) is int and 1 <= bits <= MAX_DIMENSION
        self.params = SchemeParams.binary(bits) if valid else None
        self.rounds: list[tuple] = []
        self._length = 0

    def record(self, *parts: tuple) -> None:
        """Log one round of ``parts`` as given; the caller must not change them.

        The seqs of a round of two or more parts must together be
        consecutive ints: its rows are put in seq order by their offset
        from its least seq, so a gap raises ``IndexError`` when the round
        is iterated or written. A one-part round's seqs may have gaps.
        """
        self.rounds.append(parts)
        for part in parts:
            self._length += len(part[0])

    def __iter__(self) -> Iterator[Message]:
        from_int, params = ShareVector.from_int, self.params
        for parts in self.rounds:
            yield from _in_seq_order(parts, lambda part: map(
                Message._of, part[0], *(_rows(column, len(part[0])) for column in part[1:4]),
                (p if type(p) is bool else from_int(params, p) for p in part[4]),
                _rows(part[5], len(part[0]))))

    def __len__(self) -> int:
        return self._length


class TamperRule(Frozen, fields=("party", "kind", "occurrence", "bit")):
    """Flip one bit of the occurrence-th ``kind`` message sent by ``party``.

    ``party`` is a party label as produced by :meth:`Party.label`;
    ``occurrence`` counts that party's messages of that kind from 1.
    :class:`ProtocolEnv` checks the bit against its payload width.
    """

    def __init__(self, party: str, kind: str, occurrence: int, bit: int) -> None:
        parse_party(party)
        if kind not in MESSAGE_KINDS:
            raise ValueError(f"unknown message kind {kind!r}")
        for name, value in (("occurrence", occurrence), ("bit index", bit)):
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
        if occurrence < 1:
            raise ValueError("occurrence counts from 1")
        if bit < 0:
            raise ValueError("bit index must be >= 0")
        super().__init__(party, kind, occurrence, bit)

    def spec(self) -> str:
        return f"{self.party}:{self.kind}:{self.occurrence}:bit:{self.bit}"


# ---------------------------------------------------------------------------
# Visibility auditing
# ---------------------------------------------------------------------------

# The confidentiality contract of the honest protocols: each (recipient
# key, kind) delivery it forbids, and the value class that delivery
# exposes.
# - the dealer never receives the secret, an owner share, or a
#   protected share;
# - the owner never receives a mask element or a bare key;
# - a master-set participant never receives a derived share or a mask
#   element other than its own: one whose element index is its index.
FORBIDDEN = {
    (ROLE_DEALER, KIND_SECRET): "secret",
    (ROLE_DEALER, KIND_OWNER_SHARE): "owner_share",
    (ROLE_DEALER, KIND_ENVELOPE_SHARE): "protected_share",
    (ROLE_OWNER, KIND_MASK_ELEMENT): "mask_foreign",
    (ROLE_OWNER, KIND_KEY): "key",
    ("participant:2", KIND_MASK_ELEMENT): "mask_foreign",
    ("participant:2", KIND_DERIVED_SHARE): "derived_share",
}

# By kind, the recipient keys it flags.
_FLAGGED = {kind: frozenset(key for key, flagged in FORBIDDEN if flagged == kind)
            for kind in MESSAGE_KINDS}


class Violation(Frozen, fields=("seq", "recipient", "value_class", "kind")):
    """One forbidden delivery found by a visibility audit."""


_key = attrgetter("key")
_NO_KEYS: frozenset[str] = frozenset()


def check_visibility(transcript: Transcript) -> list[Violation]:
    """Audit a transcript against :data:`FORBIDDEN`.

    Returns one violation per message whose (recipient key, kind) pair
    is forbidden, with the value class the table gives it, in seq order;
    a participant's own mask element is permitted, and an honest run
    yields none. Each part of a round is audited as it is.
    """
    found = []
    for parts in transcript.rounds:
        start = len(found)
        for seqs, _, recipients, kinds, payloads, element_indices in parts:
            count = len(payloads)
            selectors: Iterable[bool] | None = None
            # Only the rows whose (recipient key, kind) pair is forbidden
            # are looked at; a part is skipped when no kind of it flags
            # any recipient.
            if type(kinds) in _ROW_TYPES:
                keys = _NO_KEYS.union(*map(_FLAGGED.get, set(kinds), repeat(_NO_KEYS)))
                if type(recipients) in _ROW_TYPES:
                    if keys.isdisjoint(map(_key, recipients)):
                        continue
                elif recipients.key not in keys:
                    continue
                selectors = map(FORBIDDEN.__contains__,
                                zip(map(_key, _rows(recipients, count)), kinds))
            elif type(recipients) in _ROW_TYPES:
                keys = _FLAGGED.get(kinds, _NO_KEYS)
                if keys.isdisjoint(map(_key, recipients)):
                    continue
                selectors = map(keys.__contains__, map(_key, recipients))
            elif recipients.key not in _FLAGGED.get(kinds, _NO_KEYS):
                continue
            rows: Iterable = zip(seqs, _rows(recipients, count), _rows(kinds, count),
                                 _rows(element_indices, count))
            if selectors is not None:
                rows = compress(rows, selectors)
            for seq, recipient, kind, element_index in rows:
                if (kind == KIND_MASK_ELEMENT and recipient.index is not None
                        and element_index == recipient.index):
                    continue  # a participant's own mask element
                found.append(Violation(seq, recipient.label(), FORBIDDEN[recipient.key, kind],
                                       kind))
        if len(found) - start > 1:
            found[start:] = sorted(found[start:], key=attrgetter("seq"))
    return found


# ---------------------------------------------------------------------------
# Protocol environment
# ---------------------------------------------------------------------------


class ProtocolEnv:
    """Everything one protocol run depends on.

    Holds the binary algebra parameters, one randomness source per
    randomness-owning role, the tamper rules, the envelope-assignment
    control, and the transcript under construction.

    The transcript ``config`` summarises the run and is built here, once:
    ``randomness`` as given (``{"mode": "seeded", "seed": ...}`` or
    ``{"mode": "fixture", "parties": [...]}``), ``tamper`` as the spec of
    each rule, then the entries of ``config``, and last ``bits`` from
    ``params``, so the transcript's width is always the environment's.
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
        config: Mapping | None = None,
    ) -> None:
        self.params = params
        self._sources = dict(sources)
        self.tamper_rules = tuple(tamper_rules)
        for k, rule in enumerate(self.tamper_rules):
            # Two flips of one bit cancel, so a repeated rule is a mistake.
            if rule in self.tamper_rules[:k]:
                raise ValueError(f"tamper rule {rule.spec()} given twice")
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
        self._fixed_assignment = None if assignment is None else tuple(assignment)
        if assignment is not None:
            _check_assignment(self._fixed_assignment, len(self._fixed_assignment))
        self._assignment_rng = assignment_rng
        self.transcript = Transcript(
            {
                "randomness": randomness,
                "tamper": [rule.spec() for rule in self.tamper_rules],
                **(config or {}),
                "bits": params.dimension,
            }
        )

    @classmethod
    def seeded(
        cls, seed: int, bits: int = DEFAULT_BITS, *, tamper_rules: Iterable[TamperRule] = ()
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
        dealer: Iterable[int] | None = None,
        owner: Iterable[int] | None = None,
        accumulator: Iterable[int] | None = None,
        assignment: Sequence[int] | None = None,
        tamper_rules: Iterable[TamperRule] = (),
        config: Mapping | None = None,
    ) -> ProtocolEnv:
        """Replay prepared streams of packed ints under ``params``; the
        envelope assignment defaults to identity so fixture runs stay
        fully explicit."""
        streams = {ROLE_DEALER: dealer, ROLE_OWNER: owner, ROLE_ACCUMULATOR: accumulator}
        sources = {
            role: RandSource.fixture(params, values)
            for role, values in streams.items()
            if values is not None
        }
        return cls(
            params,
            sources,
            {"mode": "fixture", "parties": sorted(sources)},
            tamper_rules=tamper_rules,
            assignment=assignment,
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
        A count outside ``0..sys.maxsize`` is refused before any range
        of it is built, as :meth:`RandSource.next_ints` refuses it.
        """
        if not 0 <= count <= sys.maxsize:
            raise bad_draw_count(count)
        rng = self._assignment_rng
        if rng is None:
            fixed = self._fixed_assignment
            assignment = tuple(range(1, count + 1)) if fixed is None else fixed
            if len(assignment) != count:
                raise ValueError(f"assignment {assignment} is not a permutation of 1..{count}")
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
            column = senders if type(senders) in _ROW_TYPES else [senders] * len(payloads)
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
        if fired:
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
        logged as one part, which keeps a tuple of the delivered
        payloads, so the caller may grow the list it gets back.
        Returns the payloads as delivered, ``payloads`` itself unless a
        rule fired; engine code must compute with them, never the
        original.
        """
        transcript = self.transcript
        first = transcript._length + 1
        seqs = range(first, first + len(payloads))
        payloads, fired = self._tamper(senders, kind, payloads)
        self._note_fired(fired, seqs)
        transcript.record((seqs, senders, recipients, kind, tuple(payloads), element_indices))
        return payloads

    def deliver_parts(self, first: tuple, second: tuple) -> tuple[Sequence, Sequence]:
        """Send one round of two parts of equal length, each ``(senders,
        recipients, kind, payloads, element_indices)`` in the forms
        :meth:`deliver_round` takes: row i of the second part follows row
        i of the first. Parts of unequal length raise ``ValueError`` and
        log nothing.

        The second part's payloads may be a function of the first part's
        as delivered. That is how a relay forwards: each value the relay
        was delivered, XOR an operand, goes on right after the row it
        came in on (blinded share -> derived share at the accumulator,
        sealed mask -> envelope share at the owner). The first part is
        tampered, then the second, so each forward carries the value the
        relay was delivered. The parts of every round the engine sends
        differ in sender or kind, so their occurrence counts are
        independent.

        The round is logged as those two parts, each with its own seqs
        and a payload tuple taken here, so the caller may grow the lists
        it gets back: each part's payloads as delivered.
        """
        senders, recipients, kind, payloads, indices = first
        one, one_fired = self._tamper(senders, kind, payloads)
        senders2, recipients2, kind2, payloads2, indices2 = second
        two, two_fired = self._tamper(
            senders2, kind2, payloads2(one) if callable(payloads2) else payloads2)
        if len(two) != len(one):
            raise ValueError(f"a round's two parts need equal lengths, got {len(one)}, {len(two)}")
        start = self.transcript._length + 1
        stop = start + 2 * len(one)
        seqs, seqs2 = range(start, stop, 2), range(start + 1, stop, 2)
        self._note_fired(one_fired, seqs)
        self._note_fired(two_fired, seqs2)
        self.transcript.record((seqs, senders, recipients, kind, tuple(one), indices),
                               (seqs2, senders2, recipients2, kind2, tuple(two), indices2))
        return one, two

    def activation_round(
        self, holders: Sequence[Party], keys: Sequence[int]
    ) -> tuple[Sequence[bool], Sequence[int]]:
        """Send the activation round: for each i in order, the dealer's
        key request to ``holders[i]``, that holder's identification to
        the dealer, sent true, and, when it arrived true, ``keys[i]`` to
        the holder with element index i + 1. It is logged as three
        parts: the requests, the identifications and the keys sent.

        The identification column is tampered first, because its
        delivered values decide which keys are sent, then the request
        column, then the column of the keys sent. Returns the
        identifications as delivered and the keys as delivered, one per
        identification that arrived true.
        """
        count = len(holders)
        passed, fired = self._tamper(holders, KIND_IDENTIFICATION, [True] * count)
        requests, request_fired = self._tamper(DEALER, KIND_KEY_REQUEST, [True] * count)
        start = self.transcript._length + 1
        recipients, indices = holders, range(1, count + 1)
        if all(passed):
            seqs = [range(start + k, start + 3 * count, 3) for k in range(3)]
        else:
            # An index whose identification arrived false takes two rows.
            asked = list(accumulate(passed[:-1], lambda seq, ok: seq + 2 + ok, initial=start))
            seqs = asked, [seq + 1 for seq in asked], [seq + 2 for seq in compress(asked, passed)]
            recipients, keys, indices = (list(compress(column, passed))
                                         for column in (holders, keys, indices))
        released, key_fired = self._tamper(DEALER, KIND_KEY, keys)
        for rows, part_seqs in zip((request_fired, fired, key_fired), seqs):
            self._note_fired(rows, part_seqs)
        self.transcript.record(
            (seqs[0], DEALER, holders, KIND_KEY_REQUEST, tuple(requests), None),
            (seqs[1], holders, DEALER, KIND_IDENTIFICATION, tuple(passed), None),
            (seqs[2], DEALER, recipients, KIND_KEY, tuple(released), indices))
        return passed, released


def _check_assignment(assignment: tuple, count: int) -> None:
    """Refuse an envelope assignment unless it is ints, a permutation of 1..count."""
    if any(type(i) is not int for i in assignment):
        raise ValueError(f"assignment entries must be ints, got {assignment!r}")
    if sorted(assignment) != list(range(1, count + 1)):
        raise ValueError("assignment must be a permutation of participant indices")


class SafeSharesState(Frozen, fields=("params", "protected_ints", "key_ints", "masks",
                                    "owner_share_ints", "assignment")):
    """Outcome of pre-positioning: everything each party is left holding.

    ``protected`` (the vector view of ``protected_ints``) is ordered by
    participant index; ``assignment`` maps each original share index
    (1-based position) to the participant that received its envelope.
    The keys are the dealer's, ordered by original index. Each int
    column and ``assignment`` is stored as a tuple.
    """

    def __init__(self, params: SchemeParams, protected_ints: Iterable[int],
                 key_ints: Iterable[int], masks: MaskSet,
                 owner_share_ints: Iterable[int], assignment: Iterable[int]) -> None:
        protected_ints, key_ints = tuple(protected_ints), tuple(key_ints)
        owner_share_ints, assignment = tuple(owner_share_ints), tuple(assignment)
        count = len(protected_ints)
        if not len(key_ints) == len(masks) == len(owner_share_ints) == count:
            raise ValueError("all per-share sequences must have equal length")
        _check_assignment(assignment, count)
        for column in (protected_ints, key_ints, owner_share_ints):
            check_ints(column, params, "a safe-shares column")
        if not params.xor_ints(key_ints, 0):
            raise ValueError("key set must not cancel to zero")
        super().__init__(params, protected_ints, key_ints, masks, owner_share_ints, assignment)

    protected = vector_view("protected_ints")
    keys = vector_view("key_ints")
    owner_shares = vector_view("owner_share_ints")

    def protected_set(self) -> AuthorizedShareSet:
        return AuthorizedShareSet._of(SetRole.PROTECTED, self.protected_ints, self.params)


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


@functools.lru_cache(maxsize=32)
def _participants(tag: str, indices: range) -> tuple[Party, ...]:
    """The participants ``indices`` of set ``tag``, in order.

    Cached because the same (tag, range) recurs in one process: within
    one operation (``asgs replicate --mode equal`` makes 3 lookups and
    hits once), at each step of a chain of set generation, replications
    and pvss, and again in every chain of the same shape.
    """
    return tuple(map(_participant, repeat(tag), indices))


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
        AuthorizedShareSet._of(SetRole.TEMPLATE, tuple(shares[:template_count]), params),
        AuthorizedShareSet._of(SetRole.MASTER, tuple(shares[template_count:]), params),
    )


def _replicate_rounds(
    masks: Sequence[int],
    shares: Sequence[int],
    env: ProtocolEnv,
    keep: int | None = None,
) -> tuple[list[int], list[int]]:
    """The two message rounds of replication: each of the n source
    holders blinds its share with its own mask element, and the first
    ``keep`` (default n) hand theirs to the accumulator, which strips
    each with element n + i on the way to the new holders.

    Returns the re-dealt shares and the blinded shares of holders
    ``keep + 1..n``, which are not sent.
    """
    n = len(shares)
    keep = n if keep is None else keep
    indices = range(1, n + 1)
    dealt = env.deliver_round(ACCUMULATOR, _participants(SetRole.MASTER.value, indices),
                              KIND_MASK_ELEMENT, masks[:n], indices)
    # A tuple, so the relay logs it without a copy.
    blinded = tuple(map(xor, shares, dealt))
    relayed = indices[:keep]
    _, derived = env.deliver_parts(
        (_participants(SetRole.MASTER.value, relayed), ACCUMULATOR, KIND_MASKED_SHARE,
         blinded[:keep], None),
        (ACCUMULATOR, _participants(SetRole.DERIVED.value, relayed), KIND_DERIVED_SHARE,
         lambda received: list(map(xor, received, masks[n:n + keep])), relayed),
    )
    return derived, blinded[keep:]


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
    return AuthorizedShareSet._of(SetRole.DERIVED, tuple(derived), env.params)


def equal_set_replicate(
    master: AuthorizedShareSet, env: ProtocolEnv
) -> AuthorizedShareSet:
    """Replicate a share set into a fresh set of the same cardinality."""
    _check_params(env, master)
    n = len(master)
    env.note_operation("equal_set_replicate", n=n)
    masks = mask_ints(2 * n, env.source(ROLE_ACCUMULATOR), env.params)
    derived, _ = _replicate_rounds(masks, master.ints, env)
    return AuthorizedShareSet._of(SetRole.DERIVED, tuple(derived), env.params)


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
    return AuthorizedShareSet._of(SetRole.DERIVED, tuple(derived), env.params)


def set_replicate_to_smaller(
    master: AuthorizedShareSet, target_count: int, env: ProtocolEnv
) -> AuthorizedShareSet:
    """Replicate a share set into a strictly smaller (nonempty) one.

    The first target_count - 1 derived shares are produced as usual;
    the accumulator combines the blinded remainder of the source set,
    handed in as a round of its own, into the single last share.
    """
    _check_params(env, master)
    n = len(master)
    if target_count < 1 or target_count >= n:
        raise InvalidTarget(
            f"target cardinality {target_count} must lie in 1..{n - 1}"
        )
    env.note_operation("set_replicate_to_smaller", n=n, d=target_count)
    masks = mask_ints(n + target_count - 1, env.source(ROLE_ACCUMULATOR), env.params)
    derived, rest = _replicate_rounds(masks, master.ints, env, keep=target_count - 1)
    rest = env.deliver_round(_participants(SetRole.MASTER.value, range(target_count, n + 1)),
                             ACCUMULATOR, KIND_MASKED_SHARE, rest)
    derived += env.deliver_round(
        ACCUMULATOR, participant(SetRole.DERIVED.value, target_count), KIND_DERIVED_SHARE,
        [env.params.xor_ints(rest, 0)], target_count,
    )
    return AuthorizedShareSet._of(SetRole.DERIVED, tuple(derived), env.params)


def _fast_share_rounds(secret: int, count: int, env: ProtocolEnv) -> list[int]:
    """The owner's split as messages to the accumulator.

    The last share is read off the register from the *delivered* values,
    which tamper rules may have changed.
    """
    shares = env.source(ROLE_OWNER).next_ints(env.params, count - 1)
    delivered = env.deliver_round(OWNER, ACCUMULATOR, KIND_OWNER_SHARE, shares, range(1, count))
    register = env.params.xor_ints(delivered, 0)
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
    return AuthorizedShareSet._of(
        SetRole.OWNER, tuple(_fast_share_rounds(secret.to_int(), count, env)), env.params
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
    assignment = env.draw_assignment(count)  # own stream: a bad one fails before any send
    env.note_operation("safe_shares", n=count)
    params = env.params
    dealer_source = env.source(ROLE_DEALER)
    masks = mask_ints(count, dealer_source, params)
    owner_shares = _fast_share_rounds(secret.to_int(), count, env)
    # Deliveries draw nothing, so every key can be drawn first.
    keys = dealer_source.next_ints(params, count - 1, 0)
    register = keys.pop()
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
    _, envelopes = env.deliver_parts(
        (DEALER, OWNER, KIND_MASKED_SHARE, list(map(xor, masks, keys)), None),
        (OWNER, [_participant(protected_tag, target) for target in assignment],
         KIND_ENVELOPE_SHARE, lambda sealed: list(map(xor, sealed, owner_shares)), assignment),
    )
    protected = [0] * count
    for target, envelope in zip(assignment, envelopes):
        protected[target - 1] = envelope
    return SafeSharesState._of(params, tuple(protected), tuple(keys),
                               MaskSet._of(tuple(masks), params), tuple(owner_shares), assignment)


def activate_shares(state: SafeSharesState, env: ProtocolEnv) -> AuthorizedShareSet:
    """Release the activation keys so the protected shares become usable.

    The dealer contacts every participant, each participant identifies
    itself, and the dealer hands over the key of each identification
    that arrived true; the participant folds it into its protected
    share. The activated set combines to the original secret for every
    envelope assignment, because the keys embedded at pre-positioning
    and the keys released here cancel pairwise.

    The whole exchange is one round (:meth:`ProtocolEnv.activation_round`).
    Every identification is sent true; a tamper rule on
    ``identification`` makes one arrive false, which withholds that key
    and raises :class:`IdentificationFailed`.
    """
    _check_params(env, state)
    count = len(state.protected_ints)
    env.note_operation("activate_shares", n=count)
    indices = range(1, count + 1)
    passed, released = env.activation_round(
        _participants(SetRole.PROTECTED.value, indices), state.key_ints
    )
    activated = map(xor, compress(state.protected_ints, passed), released)
    if all(passed):
        return AuthorizedShareSet._of(SetRole.ACTIVATED, tuple(activated), env.params)
    raise IdentificationFailed(
        list(compress(indices, map(not_, passed))),
        dict(zip(compress(indices, passed), from_ints(env.params, activated))),
    )
