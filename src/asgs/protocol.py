"""Deterministic multi-party simulator for automatic secret generation
and sharing.

The modeled parties (a dealer, an owner, an automatic accumulator
device, and indexed share participants) exchange point-to-point messages
over assumed-secure channels. Every delivery lands in a transcript,
optional tamper rules mutate payloads in flight, and a visibility policy
can audit a finished transcript for values that reached a party that
must never see them.

The engine plays all parties in program order, so a run is a pure
function of the environment: parameters, per-party randomness, tamper
rules, and the envelope assignment. Replaying an environment reproduces
the transcript bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from asgs.devices import Accumulator, RandSource, derive_stream_seed
from asgs.kgh import (
    AsgsError,
    AuthorizedShareSet,
    MaskSet,
    MixedParams,
    SchemeParams,
    SetRole,
    ShareVector,
    combine,
    generate_mask_set,
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
KIND_ACK = "ack"

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
        KIND_ACK,
    }
)

# Boolean-payload kinds; everything else carries a vector.
CONTROL_KINDS = frozenset({KIND_KEY_REQUEST, KIND_IDENTIFICATION, KIND_ACK})

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
    """One modeled protocol party; participants carry a set tag and index."""

    role: str
    set_tag: str | None = None
    index: int | None = None

    def __post_init__(self) -> None:
        if self.role == ROLE_PARTICIPANT:
            if self.set_tag is None or self.index is None or self.index < 1:
                raise ValueError("participants need a set tag and a 1-based index")
        elif self.set_tag is not None or self.index is not None:
            raise ValueError(f"{self.role} carries no set tag or index")

    @property
    def key(self) -> str:
        """Policy lookup key: the role, refined by set tag for participants."""
        if self.role == ROLE_PARTICIPANT:
            return f"participant:{self.set_tag}"
        return self.role

    def label(self) -> str:
        """Compact document form: dealer | owner | accumulator | p<set>-<index>."""
        if self.role == ROLE_PARTICIPANT:
            return f"p{self.set_tag}-{self.index}"
        return self.role


DEALER = Party(ROLE_DEALER)
OWNER = Party(ROLE_OWNER)
ACCUMULATOR = Party(ROLE_ACCUMULATOR)


def participant(set_tag: str, index: int) -> Party:
    return Party(ROLE_PARTICIPANT, set_tag, index)


def parse_party(label: str) -> Party:
    """Inverse of :meth:`Party.label`: accepts exactly the labels it
    prints, so ``p1-03`` and non-ASCII digits are rejected."""
    if label in (ROLE_DEALER, ROLE_OWNER, ROLE_ACCUMULATOR):
        return Party(label)
    if label.startswith("p") and "-" in label:
        tag, _, index_text = label[1:].partition("-")
        if tag and index_text.isdigit():
            party = participant(tag, int(index_text))
            if party.label() == label:
                return party
    raise ValueError(f"unrecognized party label {label!r}")


@dataclass(frozen=True)
class Message:
    """One delivered payload. ``element_index`` records, for mask and
    share deliveries, which 1-based element the payload is."""

    seq: int
    sender: Party
    recipient: Party
    kind: str
    payload: ShareVector | bool
    element_index: int | None = None


class Transcript:
    """Ordered record of every delivered message plus the environment
    summary that produced it."""

    def __init__(self, config: Mapping | None = None, steps: Iterable[Message] = ()):
        self.config: dict = dict(config or {})
        self.steps: list[Message] = list(steps)

    def append(self, message: Message) -> None:
        if self.steps and message.seq <= self.steps[-1].seq:
            raise ValueError("message sequence numbers must strictly increase")
        self.steps.append(message)

    def __iter__(self) -> Iterator[Message]:
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class TamperRule:
    """Flip one bit of the occurrence-th ``kind`` message sent by ``party``.

    ``party`` is a party label as produced by :meth:`Party.label`;
    ``occurrence`` counts that party's messages of that kind from 1.
    """

    party: str
    kind: str
    occurrence: int
    bit: int

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


def classify_message(message: Message) -> str:
    """Map a delivered message to the value class its payload exposes.

    Mask elements count as ``mask_own`` only when delivered to the
    participant whose 1-based index matches the recorded element index;
    every other mask delivery is foreign. A masked share from the dealer
    is a sealed mask (mask XOR key); from anyone else it is a share
    blinded by a mask.
    """
    kind = message.kind
    if kind == KIND_SECRET:
        return CLASS_SECRET
    if kind == KIND_OWNER_SHARE:
        return CLASS_OWNER_SHARE
    if kind == KIND_ENVELOPE_SHARE:
        return CLASS_PROTECTED_SHARE
    if kind == KIND_DERIVED_SHARE:
        return CLASS_DERIVED_SHARE
    if kind == KIND_KEY:
        return CLASS_KEY
    if kind == KIND_MASKED_SHARE:
        if message.sender.role == ROLE_DEALER:
            return CLASS_SEALED_MASK
        return CLASS_MASKED_SHARE
    if kind == KIND_MASK_ELEMENT:
        recipient = message.recipient
        if (
            recipient.role == ROLE_PARTICIPANT
            and message.element_index is not None
            and message.element_index == recipient.index
        ):
            return CLASS_MASK_OWN
        return CLASS_MASK_FOREIGN
    return CLASS_CONTROL


@dataclass(frozen=True)
class VisibilityPolicy:
    """Which (recipient, value class) pairs a transcript may contain.

    The table is total: any pair not in ``forbidden`` is permitted, so
    auditing never fails on an unknown kind.
    """

    forbidden: frozenset[tuple[str, str]]

    def permits(self, recipient_key: str, value_class: str) -> bool:
        return (recipient_key, value_class) not in self.forbidden


def default_visibility_policy() -> VisibilityPolicy:
    """The confidentiality contract of the honest protocols.

    - the dealer never receives the secret, an owner share, or a
      protected share;
    - the owner never receives a mask element or a bare key;
    - a master-set participant never receives a derived share or a
      mask element other than its own.
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


def check_visibility(
    transcript: Transcript, policy: VisibilityPolicy | None = None
) -> list[Violation]:
    """Audit a transcript against a visibility policy.

    Returns one violation per message whose recipient is not permitted
    to see the message's value class; an honest run yields none.
    """
    policy = policy or default_visibility_policy()
    found = []
    for message in transcript:
        value_class = classify_message(message)
        if not policy.permits(message.recipient.key, value_class):
            found.append(
                Violation(message.seq, message.recipient.label(), value_class, message.kind)
            )
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
        assignment_rng: random.Random | None = None,
        identify: Callable[[int], bool] | None = None,
        config: Mapping | None = None,
    ) -> None:
        if params.modulus != 2:
            raise ValueError("protocol runs are defined for modulus 2")
        self.params = params
        self._sources = dict(sources)
        self.tamper_rules = tuple(tamper_rules)
        self._tamper_counts: dict[tuple[str, str], int] = {}
        # (rule, seq of the message it flipped), in delivery order. Kept
        # out of the transcript so its bytes do not depend on it.
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
            }
        )

    @classmethod
    def seeded(
        cls, seed: int, bits: int = 128, *, tamper_rules: Iterable[TamperRule] = ()
    ) -> ProtocolEnv:
        """Derive every party's stream from one 64-bit run seed."""
        sources = {
            role: RandSource.seeded(derive_stream_seed(seed, role)) for role in SOURCE_ROLES
        }
        return cls(
            SchemeParams.binary(bits),
            sources,
            {"mode": "seeded", "seed": seed},
            tamper_rules=tamper_rules,
            assignment_rng=random.Random(derive_stream_seed(seed, "assignment")),
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
        assignment stream; fixture environments use the explicit
        permutation, or identity when none was given.
        """
        if self._assignment_rng is None:
            identity = tuple(range(1, count + 1))
            assignment = identity if self._fixed_assignment is None else self._fixed_assignment
            if sorted(assignment) != list(identity):
                raise ValueError(
                    f"assignment {assignment} is not a permutation of 1..{count}"
                )
            return assignment
        remaining = list(range(1, count + 1))
        chosen = []
        for _ in range(count):
            chosen.append(remaining.pop(self._assignment_rng.randrange(len(remaining))))
        return tuple(chosen)

    def _apply_tamper(
        self, sender: Party, kind: str, payload: ShareVector | bool
    ) -> ShareVector | bool:
        key = (sender.label(), kind)
        occurrence = self._tamper_counts.get(key, 0) + 1
        self._tamper_counts[key] = occurrence
        for rule in self.tamper_rules:
            if (
                rule.party == key[0]
                and rule.kind == kind
                and rule.occurrence == occurrence
            ):
                payload = self._flip_bit(payload, rule.bit)
                self.tamper_fired.append((rule, len(self.transcript.steps) + 1))
        return payload

    def _flip_bit(self, payload: ShareVector | bool, bit: int) -> ShareVector | bool:
        if isinstance(payload, bool):
            if bit != 0:
                raise ValueError("boolean payloads only have bit 0")
            return not payload
        if bit < 0 or bit >= self.params.dimension:
            raise ValueError(
                f"bit index {bit} outside 0..{self.params.dimension - 1}"
            )
        return ShareVector.from_int(self.params, payload.to_int() ^ (1 << bit))

    def deliver(
        self,
        sender: Party,
        recipient: Party,
        kind: str,
        payload: ShareVector | bool,
        element_index: int | None = None,
    ) -> ShareVector | bool:
        """Send one message, after tampering, and record the delivery.

        Returns the payload as the recipient saw it; engine code must
        compute with the returned value, never the original.
        """
        payload = self._apply_tamper(sender, kind, payload)
        steps = self.transcript.steps
        # The seq is the message's 1-based position, so it always increases.
        steps.append(Message(len(steps) + 1, sender, recipient, kind, payload, element_index))
        return payload


@dataclass(frozen=True)
class SafeSharesState:
    """Outcome of pre-positioning: everything each party is left holding.

    ``protected`` is ordered by participant index; ``assignment`` maps
    each original share index (1-based position) to the participant that
    received its envelope. The keys are the dealer's, ordered by
    original index.
    """

    params: SchemeParams
    protected: tuple[ShareVector, ...]
    keys: tuple[ShareVector, ...]
    masks: MaskSet
    owner_shares: tuple[ShareVector, ...]
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        count = len(self.protected)
        if not (
            len(self.keys) == len(self.masks.vectors) == len(self.owner_shares) == count
        ):
            raise ValueError("all per-share sequences must have equal length")
        if sorted(self.assignment) != list(range(1, count + 1)):
            raise ValueError("assignment must be a permutation of participant indices")
        if combine(self.keys, self.params).is_zero():
            raise ValueError("key set must not cancel to zero")

    def protected_set(self) -> AuthorizedShareSet:
        return AuthorizedShareSet(SetRole.PROTECTED, self.protected, self.params)


# ---------------------------------------------------------------------------
# Engine operations
# ---------------------------------------------------------------------------


def _check_params(env: ProtocolEnv, *items) -> None:
    """Every item is anything with ``.params``: a vector, share or mask
    set, safe-shares state or bulletin."""
    for item in items:
        if item.params != env.params:
            raise MixedParams(
                f"operation runs under {env.params}, got input under {item.params}"
            )


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
    masks = generate_mask_set(
        template_count + master_count, env.source(ROLE_ACCUMULATOR), env.params
    ).vectors
    halves = []
    for role, offset, count in (
        (SetRole.TEMPLATE, 0, template_count),
        (SetRole.MASTER, template_count, master_count),
    ):
        shares = [
            env.deliver(
                ACCUMULATOR,
                participant(role.value, i + 1),
                KIND_MASK_ELEMENT,
                masks[offset + i],
                element_index=i + 1,
            )
            for i in range(count)
        ]
        halves.append(AuthorizedShareSet.from_shares(role, shares))
    return halves[0], halves[1]


def _replicate_rounds(
    masks: MaskSet,
    shares: Sequence[ShareVector],
    env: ProtocolEnv,
    keep: int | None = None,
) -> tuple[list[ShareVector], list[ShareVector]]:
    """The two message rounds of replication: each of the n source
    holders blinds its share with its own mask element and hands it to
    the accumulator, which strips the first ``keep`` (default n) with
    element n + i on the way to the new holders.

    Returns the re-dealt shares and the blinded shares the accumulator
    received but did not re-deal.
    """
    n = len(shares)
    keep = n if keep is None else keep
    blinded = []
    for i in range(n):
        delivered = env.deliver(
            ACCUMULATOR,
            participant(SetRole.MASTER.value, i + 1),
            KIND_MASK_ELEMENT,
            masks.vectors[i],
            element_index=i + 1,
        )
        blinded.append(shares[i] + delivered)
    derived = []
    rest = []
    for i in range(n):
        received = env.deliver(
            participant(SetRole.MASTER.value, i + 1),
            ACCUMULATOR,
            KIND_MASKED_SHARE,
            blinded[i],
        )
        if i >= keep:
            rest.append(received)
            continue
        delivered = env.deliver(
            ACCUMULATOR,
            participant(SetRole.DERIVED.value, i + 1),
            KIND_DERIVED_SHARE,
            received + masks.vectors[n + i],
            element_index=i + 1,
        )
        derived.append(delivered)
    return derived, rest


def set_replicate(
    masks: MaskSet, master: AuthorizedShareSet, env: ProtocolEnv
) -> AuthorizedShareSet:
    """Replicate a share set into a fresh equal-size set using the given
    zero-sum mask set of twice its cardinality."""
    _check_params(env, masks, master)
    n = len(master.shares)
    if len(masks.vectors) != 2 * n:
        raise CardinalityMismatch(
            f"replication over {n} shares needs 2n = {2 * n} mask elements, "
            f"got {len(masks.vectors)}"
        )
    env.note_operation("set_replicate", n=n)
    derived, _ = _replicate_rounds(masks, master.shares, env)
    return AuthorizedShareSet.from_shares(SetRole.DERIVED, derived)


def equal_set_replicate(
    master: AuthorizedShareSet, env: ProtocolEnv
) -> AuthorizedShareSet:
    """Replicate a share set into a fresh set of the same cardinality."""
    _check_params(env, master)
    n = len(master.shares)
    env.note_operation("equal_set_replicate", n=n)
    masks = generate_mask_set(2 * n, env.source(ROLE_ACCUMULATOR), env.params)
    derived, _ = _replicate_rounds(masks, master.shares, env)
    return AuthorizedShareSet.from_shares(SetRole.DERIVED, derived)


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
    n = len(master.shares)
    if target_count <= n:
        raise InvalidTarget(
            f"target cardinality {target_count} must exceed source cardinality {n}"
        )
    env.note_operation("set_replicate_to_bigger", n=n, d=target_count)
    masks = generate_mask_set(target_count + n, env.source(ROLE_ACCUMULATOR), env.params)
    derived, _ = _replicate_rounds(masks, master.shares, env)
    for i in range(n, target_count):
        delivered = env.deliver(
            ACCUMULATOR,
            participant(SetRole.DERIVED.value, i + 1),
            KIND_DERIVED_SHARE,
            masks.vectors[i + n],
            element_index=i + 1,
        )
        derived.append(delivered)
    return AuthorizedShareSet.from_shares(SetRole.DERIVED, derived)


def set_replicate_to_smaller(
    master: AuthorizedShareSet, target_count: int, env: ProtocolEnv
) -> AuthorizedShareSet:
    """Replicate a share set into a strictly smaller (nonempty) one.

    The first target_count - 1 derived shares are produced as usual;
    the accumulator combines the blinded remainder of the source set
    into the single last share.
    """
    _check_params(env, master)
    n = len(master.shares)
    if target_count < 1 or target_count >= n:
        raise InvalidTarget(
            f"target cardinality {target_count} must lie in 1..{n - 1}"
        )
    env.note_operation("set_replicate_to_smaller", n=n, d=target_count)
    masks = generate_mask_set(n + target_count - 1, env.source(ROLE_ACCUMULATOR), env.params)
    derived, rest = _replicate_rounds(masks, master.shares, env, keep=target_count - 1)
    delivered = env.deliver(
        ACCUMULATOR,
        participant(SetRole.DERIVED.value, target_count),
        KIND_DERIVED_SHARE,
        combine(rest, env.params),
        element_index=target_count,
    )
    derived.append(delivered)
    return AuthorizedShareSet.from_shares(SetRole.DERIVED, derived)


def _fast_share_rounds(
    secret: ShareVector, count: int, env: ProtocolEnv
) -> list[ShareVector]:
    """The owner's split as messages to the accumulator.

    Unlike :func:`asgs.kgh.kgh_split`, the last share is read off the
    register from the *delivered* values, which tamper rules may have
    changed; ``kgh_split`` sends nothing, so it has nothing to tamper.
    """
    source = env.source(ROLE_OWNER)
    register = Accumulator(env.params)
    shares = []
    for i in range(1, count):
        share = source.next_vector(env.params)
        delivered = env.deliver(
            OWNER, ACCUMULATOR, KIND_OWNER_SHARE, share, element_index=i
        )
        assert isinstance(delivered, ShareVector)
        register.store(delivered)
        shares.append(share)
    delivered_secret = env.deliver(OWNER, ACCUMULATOR, KIND_SECRET, secret)
    assert isinstance(delivered_secret, ShareVector)
    register.store(delivered_secret)
    shares.append(register.read())
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
    return AuthorizedShareSet.from_shares(
        SetRole.OWNER, _fast_share_rounds(secret, count, env)
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
    dealer_source = env.source(ROLE_DEALER)
    masks = generate_mask_set(count, dealer_source, env.params)
    owner_shares = _fast_share_rounds(secret, count, env)
    assignment = env.draw_assignment(count)
    register = Accumulator(env.params)
    keys: list[ShareVector] = []
    protected_by_participant: dict[int, ShareVector] = {}
    for i in range(count):
        attempts = 0
        while True:
            key = dealer_source.next_vector(env.params)
            attempts += 1
            register.store(key)
            if i == count - 1 and register.read().is_zero():
                register.store(key)  # back the rejected key out of the register
                if attempts >= KEY_RETRY_LIMIT:
                    raise KeyRegenerationExhausted(
                        f"zero-sum guard rejected {attempts} key draws in a row"
                    )
                continue
            break
        keys.append(key)
        sealed_mask = masks.vectors[i] + key
        delivered_mask = env.deliver(DEALER, OWNER, KIND_MASKED_SHARE, sealed_mask)
        assert isinstance(delivered_mask, ShareVector)
        protected = delivered_mask + owner_shares[i]
        target = assignment[i]
        delivered = env.deliver(
            OWNER,
            participant(SetRole.PROTECTED.value, target),
            KIND_ENVELOPE_SHARE,
            protected,
            element_index=target,
        )
        assert isinstance(delivered, ShareVector)
        protected_by_participant[target] = delivered
    return SafeSharesState(
        params=env.params,
        protected=tuple(protected_by_participant[j] for j in range(1, count + 1)),
        keys=tuple(keys),
        masks=masks,
        owner_shares=tuple(owner_shares),
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
    """
    _check_params(env, state)
    count = len(state.protected)
    env.note_operation("activate_shares", n=count)
    identify = env.identify or (lambda index: True)
    activated: dict[int, ShareVector] = {}
    pending: list[int] = []
    for i in range(1, count + 1):
        holder = participant(SetRole.PROTECTED.value, i)
        env.deliver(DEALER, holder, KIND_KEY_REQUEST, True)
        passed = env.deliver(holder, DEALER, KIND_IDENTIFICATION, bool(identify(i)))
        if not passed:
            pending.append(i)
            continue
        delivered_key = env.deliver(
            DEALER, holder, KIND_KEY, state.keys[i - 1], element_index=i
        )
        assert isinstance(delivered_key, ShareVector)
        activated[i] = state.protected[i - 1] + delivered_key
    if pending:
        raise IdentificationFailed(pending, activated)
    return AuthorizedShareSet.from_shares(
        SetRole.ACTIVATED, [activated[i] for i in range(1, count + 1)]
    )
