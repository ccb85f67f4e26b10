"""Protocol engine: generation, replication, pre-positioning, auditing."""

import collections
import copy
import random
import sys
from operator import xor

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from asgs.devices import FixtureExhausted, derive_stream_seed
from asgs.kgh import (
    MAX_DIMENSION,
    AuthorizedShareSet,
    MaskSet,
    MixedParams,
    SchemeParams,
    SetRole,
    ShareVector,
    combine,
    mask_ints,
)
from asgs.protocol import (
    ACCUMULATOR,
    CLASS_CONTROL,
    CLASS_DERIVED_SHARE,
    CLASS_MASK_FOREIGN,
    CLASS_MASK_OWN,
    CLASS_MASKED_SHARE,
    CLASS_SEALED_MASK,
    CLASS_SECRET,
    CONTROL_KINDS,
    DEALER,
    FORBIDDEN,
    KIND_DERIVED_SHARE,
    KIND_ENVELOPE_SHARE,
    KIND_IDENTIFICATION,
    KIND_KEY,
    KIND_KEY_REQUEST,
    KIND_MASK_ELEMENT,
    KIND_MASKED_SHARE,
    KIND_OWNER_SHARE,
    KIND_SECRET,
    MESSAGE_KINDS,
    CardinalityMismatch,
    IdentificationFailed,
    InvalidTarget,
    KeyRegenerationExhausted,
    Message,
    OWNER,
    ROLE_DEALER,
    ROLE_PARTICIPANT,
    SOURCE_ROLES,
    Party,
    ProtocolEnv,
    TamperRule,
    Transcript,
    Violation,
    activate_shares,
    check_visibility,
    equal_set_replicate,
    fast_share,
    parse_party,
    participant,
    safe_shares,
    set_generate_m,
    set_replicate,
    set_replicate_to_bigger,
    set_replicate_to_smaller,
    _value_class,
)
from asgs.formats import dumps_transcript
from asgs.pvss import KeyAssignment, distribute_shares_and_keys, recover_xored_keys, verify
from helpers import P8, EagerWeaveEnv, append, bv, bvs, ints, per_row, rows


def fixture_env(dealer=None, owner=None, accumulator=None, params=P8, **kwargs):
    return ProtocolEnv.with_fixtures(
        params, dealer=dealer, owner=owner, accumulator=accumulator, **kwargs
    )


def master_set(values, params=P8):
    return AuthorizedShareSet.from_shares(SetRole.MASTER, bvs(values, params))


# (sender, recipient, kind, element_index) of the forbidden deliveries C10
# injects into an honest transcript.
C10_INJECTIONS = [
    (OWNER, DEALER, KIND_SECRET, None),
    (OWNER, DEALER, KIND_OWNER_SHARE, None),
    (OWNER, DEALER, KIND_ENVELOPE_SHARE, None),
    (ACCUMULATOR, OWNER, KIND_MASK_ELEMENT, 2),
    (DEALER, OWNER, KIND_KEY, None),
    (ACCUMULATOR, participant("2", 1), KIND_MASK_ELEMENT, 4),
    (ACCUMULATOR, participant("2", 1), KIND_DERIVED_SHARE, 1),
]
PARTIES = [DEALER, OWNER, ACCUMULATOR] + [
    participant(tag, i) for tag in ("1", "2", "3", "o", "p", "a") for i in (1, 2, 3)
]
# Kinds a transcript document may carry that the engine never sends;
# the audit classes them as control.
UNKNOWN_KINDS = ["ack", "telegram"]
# (sender, recipient, kind, element_index) of one delivery of each value
# class that C10_INJECTIONS lacks.
OTHER_CLASSES = [
    (ACCUMULATOR, participant("2", 1), KIND_MASK_ELEMENT, 1),
    (DEALER, OWNER, KIND_MASKED_SHARE, None),
    (participant("2", 1), ACCUMULATOR, KIND_MASKED_SHARE, 1),
    (DEALER, participant("2", 1), KIND_KEY_REQUEST, None),
    (DEALER, participant("2", 1), "ack", None),
]


class TestParties:
    def test_labels_round_trip(self):
        for party in (DEALER, OWNER, ACCUMULATOR, participant("2", 3)):
            assert parse_party(party.label()) == party

    def test_unknown_label_rejected(self):
        # Only the exact text Party.label prints is accepted: no leading
        # zeros, no non-ASCII digits.
        for label in ("banker", "p1-03", "p1-\u0663"):
            with pytest.raises(ValueError):
                parse_party(label)

    @pytest.mark.parametrize("tag", ['"x', "\u00e9", "", "a-b", " 1", "\u0661", 1, None])
    def test_set_tag_is_nonempty_ascii_alphanumeric(self, tag):
        with pytest.raises(ValueError, match="set tag must be"):
            Party(ROLE_PARTICIPANT, tag, 1)

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError, match="unknown role 'banker'"):
            Party("banker")

    @pytest.mark.parametrize("label", ['p"x-1', "p\u00e9-2", "p-1", "pa b-1", "p\u0661-1"])
    def test_label_with_another_set_tag_rejected(self, label):
        with pytest.raises(ValueError, match="unrecognized party label"):
            parse_party(label)

    def test_participant_needs_index(self):
        # The interning cache keeps results only, so a bad index raises
        # on every call, not just the first.
        for _ in range(2):
            with pytest.raises(ValueError):
                participant("2", 0)

    @pytest.mark.parametrize("index", [True, 2.0, "3"])
    def test_participant_index_is_an_int(self, index):
        # Party("participant", "8", 2.0) was labelled p8-2.0, which
        # parse_party rejects when the transcript is read back.
        with pytest.raises(ValueError, match="1-based int index"):
            Party(ROLE_PARTICIPANT, "8", index)

    def test_bool_index_does_not_enter_the_interning_cache(self):
        # participant("7", True) was cached under the key of ("7", 1), and
        # participant("7", 1) then returned a party labelled p7-True. Tag
        # "q7" is used nowhere else, so ("q7", 1) is not cached yet.
        with pytest.raises(ValueError, match="1-based int index"):
            participant("q7", True)
        assert participant("q7", 1).label() == "pq7-1"

    @pytest.mark.parametrize("index", [True, 1.0])
    @pytest.mark.parametrize("cached_first", [False, True])
    def test_non_int_index_is_refused_whatever_is_cached(self, cached_first, index):
        # Once ("7", 1) was cached, participant("7", True) and
        # participant("7", 1.0) returned p7-1; until then they raised. Each
        # case uses a tag no other test uses.
        tag = f"c{int(cached_first)}{type(index).__name__}"
        if cached_first:
            participant(tag, 1)
        with pytest.raises(ValueError, match="1-based int index"):
            participant(tag, index)
        assert participant(tag, 1).label() == f"p{tag}-1"

    def test_participants_are_interned(self):
        assert participant("2", 5) is participant("2", 5)
        assert parse_party("p2-5") is participant("2", 5)
        assert parse_party("dealer") is DEALER

    def test_policy_key_refines_participants_by_set(self):
        assert participant("2", 3).key == "participant:2"
        assert DEALER.key == "dealer"

    def test_key_and_label_are_built_once_and_ignored_by_equality(self):
        party = participant("a", 12)
        assert party.label() is party.label() == "pa-12"
        assert party.key is party.key == "participant:a"
        built = Party(ROLE_PARTICIPANT, "a", 12)
        assert built is not party
        assert built == party and hash(built) == hash(party)
        assert repr(built) == "Party(role='participant', set_tag='a', index=12)"
        assert Party(ROLE_DEALER) == DEALER and Party(ROLE_DEALER).label() == "dealer"


class TestMessage:
    FIELDS = (1, ACCUMULATOR, participant("2", 1), KIND_MASK_ELEMENT, bv(0x42), 1)

    def test_equal_fields_make_equal_messages_with_equal_hashes(self):
        first, second = Message(*self.FIELDS), Message(*self.FIELDS)
        assert first == second
        assert hash(first) == hash(second)
        assert first != Message(*self.FIELDS[:-1], 2)

    def test_a_message_is_not_a_tuple(self):
        message = Message(*self.FIELDS)
        assert message != self.FIELDS
        assert self.FIELDS != message
        with pytest.raises(TypeError):
            message[0]


class TestTranscript:
    def test_iteration_and_length(self):
        transcript = Transcript()
        append(transcript, Message(1, DEALER, OWNER, KIND_KEY_REQUEST, True))
        assert len(transcript) == 1
        assert next(iter(transcript)).kind == KIND_KEY_REQUEST

    def test_steps_iterate_back_as_equal_messages(self):
        steps = [
            Message(3, ACCUMULATOR, participant("2", 1), KIND_MASK_ELEMENT, bv(0x42), 1),
            Message(7, DEALER, participant("a", 2), KIND_KEY_REQUEST, True),
            Message(8, participant("a", 2), DEALER, KIND_IDENTIFICATION, False),
            Message(20, OWNER, ACCUMULATOR, KIND_SECRET, bv(0x00)),
        ]
        transcript = Transcript({"bits": 8})
        for message in steps:
            append(transcript, message)
        assert list(transcript) == steps
        assert transcript.params == P8
        # Stored as one one-row round per message, payloads as ints and bools.
        stored = [part for (part,) in transcript.rounds]
        assert [seq for part in stored for seq in part[0]] == [3, 7, 8, 20]
        payloads = [payload for part in stored for payload in part[4]]
        assert payloads == [0x42, True, False, 0x00]
        assert [type(p) for p in payloads] == [int, bool, bool, int]
        assert [part[5] for part in stored] == [1, None, None, None]

    def test_params_follow_a_valid_config_width(self):
        assert Transcript({"bits": 8}).params == P8
        for bits in (None, 0, True, "8", MAX_DIMENSION + 1):
            assert Transcript({"bits": bits}).params is None

    def test_env_writes_its_width_last(self):
        env = ProtocolEnv.with_fixtures(P8, config={"bits": 16})
        assert env.transcript.config["bits"] == 8
        assert env.transcript.params == P8

    @pytest.mark.parametrize("make", [lambda: ProtocolEnv.seeded(1, 16),
                                      lambda: ProtocolEnv.with_fixtures(SchemeParams.binary(16))])
    def test_env_and_transcript_share_one_params(self, make):
        env = make()
        assert env.transcript.params is env.params is SchemeParams.binary(16)


class TestDeliver:
    def test_returns_packed_ints_and_bools(self):
        env = ProtocolEnv.seeded(1, 8)
        holder = participant("a", 1)
        delivered = [
            env.deliver(DEALER, OWNER, KIND_MASKED_SHARE, 0x5A),
            env.deliver(DEALER, holder, KIND_KEY_REQUEST, True),
            env.deliver(holder, DEALER, KIND_IDENTIFICATION, False),
            env.deliver(DEALER, holder, KIND_KEY, 0x00, 1),
        ]
        assert delivered == [0x5A, True, False, 0x00]
        assert [type(p) for p in delivered] == [int, bool, bool, int]
        assert [row[4] for row in rows(env.transcript)] == delivered
        assert [row[0] for row in rows(env.transcript)] == [1, 2, 3, 4]
        assert [m.payload for m in env.transcript] == [bv(0x5A), True, False, bv(0x00)]

    @pytest.mark.parametrize("bit", range(8))
    def test_tamper_flips_exactly_the_named_bit_of_an_int(self, bit):
        rule = TamperRule("dealer", KIND_KEY, 2, bit)
        env = ProtocolEnv.seeded(1, 8, tamper_rules=(rule,))
        first = env.deliver(DEALER, OWNER, KIND_KEY, 0x5A)
        second = env.deliver(DEALER, OWNER, KIND_KEY, 0x5A)
        assert (first, second) == (0x5A, 0x5A ^ (1 << bit))
        assert type(second) is int
        assert [row[4] for row in rows(env.transcript)] == [first, second]
        assert env.tamper_fired == [(rule, 2)]

    @pytest.mark.parametrize("bit", [-1, 8])
    def test_tamper_bit_outside_the_width_is_rejected(self, bit):
        # A negative bit is rejected by the rule, a bit past the width by
        # the environment: both before any message is sent.
        message = "bit index must be >= 0" if bit < 0 else "bit index 8 outside 0..7"
        with pytest.raises(ValueError, match=message):
            ProtocolEnv.seeded(1, 8, tamper_rules=(TamperRule("dealer", KIND_KEY, 1, bit),))


class TestSetGenerateM:
    def test_worked_fixture(self):
        env = fixture_env(accumulator=[0x01, 0x02, 0x04, 0x08])
        template, master = set_generate_m(2, 3, env)
        assert ints(template.shares) == [0x01, 0x02]
        assert ints(master.shares) == [0x04, 0x08, 0x0F]
        assert combine(template.shares).to_int() == 0x03
        assert combine(master.shares).to_int() == 0x03

    def test_pair_cancellation(self):
        env = fixture_env(accumulator=[0x7E])
        template, master = set_generate_m(1, 1, env)
        assert ints(template.shares) == [0x7E]
        assert ints(master.shares) == [0x7E]

    def test_balancing_element(self):
        env = fixture_env(accumulator=[0x10, 0x01])
        template, master = set_generate_m(1, 2, env)
        assert ints(template.shares) == [0x10]
        assert ints(master.shares) == [0x01, 0x11]

    def test_roles_assigned(self):
        env = fixture_env(accumulator=[0x7E])
        template, master = set_generate_m(1, 1, env)
        assert template.role is SetRole.TEMPLATE
        assert master.role is SetRole.MASTER

    def test_cardinalities_must_be_positive(self):
        env = fixture_env(accumulator=[])
        with pytest.raises(ValueError):
            set_generate_m(0, 3, env)

    def test_secret_never_appears_in_transcript(self):
        """The joint value exists only as the combination, never sent."""
        env = fixture_env(accumulator=[0x01, 0x02, 0x04, 0x08])
        template, master = set_generate_m(2, 3, env)
        secret = combine(template.shares)
        assert all(m.kind != KIND_SECRET for m in env.transcript)
        assert all(
            m.payload != secret for m in env.transcript if isinstance(m.payload, ShareVector)
        )

    @given(st.integers(1, 16), st.integers(1, 16), st.integers(0, 2**31))
    def test_both_sets_agree_for_any_seed(self, d, n, seed):
        env = ProtocolEnv.seeded(seed, 8)
        template, master = set_generate_m(d, n, env)
        assert combine(template.shares) == combine(master.shares)
        assert (len(template), len(master)) == (d, n)


class TestSetReplicate:
    def test_worked_fixture(self):
        masks = MaskSet([0x10, 0x20, 0x30, 0x40, 0x50, 0x10], P8)
        derived = set_replicate(masks, master_set([0x04, 0x08, 0x0F]), fixture_env())
        assert ints(derived.shares) == [0x54, 0x78, 0x2F]
        assert combine(derived.shares).to_int() == 0x03

    def test_zero_masks_are_identity(self):
        masks = MaskSet([0x00, 0x00], P8)
        derived = set_replicate(masks, master_set([0x7E]), fixture_env())
        assert ints(derived.shares) == [0x7E]

    def test_paired_masks_cancel(self):
        masks = MaskSet([0x01, 0x02, 0x01, 0x02], P8)
        derived = set_replicate(masks, master_set([0x05, 0x06]), fixture_env())
        assert ints(derived.shares) == [0x05, 0x06]

    def test_cardinality_check(self):
        masks = MaskSet([0x01, 0x01], P8)
        with pytest.raises(CardinalityMismatch):
            set_replicate(masks, master_set([0x05, 0x06]), fixture_env())

    def test_derived_role(self):
        masks = MaskSet([0x00, 0x00], P8)
        assert set_replicate(masks, master_set([0x7E]), fixture_env()).role is SetRole.DERIVED


class TestEqualSetReplicate:
    def test_worked_fixture(self):
        env = fixture_env(accumulator=[0x10, 0x20, 0x30, 0x40, 0x50])
        derived = equal_set_replicate(master_set([0x04, 0x08, 0x0F]), env)
        assert ints(derived.shares) == [0x54, 0x78, 0x2F]

    def test_single_share_forces_cancellation(self):
        env = fixture_env(accumulator=[0x33])
        derived = equal_set_replicate(master_set([0x7E]), env)
        assert ints(derived.shares) == [0x7E]

    def test_rederived_two_share_fixture(self):
        # oracle: masks = [AA, BB, CC, AA^BB^CC=DD]; shares XOR their pair
        expected = oracles.equal_replicate(
            oracles.stream([0xAA, 0xBB, 0xCC]), [0x05, 0x06]
        )
        assert expected == [0x63, 0x60]
        env = fixture_env(accumulator=[0xAA, 0xBB, 0xCC])
        derived = equal_set_replicate(master_set([0x05, 0x06]), env)
        assert ints(derived.shares) == expected
        assert combine(derived.shares).to_int() == 0x03

    def test_derived_share_formula_against_own_masks(self):
        """White box: each derived share is source XOR mask XOR paired mask,
        and the mask elements reconstructed from the transcript form a
        zero-sum set."""
        env = ProtocolEnv.seeded(404, 8)
        source = master_set([0x04, 0x08, 0x0F])
        derived = equal_set_replicate(source, env)
        head = [m.payload for m in env.transcript if m.kind == KIND_MASK_ELEMENT]
        blinded = [m.payload for m in env.transcript if m.kind == KIND_MASKED_SHARE]
        n = len(source.shares)
        assert len(head) == n and len(blinded) == n
        for i in range(n):
            assert blinded[i] == source.shares[i] + head[i]
        tail = [derived.shares[i] + blinded[i] for i in range(n)]
        assert combine(head + tail).is_zero()
        for i in range(n):
            assert derived.shares[i] == source.shares[i] + head[i] + tail[i]


class TestSetReplicateToBigger:
    def test_worked_fixture(self):
        env = fixture_env(accumulator=[0x01, 0x02, 0x03, 0x04])
        derived = set_replicate_to_bigger(master_set([0x05, 0x06]), 3, env)
        assert ints(derived.shares) == [0x07, 0x00, 0x04]
        assert combine(derived.shares).to_int() == 0x03

    def test_single_to_double(self):
        env = fixture_env(accumulator=[0x10, 0x20])
        derived = set_replicate_to_bigger(master_set([0x7E]), 2, env)
        assert ints(derived.shares) == [0x4E, 0x30]
        assert combine(derived.shares).to_int() == 0x7E

    def test_zero_randomness_appends_zero_share(self):
        env = fixture_env(accumulator=[0x00, 0x00, 0x00, 0x00])
        derived = set_replicate_to_bigger(master_set([0x05, 0x06]), 3, env)
        assert ints(derived.shares) == [0x05, 0x06, 0x00]

    @pytest.mark.parametrize("target", [1, 2])
    def test_target_must_exceed_source(self, target):
        with pytest.raises(InvalidTarget):
            set_replicate_to_bigger(master_set([0x05, 0x06]), target, fixture_env())


class TestSetReplicateToSmaller:
    def test_worked_fixture(self):
        env = fixture_env(accumulator=[0xA0, 0xB0, 0xC0])
        derived = set_replicate_to_smaller(master_set([0x04, 0x08, 0x0F]), 2, env)
        assert ints(derived.shares) == [0x74, 0x77]
        assert combine(derived.shares).to_int() == 0x03

    def test_collapse_to_single_share(self):
        env = fixture_env(accumulator=[0x55])
        derived = set_replicate_to_smaller(master_set([0x01, 0x02]), 1, env)
        assert ints(derived.shares) == [0x03]

    def test_zero_randomness_collapses_tail(self):
        env = fixture_env(accumulator=[0x00, 0x00, 0x00, 0x00])
        derived = set_replicate_to_smaller(master_set([0x04, 0x08, 0x0F]), 2, env)
        assert ints(derived.shares) == [0x04, 0x07]

    @pytest.mark.parametrize("target", [0, 3, 4])
    def test_target_must_be_a_proper_shrink(self, target):
        with pytest.raises(InvalidTarget):
            set_replicate_to_smaller(master_set([0x04, 0x08, 0x0F]), target, fixture_env())


class TestReplicationProperties:
    @given(st.integers(0, 2**31), st.integers(1, 12), st.data())
    def test_chains_preserve_the_secret(self, seed, start_count, data):
        env = ProtocolEnv.seeded(seed, 8)
        rng = random.Random(seed ^ 0xC0FFEE)
        current = master_set(
            [rng.randrange(256) for _ in range(start_count)]
        )
        expected = combine(current.shares)
        for _ in range(data.draw(st.integers(1, 6))):
            n = len(current.shares)
            moves = ["equal"]
            if n < 12:
                moves.append("bigger")
            if n > 1:
                moves.append("smaller")
            move = rng.choice(moves)
            if move == "equal":
                current = equal_set_replicate(current, env)
                assert len(current.shares) == n
            elif move == "bigger":
                target = rng.randrange(n + 1, 13)
                current = set_replicate_to_bigger(current, target, env)
                assert len(current.shares) == target
            else:
                target = rng.randrange(1, n)
                current = set_replicate_to_smaller(current, target, env)
                assert len(current.shares) == target
            assert combine(current.shares) == expected


class TestFastShare:
    def test_worked_fixture(self):
        env = fixture_env(owner=[0x11, 0x22])
        shares = fast_share(bv(0x5A), 3, env)
        assert ints(shares.shares) == [0x11, 0x22, 0x69]
        assert shares.role is SetRole.OWNER

    def test_degenerate_single_share(self):
        env = fixture_env(owner=[])
        shares = fast_share(bv(0x5A), 1, env)
        assert ints(shares.shares) == [0x5A]

    def test_zero_secret_pair_cancels(self):
        env = fixture_env(owner=[0xFF])
        shares = fast_share(bv(0x00), 2, env)
        assert ints(shares.shares) == [0xFF, 0xFF]

    def test_owner_sends_secret_once_and_receives_nothing(self):
        env = fixture_env(owner=[0x11, 0x22])
        fast_share(bv(0x5A), 3, env)
        secret_sends = [m for m in env.transcript if m.kind == KIND_SECRET]
        assert len(secret_sends) == 1
        assert secret_sends[0].sender == OWNER
        assert not [m for m in env.transcript if m.recipient == OWNER]

    @given(st.integers(0, 0xFF), st.integers(1, 12), st.integers(0, 2**31))
    def test_recovery_for_any_seed(self, secret, count, seed):
        env = ProtocolEnv.seeded(seed, 8)
        shares = fast_share(bv(secret), count, env)
        assert len(shares) == count
        assert combine(shares.shares).to_int() == secret


class TestSafeShares:
    def test_worked_chain(self):
        env = fixture_env(dealer=[0x0F, 0x21, 0x43], owner=[0x55])
        state = safe_shares(bv(0x03), 2, env)
        assert ints(state.masks.vectors) == [0x0F, 0x0F]
        assert ints(state.keys) == [0x21, 0x43]
        assert ints(state.owner_shares) == [0x55, 0x56]
        assert ints(state.protected) == [0x7B, 0x1A]
        assert state.assignment == (1, 2)

    def test_protected_xor_is_masked_by_the_key_sum(self):
        env = fixture_env(dealer=[0x0F, 0x21, 0x43], owner=[0x55])
        state = safe_shares(bv(0x03), 2, env)
        keys_xor = combine(state.keys)
        assert combine(state.protected) == bv(0x03) + keys_xor
        assert not keys_xor.is_zero()

    def test_zero_key_sum_triggers_one_regeneration(self):
        env = fixture_env(dealer=[0x0F, 0x21, 0x21, 0x43], owner=[0x55])
        state = safe_shares(bv(0x03), 2, env)
        assert ints(state.keys) == [0x21, 0x43]
        # four dealer draws: one mask, two keys, one regenerated key
        assert env.source("dealer").consumed == 4

    def test_single_zero_key_is_rejected(self):
        env = fixture_env(dealer=[0x00, 0x77], owner=[])
        state = safe_shares(bv(0x03), 1, env)
        assert ints(state.keys) == [0x77]

    def test_retry_bound_raises(self):
        env = fixture_env(dealer=[0x00] * 64, owner=[])
        with pytest.raises(KeyRegenerationExhausted):
            safe_shares(bv(0x03), 1, env)

    def test_draw_just_under_the_bound_succeeds(self):
        env = fixture_env(dealer=[0x00] * 63 + [0x5A], owner=[])
        state = safe_shares(bv(0x03), 1, env)
        assert ints(state.keys) == [0x5A]

    def test_explicit_assignment_routes_envelopes(self):
        env = fixture_env(
            dealer=[0x0F, 0x21, 0x43], owner=[0x55], assignment=(2, 1)
        )
        state = safe_shares(bv(0x03), 2, env)
        # original share 1 went to participant 2 and vice versa
        assert ints(state.protected) == [0x1A, 0x7B]
        assert state.assignment == (2, 1)

    def test_bad_assignment_rejected(self):
        with pytest.raises(ValueError):
            env = fixture_env(dealer=[0x0F, 0x21, 0x43], owner=[0x55], assignment=(1, 1))
            safe_shares(bv(0x03), 2, env)

    @pytest.mark.parametrize("assignment, message", [
        ((True, 2), "assignment entries must be ints"),
        ((1.0, 2), "assignment entries must be ints"),
        ((1, 3), "assignment must be a permutation of participant indices"),
    ])
    def test_bad_assignment_is_refused_when_the_env_is_built(self, assignment, message):
        # (True, 2) was accepted, and safe_shares failed after logging
        # two rows and the operation note.
        with pytest.raises(ValueError, match=message):
            fixture_env(dealer=[0x0F, 0x21, 0x43], owner=[0x55], assignment=assignment)

    def test_wrong_length_assignment_sends_and_draws_nothing(self):
        env = fixture_env(dealer=[0x0F, 0x21, 0x43], owner=[0x55], accumulator=[0x01],
                          assignment=(2, 1, 3))
        with pytest.raises(ValueError, match=r"is not a permutation of 1\.\.2"):
            safe_shares(bv(0x03), 2, env)
        assert len(env.transcript) == 0
        assert "operations" not in env.transcript.config
        assert [env.source(role).consumed for role in SOURCE_ROLES] == [0, 0, 0]

    def test_dealer_sends_sealed_masks_not_raw_masks(self):
        env = fixture_env(dealer=[0x0F, 0x21, 0x43], owner=[0x55])
        state = safe_shares(bv(0x03), 2, env)
        sealed = [
            m.payload.to_int()
            for m in env.transcript
            if m.kind == KIND_MASKED_SHARE and m.sender == DEALER
        ]
        assert sealed == [0x0F ^ 0x21, 0x0F ^ 0x43]
        assert sealed != ints(state.masks.vectors)

    @given(st.integers(0, 2**31), st.integers(1, 8), st.integers(0, 0xFF))
    def test_key_sum_never_zero_and_protected_never_recover(self, seed, count, secret):
        env = ProtocolEnv.seeded(seed, 8)
        state = safe_shares(bv(secret), count, env)
        assert not combine(state.keys).is_zero()
        assert combine(state.protected).to_int() != secret


class TestActivateShares:
    def test_identity_assignment(self):
        env = fixture_env(dealer=[0x0F, 0x21, 0x43], owner=[0x55])
        state = safe_shares(bv(0x03), 2, env)
        activated = activate_shares(state, env)
        assert ints(activated.shares) == [0x5A, 0x59]
        assert combine(activated.shares).to_int() == 0x03
        assert activated.role is SetRole.ACTIVATED

    def test_swapped_assignment(self):
        env = fixture_env(
            dealer=[0x0F, 0x21, 0x43], owner=[0x55], assignment=(2, 1)
        )
        state = safe_shares(bv(0x03), 2, env)
        activated = activate_shares(state, env)
        assert ints(activated.shares) == [0x3B, 0x38]
        assert combine(activated.shares).to_int() == 0x03

    def test_single_share_activates_to_secret(self):
        env = fixture_env(dealer=[0x77], owner=[])
        state = safe_shares(bv(0x03), 1, env)
        activated = activate_shares(state, env)
        assert ints(activated.shares) == [0x03]

    def test_identification_failure_reports_pending(self):
        env = fixture_env(
            dealer=[0x0F, 0x21, 0x43],
            owner=[0x55],
            tamper_rules=(TamperRule("pp-2", KIND_IDENTIFICATION, 1, 0),),
        )
        state = safe_shares(bv(0x03), 2, env)
        with pytest.raises(IdentificationFailed) as excinfo:
            activate_shares(state, env)
        assert excinfo.value.pending == (2,)
        assert set(excinfo.value.activated) == {1}

    def test_state_params_must_match_env(self):
        env = fixture_env(dealer=[0x77], owner=[])
        state = safe_shares(bv(0x03), 1, env)
        other = ProtocolEnv.seeded(1, 16)
        with pytest.raises(MixedParams):
            activate_shares(state, other)

    @given(st.integers(0, 2**31), st.integers(1, 8), st.integers(0, 0xFF))
    def test_recovery_for_random_assignments(self, seed, count, secret):
        env = ProtocolEnv.seeded(seed, 8)
        state = safe_shares(bv(secret), count, env)
        activated = activate_shares(state, env)
        assert combine(activated.shares).to_int() == secret


class TestEnvironment:
    def test_missing_source_is_an_error(self):
        env = fixture_env(dealer=[0x01])
        with pytest.raises(ValueError):
            env.source("owner")

    def test_seeded_assignment_is_a_permutation(self):
        env = ProtocolEnv.seeded(5, 8)
        drawn = env.draw_assignment(6)
        assert sorted(drawn) == [1, 2, 3, 4, 5, 6]

    def test_streams_are_seeded_at_their_first_draw(self, monkeypatch):
        source_env = ProtocolEnv.seeded(4, 8)
        state = safe_shares(bv(0x42), 3, source_env)
        template, master = set_generate_m(2, 3, source_env)
        bulletin, assignment = distribute_shares_and_keys(template, master, source_env)
        seeded = []

        class Recorded(random.Random):
            def __init__(self, seed):
                seeded.append(seed)
                super().__init__(seed)

        monkeypatch.setattr(random, "Random", Recorded)
        env = ProtocolEnv.seeded(5, 8)
        verify(bulletin, assignment, env)
        activate_shares(state, env)
        assert seeded == []
        safe_shares(bv(0x42), 3, env)
        assert sorted(seeded) == sorted(
            derive_stream_seed(5, label) for label in ("dealer", "owner", "assignment")
        )

    def test_fixture_assignment_defaults_to_identity(self):
        assert fixture_env().draw_assignment(3) == (1, 2, 3)

    def test_an_assignment_count_past_ssize_t_is_refused_before_any_range(self):
        # range(1, count + 1) could not be listed: an OverflowError escaped.
        for env in (ProtocolEnv.seeded(5, 8), fixture_env(),
                    fixture_env(assignment=(2, 1))):
            for count in (sys.maxsize + 1, 2**70, -1):
                with pytest.raises(ValueError, match=r"draw count must lie in 0\.\."):
                    env.draw_assignment(count)
            with pytest.raises(ValueError, match=r"draw count must lie in 0\.\."):
                safe_shares(bv(0x42), 2**70, env)
            assert len(env.transcript) == 0
            assert "operations" not in env.transcript.config

    def test_operations_echoed_into_config(self):
        env = fixture_env(owner=[0x11, 0x22])
        fast_share(bv(0x5A), 3, env)
        assert env.transcript.config["operations"] == [
            {"algorithm": "fast_share", "n": 3}
        ]

    def test_config_echo_describes_randomness(self):
        seeded = ProtocolEnv.seeded(9, 8)
        assert seeded.transcript.config["randomness"]["seed"] == 9
        assert seeded.transcript.config["bits"] == 8

    def test_exhausted_fixture_surfaces(self):
        env = fixture_env(owner=[0x11])
        with pytest.raises(FixtureExhausted):
            fast_share(bv(0x5A), 3, env)


class TestDeterminism:
    def test_identical_seeds_reproduce_the_transcript(self):
        def run(seed):
            env = ProtocolEnv.seeded(seed, 8)
            state = safe_shares(bv(0x42), 3, env)
            activate_shares(state, env)
            return [
                (m.seq, m.sender.label(), m.recipient.label(), m.kind,
                 m.payload if isinstance(m.payload, bool) else m.payload.to_int())
                for m in env.transcript
            ]

        assert run(77) == run(77)
        assert run(77) != run(78)

    def test_tamper_rules_are_part_of_the_environment(self):
        def run(rules):
            env = ProtocolEnv.seeded(3, 8, tamper_rules=rules)
            return ints(safe_shares(bv(0x42), 2, env).protected)

        rule = TamperRule("owner", KIND_ENVELOPE_SHARE, 1, 0)
        assert run(()) == run(())
        assert run((rule,)) == run((rule,))
        assert run(()) != run((rule,))


class TestTamper:
    def test_flips_exactly_the_addressed_bit(self):
        rule = TamperRule("owner", KIND_ENVELOPE_SHARE, 1, 0)
        clean = fixture_env(dealer=[0x0F, 0x21, 0x43], owner=[0x55])
        tampered = fixture_env(
            dealer=[0x0F, 0x21, 0x43], owner=[0x55], tamper_rules=(rule,)
        )
        before = safe_shares(bv(0x03), 2, clean)
        after = safe_shares(bv(0x03), 2, tampered)
        assert ints(after.protected) == [ints(before.protected)[0] ^ 0x01,
                                         ints(before.protected)[1]]

    def test_occurrence_counts_per_sender_and_kind(self):
        rule = TamperRule("owner", KIND_ENVELOPE_SHARE, 2, 7)
        tampered = fixture_env(
            dealer=[0x0F, 0x21, 0x43], owner=[0x55], tamper_rules=(rule,)
        )
        after = safe_shares(bv(0x03), 2, tampered)
        assert ints(after.protected) == [0x7B, 0x1A ^ 0x80]

    def test_boolean_payloads_flip_on_bit_zero(self):
        rule = TamperRule("p" + SetRole.PROTECTED.value + "-1", "identification", 1, 0)
        env = fixture_env(
            dealer=[0x0F, 0x21, 0x43], owner=[0x55], tamper_rules=(rule,)
        )
        state = safe_shares(bv(0x03), 2, env)
        with pytest.raises(IdentificationFailed) as excinfo:
            activate_shares(state, env)
        assert excinfo.value.pending == (1,)

    def test_fired_rules_are_recorded_with_their_seq(self):
        fired = TamperRule("owner", KIND_ENVELOPE_SHARE, 2, 7)
        idle = TamperRule("dealer", KIND_KEY, 1, 0)
        env = fixture_env(
            dealer=[0x0F, 0x21, 0x43], owner=[0x55], tamper_rules=(fired, idle)
        )
        safe_shares(bv(0x03), 2, env)
        envelopes = [m for m in env.transcript if m.kind == KIND_ENVELOPE_SHARE]
        assert env.tamper_fired == [(fired, envelopes[1].seq)]
        assert "tamper_fired" not in env.transcript.config

    @pytest.mark.parametrize("fields, message", [
        (("nobody", KIND_KEY, 1, 0), "unrecognized party label"),
        (("p1-01", KIND_KEY, 1, 0), "unrecognized party label"),
        (("dealer", "telegram", 1, 0), "unknown message kind"),
        (("dealer", KIND_KEY, 0, 0), "occurrence counts from 1"),
        (("dealer", KIND_KEY, 1, -1), "bit index must be >= 0"),
        (("dealer", KIND_KEY, 1.0, 0), "occurrence must be an int, got 1.0"),
        (("dealer", KIND_KEY, True, 0), "occurrence must be an int, got True"),
        (("dealer", KIND_KEY, 1, 2.0), "bit index must be an int, got 2.0"),
        (("dealer", KIND_KEY, 1, True), "bit index must be an int, got True"),
    ])
    def test_invalid_rules_are_rejected_at_construction(self, fields, message):
        with pytest.raises(ValueError, match=message):
            TamperRule(*fields)

    @pytest.mark.parametrize("kind, bit, width", [
        (KIND_KEY, 8, 8), (KIND_KEY_REQUEST, 1, 1), (KIND_IDENTIFICATION, 1, 1),
    ])
    def test_bit_outside_the_payload_is_rejected_by_the_environment(self, kind, bit, width):
        rule = TamperRule("dealer", kind, 1, bit)
        message = f"tamper rule {rule.spec()}: bit index {bit} outside 0..{width - 1}"
        with pytest.raises(ValueError, match=message):
            ProtocolEnv.seeded(1, 8, tamper_rules=(rule,))
        ProtocolEnv.seeded(1, 8, tamper_rules=(TamperRule("dealer", kind, 1, bit - 1),))

    def test_rule_spec_round_trip(self):
        rule = TamperRule("dealer", KIND_KEY, 2, 0)
        assert rule.spec() == "dealer:key:2:bit:0"

    def test_tampered_key_breaks_recovery(self):
        rule = TamperRule("dealer", KIND_KEY, 1, 3)
        env = fixture_env(
            dealer=[0x0F, 0x21, 0x43], owner=[0x55], tamper_rules=(rule,)
        )
        state = safe_shares(bv(0x03), 2, env)
        activated = activate_shares(state, env)
        assert combine(activated.shares).to_int() == 0x03 ^ 0x08


# Replications of the source set [04, 08, 0F]: the operation, its
# accumulator draws, and the derived shares of an untampered run.
RELAY_CASES = {
    "equal": (
        lambda env: equal_set_replicate(master_set([0x04, 0x08, 0x0F]), env),
        [0x10, 0x20, 0x30, 0x40, 0x50],
        [0x54, 0x78, 0x2F],
    ),
    "bigger": (
        lambda env: set_replicate_to_bigger(master_set([0x04, 0x08, 0x0F]), 5, env),
        [0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x71],
        [0x54, 0x78, 0x5F, 0x71, 0x01],
    ),
    "smaller": (
        lambda env: set_replicate_to_smaller(master_set([0x04, 0x08, 0x0F]), 2, env),
        [0xA0, 0xB0, 0xC0],
        [0x74, 0x77],
    ),
}


def flipped(values, position, mask):
    return [v ^ mask if j == position else v for j, v in enumerate(values)]


class TestTamperInRounds:
    """Tamper rules inside a message round: occurrences count per
    (sender label, kind), a relay forwards the value it was delivered,
    and ``tamper_fired`` lists (rule, seq) in seq order."""

    @staticmethod
    def replicate(case, *rules):
        operation, draws, _ = RELAY_CASES[case]
        env = fixture_env(accumulator=draws, tamper_rules=rules)
        return ints(operation(env).shares), env

    @pytest.mark.parametrize("case", RELAY_CASES)
    def test_untampered_runs(self, case):
        shares, env = self.replicate(case)
        assert shares == RELAY_CASES[case][2]
        assert env.tamper_fired == []

    # Seqs: three mask elements, then each blinded share followed by the
    # derived share it becomes; to_smaller(2) re-deals only the first.
    @pytest.mark.parametrize("case, holder, position, seq", [
        ("equal", 1, 0, 4), ("equal", 2, 1, 6), ("equal", 3, 2, 8),
        ("bigger", 1, 0, 4), ("bigger", 2, 1, 6), ("bigger", 3, 2, 8),
        ("smaller", 1, 0, 4), ("smaller", 2, 1, 6), ("smaller", 3, 1, 7),
    ])
    def test_blinded_share_tamper_flips_the_derived_share(self, case, holder, position, seq):
        rule = TamperRule(f"p2-{holder}", KIND_MASKED_SHARE, 1, 5)
        shares, env = self.replicate(case, rule)
        assert shares == flipped(RELAY_CASES[case][2], position, 0x20)
        assert env.tamper_fired == [(rule, seq)]

    @pytest.mark.parametrize("case, occurrence, seq", [
        ("equal", 1, 5), ("equal", 2, 7), ("equal", 3, 9),
        ("bigger", 1, 5), ("bigger", 3, 9), ("bigger", 4, 10), ("bigger", 5, 11),
        ("smaller", 1, 5), ("smaller", 2, 8),
    ])
    def test_derived_share_tamper_flips_only_that_share(self, case, occurrence, seq):
        rule = TamperRule("accumulator", KIND_DERIVED_SHARE, occurrence, 0)
        shares, env = self.replicate(case, rule)
        assert shares == flipped(RELAY_CASES[case][2], occurrence - 1, 0x01)
        assert env.tamper_fired == [(rule, seq)]

    @pytest.mark.parametrize("bits, expected", [((0, 6), 0x78 ^ 0x41), ((3, 3), 0x78)])
    def test_two_rules_fire_on_the_same_row(self, bits, expected):
        rules = [TamperRule("p2-2", KIND_MASKED_SHARE, 1, bit) for bit in bits]
        shares, env = self.replicate("equal", *rules)
        assert shares == [0x54, expected, 0x2F]
        assert env.tamper_fired == [(rules[0], 6), (rules[1], 6)]

    def test_fired_rules_are_listed_in_seq_order(self):
        rules = [
            TamperRule("accumulator", KIND_DERIVED_SHARE, 3, 0),
            TamperRule("p2-3", KIND_MASKED_SHARE, 1, 1),
            TamperRule("accumulator", KIND_DERIVED_SHARE, 1, 2),
            TamperRule("p2-1", KIND_MASKED_SHARE, 1, 3),
            TamperRule("accumulator", KIND_MASK_ELEMENT, 2, 4),
        ]
        shares, env = self.replicate("equal", *rules)
        assert shares == [0x54 ^ 0x0C, 0x78 ^ 0x10, 0x2F ^ 0x03]
        assert env.tamper_fired == [
            (rules[4], 2), (rules[3], 4), (rules[2], 5), (rules[1], 8), (rules[0], 9),
        ]

    @pytest.mark.parametrize("kind, occurrence, seq", [
        (KIND_SECRET, 1, 3), (KIND_OWNER_SHARE, 1, 1), (KIND_OWNER_SHARE, 2, 2),
    ])
    def test_owner_tamper_flips_the_last_fast_share(self, kind, occurrence, seq):
        # The last share is read off the register, which folds in the
        # delivered values; the drawn shares are kept as drawn.
        rule = TamperRule("owner", kind, occurrence, 7)
        env = fixture_env(owner=[0x11, 0x22], tamper_rules=(rule,))
        assert ints(fast_share(bv(0x5A), 3, env).shares) == [0x11, 0x22, 0x69 ^ 0x80]
        assert env.tamper_fired == [(rule, seq)]

    def test_a_rule_that_never_fires_changes_nothing(self):
        # A rule that matches no row leaves every round untouched: the
        # rounds are appended as the same blocks as with no rule at all.
        def run(rules):
            env = ProtocolEnv.seeded(11, 16, tamper_rules=rules)
            secret = ShareVector.from_int(env.params, 0xBEEF)
            state = safe_shares(secret, 9, env)
            outputs = [state.protected, state.keys, activate_shares(state, env).shares,
                       fast_share(secret, 10, env).shares]
            template, current = set_generate_m(7, 12, env)
            for replicate, args in ((set_replicate_to_bigger, (20,)),
                                    (set_replicate_to_smaller, (5,)),
                                    (equal_set_replicate, ())):
                current = replicate(current, *args, env)
                outputs.append(current.shares)
            bulletin, keys = distribute_shares_and_keys(template, current, env)
            outputs += [bulletin, keys, verify(bulletin, keys, env)]
            return outputs, rows(env.transcript), env.tamper_fired

        blocks = run(())
        assert len(blocks[1]) == 213
        assert run((TamperRule("p9-1", KIND_KEY, 1, 0),)) == blocks

    def test_sealed_mask_tamper_reaches_the_envelope(self):
        rule = TamperRule("dealer", KIND_MASKED_SHARE, 2, 1)
        env = fixture_env(dealer=[0x0F, 0x21, 0x43], owner=[0x55], tamper_rules=(rule,))
        state = safe_shares(bv(0x03), 2, env)
        assert ints(state.protected) == [0x7B, 0x1A ^ 0x02]
        assert env.tamper_fired == [(rule, 5)]


class RowByRowEnv(ProtocolEnv):
    """Reference for the round engine, for tests only: every round is
    sent through :meth:`deliver` row by row, each row is tampered as it
    is sent, counting rows per (sender label, kind), and each row is
    logged as a one-row record."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.row_counts = collections.Counter()

    def deliver(self, sender, recipient, kind, payload, element_index=None):
        transcript = self.transcript
        seq = len(transcript) + 1
        key = (sender.label(), kind)
        self.row_counts[key] += 1
        for rule in self.tamper_rules:
            if (rule.party, rule.kind, rule.occurrence) == (*key, self.row_counts[key]):
                payload = (not payload) if type(payload) is bool else payload ^ (1 << rule.bit)
                self.tamper_fired.append((rule, seq))
        transcript.record(((seq,), sender, recipient, kind, (payload,), element_index))
        return payload

    def deliver_round(self, senders, recipients, kind, payloads, element_indices=None):
        count = len(payloads)
        return [
            self.deliver(sender, recipient, kind, payload, index)
            for sender, recipient, payload, index in zip(
                per_row(senders, count), per_row(recipients, count), payloads,
                per_row(element_indices, count),
            )
        ]

    def deliver_parts(self, first, second):
        # A relay's second part is a function of the inbound rows as
        # delivered; row by row, it sees those delivered so far.
        count = len(first[3])
        parts = [[column if callable(column) else per_row(column, count) for column in part]
                 for part in (first, second)]
        delivered = ([], [])
        for i in range(count):
            for (senders, recipients, kinds, payloads, indices), out in zip(parts, delivered):
                if callable(payloads):
                    payloads = payloads(delivered[0])
                out.append(self.deliver(senders[i], recipients[i], kinds[i], payloads[i],
                                        indices[i]))
        return delivered

    def activation_round(self, holders, keys):
        passed, released = [], []
        for index, (holder, key) in enumerate(zip(holders, keys), 1):
            self.deliver(DEALER, holder, KIND_KEY_REQUEST, True)
            passed.append(self.deliver(holder, DEALER, KIND_IDENTIFICATION, True))
            if passed[-1]:
                released.append(self.deliver(DEALER, holder, KIND_KEY, key, index))
        return passed, released


def tamper_chain(env, n):
    """Every operation that sends messages, at sizes from ``n``; a
    failed activation is recorded and the chain goes on."""
    secret = ShareVector.from_int(env.params, 0xBEEF)
    state = safe_shares(secret, n, env)
    outputs = [state.protected, state.keys]
    try:
        outputs.append(activate_shares(state, env).shares)
    except IdentificationFailed as failure:
        outputs.append((failure.pending, failure.activated))
    outputs.append(fast_share(secret, n, env).shares)
    template, current = set_generate_m(n, n + 1, env)
    for replicate, args in ((set_replicate_to_bigger, (n + 3,)),
                            (set_replicate_to_smaller, (n,)),
                            (equal_set_replicate, ())):
        current = replicate(current, *args, env)
        outputs.append(current.shares)
    bulletin, keys = distribute_shares_and_keys(template, current, env)
    outputs += [bulletin, keys, verify(bulletin, keys, env)]
    return outputs, rows(env.transcript), env.tamper_fired


def activation_chain(env, n):
    """Pre-position and activate ``n`` shares, then activate them again:
    the second activation's occurrences count on from the first's."""
    state = safe_shares(ShareVector.from_int(env.params, 0xBEEF), n, env)
    outputs = []
    for _ in range(2):
        try:
            outputs.append(activate_shares(state, env).shares)
        except IdentificationFailed as failure:
            outputs.append((failure.pending, failure.activated))
    return outputs, rows(env.transcript), env.tamper_fired


def draw_rules(data, targets, count):
    rules = []
    for _ in range(count):
        label, kind = data.draw(st.sampled_from(targets))
        bit = data.draw(st.just(0) if kind in CONTROL_KINDS else st.integers(0, 15))
        rules.append(TamperRule(label, kind, data.draw(st.integers(1, 4)), bit))
    return rules


class TestColumnTamperMatchesRowByRow:
    """Rounds are tampered column by column and logged as one record;
    :class:`RowByRowEnv` sends the same rounds one row at a time."""

    @given(st.integers(1, 5), st.integers(0, 2**31), st.data())
    def test_same_rows_outputs_and_fired_rules(self, n, seed, data):
        honest = ProtocolEnv.seeded(seed, 16)
        tamper_chain(honest, n)
        targets = sorted({(sender.label(), kind)
                          for _, sender, _, kind, _, _ in rows(honest.transcript)})
        rules = draw_rules(data, targets, data.draw(st.integers(1, 4)))
        assert (tamper_chain(ProtocolEnv.seeded(seed, 16, tamper_rules=rules), n)
                == tamper_chain(RowByRowEnv.seeded(seed, 16, tamper_rules=rules), n))

    @given(st.integers(1, 6), st.integers(0, 2**31), st.data())
    def test_tampered_activation(self, n, seed, data):
        # Rules on the requests, the identifications (which decide the
        # keys sent) and the keys, after rules that fail some indices'
        # first identification; the outputs include IdentificationFailed's
        # pending and activated, and every reader must see the rows that
        # the row-by-row reference logs, the audit included.
        holders = [f"pp-{i}" for i in range(1, n + 1)]
        targets = [("dealer", KIND_KEY_REQUEST), ("dealer", KIND_KEY),
                   *((label, KIND_IDENTIFICATION) for label in holders)]
        failing = data.draw(st.sets(st.integers(1, n)))
        rules = [TamperRule(f"pp-{i}", KIND_IDENTIFICATION, 1, 0) for i in sorted(failing)]
        rules += draw_rules(data, targets, data.draw(st.integers(0, 4)))
        runs = []
        for env_type in (ProtocolEnv, RowByRowEnv):
            env = env_type.seeded(seed, 16, tamper_rules=rules)
            runs.append((activation_chain(env, n), read_all(env)))
        assert runs[0] == runs[1]

    def test_a_tampered_round_leaves_the_callers_payloads_unchanged(self):
        rule = TamperRule("accumulator", KIND_MASK_ELEMENT, 2, 0)
        env = ProtocolEnv.seeded(1, 8, tamper_rules=(rule,))
        payloads = [0x10, 0x20, 0x30]
        delivered = env.deliver_round(ACCUMULATOR, OWNER, KIND_MASK_ELEMENT, payloads)
        assert payloads == [0x10, 0x20, 0x30]
        assert delivered == [0x10, 0x21, 0x30]
        assert [row[4] for row in rows(env.transcript)] == delivered
        assert env.tamper_fired == [(rule, 2)]

    @pytest.mark.parametrize("rules", [(), (TamperRule("accumulator", KIND_MASK_ELEMENT, 2, 0),)])
    def test_growing_the_returned_list_leaves_the_round_unchanged(self, rules):
        env = ProtocolEnv.seeded(1, 8, tamper_rules=rules)
        delivered = env.deliver_round(ACCUMULATOR, OWNER, KIND_MASK_ELEMENT, [0x10, 0x20])
        recorded = [row[4] for row in rows(env.transcript)]
        delivered.append(0x30)
        delivered[0] ^= 0xFF
        assert [row[4] for row in rows(env.transcript)] == recorded
        assert len(env.transcript) == 2

    def test_operations_that_grow_their_rounds_record_what_was_sent(self):
        # fast_share appends the last share to the owner-share round's
        # list, and the replications add to the derived-share list that
        # the relay round returned.
        env = ProtocolEnv.seeded(3, 8)
        shares = fast_share(bv(0x5A), 4, env).ints
        smaller = set_replicate_to_smaller(AuthorizedShareSet.from_shares(
            SetRole.MASTER, bvs([1, 2, 3, 4])), 2, env)
        bigger = set_replicate_to_bigger(smaller, 5, env)
        transcript = env.transcript
        table = rows(transcript)
        counts = collections.Counter(row[3] for row in table)
        assert counts == {KIND_OWNER_SHARE: 3, KIND_SECRET: 1, KIND_MASK_ELEMENT: 6,
                          KIND_MASKED_SHARE: 6, KIND_DERIVED_SHARE: 7}
        assert len(transcript) == sum(counts.values())
        derived = [row[4] for row in table if row[3] == KIND_DERIVED_SHARE]
        assert derived == [*smaller.ints, *bigger.ints]
        owner_shares = [row[4] for row in table if row[3] == KIND_OWNER_SHARE]
        assert owner_shares == list(shares[:3])


def two_part_chain(env, n, target, h, g):
    """Every kind of two-part round: the relays of ``safe_shares`` (n
    rows a part), of an equal replication of n + 1 shares and of one to
    ``target`` shares (its leftover inbound rows last), key recovery of
    h and g keys (h + g >= 1, the shorter set padded), then a relay of no
    rows and one of one row."""
    outputs = [safe_shares(ShareVector.from_int(env.params, 0xBEEF), n, env).protected_ints]
    master = AuthorizedShareSet(SetRole.MASTER, tuple(range(1, n + 2)), env.params)
    outputs.append(equal_set_replicate(master, env).ints)
    outputs.append(set_replicate_to_smaller(master, target, env).ints)
    keys = KeyAssignment(range(0x10, 0x10 + h), range(0x30, 0x30 + g), env.params)
    outputs.append(recover_xored_keys(keys, env))
    outputs.append(env.deliver_parts(((), ACCUMULATOR, KIND_MASKED_SHARE, [], None),
                                     (ACCUMULATOR, (), KIND_DERIVED_SHARE, forwards([]), ())))
    outputs.append(env.deliver_parts(
        (participant("2", 1), ACCUMULATOR, KIND_MASKED_SHARE, [0x5A], None),
        (ACCUMULATOR, (participant("3", 1),), KIND_DERIVED_SHARE, forwards([0x0F]), (1,))))
    return outputs


def forwards(operands):
    """A relay's second part: each value it was delivered, XOR an operand."""
    return lambda received: list(map(xor, received, operands))


def read_all(env):
    """What every reader makes of the environment's transcript."""
    transcript = env.transcript
    return (rows(transcript), list(transcript), dumps_transcript(transcript),
            check_visibility(transcript), env.tamper_fired)


class TestTwoPartRounds:
    """A relay or key-recovery round is logged as its two parts; every
    reader sees the rows an eagerly woven record holds."""

    @given(st.integers(1, 4), st.integers(0, 2**31), st.integers(0, 3), st.integers(0, 3),
           st.data())
    def test_readers_match_the_eager_woven_reference(self, n, seed, h, g, data):
        assume(h or g)  # a key assignment holds at least one key
        target = data.draw(st.integers(1, n))
        honest = ProtocolEnv.seeded(seed, 16)
        two_part_chain(honest, n, target, h, g)
        transcript = honest.transcript
        # The seqs of the two-part rounds' rows, in either part.
        seqs = [seq for parts in transcript.rounds if len(parts) == 2
                for part in parts for seq in part[0]]
        seq = data.draw(st.sampled_from(seqs))
        table = rows(transcript)
        row = [r[0] for r in table].index(seq)
        sender, kind = table[row][1].label(), table[row][3]
        occurrence = sum(1 for _, s, _, k, _, _ in table[:row + 1]
                         if (s.label(), k) == (sender, kind))
        rule = TamperRule(sender, kind, occurrence, data.draw(st.integers(0, 15)))
        for rules in ((), (rule,)):
            runs = []
            for env_type in (ProtocolEnv, EagerWeaveEnv):
                env = env_type.seeded(seed, 16, tamper_rules=rules)
                runs.append((two_part_chain(env, n, target, h, g), read_all(env)))
            assert runs[0] == runs[1]
            assert runs[0][1][-1] == [(rule, seq) for rule in rules]

    def test_both_parts_flag_in_seq_order(self):
        # Every secret the dealer receives and the derived shares that
        # reach p2-1 and p2-3 are forbidden; p3-2's is not.
        env = ProtocolEnv.seeded(3, 8)
        env.deliver_parts(
            (OWNER, DEALER, KIND_SECRET, [0x01, 0x02, 0x03], None),
            (ACCUMULATOR, (participant("2", 1), participant("3", 2), participant("2", 3)),
             KIND_DERIVED_SHARE, forwards([0x10, 0x20, 0x30]), (1, 2, 3)))
        assert check_visibility(env.transcript) == [
            Violation(1, "dealer", CLASS_SECRET, KIND_SECRET),
            Violation(2, "p2-1", CLASS_DERIVED_SHARE, KIND_DERIVED_SHARE),
            Violation(3, "dealer", CLASS_SECRET, KIND_SECRET),
            Violation(5, "dealer", CLASS_SECRET, KIND_SECRET),
            Violation(6, "p2-3", CLASS_DERIVED_SHARE, KIND_DERIVED_SHARE),
        ]

    @pytest.mark.parametrize("rules", [
        (), (TamperRule("p2-1", KIND_MASKED_SHARE, 1, 0),),
        (TamperRule("accumulator", KIND_DERIVED_SHARE, 2, 3),),
    ])
    def test_growing_the_relay_rounds_lists_leaves_the_round_unchanged(self, rules):
        env = ProtocolEnv.seeded(1, 8, tamper_rules=rules)
        holders = (participant("2", 1), participant("2", 2), participant("2", 3))
        payloads = [0x10, 0x20, 0x30]
        received, forwarded = env.deliver_parts(
            (holders, ACCUMULATOR, KIND_MASKED_SHARE, payloads, None),
            (ACCUMULATOR, (participant("3", 1), participant("3", 2), participant("3", 3)),
             KIND_DERIVED_SHARE, forwards([0x01, 0x02, 0x03]), (1, 2, 3)))
        recorded = read_all(env)
        for grown in (received, forwarded, payloads):
            grown.append(0x40)
            grown[0] ^= 0xFF
        assert read_all(env) == recorded
        assert len(env.transcript) == 6

    def test_parts_of_unequal_length_are_refused(self):
        # A relay forwards every value it receives; leftover inbound rows
        # are a round of their own.
        env = ProtocolEnv.seeded(1, 8)
        holders = (participant("2", 1), participant("2", 2))
        with pytest.raises(ValueError, match="equal lengths, got 2, 1"):
            env.deliver_parts((holders, ACCUMULATOR, KIND_MASKED_SHARE, [0x10, 0x20], None),
                              (ACCUMULATOR, (participant("3", 1),), KIND_DERIVED_SHARE,
                               forwards([0x01]), (1,)))
        assert env.transcript.rounds == [] and len(env.transcript) == 0

    def test_reading_twice_changes_nothing(self):
        env = ProtocolEnv.seeded(7, 16, tamper_rules=(TamperRule("p1-2", KIND_KEY, 1, 4),))
        two_part_chain(env, 3, 2, 2, 3)
        transcript = env.transcript
        records = list(transcript.rounds)
        recorded = copy.deepcopy(records)
        first = read_all(env)
        assert read_all(env) == first
        assert transcript.rounds == recorded
        assert all(a is b for a, b in zip(transcript.rounds, records))
        assert len(transcript.rounds) == len(records)


class TestRoundShape:
    """Every round is a tuple of parts, each with its own seqs."""

    @pytest.mark.parametrize("rules", [
        (),
        (TamperRule("pp-2", KIND_IDENTIFICATION, 1, 0),
         TamperRule("pp-3", KIND_IDENTIFICATION, 1, 0)),
        (TamperRule("pp-1", KIND_IDENTIFICATION, 1, 0),),
    ], ids=["honest", "failed-identification", "tampered-identification"])
    def test_parts_share_out_the_rounds_seqs(self, rules):
        env = ProtocolEnv.seeded(9, 16, tamper_rules=rules)
        tamper_chain(env, 3)
        next_seq, failed_rounds = 1, 0
        for parts in env.transcript.rounds:
            # Disjoint, and together exactly the next seqs.
            seqs = sorted(seq for part in parts for seq in part[0])
            assert seqs == list(range(next_seq, next_seq + len(seqs)))
            next_seq += len(seqs)
            failed = parts[0][3] == KIND_KEY_REQUEST and not all(parts[1][4])
            failed_rounds += failed
            for part in parts:
                assert len(part[0]) == len(part[4])
                # No seq list is built at send time but for a failed activation.
                assert (type(part[0]) is range) is not failed
        assert next_seq == len(env.transcript) + 1
        assert failed_rounds == (1 if rules else 0)


def classify(message: Message) -> str:
    return _value_class(message.kind, message.sender, message.recipient, message.element_index)


def audit_reference(transcript: Transcript) -> list[Violation]:
    """Classify every message in iteration order; flag each whose
    (recipient key, value class) pair :data:`FORBIDDEN` holds."""
    return [Violation(m.seq, m.recipient.label(), classify(m), m.kind)
            for m in transcript if (m.recipient.key, classify(m)) in FORBIDDEN]


# (sender, recipient, kind, element_index) of one delivery.
DELIVERIES = st.tuples(
    st.sampled_from(PARTIES),
    st.sampled_from(PARTIES),
    st.sampled_from(sorted(MESSAGE_KINDS) + UNKNOWN_KINDS),
    st.one_of(st.none(), st.integers(1, 4)),
)


def draw_part(data, seqs) -> tuple:
    """A round part over ``seqs``: each of its sender, recipient, kind
    and element-index columns is one value for every row or a list or
    tuple with one per row (indices also a ``range``), with a payload
    of the row's kind."""
    count = len(seqs)
    rows = data.draw(st.lists(st.one_of(DELIVERIES, st.sampled_from(C10_INJECTIONS)),
                              min_size=count, max_size=count))
    columns = []
    for column in zip(*rows) if rows else [()] * 4:
        form = data.draw(st.sampled_from(["one", "list", "tuple"]) if column else st.just("list"))
        columns.append(column[0] if form == "one" else list(column) if form == "list"
                       else tuple(column))
    senders, recipients, kinds, indices = columns
    if count and data.draw(st.booleans()):
        start = data.draw(st.integers(1, 4))
        indices = range(start, start + count)
    payloads = tuple(bool(i & 1) if kind in CONTROL_KINDS else i
                     for i, kind in enumerate(per_row(kinds, count)))
    return seqs, senders, recipients, kinds, payloads, indices


# Transcript rows per operation, in closed form (the table in the
# README): d template and n master shares, target t, h and g shares in
# the two pvss sets, and the identifications that pass.
ROWS = {
    "set_generate_m": lambda d, n: d + n,
    "set_replicate": lambda n: 3 * n,
    "equal_set_replicate": lambda n: 3 * n,
    "set_replicate_to_bigger": lambda n, t: 2 * n + t,
    "set_replicate_to_smaller": lambda n, t: 2 * n + t,
    "fast_share": lambda n: n,
    "safe_shares": lambda n: 3 * n,
    "activate_shares": lambda n, passed: 2 * n + passed,
    "distribute_shares_and_keys": lambda h, g: h + g,
    "verify": lambda h, g: 2 * max(h, g),
}


class TestCommunicationCost:
    @pytest.mark.parametrize("d", [1, 2, 3, 7])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_rows_per_operation(self, d, n):
        # Every d-th identification arrives false.
        failing = [TamperRule(f"pp-{i}", KIND_IDENTIFICATION, 1, 0) for i in range(d, n + 1, d)]
        env = ProtocolEnv.seeded(100 * d + n, 8, tamper_rules=failing)

        def rows(operation, *args):
            before = len(env.transcript)
            try:
                result = operation(*args, env)
            except IdentificationFailed:
                result = None
            return result, len(env.transcript) - before

        (template, master), sent = rows(set_generate_m, d, n)
        assert sent == ROWS["set_generate_m"](d, n)
        assert rows(equal_set_replicate, master)[1] == ROWS["equal_set_replicate"](n)
        masks = MaskSet(mask_ints(2 * n, env.source("accumulator"), P8), P8)
        assert rows(set_replicate, masks, master)[1] == ROWS["set_replicate"](n)
        assert (rows(set_replicate_to_bigger, master, n + d)[1]
                == ROWS["set_replicate_to_bigger"](n, n + d))
        for t in range(1, n):
            assert (rows(set_replicate_to_smaller, master, t)[1]
                    == ROWS["set_replicate_to_smaller"](n, t))
        assert rows(fast_share, bv(0x5A), n)[1] == ROWS["fast_share"](n)
        state, sent = rows(safe_shares, bv(0x5A), n)
        assert sent == ROWS["safe_shares"](n)
        passed = sum(index % d != 0 for index in range(1, n + 1))
        assert rows(activate_shares, state)[1] == ROWS["activate_shares"](n, passed)
        (bulletin, keys), sent = rows(distribute_shares_and_keys, template, master)
        assert sent == ROWS["distribute_shares_and_keys"](d, n)
        assert rows(verify, bulletin, keys)[1] == ROWS["verify"](d, n)

    def test_the_scaling_sweep_counts(self):
        # The msgs column of scripts/scaling_sweep.py at n = 10^4, from
        # each case's sizes.
        n = 10**4
        assert [
            ROWS["set_generate_m"](n, n),
            ROWS["equal_set_replicate"](n),
            ROWS["set_replicate_to_bigger"](n, 2 * n),
            ROWS["set_replicate_to_smaller"](n, n // 2),
            ROWS["safe_shares"](n) + ROWS["activate_shares"](n, n),
            ROWS["distribute_shares_and_keys"](n, n) + ROWS["verify"](n, n),
        ] == [20_000, 30_000, 40_000, 25_000, 60_000, 40_000]


class TestClassification:
    def test_secret_class(self):
        message = Message(1, OWNER, ACCUMULATOR, KIND_SECRET, bv(0x01))
        assert classify(message) == CLASS_SECRET

    def test_mask_own_versus_foreign(self):
        own = Message(1, ACCUMULATOR, participant("2", 2), KIND_MASK_ELEMENT,
                      bv(0x01), element_index=2)
        foreign = Message(2, ACCUMULATOR, participant("2", 2), KIND_MASK_ELEMENT,
                          bv(0x01), element_index=5)
        assert classify(own) == CLASS_MASK_OWN
        assert classify(foreign) == CLASS_MASK_FOREIGN

    def test_masked_share_depends_on_sender(self):
        from_dealer = Message(1, DEALER, OWNER, KIND_MASKED_SHARE, bv(0x01))
        from_participant = Message(
            2, participant("2", 1), ACCUMULATOR, KIND_MASKED_SHARE, bv(0x01)
        )
        assert classify(from_dealer) == CLASS_SEALED_MASK
        assert classify(from_participant) == CLASS_MASKED_SHARE

    def test_control_kinds(self):
        message = Message(1, DEALER, participant("p", 1), "key_request", True)
        assert classify(message) == CLASS_CONTROL


class TestVisibility:
    def audit(self, env):
        return check_visibility(env.transcript)

    def test_empty_transcript_is_clean(self):
        assert check_visibility(Transcript()) == []

    def test_honest_generation_and_replication_are_clean(self):
        env = ProtocolEnv.seeded(11, 8)
        template, master = set_generate_m(2, 3, env)
        derived = equal_set_replicate(master, env)
        set_replicate_to_bigger(derived, 5, env)
        set_replicate_to_smaller(derived, 2, env)
        masks = MaskSet([0x01, 0x02, 0x03, 0x01, 0x02, 0x03], P8)
        set_replicate(masks, master, env)
        assert self.audit(env) == []

    def test_honest_sharing_chain_is_clean(self):
        env = ProtocolEnv.seeded(12, 8)
        fast_share(bv(0x5A), 3, env)
        state = safe_shares(bv(0x42), 3, env)
        activate_shares(state, env)
        assert self.audit(env) == []

    def test_injected_secret_to_dealer_is_flagged(self):
        env = ProtocolEnv.seeded(13, 8)
        state = safe_shares(bv(0x42), 2, env)
        activate_shares(state, env)
        append(env.transcript,
               Message(len(env.transcript) + 1, OWNER, DEALER, KIND_SECRET, bv(0x42)))
        violations = self.audit(env)
        assert len(violations) == 1
        assert violations[0].recipient == "dealer"
        assert violations[0].value_class == CLASS_SECRET

    @pytest.mark.parametrize(
        "sender,recipient,kind,element_index,value_class",
        [
            (OWNER, DEALER, KIND_SECRET, None, "secret"),
            (OWNER, DEALER, KIND_OWNER_SHARE, None, "owner_share"),
            (OWNER, DEALER, KIND_ENVELOPE_SHARE, None, "protected_share"),
            (ACCUMULATOR, OWNER, KIND_MASK_ELEMENT, 1, "mask_foreign"),
            (DEALER, OWNER, KIND_KEY, None, "key"),
            (ACCUMULATOR, participant("2", 1), KIND_MASK_ELEMENT, 4, "mask_foreign"),
            (ACCUMULATOR, participant("2", 1), KIND_DERIVED_SHARE, 1, "derived_share"),
        ],
    )
    def test_every_forbidden_delivery_is_flagged(
        self, sender, recipient, kind, element_index, value_class
    ):
        transcript = Transcript()
        append(transcript,
               Message(1, sender, recipient, kind, bv(0x42), element_index=element_index))
        violations = check_visibility(transcript)
        assert [v.value_class for v in violations] == [value_class]
        assert violations[0].seq == 1

    def test_owner_mask_delivery_with_matching_index_still_flagged(self):
        """Mask elements are forbidden to the owner whether own or foreign."""
        transcript = Transcript()
        append(transcript, Message(1, ACCUMULATOR, OWNER, KIND_MASK_ELEMENT, bv(0x42)))
        assert len(check_visibility(transcript)) == 1

    @given(
        st.lists(
            st.tuples(
                st.one_of(DELIVERIES, st.sampled_from(C10_INJECTIONS + OTHER_CLASSES)),
                st.integers(1, 3),
                st.integers(0, 0xFF),
            ),
            max_size=40,
        ),
    )
    def test_column_audit_matches_a_per_message_reference(self, steps):
        """The audit classifies only the rows :data:`FORBIDDEN` can flag;
        it must find what classifying every row finds, in the same order."""
        transcript = Transcript({"bits": 8})
        seq = 0
        for (sender, recipient, kind, element_index), gap, value in steps:
            seq += gap
            payload = bool(value & 1) if kind in CONTROL_KINDS else bv(value)
            append(transcript, Message(seq, sender, recipient, kind, payload, element_index))
        assert check_visibility(transcript) == audit_reference(transcript)

    @given(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 4), st.booleans(),
                              st.integers(0, 2)), max_size=4),
           st.data())
    def test_multi_part_rounds_match_a_per_message_reference(self, shapes, data):
        """Rounds of one to three parts in the shapes the engine records
        (``range`` seqs at the part count's step, or seq lists; each
        party, kind and index column one value or one per row) audit as
        classifying every row in seq order does."""
        transcript = Transcript({"bits": 8})
        first = 1
        for part_count, rows_per_part, as_ranges, gap in shapes:
            first += gap
            total = part_count * rows_per_part
            if as_ranges:
                seq_columns = [range(first + k, first + total, part_count)
                               for k in range(part_count)]
            else:
                owners = data.draw(st.lists(st.integers(0, part_count - 1),
                                            min_size=total, max_size=total))
                seq_columns = [[first + i for i, owner in enumerate(owners) if owner == k]
                               for k in range(part_count)]
            transcript.record(*(draw_part(data, seqs) for seqs in seq_columns))
            first += total
        assert check_visibility(transcript) == audit_reference(transcript)


class TestAgainstOracles:
    """Engine outputs equal the straight-line oracle on shared draws."""

    @given(st.integers(0, 2**31), st.integers(1, 10), st.integers(1, 10))
    def test_set_generate_matches(self, seed, d, n):
        rng = random.Random(seed)
        draws = oracles.RecordingStream(rng, 8)
        expected_u1, expected_u2 = oracles.set_generate(draws, d, n)
        env = fixture_env(accumulator=draws.record)
        template, master = set_generate_m(d, n, env)
        assert ints(template.shares) == expected_u1
        assert ints(master.shares) == expected_u2

    @given(
        st.integers(0, 2**31),
        st.lists(st.integers(0, 0xFF), min_size=1, max_size=8),
    )
    def test_equal_replication_matches(self, seed, shares):
        rng = random.Random(seed)
        draws = oracles.RecordingStream(rng, 8)
        expected = oracles.equal_replicate(draws, shares)
        env = fixture_env(accumulator=draws.record)
        derived = equal_set_replicate(master_set(shares), env)
        assert ints(derived.shares) == expected

    @given(
        st.integers(0, 2**31),
        st.lists(st.integers(0, 0xFF), min_size=1, max_size=8),
        st.integers(1, 6),
    )
    def test_bigger_replication_matches(self, seed, shares, extra):
        rng = random.Random(seed)
        draws = oracles.RecordingStream(rng, 8)
        target = len(shares) + extra
        expected = oracles.replicate_bigger(draws, shares, target)
        env = fixture_env(accumulator=draws.record)
        derived = set_replicate_to_bigger(master_set(shares), target, env)
        assert ints(derived.shares) == expected

    @given(
        st.integers(0, 2**31),
        st.lists(st.integers(0, 0xFF), min_size=2, max_size=8),
        st.data(),
    )
    def test_smaller_replication_matches(self, seed, shares, data):
        rng = random.Random(seed)
        draws = oracles.RecordingStream(rng, 8)
        target = data.draw(st.integers(1, len(shares) - 1))
        expected = oracles.replicate_smaller(draws, shares, target)
        env = fixture_env(accumulator=draws.record)
        derived = set_replicate_to_smaller(master_set(shares), target, env)
        assert ints(derived.shares) == expected

    @given(st.integers(0, 2**31), st.integers(0, 0xFF), st.integers(1, 8))
    def test_fast_share_matches(self, seed, secret, count):
        rng = random.Random(seed)
        draws = oracles.RecordingStream(rng, 8)
        expected = oracles.fast_share(draws, secret, count)
        env = fixture_env(owner=draws.record)
        shares = fast_share(bv(secret), count, env)
        assert ints(shares.shares) == expected

    @given(st.integers(0, 2**31), st.integers(0, 0xFF), st.integers(1, 8))
    def test_safe_shares_and_activation_match(self, seed, secret, count):
        rng = random.Random(seed)
        dealer_draws = oracles.RecordingStream(rng, 8)
        owner_draws = oracles.RecordingStream(rng, 8)
        expected = oracles.safe_shares(dealer_draws, owner_draws, secret, count)
        env = fixture_env(dealer=dealer_draws.record, owner=owner_draws.record)
        state = safe_shares(bv(secret), count, env)
        assert ints(state.masks.vectors) == expected["masks"]
        assert ints(state.keys) == expected["keys"]
        assert ints(state.owner_shares) == expected["owner"]
        assert ints(state.protected) == expected["protected"]
        activated = activate_shares(state, env)
        assert ints(activated.shares) == oracles.activate(
            expected["protected"], expected["keys"]
        )
