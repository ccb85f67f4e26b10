"""Protocol engine: generation, replication, pre-positioning, auditing."""

import collections
import random

import pytest
from hypothesis import given
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
    CLASS_KEY,
    CLASS_MASK_FOREIGN,
    CLASS_MASK_OWN,
    CLASS_MASKED_SHARE,
    CLASS_OWNER_SHARE,
    CLASS_PROTECTED_SHARE,
    CLASS_SEALED_MASK,
    CLASS_SECRET,
    CONTROL_KINDS,
    DEALER,
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
    Party,
    ProtocolEnv,
    TamperRule,
    Transcript,
    Violation,
    VisibilityPolicy,
    activate_shares,
    check_visibility,
    default_visibility_policy,
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
from asgs.pvss import distribute_shares_and_keys, verify
from helpers import P8, bv, bvs, ints


def fixture_env(dealer=None, owner=None, accumulator=None, params=P8, **kwargs):
    return ProtocolEnv.with_fixtures(
        params,
        dealer=bvs(dealer, params) if dealer is not None else None,
        owner=bvs(owner, params) if owner is not None else None,
        accumulator=bvs(accumulator, params) if accumulator is not None else None,
        **kwargs,
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
VALUE_CLASSES = [
    CLASS_SECRET, CLASS_OWNER_SHARE, CLASS_PROTECTED_SHARE, CLASS_DERIVED_SHARE,
    CLASS_KEY, CLASS_SEALED_MASK, CLASS_MASKED_SHARE, CLASS_MASK_OWN,
    CLASS_MASK_FOREIGN, CLASS_CONTROL,
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
        transcript.append(Message(1, DEALER, OWNER, KIND_KEY_REQUEST, True))
        assert len(transcript) == 1
        assert next(iter(transcript)).kind == KIND_KEY_REQUEST

    def test_steps_iterate_back_as_equal_messages(self):
        steps = [
            Message(3, ACCUMULATOR, participant("2", 1), KIND_MASK_ELEMENT, bv(0x42), 1),
            Message(7, DEALER, participant("a", 2), KIND_KEY_REQUEST, True),
            Message(8, participant("a", 2), DEALER, KIND_IDENTIFICATION, False),
            Message(20, OWNER, ACCUMULATOR, KIND_SECRET, bv(0x00)),
        ]
        transcript = Transcript()
        for message in steps:
            transcript.append(message)
        assert list(transcript) == steps
        assert transcript.params == P8
        assert transcript.seqs == [3, 7, 8, 20]
        assert transcript.payloads == [0x42, True, False, 0x00]
        assert [type(p) for p in transcript.payloads] == [int, bool, bool, int]
        assert transcript.element_indices == [1, None, None, None]

    def test_params_follow_a_valid_config_width(self):
        assert Transcript({"bits": 8}).params == P8
        assert Transcript({"bits": 8}, params=SchemeParams.binary(16)).params.dimension == 16
        for bits in (None, 0, True, "8", MAX_DIMENSION + 1):
            assert Transcript({"bits": bits}).params is None

    def test_payload_under_other_params_is_rejected(self):
        wide = ShareVector.from_int(SchemeParams.binary(16), 0x42)
        first_payload_fixes_params = Transcript()
        first_payload_fixes_params.append(Message(1, OWNER, ACCUMULATOR, KIND_SECRET, bv(0x01)))
        for transcript in (
            Transcript(params=P8),
            Transcript({"bits": 8}),
            first_payload_fixes_params,
            ProtocolEnv.seeded(1, 8).transcript,
        ):
            before = len(transcript)
            with pytest.raises(MixedParams):
                transcript.append(Message(before + 1, OWNER, ACCUMULATOR, KIND_SECRET, wide))
            assert len(transcript) == before
            assert transcript.params == P8


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
        assert env.transcript.payloads == delivered
        assert env.transcript.seqs == [1, 2, 3, 4]
        assert [m.payload for m in env.transcript] == [bv(0x5A), True, False, bv(0x00)]

    @pytest.mark.parametrize("bit", range(8))
    def test_tamper_flips_exactly_the_named_bit_of_an_int(self, bit):
        rule = TamperRule("dealer", KIND_KEY, 2, bit)
        env = ProtocolEnv.seeded(1, 8, tamper_rules=(rule,))
        first = env.deliver(DEALER, OWNER, KIND_KEY, 0x5A)
        second = env.deliver(DEALER, OWNER, KIND_KEY, 0x5A)
        assert (first, second) == (0x5A, 0x5A ^ (1 << bit))
        assert type(second) is int
        assert env.transcript.payloads == [first, second]
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
        masks = MaskSet.from_vectors(bvs([0x10, 0x20, 0x30, 0x40, 0x50, 0x10]))
        derived = set_replicate(masks, master_set([0x04, 0x08, 0x0F]), fixture_env())
        assert ints(derived.shares) == [0x54, 0x78, 0x2F]
        assert combine(derived.shares).to_int() == 0x03

    def test_zero_masks_are_identity(self):
        masks = MaskSet.from_vectors(bvs([0x00, 0x00]))
        derived = set_replicate(masks, master_set([0x7E]), fixture_env())
        assert ints(derived.shares) == [0x7E]

    def test_paired_masks_cancel(self):
        masks = MaskSet.from_vectors(bvs([0x01, 0x02, 0x01, 0x02]))
        derived = set_replicate(masks, master_set([0x05, 0x06]), fixture_env())
        assert ints(derived.shares) == [0x05, 0x06]

    def test_cardinality_check(self):
        masks = MaskSet.from_vectors(bvs([0x01, 0x01]))
        with pytest.raises(CardinalityMismatch):
            set_replicate(masks, master_set([0x05, 0x06]), fixture_env())

    def test_derived_role(self):
        masks = MaskSet.from_vectors(bvs([0x00, 0x00]))
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
        env = fixture_env(dealer=[0x0F, 0x21, 0x43], owner=[0x55], assignment=(1, 1))
        with pytest.raises(ValueError):
            safe_shares(bv(0x03), 2, env)

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
            identify=lambda index: index != 2,
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
            transcript = env.transcript
            columns = (transcript.seqs, transcript.senders, transcript.recipients,
                       transcript.kinds, transcript.payloads, transcript.element_indices)
            return outputs, columns, env.tamper_fired

        blocks = run(())
        assert len(blocks[1][0]) == 213
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
        transcript.record((seq,), sender, recipient, kind, (payload,), element_index)
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

    def relay_round(self, senders, relay, kind, payloads, recipients, forward_kind,
                    operands, forward_indices):
        received, forwarded = [], []
        for i, (sender, payload) in enumerate(zip(per_row(senders, len(payloads)), payloads)):
            received.append(self.deliver(sender, relay, kind, payload))
            if i < len(operands):
                forwarded.append(self.deliver(
                    relay, recipients[i], forward_kind, received[-1] ^ operands[i],
                    forward_indices[i],
                ))
        return received, forwarded

    def activation_round(self, holders, claims, keys):
        passed, released = [], []
        for index, (holder, claim, key) in enumerate(zip(holders, claims, keys), 1):
            self.deliver(DEALER, holder, KIND_KEY_REQUEST, True)
            passed.append(self.deliver(holder, DEALER, KIND_IDENTIFICATION, claim))
            if passed[-1]:
                released.append(self.deliver(DEALER, holder, KIND_KEY, key, index))
        return passed, released


def per_row(values, count):
    return values if isinstance(values, (list, tuple, range)) else [values] * count


def transcript_columns(transcript):
    return (transcript.seqs, transcript.senders, transcript.recipients, transcript.kinds,
            transcript.payloads, transcript.element_indices)


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
    return outputs, transcript_columns(env.transcript), env.tamper_fired


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
    return outputs, transcript_columns(env.transcript), env.tamper_fired


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
        targets = sorted({(sender.label(), kind) for sender, kind
                          in zip(honest.transcript.senders, honest.transcript.kinds)})
        rules = draw_rules(data, targets, data.draw(st.integers(1, 4)))
        assert (tamper_chain(ProtocolEnv.seeded(seed, 16, tamper_rules=rules), n)
                == tamper_chain(RowByRowEnv.seeded(seed, 16, tamper_rules=rules), n))

    @given(st.integers(1, 6), st.integers(0, 2**31), st.data())
    def test_tampered_activation(self, n, seed, data):
        # Rules on the requests, the identifications (which decide the
        # keys sent) and the keys, with a predicate that fails some
        # indices; the outputs include IdentificationFailed's pending
        # and activated.
        holders = [f"pp-{i}" for i in range(1, n + 1)]
        targets = [("dealer", KIND_KEY_REQUEST), ("dealer", KIND_KEY),
                   *((label, KIND_IDENTIFICATION) for label in holders)]
        rules = draw_rules(data, targets, data.draw(st.integers(0, 4)))
        failing = data.draw(st.sets(st.integers(1, n)))
        runs = []
        for env_type in (ProtocolEnv, RowByRowEnv):
            env = env_type.seeded(seed, 16, tamper_rules=rules)
            env.identify = lambda index: index not in failing
            runs.append(activation_chain(env, n))
        assert runs[0] == runs[1]

    def test_a_tampered_round_leaves_the_callers_payloads_unchanged(self):
        rule = TamperRule("accumulator", KIND_MASK_ELEMENT, 2, 0)
        env = ProtocolEnv.seeded(1, 8, tamper_rules=(rule,))
        payloads = [0x10, 0x20, 0x30]
        delivered = env.deliver_round(ACCUMULATOR, OWNER, KIND_MASK_ELEMENT, payloads)
        assert payloads == [0x10, 0x20, 0x30]
        assert delivered == [0x10, 0x21, 0x30]
        assert env.transcript.payloads == delivered
        assert env.tamper_fired == [(rule, 2)]

    @pytest.mark.parametrize("rules", [(), (TamperRule("accumulator", KIND_MASK_ELEMENT, 2, 0),)])
    def test_growing_the_returned_list_leaves_the_round_unchanged(self, rules):
        env = ProtocolEnv.seeded(1, 8, tamper_rules=rules)
        delivered = env.deliver_round(ACCUMULATOR, OWNER, KIND_MASK_ELEMENT, [0x10, 0x20])
        recorded = env.transcript.payloads
        delivered.append(0x30)
        delivered[0] ^= 0xFF
        assert env.transcript.payloads == recorded
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
        rows = collections.Counter(transcript.kinds)
        assert rows == {KIND_OWNER_SHARE: 3, KIND_SECRET: 1, KIND_MASK_ELEMENT: 6,
                        KIND_MASKED_SHARE: 6, KIND_DERIVED_SHARE: 7}
        assert len(transcript) == sum(rows.values())
        derived = [payload for kind, payload in zip(transcript.kinds, transcript.payloads)
                   if kind == KIND_DERIVED_SHARE]
        assert derived == [*smaller.ints, *bigger.ints]
        owner_shares = [payload for kind, payload in zip(transcript.kinds, transcript.payloads)
                        if kind == KIND_OWNER_SHARE]
        assert owner_shares == list(shares[:3])


def classify(message: Message) -> str:
    return _value_class(message.kind, message.sender, message.recipient, message.element_index)


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
        env = ProtocolEnv.seeded(100 * d + n, 8)

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
        env.identify = lambda index: index % d != 0
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
        masks = MaskSet.from_vectors(bvs([0x01, 0x02, 0x03, 0x01, 0x02, 0x03]))
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
        env.transcript.append(
            Message(len(env.transcript) + 1, OWNER, DEALER, KIND_SECRET, bv(0x42))
        )
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
        transcript.append(
            Message(1, sender, recipient, kind, bv(0x42), element_index=element_index)
        )
        violations = check_visibility(transcript)
        assert [v.value_class for v in violations] == [value_class]
        assert violations[0].seq == 1

    def test_owner_mask_delivery_with_matching_index_still_flagged(self):
        """Mask elements are forbidden to the owner whether own or foreign."""
        transcript = Transcript()
        transcript.append(
            Message(1, ACCUMULATOR, OWNER, KIND_MASK_ELEMENT, bv(0x42))
        )
        assert len(check_visibility(transcript)) == 1

    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.tuples(
                        st.sampled_from(PARTIES),
                        st.sampled_from(PARTIES),
                        st.sampled_from(sorted(MESSAGE_KINDS) + UNKNOWN_KINDS),
                        st.one_of(st.none(), st.integers(1, 4)),
                    ),
                    st.sampled_from(C10_INJECTIONS + OTHER_CLASSES),
                ),
                st.integers(1, 3),
                st.integers(0, 0xFF),
            ),
            max_size=40,
        ),
        st.one_of(
            st.none(),
            st.builds(
                VisibilityPolicy,
                st.frozensets(st.tuples(
                    st.sampled_from(sorted({party.key for party in PARTIES}) + ["participant:z"]),
                    # "unseen" is a class that no kind yields.
                    st.sampled_from(VALUE_CLASSES + ["unseen"]),
                ), max_size=4),
            ),
        ),
        st.data(),
    )
    def test_column_audit_matches_a_per_message_reference(self, steps, policy, data):
        """The audit classifies only the rows a policy can flag; it must
        find what classifying every row finds, in the same order."""
        transcript = Transcript({"bits": 8})
        seq = 0
        for (sender, recipient, kind, element_index), gap, value in steps:
            seq += gap
            payload = bool(value & 1) if kind in CONTROL_KINDS else bv(value)
            transcript.append(Message(seq, sender, recipient, kind, payload, element_index))
        delivered = sorted({(m.recipient.key, classify(m)) for m in transcript})
        if policy is not None and delivered:
            # Forbid some pairs the transcript delivers too, so that any
            # class a row can have is flagged in some example.
            policy = VisibilityPolicy(
                policy.forbidden | data.draw(st.frozensets(st.sampled_from(delivered)))
            )
        table = policy or default_visibility_policy()
        reference = []
        for message in transcript:
            value_class = classify(message)
            if not table.permits(message.recipient.key, value_class):
                reference.append(
                    Violation(message.seq, message.recipient.label(), value_class, message.kind)
                )
        assert check_visibility(transcript, policy) == reference

    def test_custom_policy_overrides_default(self):
        from asgs.protocol import VisibilityPolicy

        permissive = VisibilityPolicy(frozenset())
        transcript = Transcript()
        transcript.append(Message(1, OWNER, DEALER, KIND_SECRET, bv(0x42)))
        assert check_visibility(transcript, permissive) == []
        assert len(check_visibility(transcript)) == 1


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
