"""Protocol engine: generation, replication, pre-positioning, auditing."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from asgs.devices import FixtureExhausted
from asgs.kgh import (
    AuthorizedShareSet,
    MaskSet,
    MixedParams,
    SchemeParams,
    SetRole,
    ShareVector,
    combine,
)
from asgs.protocol import (
    ACCUMULATOR,
    CLASS_CONTROL,
    CLASS_DERIVED_SHARE,
    CLASS_KEY,
    CLASS_MASK_FOREIGN,
    CLASS_MASK_OWN,
    CLASS_MASKED_SHARE,
    CLASS_SEALED_MASK,
    CLASS_SECRET,
    DEALER,
    KIND_ACK,
    KIND_DERIVED_SHARE,
    KIND_ENVELOPE_SHARE,
    KIND_KEY,
    KIND_MASK_ELEMENT,
    KIND_MASKED_SHARE,
    KIND_OWNER_SHARE,
    KIND_SECRET,
    CardinalityMismatch,
    IdentificationFailed,
    InvalidTarget,
    KeyRegenerationExhausted,
    Message,
    OWNER,
    ProtocolEnv,
    TamperRule,
    Transcript,
    Violation,
    activate_shares,
    check_visibility,
    classify_message,
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
)
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

    def test_participant_needs_index(self):
        with pytest.raises(ValueError):
            participant("2", 0)

    def test_policy_key_refines_participants_by_set(self):
        assert participant("2", 3).key == "participant:2"
        assert DEALER.key == "dealer"


class TestTranscript:
    def test_sequence_must_increase(self):
        transcript = Transcript()
        transcript.append(Message(1, DEALER, OWNER, KIND_ACK, True))
        with pytest.raises(ValueError):
            transcript.append(Message(1, DEALER, OWNER, KIND_ACK, True))

    def test_iteration_and_length(self):
        transcript = Transcript(steps=[Message(1, DEALER, OWNER, KIND_ACK, True)])
        assert len(transcript) == 1
        assert next(iter(transcript)).kind == KIND_ACK


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

    def test_binary_only(self):
        with pytest.raises(ValueError):
            ProtocolEnv.with_fixtures(SchemeParams(3, 4))

    def test_seeded_assignment_is_a_permutation(self):
        env = ProtocolEnv.seeded(5, 8)
        drawn = env.draw_assignment(6)
        assert sorted(drawn) == [1, 2, 3, 4, 5, 6]

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


class TestClassification:
    def test_secret_class(self):
        message = Message(1, OWNER, ACCUMULATOR, KIND_SECRET, bv(0x01))
        assert classify_message(message) == CLASS_SECRET

    def test_mask_own_versus_foreign(self):
        own = Message(1, ACCUMULATOR, participant("2", 2), KIND_MASK_ELEMENT,
                      bv(0x01), element_index=2)
        foreign = Message(2, ACCUMULATOR, participant("2", 2), KIND_MASK_ELEMENT,
                          bv(0x01), element_index=5)
        assert classify_message(own) == CLASS_MASK_OWN
        assert classify_message(foreign) == CLASS_MASK_FOREIGN

    def test_masked_share_depends_on_sender(self):
        from_dealer = Message(1, DEALER, OWNER, KIND_MASKED_SHARE, bv(0x01))
        from_participant = Message(
            2, participant("2", 1), ACCUMULATOR, KIND_MASKED_SHARE, bv(0x01)
        )
        assert classify_message(from_dealer) == CLASS_SEALED_MASK
        assert classify_message(from_participant) == CLASS_MASKED_SHARE

    def test_control_kinds(self):
        message = Message(1, DEALER, participant("p", 1), "key_request", True)
        assert classify_message(message) == CLASS_CONTROL


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
