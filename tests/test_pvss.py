"""Public consistency checking: bulletin, key recovery, verdicts."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from asgs.kgh import (
    AuthorizedShareSet,
    MixedParams,
    SchemeParams,
    SetRole,
    ShareVector,
    combine,
)
from asgs.protocol import KIND_KEY, CardinalityMismatch, ProtocolEnv, TamperRule
from asgs.pvss import (
    BulletinBoard,
    KeyAssignment,
    MissingKey,
    Verdict,
    distribute_shares_and_keys,
    recover_xored_keys,
    verify,
)
from helpers import P8, bv, bvs, ints


def share_set(values, role=SetRole.MASTER, params=P8):
    return AuthorizedShareSet.from_shares(role, bvs(values, params))


def dealer_env(key_values, params=P8, **kwargs):
    return ProtocolEnv.with_fixtures(params, dealer=bvs(key_values, params), **kwargs)


WORKED_SET1 = [0x01, 0x02]
WORKED_SET2 = [0x04, 0x08, 0x0F]
WORKED_KEYS = [0x10, 0x20, 0x40, 0x80, 0x31]


def worked_distribution(**kwargs):
    env = dealer_env(WORKED_KEYS, **kwargs)
    bulletin, assignment = distribute_shares_and_keys(
        share_set(WORKED_SET1, SetRole.TEMPLATE), share_set(WORKED_SET2), env
    )
    return env, bulletin, assignment


class TestDistribute:
    def test_worked_fixture(self):
        _, bulletin, assignment = worked_distribution()
        assert ints(bulletin.set1_entries) == [0x11, 0x22]
        assert ints(bulletin.set2_entries) == [0x44, 0x88, 0x3E]
        assert assignment.key_for("1", 1).to_int() == 0x10
        assert assignment.key_for("2", 3).to_int() == 0x31
        assert assignment.count_for("1") == 2
        assert assignment.count_for("2") == 3

    def test_zero_keys_publish_shares_in_clear_with_warning(self):
        env = dealer_env([0x00, 0x00])
        with pytest.warns(UserWarning):
            bulletin, _ = distribute_shares_and_keys(
                share_set([0x7E]), share_set([0x7E]), env
            )
        assert ints(bulletin.set1_entries) == [0x7E]
        assert ints(bulletin.set2_entries) == [0x7E]

    def test_all_ones_keys(self):
        env = dealer_env([0xFF, 0xFF])
        bulletin, _ = distribute_shares_and_keys(
            share_set([0x01]), share_set([0x01]), env
        )
        assert ints(bulletin.set1_entries) == [0xFE]
        assert ints(bulletin.set2_entries) == [0xFE]

    def test_params_must_match_env(self):
        env = dealer_env([0x01, 0x02])
        wide = AuthorizedShareSet.from_shares(
            SetRole.MASTER, [ShareVector.from_int(SchemeParams.binary(16), 1)]
        )
        with pytest.raises(MixedParams):
            distribute_shares_and_keys(wide, share_set([0x01]), env)

    def test_keys_are_delivered_privately_per_participant(self):
        env, _, _ = worked_distribution()
        deliveries = [
            (m.recipient.label(), m.payload.to_int())
            for m in env.transcript
            if m.kind == KIND_KEY
        ]
        assert deliveries == [
            ("p1-1", 0x10),
            ("p1-2", 0x20),
            ("p2-1", 0x40),
            ("p2-2", 0x80),
            ("p2-3", 0x31),
        ]


class TestRecoverXoredKeys:
    def test_worked_fixture(self):
        env, _, assignment = worked_distribution()
        result = recover_xored_keys(assignment, 2, 3, env)
        assert result.to_int() == 0xC1

    def test_contributions_interleave_with_zero_padding(self):
        env, _, assignment = worked_distribution()
        before = len(env.transcript)
        recover_xored_keys(assignment, 2, 3, env)
        contributions = [
            (m.sender.label(), m.payload.to_int())
            for m in list(env.transcript)[before:]
        ]
        assert contributions == [
            ("p1-1", 0x10),
            ("p2-1", 0x40),
            ("p1-2", 0x20),
            ("p2-2", 0x80),
            ("p1-3", 0x00),
            ("p2-3", 0x31),
        ]

    def test_missing_key_is_an_error(self):
        assignment = KeyAssignment({("1", 1): bv(0x10)})
        with pytest.raises(MissingKey) as excinfo:
            recover_xored_keys(assignment, 2, 0, dealer_env([]))
        assert (excinfo.value.set_tag, excinfo.value.index) == ("1", 2)

    def test_single_key_each_side(self):
        assignment = KeyAssignment({("1", 1): bv(0x0F), ("2", 1): bv(0xF0)})
        result = recover_xored_keys(assignment, 1, 1, dealer_env([]))
        assert result.to_int() == 0xFF


class TestVerify:
    def test_honest_worked_fixture_is_positive(self):
        env, bulletin, assignment = worked_distribution()
        result = verify(bulletin, assignment, env)
        assert result.verdict is Verdict.POSITIVE
        assert result.xored_encrypted_shares.to_int() == 0xC1
        assert result.xored_keys.to_int() == 0xC1

    def test_single_bulletin_bit_flip_is_negative(self):
        env, bulletin, assignment = worked_distribution()
        flipped = BulletinBoard(
            (bv(0x10), bulletin.set1_entries[1]),
            bulletin.set2_entries,
            bulletin.params,
        )
        result = verify(flipped, assignment, env)
        assert result.verdict is Verdict.NEGATIVE
        assert result.xored_encrypted_shares.to_int() == 0xC0
        assert result.xored_keys.to_int() == 0xC1

    def test_single_key_bit_flip_is_negative(self):
        env, bulletin, assignment = worked_distribution()
        tampered = KeyAssignment(
            {**assignment.entries, ("2", 2): bv(0x81)}
        )
        result = verify(bulletin, tampered, env)
        assert result.verdict is Verdict.NEGATIVE

    def test_inconsistent_sets_are_negative(self):
        env = dealer_env([0x10, 0x20, 0x40])
        bulletin, assignment = distribute_shares_and_keys(
            share_set([0x01, 0x02]), share_set([0x04]), env
        )
        result = verify(bulletin, assignment, env)
        assert result.verdict is Verdict.NEGATIVE

    def test_tampered_key_delivery_is_detectable(self):
        """The bulletin carries the dealer's key, the participant holds the
        delivered one, so an in-flight flip breaks the equality."""
        rule = TamperRule("dealer", KIND_KEY, 3, 5)
        env, bulletin, assignment = worked_distribution(tamper_rules=(rule,))
        result = verify(bulletin, assignment, env)
        assert result.verdict is Verdict.NEGATIVE

    def test_key_count_must_match_bulletin(self):
        env, bulletin, assignment = worked_distribution()
        extra = KeyAssignment({**assignment.entries, ("2", 4): bv(0x01)})
        fewer = KeyAssignment(
            {slot: key for slot, key in assignment.entries.items() if slot != ("1", 2)}
        )
        for keys, message in ((extra, "set 2: bulletin has 3 entries, key assignment has 4"),
                              (fewer, "set 1: bulletin has 2 entries, key assignment has 1")):
            with pytest.raises(CardinalityMismatch, match=message):
                verify(bulletin, keys, env)

    def test_bulletin_params_must_match_env(self):
        _, bulletin, assignment = worked_distribution()
        other = ProtocolEnv.seeded(1, 16)
        with pytest.raises(MixedParams):
            verify(bulletin, assignment, other)


@pytest.mark.filterwarnings("ignore:zero one-time key")
class TestAgainstOracles:
    @given(
        st.integers(0, 2**31),
        st.lists(st.integers(0, 0xFF), min_size=1, max_size=6),
        st.lists(st.integers(0, 0xFF), min_size=1, max_size=6),
    )
    def test_distribution_and_verdict_match(self, seed, set1, set2):
        rng = random.Random(seed)
        draws = oracles.RecordingStream(rng, 8)
        b1, b2, k1, k2 = oracles.distribute(draws, set1, set2)
        expected_verdict = oracles.verify(b1, b2, k1, k2)
        env = dealer_env(draws.record)
        bulletin, assignment = distribute_shares_and_keys(
            share_set(set1, SetRole.TEMPLATE), share_set(set2), env
        )
        assert ints(bulletin.set1_entries) == b1
        assert ints(bulletin.set2_entries) == b2
        result = verify(bulletin, assignment, env)
        assert result.xored_keys.to_int() == oracles.recover_keys(k1, k2)
        assert (result.verdict is Verdict.POSITIVE) == expected_verdict

    @given(
        st.lists(st.integers(0, 0xFF), min_size=1, max_size=6),
        st.lists(st.integers(0, 0xFF), min_size=1, max_size=6),
    )
    def test_verdict_tracks_combiner_equality(self, set1, set2):
        env = ProtocolEnv.seeded(9000, 8)
        bulletin, assignment = distribute_shares_and_keys(
            share_set(set1, SetRole.TEMPLATE), share_set(set2), env
        )
        result = verify(bulletin, assignment, env)
        agreed = oracles.xor_all(set1) == oracles.xor_all(set2)
        assert (result.verdict is Verdict.POSITIVE) == agreed
