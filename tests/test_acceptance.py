"""Desk-scale acceptance gate for the whole framework.

Each test covers one numbered criterion and emits exactly one PASS or
FAIL line, so the gate can be read straight off the test output. All
checks are exact: every comparison is XOR equality on fixed-width
vectors, with zero tolerated failures.
"""

import functools
import random

import pytest

from asgs.cli import parse_command_line, run_scenario
from asgs.devices import RandSource
from asgs.kgh import (
    AuthorizedShareSet,
    SchemeParams,
    SetRole,
    ShareVector,
    check_zero_sum,
    combine,
    generate_mask_set,
    partition_sums,
    MaskSet,
)
from asgs.protocol import (
    ACCUMULATOR,
    DEALER,
    KIND_DERIVED_SHARE,
    KIND_ENVELOPE_SHARE,
    KIND_KEY,
    KIND_MASK_ELEMENT,
    KIND_OWNER_SHARE,
    KIND_SECRET,
    Message,
    OWNER,
    ProtocolEnv,
    ROLE_ACCUMULATOR,
    ROLE_DEALER,
    Transcript,
    activate_shares,
    check_visibility,
    equal_set_replicate,
    fast_share,
    participant,
    safe_shares,
    set_generate_m,
    set_replicate,
    set_replicate_to_bigger,
    set_replicate_to_smaller,
)
from asgs.pvss import (
    BulletinBoard,
    KeyAssignment,
    Verdict,
    distribute_shares_and_keys,
    recover_xored_keys,
    verify,
)

import oracles
from helpers import P8, append, bv, bvs, ints


RESULTS: list[str] = []


def _emit(line):
    """Record a criterion verdict; conftest prints them after the run."""
    RESULTS.append(line)


def criterion(number, title):
    """Wrap a test so it reports one PASS/FAIL line for its criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                _emit(f"[C{number:02d}] {title}: FAIL")
                raise
            suffix = f" ({detail})" if detail else ""
            _emit(f"[C{number:02d}] {title}: PASS{suffix}")

        return run

    return wrap


def fixture_env(**streams):
    return ProtocolEnv.with_fixtures(P8, **streams)


def master_set(values):
    return AuthorizedShareSet.from_shares(SetRole.MASTER, bvs(values))


def template_set(values):
    return AuthorizedShareSet.from_shares(SetRole.TEMPLATE, bvs(values))


@criterion(1, "mask sets sum to zero")
def test_c01_mask_zero_sum():
    failures = 0
    for i in range(1000):
        n = (i % 64) + 1
        bits = 8 if i % 2 else 128
        params = SchemeParams.binary(bits)
        masks = generate_mask_set(n, RandSource.seeded(i), params)
        if not check_zero_sum(masks):
            failures += 1
    assert failures == 0
    return "1000/1000 seeded runs, n in 1..64, widths 8 and 128, exact"


@criterion(2, "mask partitions balance exactly")
def test_c02_partition_balance():
    rng = random.Random(2)
    checks = 0
    for i in range(100):
        n = rng.randint(1, 16)
        bits = 8 if i % 2 else 128
        params = SchemeParams.binary(bits)
        masks = generate_mask_set(n, RandSource.seeded(1000 + i), params)
        for j in range(100):
            if j == 0:
                left = []
            elif j == 1:
                left = list(range(1, n + 1))
            else:
                left = [idx for idx in range(1, n + 1) if rng.random() < 0.5]
            left_sum, right_sum = partition_sums(masks, left)
            assert left_sum == right_sum
            checks += 1
    assert checks == 10_000
    return "100 mask sets x 100 partitions, empty and full included, exact"


@criterion(3, "template and master sets always agree")
def test_c03_set_generation():
    for i in range(1000):
        d = (i % 16) + 1
        n = ((i // 16) % 16) + 1
        bits = 128 if i % 10 == 0 else 8
        env = ProtocolEnv.seeded(i, bits)
        template, master = set_generate_m(d, n, env)
        assert combine(template.shares) == combine(master.shares)
        assert (len(template), len(master)) == (d, n)
    env = fixture_env(accumulator=[0x01, 0x02, 0x04, 0x08])
    template, master = set_generate_m(2, 3, env)
    assert ints(template.shares) == [0x01, 0x02]
    assert ints(master.shares) == [0x04, 0x08, 0x0F]
    return "1000 seeded runs, d,n in 1..16, plus the byte fixture"


@criterion(4, "replication chains preserve the secret")
def test_c04_replication_closure():
    rng = random.Random(4)
    mode_counts = {"equal": 0, "bigger": 0, "smaller": 0}
    for run in range(500):
        env = ProtocolEnv.seeded(run, 8)
        template, current = set_generate_m(rng.randint(1, 12), rng.randint(1, 12), env)
        expected = combine(template.shares)
        for _ in range(10):
            target = rng.randint(1, 12)
            if target > len(current):
                current = set_replicate_to_bigger(current, target, env)
                mode_counts["bigger"] += 1
            elif target < len(current):
                current = set_replicate_to_smaller(current, target, env)
                mode_counts["smaller"] += 1
            else:
                current = equal_set_replicate(current, env)
                mode_counts["equal"] += 1
            assert len(current) == target
            assert combine(current.shares) == expected
    assert all(count > 0 for count in mode_counts.values())

    eq_draws = [0x10, 0x20, 0x30, 0x40, 0x50]
    derived = equal_set_replicate(
        master_set([0x04, 0x08, 0x0F]), fixture_env(accumulator=eq_draws)
    )
    assert ints(derived.shares) == oracles.equal_replicate(
        iter(eq_draws), [0x04, 0x08, 0x0F]
    )
    assert ints(derived.shares) == [0x54, 0x78, 0x2F]

    big_draws = [0x01, 0x02, 0x03, 0x04]
    derived = set_replicate_to_bigger(
        master_set([0x05, 0x06]), 3, fixture_env(accumulator=big_draws)
    )
    assert ints(derived.shares) == oracles.replicate_bigger(
        iter(big_draws), [0x05, 0x06], 3
    )
    assert ints(derived.shares) == [0x07, 0x00, 0x04]

    small_draws = [0xA0, 0xB0, 0xC0]
    derived = set_replicate_to_smaller(
        master_set([0x04, 0x08, 0x0F]), 2, fixture_env(accumulator=small_draws)
    )
    assert ints(derived.shares) == oracles.replicate_smaller(
        iter(small_draws), [0x04, 0x08, 0x0F], 2
    )
    assert ints(derived.shares) == [0x74, 0x77]
    return "500 chains of 10 mixed steps plus three re-derived fixtures"


@criterion(5, "owner splitting recombines to the secret")
def test_c05_fast_share():
    rng = random.Random(5)
    singles = 0
    for i in range(1000):
        bits = 128 if i % 10 == 0 else 8
        params = SchemeParams.binary(bits)
        env = ProtocolEnv.seeded(i, bits)
        n = 1 if i % 100 == 0 else rng.randint(1, 16)
        secret = ShareVector.from_int(params, rng.getrandbits(bits))
        shares = fast_share(secret, n, env)
        assert combine(shares.shares) == secret
        if n == 1:
            assert shares.shares[0] == secret
            singles += 1
    assert singles >= 10
    return f"1000 seeded cases, {singles} of them single-share, exact"


@criterion(6, "pre-positioning keys never cancel")
def test_c06_safe_shares_guard():
    for i in range(10_000):
        env = ProtocolEnv.seeded(i, 8)
        n = (i % 4) + 1
        secret = ShareVector.from_int(P8, (i * 37) % 256)
        state = safe_shares(secret, n, env)
        assert not combine(state.keys).is_zero()
        assert combine(state.protected) != secret

    env = fixture_env(dealer=[0x0F, 0x21, 0x21, 0x43], owner=[0x55])
    state = safe_shares(bv(0x03), 2, env)
    assert env.source(ROLE_DEALER).consumed == 4
    assert ints(state.keys) == [0x21, 0x43]
    return "10000 seeded runs, plus exactly one forced regeneration"


@criterion(7, "activation restores the secret under any assignment")
def test_c07_activation():
    rng = random.Random(7)
    shuffled = 0
    for i in range(1000):
        env = ProtocolEnv.seeded(i, 8)
        n = rng.randint(1, 8)
        secret = ShareVector.from_int(P8, rng.getrandbits(8))
        state = safe_shares(secret, n, env)
        if state.assignment != tuple(range(1, n + 1)):
            shuffled += 1
        activated = activate_shares(state, env)
        assert combine(activated.shares) == secret
    assert shuffled > 0
    return f"1000 runs, {shuffled} with non-identity assignments, exact"


@pytest.mark.filterwarnings("ignore:zero one-time key")
@criterion(8, "public verdicts match direct comparison")
def test_c08_pvss_biconditional():
    rng = random.Random(8)
    cases = 0
    matching = 0
    for h in (1, 2, 3):
        for g in (1, 2, 3):
            for trial in range(64):
                set1 = [rng.randrange(256) for _ in range(h)]
                set2 = [rng.randrange(256) for _ in range(g)]
                if trial % 2 == 0:
                    set2[-1] = oracles.xor_all(set1) ^ oracles.xor_all(set2[:-1])
                env = ProtocolEnv.seeded(cases, 8)
                bulletin, assignment = distribute_shares_and_keys(
                    template_set(set1), master_set(set2), env
                )
                result = verify(bulletin, assignment, env)
                agree = oracles.xor_all(set1) == oracles.xor_all(set2)
                matching += agree
                assert (result.verdict is Verdict.POSITIVE) == agree
                cases += 1
    return f"{cases} set pairs with h,g <= 3, {matching} matching, 0 disagreements"


def single_bit_flips(set1, set2):
    """Each copy of two 8-bit int columns with one bit of one value flipped."""
    for side, column in enumerate((set1, set2)):
        for idx in range(len(column)):
            for bit in range(8):
                pair = [list(set1), list(set2)]
                pair[side][idx] ^= 1 << bit
                yield pair


@pytest.mark.filterwarnings("ignore:zero one-time key")
@criterion(9, "every single-bit tamper turns the verdict negative")
def test_c09_pvss_tamper_sensitivity():
    rng = random.Random(9)
    cases = 0
    negatives = 0
    for h in (1, 2, 3, 4):
        for g in (1, 2, 3, 4):
            set1 = [rng.randrange(256) for _ in range(h)]
            set2 = [rng.randrange(256) for _ in range(g - 1)]
            set2.append(oracles.xor_all(set1) ^ oracles.xor_all(set2))
            env = ProtocolEnv.seeded(16 * h + g, 8)
            bulletin, assignment = distribute_shares_and_keys(
                template_set(set1), master_set(set2), env
            )
            assert verify(bulletin, assignment, env).verdict is Verdict.POSITIVE

            for set1, set2 in single_bit_flips(bulletin.set1_ints, bulletin.set2_ints):
                cases += 1
                board = BulletinBoard(set1, set2, env.params)
                negatives += verify(board, assignment, env).verdict is Verdict.NEGATIVE
            for set1, set2 in single_bit_flips(assignment.set1_ints, assignment.set2_ints):
                cases += 1
                tampered = KeyAssignment(set1, set2, env.params)
                negatives += verify(bulletin, tampered, env).verdict is Verdict.NEGATIVE
    assert negatives == cases
    return f"{negatives}/{cases} single-bit flips rejected, h,g <= 4"


@criterion(10, "audits pass honest runs and flag forbidden deliveries")
def test_c10_visibility():
    audited = 0

    env = ProtocolEnv.seeded(101, 8)
    generate_mask_set(6, env.source(ROLE_ACCUMULATOR), env.params)
    honest_envs = [env]

    env = ProtocolEnv.seeded(102, 8)
    template, master = set_generate_m(3, 4, env)
    honest_envs.append(env)

    env = ProtocolEnv.seeded(103, 8)
    masks = MaskSet([0x01, 0x02, 0x03, 0x04, 0x01, 0x02, 0x03, 0x04], env.params)
    set_replicate(masks, master_set([0x10, 0x20, 0x30, 0x40]), env)
    honest_envs.append(env)

    env = ProtocolEnv.seeded(104, 8)
    equal_set_replicate(master_set([0x04, 0x08, 0x0F]), env)
    honest_envs.append(env)

    env = ProtocolEnv.seeded(105, 8)
    set_replicate_to_bigger(master_set([0x05, 0x06]), 4, env)
    honest_envs.append(env)

    env = ProtocolEnv.seeded(106, 8)
    set_replicate_to_smaller(master_set([0x04, 0x08, 0x0F]), 2, env)
    honest_envs.append(env)

    env = ProtocolEnv.seeded(107, 8)
    fast_share(bv(0x5A), 3, env)
    honest_envs.append(env)

    env = ProtocolEnv.seeded(108, 8)
    state = safe_shares(bv(0x42), 3, env)
    honest_envs.append(env)

    env = ProtocolEnv.seeded(109, 8)
    state = safe_shares(bv(0x42), 3, env)
    activate_shares(state, env)
    honest_envs.append(env)

    env = ProtocolEnv.seeded(110, 8)
    bulletin, assignment = distribute_shares_and_keys(
        template_set([0x01, 0x02]), master_set([0x04, 0x08, 0x0F]), env
    )
    recover_xored_keys(assignment, env)
    verify(bulletin, assignment, env)
    honest_envs.append(env)

    assert len(honest_envs) == 10
    for env in honest_envs:
        assert check_visibility(env.transcript) == []
        audited += len(env.transcript)

    base_env = ProtocolEnv.seeded(111, 8)
    state = safe_shares(bv(0x42), 2, base_env)
    activate_shares(state, base_env)
    assert check_visibility(base_env.transcript) == []

    injections = [
        (OWNER, DEALER, KIND_SECRET, None, "secret"),
        (OWNER, DEALER, KIND_OWNER_SHARE, None, "owner_share"),
        (OWNER, DEALER, KIND_ENVELOPE_SHARE, None, "protected_share"),
        (ACCUMULATOR, OWNER, KIND_MASK_ELEMENT, 2, "mask_foreign"),
        (DEALER, OWNER, KIND_KEY, None, "key"),
        (ACCUMULATOR, participant("2", 1), KIND_MASK_ELEMENT, 4, "mask_foreign"),
        (ACCUMULATOR, participant("2", 1), KIND_DERIVED_SHARE, 1, "derived_share"),
    ]
    for sender, recipient, kind, element_index, value_class in injections:
        replay = Transcript(dict(base_env.transcript.config))
        for message in base_env.transcript:
            append(replay, message)
        seq = list(base_env.transcript)[-1].seq + 1
        append(replay,
               Message(seq, sender, recipient, kind, bv(0x42), element_index=element_index))
        violations = check_visibility(replay)
        assert len(violations) >= 1
        assert violations[-1].seq == seq
        assert violations[-1].value_class == value_class
    return (
        f"10 honest runs clean over {audited} messages, "
        f"{len(injections)} forbidden injections flagged"
    )


@pytest.mark.filterwarnings("ignore:zero one-time key")
@criterion(11, "engine outputs match straight-line computation")
def test_c11_oracle_equivalence():
    checks = 0
    for seed in range(24):
        rng = random.Random(1000 + seed)

        draws = oracles.RecordingStream(rng, 8)
        d, n = rng.randint(1, 6), rng.randint(1, 6)
        expected_u1, expected_u2 = oracles.set_generate(draws, d, n)
        expected_eq = oracles.equal_replicate(draws, expected_u2)
        bigger_target = len(expected_eq) + rng.randint(1, 3)
        expected_big = oracles.replicate_bigger(draws, expected_eq, bigger_target)
        smaller_target = max(1, len(expected_big) - rng.randint(1, 2))
        if smaller_target < len(expected_big):
            expected_small = oracles.replicate_smaller(
                draws, expected_big, smaller_target
            )
        else:
            expected_small = None
        env = fixture_env(accumulator=draws.record)
        template, master = set_generate_m(d, n, env)
        assert ints(template.shares) == expected_u1
        assert ints(master.shares) == expected_u2
        derived = equal_set_replicate(master, env)
        assert ints(derived.shares) == expected_eq
        derived = set_replicate_to_bigger(derived, bigger_target, env)
        assert ints(derived.shares) == expected_big
        if expected_small is not None:
            derived = set_replicate_to_smaller(derived, smaller_target, env)
            assert ints(derived.shares) == expected_small
        checks += 5

        owner_draws = oracles.RecordingStream(rng, 8)
        secret = rng.randrange(256)
        count = rng.randint(1, 8)
        expected_shares = oracles.fast_share(owner_draws, secret, count)
        env = fixture_env(owner=owner_draws.record)
        shares = fast_share(bv(secret), count, env)
        assert ints(shares.shares) == expected_shares
        checks += 1

        dealer_draws = oracles.RecordingStream(rng, 8)
        owner_draws = oracles.RecordingStream(rng, 8)
        count = rng.randint(1, 6)
        assignment = list(range(1, count + 1))
        rng.shuffle(assignment)
        expected_state = oracles.safe_shares(
            dealer_draws, owner_draws, rng.randrange(256), count, assignment
        )
        env = ProtocolEnv.with_fixtures(
            P8,
            dealer=dealer_draws.record,
            owner=owner_draws.record,
            assignment=tuple(assignment),
        )
        secret_value = oracles.xor_all(expected_state["owner"])
        state = safe_shares(bv(secret_value), count, env)
        assert ints(state.masks.vectors) == expected_state["masks"]
        assert ints(state.keys) == expected_state["keys"]
        assert ints(state.owner_shares) == expected_state["owner"]
        assert ints(state.protected) == expected_state["protected"]
        assert state.assignment == tuple(assignment)
        activated = activate_shares(state, env)
        assert ints(activated.shares) == oracles.activate(
            expected_state["protected"], expected_state["keys"]
        )
        checks += 6

        pvss_draws = oracles.RecordingStream(rng, 8)
        set1 = [rng.randrange(256) for _ in range(rng.randint(1, 4))]
        set2 = [rng.randrange(256) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:
            set2[-1] = oracles.xor_all(set1) ^ oracles.xor_all(set2[:-1])
        b1, b2, k1, k2 = oracles.distribute(pvss_draws, set1, set2)
        env = fixture_env(dealer=pvss_draws.record)
        bulletin, key_assignment = distribute_shares_and_keys(
            template_set(set1), master_set(set2), env
        )
        assert ints(bulletin.set1_entries) == b1
        assert ints(bulletin.set2_entries) == b2
        assert [
            key_assignment.key_for("1", i + 1).to_int() for i in range(len(set1))
        ] == k1
        assert [
            key_assignment.key_for("2", i + 1).to_int() for i in range(len(set2))
        ] == k2
        result = verify(bulletin, key_assignment, env)
        assert result.xored_keys.to_int() == oracles.recover_keys(k1, k2)
        assert (result.verdict is Verdict.POSITIVE) == oracles.verify(b1, b2, k1, k2)
        checks += 6
    return f"24 seeded fixture families, {checks} engine outputs matched"


@criterion(12, "identical run descriptions produce identical bytes")
def test_c12_determinism(tmp_path):
    fixture_path = tmp_path / "acc.txt"
    fixture_path.write_text("01\n02\n04\n08\n")

    def run_descriptions(base):
        lines = [
            ["gen-m", "--bits", "8", "--seed", "5", "--n", "6", "--out", str(base / "gen")],
            ["fastshare", "--bits", "8", "--secret", "5a", "--n", "3",
             "--out", str(base / "fast")],
            ["set-generate", "--bits", "8", "--d", "2", "--n", "3",
             "--fixture", f"accumulator:{fixture_path}", "--out", str(base / "setgen")],
            ["simulate", "safeshares", "--bits", "8", "--secret", "5a", "--n", "2",
             "--then", "activate", "--then", "pvss", "--tamper", "dealer:key:2:bit:0",
             "--audit", "--out", str(base / "sim")],
        ]
        return [parse_command_line(line) for line in lines]

    compared = 0
    first = [run_scenario(args) for args in run_descriptions(tmp_path / "a")]
    second = [run_scenario(args) for args in run_descriptions(tmp_path / "b")]
    for left, right in zip(first, second):
        assert left.exit_code == right.exit_code
        assert sorted(left.artifacts) == sorted(right.artifacts)
        for name in left.artifacts:
            assert (
                left.artifacts[name].read_bytes() == right.artifacts[name].read_bytes()
            )
            compared += 1
    return f"4 scenarios rerun, {compared} artifacts byte-identical"
