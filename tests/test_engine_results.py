"""Engine results are built by ``Frozen._of``, with no check at run time.

Each result the engine builds holds columns that are valid by
construction: XORs of range-checked values, draws at the width, a
balance draw's zero sum, a guarded key set and a drawn or checked
permutation. These tests hold the engine to that: every result, rebuilt
through its public (checking) constructor, is accepted and equal, over
seeded and fixture environments, at widths on both sides of
``LANE_BITS``, at n on both sides of ``LANE_MIN``, with and without
single-bit tamper rules. A second group counts ``check_ints`` calls, so
a check that creeps back into an engine path shows.
"""

import random
import warnings

import pytest

from asgs import devices, kgh, protocol, pvss
from asgs.kgh import (
    LANE_MIN,
    AuthorizedShareSet,
    MaskSet,
    SchemeParams,
    SetRole,
    ShareVector,
    generate_mask_set,
)
from asgs.protocol import (
    ROLE_ACCUMULATOR,
    ROLE_DEALER,
    ProtocolEnv,
    SafeSharesState,
    TamperRule,
    activate_shares,
    equal_set_replicate,
    fast_share,
    safe_shares,
    set_generate_m,
    set_replicate,
    set_replicate_to_bigger,
    set_replicate_to_smaller,
)
from asgs.pvss import BulletinBoard, KeyAssignment, distribute_shares_and_keys, verify

WIDTHS = (1, 16, 32, 33, 128, 4096)
COUNTS = (3, LANE_MIN + 2)


def tamper_rules(bits: int) -> list[TamperRule]:
    """Single-bit flips on rows whose values reach a result: a dealt mask
    element, an owner share, a derived share, a relayed blinded share
    and a released key."""
    return [
        TamperRule("accumulator", "mask_element", 2, bits - 1),
        TamperRule("owner", "owner_share", 1, 0),
        TamperRule("accumulator", "derived_share", 1, bits // 2),
        TamperRule("p2-1", "masked_share", 1, 0),
        TamperRule("dealer", "key", 1, bits - 1),
    ]


def fixture_env(bits: int, n: int, **kwargs) -> ProtocolEnv:
    """Fixture streams of random ints at the width, long enough for
    :func:`engine_results`, and a reversed envelope assignment."""
    rng = random.Random(bits * 1000 + n)
    streams = {role: [rng.getrandbits(bits) for _ in range(12 * n + 200)]
               for role in ("dealer", "owner", "accumulator")}
    return ProtocolEnv.with_fixtures(SchemeParams.binary(bits), **streams,
                                     assignment=range(n, 0, -1), **kwargs)


def engine_results(env: ProtocolEnv, n: int) -> list:
    """Every result type each engine operation builds, from one chain."""
    params = env.params
    secret = ShareVector.from_int(params, (1 << params.dimension) - 1)
    template, master = set_generate_m(n, n + 1, env)
    masks = generate_mask_set(2 * len(master), env.source(ROLE_ACCUMULATOR), params)
    state = safe_shares(secret, n, env)
    results = [
        template, master, masks,
        set_replicate(masks, master, env),
        equal_set_replicate(master, env),
        set_replicate_to_bigger(master, n + 3, env),
        set_replicate_to_smaller(master, n, env),
        fast_share(secret, n, env),
        generate_mask_set(n, env.source(ROLE_DEALER), params),
        state, state.masks, state.protected_set(),
        activate_shares(state, env),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # narrow widths draw zero keys
        results += distribute_shares_and_keys(template, master, env)
    return results


def environments():
    for bits in WIDTHS:
        for n in COUNTS:
            yield pytest.param(lambda b=bits, n=n: ProtocolEnv.seeded(b * n, b), n,
                               id=f"seeded-{bits}-{n}")
            yield pytest.param(lambda b=bits, n=n: fixture_env(b, n), n,
                               id=f"fixture-{bits}-{n}")
        yield pytest.param(
            lambda b=bits: ProtocolEnv.seeded(b, b, tamper_rules=tamper_rules(b)), COUNTS[0],
            id=f"seeded-tampered-{bits}")
        yield pytest.param(
            lambda b=bits: fixture_env(b, COUNTS[1], tamper_rules=tamper_rules(b)), COUNTS[1],
            id=f"fixture-tampered-{bits}")


RESULT_TYPES = (AuthorizedShareSet, MaskSet, SafeSharesState, BulletinBoard, KeyAssignment)


@pytest.mark.parametrize("make_env, n", environments())
def test_engine_results_pass_their_public_constructors(make_env, n):
    env = make_env()
    results = engine_results(env, n)
    assert {type(result) for result in results} == set(RESULT_TYPES)
    for result in results:
        rebuilt = type(result)(*result._values)
        # Equal _values: every column is the tuple the constructor makes.
        assert rebuilt == result and hash(rebuilt) == hash(result)
    if env.tamper_rules:
        assert env.tamper_fired


P8 = SchemeParams.binary(8)
FIELD_VALUES = [
    (AuthorizedShareSet, (SetRole.MASTER, (1, 2), P8)),
    (MaskSet, ((3, 3), P8)),
    (SafeSharesState, (P8, (1, 2), (1, 2), MaskSet((3, 3), P8), (5, 6), (2, 1))),
    (BulletinBoard, ((1,), (2,), P8)),
    (KeyAssignment, ((1,), (2, 3), P8)),
]


@pytest.mark.parametrize("cls, values", FIELD_VALUES, ids=[c.__name__ for c, _ in FIELD_VALUES])
def test_of_stores_what_the_constructor_stores(cls, values):
    assert cls._of(*values).__dict__ == cls(*values).__dict__


@pytest.fixture
def check_calls(monkeypatch):
    """Count ``check_ints`` calls from every module that calls it."""
    calls = []
    real = kgh.check_ints

    def counted(values, params, what):
        calls.append(what)
        return real(values, params, what)

    for module in (kgh, devices, protocol, pvss):
        monkeypatch.setattr(module, "check_ints", counted)
    return calls


def test_a_narrow_chain_checks_no_column(check_calls):
    env = ProtocolEnv.seeded(1, 16)
    template, master = set_generate_m(125, 500, env)
    shrunk = set_replicate_to_smaller(set_replicate_to_bigger(master, 625, env), 500, env)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 16-bit keys may be zero
        verify(*distribute_shares_and_keys(template, shrunk, env), env)
    assert check_calls == []


def test_a_wide_chain_checks_no_column(check_calls):
    env = ProtocolEnv.seeded(1, 4096)
    secret = ShareVector.from_int(env.params, 0xA5)
    reference = AuthorizedShareSet.from_shares(SetRole.TEMPLATE, [secret])
    assert check_calls == ["an authorized set"]  # an input, checked where it enters
    check_calls.clear()
    derived = equal_set_replicate(activate_shares(safe_shares(secret, 4, env), env), env)
    verify(*distribute_shares_and_keys(reference, derived, env), env)
    assert check_calls == []


def test_a_fixture_environment_checks_each_non_empty_stream_once(check_calls):
    env = ProtocolEnv.with_fixtures(P8, dealer=[1, 2, 3, 4], owner=[], accumulator=[5, 6, 7])
    assert check_calls == ["a fixture stream"] * 2
    set_generate_m(2, 2, env)
    assert check_calls == ["a fixture stream"] * 2
