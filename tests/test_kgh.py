"""Share algebra: vectors, splitting, mask sets, partitions."""

import copy
import functools
import itertools
import operator
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from asgs.kgh import (
    LANE_BITS,
    LANE_MIN,
    MAX_DIMENSION,
    AuthorizedShareSet,
    IndexOutOfRange,
    MaskSet,
    MixedParams,
    SchemeParams,
    SetRole,
    ShareVector,
    check_ints,
    check_zero_sum,
    combine,
    fold_lanes,
    from_ints,
    generate_mask_set,
    mask_ints,
    partition_sums,
    to_ints,
    vector_params,
    xor_lanes,
)
from asgs.protocol import ProtocolEnv, fast_share
from helpers import P8, bv, bvs, fixture_source, ints


class TestSchemeParams:
    def test_binary_constructor(self):
        assert SchemeParams.binary(12) == SchemeParams(12)
        assert SchemeParams.binary(12).dimension == 12

    def test_default_width_is_128(self):
        assert SchemeParams.binary().dimension == 128

    @pytest.mark.parametrize("dimension", [0, -1, MAX_DIMENSION + 1])
    def test_rejects_degenerate_parameters(self, dimension):
        with pytest.raises(ValueError):
            SchemeParams(dimension)

    @pytest.mark.parametrize("dimension", [True, 16.0, "8"])
    def test_rejects_a_width_that_is_not_an_int(self, dimension):
        with pytest.raises(ValueError, match="must be an int"):
            SchemeParams(dimension)
        with pytest.raises(ValueError, match="must be an int"):
            SchemeParams.binary(dimension)

    def test_binary_gives_one_object_per_width(self):
        assert SchemeParams.binary(16) is SchemeParams.binary(16)
        assert SchemeParams.binary() is SchemeParams.binary(128)
        with pytest.raises(ValueError):  # 16 is cached; 16.0 still is not an int
            SchemeParams.binary(16.0)


WIDTHS = [1, 8, 12, 128, 4096]


def msb_first(value: int, bits: int) -> str:
    return "".join(str((value >> (bits - 1 - i)) & 1) for i in range(bits))


class TestShareVector:
    def test_int_round_trip_msb_first(self):
        cases = [
            (8, 0x5A, "01011010"),
            (1, 0x1, "1"),
            (12, 0x9E3, "100111100011"),
            (128, 0xC << 124 | 0x5, "11000"),
            (4096, 0x3 << 4094 | 0x1, "110"),
        ]
        for bits, value, leading in cases:
            params = SchemeParams.binary(bits)
            vector = ShareVector.from_int(params, value)
            spelled = format(vector.to_int(), f"0{bits}b")
            assert spelled.startswith(leading)
            assert spelled == msb_first(value, bits)
            rebuilt = ShareVector(params, value)
            assert rebuilt == vector
            assert rebuilt.to_int() == value
            assert repr(rebuilt) == f"ShareVector(params={params!r}, value={value:#x})"

    def test_from_int_rejects_overflow(self):
        for bits in WIDTHS:
            params = SchemeParams.binary(bits)
            for value in (-1, -(1 << bits), 1 << bits, (1 << bits) + 1, 1 << (bits + 1)):
                with pytest.raises(ValueError):
                    ShareVector.from_int(params, value)
            assert ShareVector.from_int(params, (1 << bits) - 1).to_int() == (1 << bits) - 1

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_equal_exactly_when_bits_equal(self, bits):
        """Vectors built by the constructor, from_int, combine, + and -
        are equal exactly when their bits are, and equal ones hash equal."""
        params = SchemeParams.binary(bits)
        rng = random.Random(bits)
        sample = rng.getrandbits(bits)
        values = {0, 1, (1 << bits) - 1, 1 << (bits - 1), sample}
        values |= {sample ^ (1 << rng.randrange(bits)) for _ in range(2)}
        pad = rng.getrandbits(bits)

        def padded(v):
            return ShareVector.from_int(params, v ^ pad), ShareVector.from_int(params, pad)

        routes = [
            lambda v: ShareVector(params, v),
            lambda v: ShareVector.from_int(params, v),
            lambda v: combine(padded(v)),
            lambda v: operator.add(*padded(v)),
            lambda v: operator.sub(*padded(v)),
        ]
        built = [(v, route(v)) for v in sorted(values) for route in routes]
        for x, left in built:
            assert left.to_int() == x
            for y, right in built:
                assert (left == right) is (x == y)
                if x == y:
                    assert hash(left) == hash(right)

    @pytest.mark.parametrize(
        "vector",
        [
            bv(0x5A),
            ShareVector.from_int(SchemeParams.binary(4096), 1 << 4095),
        ],
    )
    def test_frozen(self, vector):
        for name in ("params", "value", "_data", "extra"):
            with pytest.raises(AttributeError):
                setattr(vector, name, None)
        with pytest.raises(AttributeError):
            del vector.params
        assert copy.deepcopy(vector) == vector
        assert pickle.loads(pickle.dumps(vector)) == vector

    def test_constructor_rejects_overflow(self):
        """The constructor checks as ``from_int`` does, and so does
        unpickling, which rebuilds through it."""
        rebuild, (params, value) = bv(0x5A).__reduce__()
        assert rebuild(params, value) == bv(0x5A)
        for bits in WIDTHS:
            params = SchemeParams.binary(bits)
            for value in (-1, -(1 << bits), 1 << bits, (1 << bits) + 1, 1 << (bits + 1)):
                with pytest.raises(ValueError, match="does not fit"):
                    ShareVector(params, value)
                with pytest.raises(ValueError, match="does not fit"):
                    rebuild(params, value)
            assert ShareVector(params, (1 << bits) - 1).to_int() == (1 << bits) - 1

    def test_add_is_xor_in_binary(self):
        assert (bv(0x0F) + bv(0x99)).to_int() == 0x96

    def test_mixed_params_rejected(self):
        for op in (operator.add, operator.sub):
            with pytest.raises(MixedParams):
                op(bv(0x01), bv(0x0001, SchemeParams.binary(16)))
        assert bv(0x01) != bv(0x0001, SchemeParams.binary(16))

    def test_foreign_operand_is_not_implemented(self):
        for op in (operator.add, operator.sub):
            with pytest.raises(TypeError):
                op(bv(0x01), 3)
        assert bv(0x01) != 0x01

    def test_zero_and_is_zero(self):
        assert ShareVector.zero(P8).is_zero()
        assert not bv(0x80).is_zero()


class TestCombine:
    def test_empty_combine_needs_params(self):
        # An empty run has no vector to take params from: combine raises
        # vector_params' error, whatever the iterable.
        with pytest.raises(ValueError) as expected:
            vector_params([])
        for empty in ([], (), iter([])):
            with pytest.raises(ValueError) as caught:
                combine(empty)
            assert str(caught.value) == str(expected.value)

    def test_binary_example(self):
        assert combine(bvs([0x04, 0x08, 0x0F])).to_int() == 0x03

    def test_mixed_params_rejected(self):
        with pytest.raises(MixedParams):
            combine([bv(0x01), bv(0x0001, SchemeParams.binary(16))])

    def test_equal_params_need_not_be_identical(self):
        shares = [bv(0x0F, SchemeParams(8)), bv(0x99, SchemeParams.binary(8))]
        assert shares[0].params is not shares[1].params
        assert combine(shares).to_int() == 0x96

    @given(st.lists(st.integers(0, 0xFF), min_size=2, max_size=8), st.randoms())
    def test_order_and_grouping_invariant(self, values, rng):
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert combine(bvs(values)).to_int() == combine(bvs(shuffled)).to_int()
        split_at = len(values) // 2
        regrouped = combine(
            [combine(bvs(values[:split_at])), combine(bvs(values[split_at:]))]
        )
        assert regrouped.to_int() == combine(bvs(values)).to_int()


def owner_split(secret: int, count: int, stream, params: SchemeParams = P8):
    """``fast_share`` of ``secret`` on a fixture environment whose owner
    replays ``stream``."""
    env = ProtocolEnv.with_fixtures(params, owner=stream)
    return fast_share(ShareVector.from_int(params, secret), count, env)


class TestKghSplit:
    """The owner's Karnin-Greene-Hellman split, as the engine runs it
    (``fast_share``)."""

    def test_single_share_degenerate_case(self):
        result = owner_split(0x5A, 1, [])
        assert ints(result.shares) == [0x5A]

    def test_binary_three_way_split(self):
        result = owner_split(0x5A, 3, [0x11, 0x22])
        assert result.role is SetRole.OWNER
        assert ints(result.shares) == [0x11, 0x22, 0x69]

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            owner_split(0x5A, 0, [])

    @pytest.mark.parametrize("bits", [1, 8, 128, 4096])
    @given(st.integers(1, 5), st.integers(0, 2**31))
    def test_round_trip_all_widths(self, bits, count, seed):
        env = ProtocolEnv.seeded(seed, bits)
        secret = env.source("dealer").next_vector(env.params)
        shares = fast_share(secret, count, env)
        assert len(shares) == count
        assert combine(shares.shares) == secret

    @pytest.mark.parametrize("bits, count", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)],
                             ids=["2", "3", "4", "2-bits-2", "2-bits-3"])
    def test_prefix_secrecy_exhaustive(self, bits, count):
        """Any proper subset of the shares is uniform, marginalized over
        all owner streams, and so has the same distribution whatever the
        secret: the Karnin-Greene-Hellman claim, checked exhaustively."""
        params = SchemeParams.binary(bits)
        streams = list(itertools.product(range(1 << bits), repeat=count - 1))
        by_secret = []
        for secret in range(1 << bits):
            subset_counts: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
            for stream in streams:
                shares = ints(owner_split(secret, count, stream, params).shares)
                for size in range(1, count):
                    for positions in itertools.combinations(range(count), size):
                        observed = tuple(shares[i] for i in positions)
                        bucket = subset_counts.setdefault(positions, {})
                        bucket[observed] = bucket.get(observed, 0) + 1
            for positions, bucket in subset_counts.items():
                expected = len(streams) // (1 << (bits * len(positions)))
                assert set(bucket.values()) == {expected}, (secret, positions)
            by_secret.append(subset_counts)
        assert all(counts == by_secret[0] for counts in by_secret)


class TestGenerateMaskSet:
    def test_single_mask_is_zero(self):
        masks = generate_mask_set(1, fixture_source([]), P8)
        assert ints(masks.vectors) == [0x00]

    def test_pair_must_cancel(self):
        masks = generate_mask_set(2, fixture_source([0x0F]), P8)
        assert ints(masks.vectors) == [0x0F, 0x0F]

    def test_triple_balances(self):
        masks = generate_mask_set(3, fixture_source([0x0A, 0x06]), P8)
        assert ints(masks.vectors) == [0x0A, 0x06, 0x0C]

    def test_cardinality_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_mask_set(0, fixture_source([]), P8)

    @given(st.integers(1, 32), st.integers(0, 2**31), st.sampled_from([8, 128]))
    def test_zero_sum_for_any_stream(self, count, seed, bits):
        from asgs.devices import RandSource

        params = SchemeParams.binary(bits)
        masks = generate_mask_set(count, RandSource.seeded(seed), params)
        assert len(masks) == count
        assert combine(masks.vectors).is_zero()

    @given(st.integers(1, 32), st.integers(0, 2**31))
    def test_mask_set_wraps_the_packed_masks(self, count, seed):
        from asgs.devices import RandSource

        packed = mask_ints(count, RandSource.seeded(seed), P8)
        assert all(type(value) is int for value in packed)
        assert ints(generate_mask_set(count, RandSource.seeded(seed), P8).vectors) == packed


class TestPackedInts:
    def test_round_trip(self):
        vectors = from_ints(P8, [0x00, 0x5A, 0xFF])
        assert vectors == tuple(bvs([0x00, 0x5A, 0xFF]))
        assert all(v.params is P8 for v in vectors)
        assert to_ints(vectors) == [0x00, 0x5A, 0xFF]
        assert from_ints(P8, []) == ()

    @pytest.mark.parametrize("feed", [
        list,
        lambda values: (value for value in values),
        lambda values: dict(enumerate(values)).values(),
    ], ids=["list", "generator", "dict_values"])
    @pytest.mark.parametrize("length", [0, 1, 4, 625])
    @pytest.mark.parametrize("bits", [1, 8, 128, 4096])
    def test_round_trip_any_iterable(self, bits, length, feed):
        params = SchemeParams.binary(bits)
        rng = random.Random(f"{bits}:{length}")
        values = [rng.getrandbits(bits) for _ in range(length)]
        vectors = from_ints(params, feed(values))
        assert type(vectors) is tuple
        assert vectors == tuple(ShareVector.from_int(params, value) for value in values)
        assert all(type(v) is ShareVector and v.params is params for v in vectors)
        assert to_ints(vectors) == values


def min_max_check(values, params, what):
    """The range check of an int column by ``min`` and ``max``."""
    if not values:
        raise ValueError(f"{what} must not be empty")
    if min(values) < 0 or max(values) >> params.dimension:
        raise ValueError(f"{what} holds a value that does not fit in {params.dimension} bits")


def int_min_max_check(values, params, what):
    """``min_max_check`` behind a gate that refuses, with ``TypeError``, a
    value whose type is neither int nor bool."""
    if any(type(value) not in (int, bool) for value in values):
        raise TypeError(f"{what} holds a value that is not an int")
    min_max_check(values, params, what)


def outcome(check, values, params):
    """None, or the type and text of what ``check`` raised."""
    try:
        check(values, params, "a column")
    except Exception as error:  # noqa: BLE001 - the exception is the outcome
        return type(error), str(error)
    return None


class TestLaneFolds:
    """Columns of widths up to 32 bits fold and range-check as packed
    32-bit lanes, with the results of ``reduce`` (and on int columns of
    ``min``/``max``)."""

    @given(st.integers(1, 40), st.integers(0, 2**64), st.data())
    def test_xor_ints_is_reduce(self, bits, start, data):
        params = SchemeParams.binary(bits)
        values = data.draw(st.lists(st.integers(0, (1 << bits) - 1), max_size=300))
        want = functools.reduce(operator.xor, values, start)
        assert params.xor_ints(values, start) == want
        assert params.xor_ints(tuple(values), start) == want
        if bits <= LANE_BITS:
            assert params.xor_ints is xor_lanes
            assert xor_lanes(values, start) == want

    @given(st.lists(st.integers(0, 2**32 - 1), max_size=300))
    def test_fold_lanes_is_reduce_for_xor_and_or(self, values):
        packed = sum(value << (32 * i) for i, value in enumerate(values))
        for op in (operator.xor, operator.or_):
            assert fold_lanes(packed, len(values), op) == functools.reduce(op, values, 0)

    @given(st.integers(1, 40), st.data())
    def test_check_ints_accepts_and_refuses_what_min_max_did(self, bits, data):
        params = SchemeParams.binary(bits)
        odd = st.sampled_from([-1, 1 << bits, (1 << bits) - 1, 2**32, 2**32 - 1, 2**64,
                               True, False, 0.0, 1.0, 2.5, -1.0, float(1 << bits)])
        values = data.draw(st.lists(st.one_of(st.integers(0, (1 << bits) - 1), odd),
                                    max_size=40))
        # Padded past LANE_MIN, a narrow column takes the packed check.
        values += [(1 << bits) - 1] * data.draw(st.sampled_from([0, LANE_MIN]))
        values = data.draw(st.permutations(values))
        column = data.draw(st.sampled_from([list, tuple]))(values)
        got = outcome(check_ints, column, params)
        want = outcome(int_min_max_check, column, params)
        if want is not None and want[0] is TypeError:
            # A float is refused by ``|``, whose message names the operands.
            assert got is not None and got[0] is TypeError
        else:
            assert got == want

    @pytest.mark.parametrize("bits", [1, 8, 16, 31, 32, 33, 128])
    @pytest.mark.parametrize("bad", [-1, "width", 2**32, 2**64])
    def test_one_value_out_of_range_in_a_long_column(self, bits, bad):
        params = SchemeParams.binary(bits)
        bad = 1 << bits if bad == "width" else bad
        for at in (0, 311, 624):
            column = [(1 << bits) - 1] * 625
            column[at] = bad
            want = outcome(min_max_check, column, params)
            assert (want is None) == (0 <= bad < 1 << bits)
            assert outcome(check_ints, column, params) == want


class TestCheckZeroSum:
    """``check_zero_sum`` rechecks a mask set, one the engine built with
    the unchecked ``MaskSet._of`` included."""

    def test_balanced_triple(self):
        assert check_zero_sum(MaskSet([0x0A, 0x06, 0x0C], P8))

    def test_lone_nonzero_vector(self):
        assert not check_zero_sum(MaskSet._of((0x01,), P8))

    def test_lone_zero_vector(self):
        assert check_zero_sum(MaskSet([0x00], P8))

    def test_accepts_mask_set(self):
        assert check_zero_sum(MaskSet([0x0F, 0x0F], P8))
        assert not check_zero_sum(MaskSet._of((0x0F, 0x0E), P8))


class TestMaskSet:
    def test_zero_sum_enforced_at_construction(self):
        with pytest.raises(ValueError):
            MaskSet([0x01, 0x03], P8)

    def test_len(self):
        assert len(MaskSet([0x0F, 0x0F], P8)) == 2


class TestAuthorizedShareSet:
    def test_role_and_shares_preserved(self):
        made = AuthorizedShareSet.from_shares(SetRole.MASTER, bvs([0x04, 0x08]))
        assert made.role is SetRole.MASTER
        assert ints(made.shares) == [0x04, 0x08]
        assert len(made) == 2

    def test_must_be_non_empty(self):
        with pytest.raises(ValueError):
            AuthorizedShareSet.from_shares(SetRole.MASTER, [])

    def test_mixed_params_rejected(self):
        with pytest.raises(MixedParams):
            AuthorizedShareSet.from_shares(
                SetRole.MASTER, [bv(0x01), bv(0x0001, SchemeParams.binary(16))]
            )

    def test_equal_params_need_not_be_identical(self):
        shares = (bv(0x01, SchemeParams.binary(8)), bv(0x02, SchemeParams(8)))
        made = AuthorizedShareSet.from_shares(SetRole.MASTER, shares)
        assert made.shares == shares
        with pytest.raises(MixedParams):
            AuthorizedShareSet.from_shares(
                SetRole.MASTER, shares + (bv(0x0003, SchemeParams.binary(16)),),
            )


class TestPartitionSums:
    def test_singleton_left_side(self):
        masks = MaskSet([0x0A, 0x06, 0x0C], P8)
        left, right = partition_sums(masks, {1})
        assert (left.to_int(), right.to_int()) == (0x0A, 0x0A)

    def test_empty_left_side(self):
        masks = MaskSet([0x0F, 0x0F], P8)
        left, right = partition_sums(masks, set())
        assert (left.to_int(), right.to_int()) == (0x00, 0x00)

    def test_two_element_left_side(self):
        masks = MaskSet([0x0A, 0x06, 0x0C], P8)
        left, right = partition_sums(masks, {1, 2})
        assert (left.to_int(), right.to_int()) == (0x0C, 0x0C)

    @pytest.mark.parametrize("bad", [{0}, {4}, {-1}, {True}, {False}])
    def test_out_of_range_indices(self, bad):
        masks = MaskSet([0x0A, 0x06, 0x0C], P8)
        with pytest.raises(IndexOutOfRange):
            partition_sums(masks, bad)

    @given(st.integers(1, 16), st.integers(0, 2**31), st.data())
    def test_sides_always_balance(self, count, seed, data):
        from asgs.devices import RandSource

        masks = generate_mask_set(count, RandSource.seeded(seed), P8)
        subset = data.draw(st.sets(st.integers(1, count)))
        left, right = partition_sums(masks, subset)
        assert left == right


class TestAgainstOracles:
    """The library-level operations agree with the straight-line oracles."""

    @given(st.lists(st.integers(0, 0xFF), min_size=1, max_size=12))
    def test_combine_matches_xor_all(self, values):
        assert combine(bvs(values)).to_int() == oracles.xor_all(values)

    @given(st.integers(1, 10), st.lists(st.integers(0, 0xFF), min_size=9, max_size=9))
    def test_mask_generation_matches_oracle(self, count, pool):
        expected = oracles.generate_m(oracles.stream(pool), count)
        masks = generate_mask_set(count, fixture_source(pool[: count - 1]), P8)
        assert ints(masks.vectors) == expected

    @given(
        st.integers(0, 0xFF),
        st.integers(1, 10),
        st.lists(st.integers(0, 0xFF), min_size=9, max_size=9),
    )
    def test_split_matches_oracle(self, secret, count, pool):
        expected = oracles.fast_share(oracles.stream(pool), secret, count)
        split = owner_split(secret, count, pool[: count - 1])
        assert ints(split.shares) == expected
