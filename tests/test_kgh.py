"""Share algebra: vectors, splitting, mask sets, partitions."""

import copy
import itertools
import operator
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from asgs.kgh import (
    MAX_DIMENSION,
    AuthorizedShareSet,
    IndexOutOfRange,
    MaskSet,
    MixedParams,
    SchemeParams,
    SetRole,
    ShareVector,
    check_zero_sum,
    combine,
    generate_mask_set,
    kgh_split,
    partition_sums,
)
from helpers import P8, bv, bvs, fixture_source, ints


def general_vector(params: SchemeParams, components) -> ShareVector:
    return ShareVector(params, tuple(components))


class TestSchemeParams:
    def test_binary_constructor_and_bits_alias(self):
        params = SchemeParams.binary(12)
        assert params.modulus == 2
        assert params.dimension == 12
        assert params.bits == 12

    def test_default_width_is_128(self):
        assert SchemeParams.binary().dimension == 128

    @pytest.mark.parametrize(
        "modulus,dimension",
        [(1, 4), (0, 4), (2, 0), (3, -1), (2, MAX_DIMENSION + 1)],
    )
    def test_rejects_degenerate_parameters(self, modulus, dimension):
        with pytest.raises(ValueError):
            SchemeParams(modulus, dimension)


WIDTHS = [1, 8, 12, 128, 4096]


def msb_first(value: int, bits: int) -> tuple[int, ...]:
    return tuple((value >> (bits - 1 - i)) & 1 for i in range(bits))


class TestShareVector:
    def test_int_round_trip_msb_first(self):
        cases = [
            (8, 0x5A, (0, 1, 0, 1, 1, 0, 1, 0)),
            (1, 0x1, (1,)),
            (12, 0x9E3, (1, 0, 0, 1, 1, 1, 1, 0, 0, 0, 1, 1)),
            (128, 0xC << 124 | 0x5, (1, 1, 0, 0, 0)),
            (4096, 0x3 << 4094 | 0x1, (1, 1, 0)),
        ]
        for bits, value, leading in cases:
            params = SchemeParams.binary(bits)
            vector = ShareVector.from_int(params, value)
            assert vector.components[: len(leading)] == leading
            assert vector.components == msb_first(value, bits)
            assert vector.to_int() == value
            rebuilt = ShareVector(params, vector.components)
            assert rebuilt == vector
            assert rebuilt.to_int() == value

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
            lambda v: ShareVector(params, msb_first(v, bits)),
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
            ShareVector(SchemeParams(5, 3), (4, 0, 2)),
        ],
    )
    def test_frozen(self, vector):
        for name in ("params", "components", "_data", "extra"):
            with pytest.raises(AttributeError):
                setattr(vector, name, None)
        with pytest.raises(AttributeError):
            del vector.params
        assert copy.deepcopy(vector) == vector
        assert pickle.loads(pickle.dumps(vector)) == vector

    def test_int_packing_is_binary_only(self):
        params = SchemeParams(3, 2)
        with pytest.raises(ValueError):
            ShareVector.from_int(params, 1)
        with pytest.raises(ValueError):
            general_vector(params, (1, 2)).to_int()

    def test_component_range_enforced(self):
        with pytest.raises(ValueError):
            general_vector(SchemeParams(3, 2), (1, 3))
        with pytest.raises(ValueError):
            general_vector(P8, (0,) * 7)

    def test_add_is_xor_in_binary(self):
        assert (bv(0x0F) + bv(0x99)).to_int() == 0x96

    def test_add_and_sub_mod_k(self):
        params = SchemeParams(5, 2)
        a = general_vector(params, (1, 2))
        b = general_vector(params, (3, 4))
        assert (a + b).components == (4, 1)
        assert (a - b).components == (3, 3)

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
    def test_empty_combine_is_zero_with_explicit_params(self):
        assert combine([], P8).to_int() == 0x00

    def test_empty_combine_needs_params(self):
        with pytest.raises(ValueError):
            combine([])

    def test_general_modulus_example(self):
        params = SchemeParams(5, 2)
        result = combine([general_vector(params, (1, 2)), general_vector(params, (3, 4))])
        assert result.components == (4, 1)

    def test_binary_example(self):
        assert combine(bvs([0x04, 0x08, 0x0F])).to_int() == 0x03

    def test_mixed_params_rejected(self):
        with pytest.raises(MixedParams):
            combine([bv(0x01), bv(0x0001, SchemeParams.binary(16))])

    @given(st.lists(st.integers(0, 0xFF), min_size=2, max_size=8), st.randoms())
    def test_order_and_grouping_invariant(self, values, rng):
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert combine(bvs(values)).to_int() == combine(bvs(shuffled)).to_int()
        split_at = len(values) // 2
        regrouped = combine(
            [combine(bvs(values[:split_at]), P8), combine(bvs(values[split_at:]), P8)]
        )
        assert regrouped.to_int() == combine(bvs(values)).to_int()


class TestKghSplit:
    def test_general_modulus_example(self):
        params = SchemeParams(5, 2)
        secret = general_vector(params, (4, 1))
        from asgs.devices import RandSource

        rand = RandSource.fixture([general_vector(params, (1, 2))])
        result = kgh_split(secret, 2, rand)
        assert result.role is SetRole.OWNER
        assert [s.components for s in result.shares] == [(1, 2), (3, 4)]

    def test_single_share_degenerate_case(self):
        result = kgh_split(bv(0x5A), 1, fixture_source([]))
        assert ints(result.shares) == [0x5A]

    def test_binary_three_way_split(self):
        result = kgh_split(bv(0x5A), 3, fixture_source([0x11, 0x22]))
        assert ints(result.shares) == [0x11, 0x22, 0x69]

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            kgh_split(bv(0x5A), 0, fixture_source([]))

    @given(
        st.integers(2, 7),
        st.integers(1, 4),
        st.integers(1, 5),
        st.integers(0, 2**31),
    )
    def test_round_trip_all_moduli(self, modulus, dimension, count, seed):
        from asgs.devices import RandSource

        params = SchemeParams(modulus, dimension)
        rng_source = RandSource.seeded(seed)
        secret = rng_source.next_vector(params)
        shares = kgh_split(secret, count, rng_source)
        assert len(shares) == count
        assert combine(shares.shares) == secret

    @pytest.mark.parametrize("modulus", [2, 3, 4, 5])
    @pytest.mark.parametrize("count", [2, 3])
    def test_prefix_secrecy_exhaustive(self, modulus, count):
        """Any proper subset of the split shares is uniform over Z_k at
        dimension 1, marginalized over all draw streams."""
        params = SchemeParams(modulus, 1)
        secret = general_vector(params, (1 % modulus,))
        from asgs.devices import RandSource

        subset_counts: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        streams = itertools.product(range(modulus), repeat=count - 1)
        total_streams = 0
        for stream_values in streams:
            total_streams += 1
            rand = RandSource.fixture(
                [general_vector(params, (v,)) for v in stream_values]
            )
            shares = [s.components[0] for s in kgh_split(secret, count, rand).shares]
            for size in range(1, count):
                for positions in itertools.combinations(range(count), size):
                    observed = tuple(shares[i] for i in positions)
                    bucket = subset_counts.setdefault(positions, {})
                    bucket[observed] = bucket.get(observed, 0) + 1
        for positions, bucket in subset_counts.items():
            expected = total_streams // (modulus ** len(positions))
            assert set(bucket.values()) == {expected}, positions


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

    def test_binary_only(self):
        with pytest.raises(ValueError):
            generate_mask_set(2, fixture_source([0x01]), SchemeParams(3, 4))

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


class TestCheckZeroSum:
    def test_balanced_triple(self):
        assert check_zero_sum(bvs([0x0A, 0x06, 0x0C]))

    def test_lone_nonzero_vector(self):
        assert not check_zero_sum(bvs([0x01]))

    def test_lone_zero_vector(self):
        assert check_zero_sum(bvs([0x00]))

    def test_accepts_mask_set(self):
        assert check_zero_sum(MaskSet.from_vectors(bvs([0x0F, 0x0F])))


class TestMaskSet:
    def test_zero_sum_enforced_at_construction(self):
        with pytest.raises(ValueError):
            MaskSet.from_vectors(bvs([0x01, 0x03]))

    def test_mixed_params_rejected(self):
        with pytest.raises(MixedParams):
            MaskSet(
                (bv(0x01), bv(0x0001, SchemeParams.binary(16))),
                P8,
            )

    def test_len(self):
        assert len(MaskSet.from_vectors(bvs([0x0F, 0x0F]))) == 2


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


class TestPartitionSums:
    def test_singleton_left_side(self):
        masks = MaskSet.from_vectors(bvs([0x0A, 0x06, 0x0C]))
        left, right = partition_sums(masks, {1})
        assert (left.to_int(), right.to_int()) == (0x0A, 0x0A)

    def test_empty_left_side(self):
        masks = MaskSet.from_vectors(bvs([0x0F, 0x0F]))
        left, right = partition_sums(masks, set())
        assert (left.to_int(), right.to_int()) == (0x00, 0x00)

    def test_two_element_left_side(self):
        masks = MaskSet.from_vectors(bvs([0x0A, 0x06, 0x0C]))
        left, right = partition_sums(masks, {1, 2})
        assert (left.to_int(), right.to_int()) == (0x0C, 0x0C)

    @pytest.mark.parametrize("bad", [{0}, {4}, {-1}])
    def test_out_of_range_indices(self, bad):
        masks = MaskSet.from_vectors(bvs([0x0A, 0x06, 0x0C]))
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
        split = kgh_split(bv(secret), count, fixture_source(pool[: count - 1]))
        assert ints(split.shares) == expected
