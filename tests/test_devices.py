"""Accumulator register and randomness sources."""

import random
import sys
from functools import reduce
from itertools import repeat
from operator import xor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from asgs.devices import (
    LANE_CHUNK,
    Accumulator,
    FixtureExhausted,
    RandSource,
    derive_stream_seed,
)
from asgs.kgh import LANE_BITS, LANE_MIN, MixedParams, SchemeParams, mask_ints
from helpers import P8, bv, fixture_source


class TestAccumulator:
    def test_fresh_register_reads_zero(self):
        assert Accumulator(P8).read().to_int() == 0x00

    def test_reset_clears_any_state(self):
        acc = Accumulator(P8)
        acc.store(bv(0x0A))
        acc.reset()
        assert acc.read().to_int() == 0x00

    def test_store_xors_into_register(self):
        acc = Accumulator(P8)
        acc.store(bv(0x11))
        acc.store(bv(0x22))
        assert acc.read().to_int() == 0x33

    def test_store_is_involutive(self):
        acc = Accumulator(P8)
        acc.store(bv(0x0A))
        acc.store(bv(0x0A))
        assert acc.read().to_int() == 0x00

    def test_zero_sum_triple_cancels(self):
        acc = Accumulator(P8)
        for value in (0x0A, 0x06, 0x0C):
            acc.store(bv(value))
        assert acc.read().is_zero()

    def test_read_does_not_mutate(self):
        acc = Accumulator(P8)
        acc.store(bv(0x55))
        assert acc.read() == acc.read()

    def test_param_mismatch_rejected(self):
        # The register's own check, not the vector sum's, which raises
        # MixedParams as well but words it "cannot mix vectors"; the
        # register keeps its value.
        acc = Accumulator(P8)
        acc.store(bv(0x5A))
        with pytest.raises(MixedParams, match="register holds SchemeParams"):
            acc.store(bv(0x0001, SchemeParams.binary(16)))
        assert acc.read() == bv(0x5A)

    def test_public_surface_is_reset_read_store(self):
        """Nothing but the three register operations is exposed."""
        surface = {name for name in dir(Accumulator) if not name.startswith("_")}
        assert surface == {"read", "reset", "store"}

    @given(st.lists(st.integers(0, 0xFF), max_size=16), st.randoms())
    def test_store_order_never_matters(self, values, rng):
        forward = Accumulator(P8)
        for value in values:
            forward.store(bv(value))
        shuffled = list(values)
        rng.shuffle(shuffled)
        backward = Accumulator(P8)
        for value in shuffled:
            backward.store(bv(value))
        assert forward.read() == backward.read()


class TestRandSourceFixture:
    def test_yields_declared_values_in_order(self):
        source = fixture_source([0x0A, 0x06])
        assert source.next_vector(P8).to_int() == 0x0A
        assert source.next_vector(P8).to_int() == 0x06

    def test_exhaustion_is_an_error(self):
        for draw in (RandSource.next_int, RandSource.next_vector):
            source = fixture_source([0x0A])
            draw(source, P8)
            with pytest.raises(FixtureExhausted):
                draw(source, P8)
            assert source.consumed == 1

    def test_params_checked_per_draw(self):
        for draw in (RandSource.next_int, RandSource.next_vector):
            source = fixture_source([0x0A])
            with pytest.raises(MixedParams):
                draw(source, SchemeParams.binary(16))
            assert source.consumed == 0

    def test_consumed_counter(self):
        source = fixture_source([0x0A, 0x06])
        assert source.consumed == 0
        source.next_vector(P8)
        assert source.consumed == 1

    def test_packed_draws_share_the_stream_and_its_checks(self):
        source = fixture_source([0x0A, 0x06, 0x05])
        assert source.next_int(P8) == 0x0A
        assert source.next_vector(P8).to_int() == 0x06
        assert source.consumed == 2
        with pytest.raises(MixedParams):
            source.next_int(SchemeParams.binary(16))
        assert source.consumed == 2
        assert source.next_int(P8) == 0x05
        with pytest.raises(FixtureExhausted):
            source.next_int(P8)

    @pytest.mark.parametrize("values, error", [
        ([0x0A, 0x100], ValueError),  # one bit too wide for 8 bits
        ([0x0A, -1], ValueError),
        ([0x0A, 1.0], TypeError),
        ([bv(0x0A)], TypeError),  # a vector, not its packed int
    ])
    def test_fixture_stream_is_checked_when_built(self, values, error):
        with pytest.raises(error):
            RandSource.fixture(P8, values)


class TestRandSourceSeeded:
    def test_equal_seeds_agree_on_first_100_outputs(self):
        first = RandSource.seeded(42)
        second = RandSource.seeded(42)
        for _ in range(100):
            assert first.next_vector(P8) == second.next_vector(P8)

    def test_distinct_seeds_differ_early(self):
        first = RandSource.seeded(1)
        second = RandSource.seeded(2)
        outputs = [
            (first.next_vector(P8), second.next_vector(P8)) for _ in range(4)
        ]
        assert any(a != b for a, b in outputs)

    def test_width_respected(self):
        params = SchemeParams.binary(12)
        source = RandSource.seeded(7)
        for _ in range(20):
            assert source.next_vector(params).to_int() < (1 << 12)

    def test_packed_draw_is_getrandbits_of_the_width(self):
        params = SchemeParams.binary(12)
        source, reference = RandSource.seeded(9), random.Random(9)
        draws = [source.next_int(params) for _ in range(20)]
        assert draws == [reference.getrandbits(12) for _ in range(20)]
        assert all(type(value) is int for value in draws)
        assert source.consumed == 20

    def test_next_vector_wraps_the_packed_draw(self):
        ints_first, vectors_first = RandSource.seeded(3), RandSource.seeded(3)
        for _ in range(10):
            assert vectors_first.next_vector(P8).to_int() == ints_first.next_int(P8)

    def test_refused_seed_fails_at_seeding(self):
        with pytest.raises(TypeError):
            RandSource.seeded([1])

    def test_direct_construction_is_guarded(self):
        with pytest.raises(ValueError):
            RandSource()
        with pytest.raises(ValueError):
            RandSource(rng=object(), values=())


class TestNextInts:
    """The batch draw against ``count`` calls of the single draw."""

    @given(st.integers(0, 2**64), st.integers(1, 300), st.integers(0, 40))
    def test_seeded_batch_is_the_single_draws(self, seed, bits, count):
        params = SchemeParams.binary(bits)
        batch, single = RandSource.seeded(seed), RandSource.seeded(seed)
        assert batch.next_ints(params, count) == [
            single.next_int(params) for _ in range(count)
        ]
        assert batch.consumed == single.consumed == count
        assert batch.next_int(params) == single.next_int(params)

    @given(st.integers(0, 2**64),
           st.lists(st.tuples(st.integers(1, 300), st.integers(0, 20)), max_size=8))
    def test_batches_of_any_sizes_are_the_generator_stream(self, seed, batches):
        """The generator is built at the first draw, from the seed given."""
        source, reference = RandSource.seeded(seed), random.Random(seed)
        for bits, count in batches:
            assert source.next_ints(SchemeParams.binary(bits), count) == [
                reference.getrandbits(bits) for _ in range(count)
            ]
        assert source.consumed == sum(count for _, count in batches)

    @given(st.lists(st.integers(0, 0xFF), max_size=20), st.data())
    def test_fixture_batch_is_the_single_draws(self, values, data):
        start = data.draw(st.integers(0, len(values)))
        count = data.draw(st.integers(0, len(values) - start))
        batch, single = fixture_source(values), fixture_source(values)
        batch.next_ints(P8, start)
        for _ in range(start):
            single.next_int(P8)
        assert batch.next_ints(P8, count) == [single.next_int(P8) for _ in range(count)]
        assert batch.consumed == single.consumed == start + count

    def test_empty_batch_from_a_drained_fixture(self):
        source = fixture_source([0x0A])
        source.next_int(P8)
        assert source.next_ints(P8, 0) == []
        assert source.consumed == 1

    def test_negative_count_is_rejected(self):
        for source in (RandSource.seeded(1), fixture_source([0x0A])):
            with pytest.raises(ValueError):
                source.next_ints(P8, -1)
            assert source.consumed == 0

    def test_a_count_past_ssize_t_is_rejected_and_consumes_nothing(self):
        # Such a count raised OverflowError, after the seeded source had
        # counted it as drawn. A count that fits in ssize_t is not tried
        # here: it would allocate that many vectors.
        for source in (RandSource.seeded(1), fixture_source([0x0A])):
            for count in (sys.maxsize + 1, 2**64):
                with pytest.raises(ValueError, match=r"draw count must lie in 0\.\."):
                    source.next_ints(P8, count)
            assert source.consumed == 0

    @given(st.lists(st.integers(0, 0xFF), max_size=20), st.data())
    def test_overrun_consumes_nothing(self, values, data):
        start = data.draw(st.integers(0, len(values)))
        count = data.draw(st.integers(len(values) - start + 1, len(values) + 5))
        source = fixture_source(values)
        source.next_ints(P8, start)
        with pytest.raises(FixtureExhausted):
            source.next_ints(P8, count)
        assert source.consumed == start

    @pytest.mark.parametrize("start, count", [(0, 0), (0, 2), (1, 0), (2, 1), (3, 5)])
    def test_a_draw_under_other_params_consumes_nothing(self, start, count):
        # Whatever the count, an empty batch and one past the end included.
        source = fixture_source([0x0A, 0x06, 0x05])
        source.next_ints(P8, start)
        for balance in (None, 0):
            with pytest.raises(MixedParams, match="fixture stream carries"):
                source.next_ints(SchemeParams.binary(16), count, balance)
        assert source.consumed == start
        assert source.next_ints(P8, 3 - start) == [0x0A, 0x06, 0x05][start:]


class TestLaneDraw:
    """Widths up to 32 bits draw a seeded column as packed 32-bit lanes:
    the values and generator state of value-by-value ``getrandbits``."""

    COUNTS = (0, 1, 2, 3, LANE_MIN - 1, LANE_MIN, 625,
              LANE_CHUNK - 1, LANE_CHUNK, LANE_CHUNK + 1, 2 * LANE_CHUNK + 3)

    @pytest.mark.parametrize("bits", range(1, LANE_BITS + 1))
    def test_column_and_balance_are_the_value_by_value_draws(self, bits):
        params = SchemeParams.binary(bits)
        for count in self.COUNTS:
            seed = f"{bits}:{count}"
            for balance in (None, 0, (1 << bits) - 1):
                source, reference = RandSource.seeded(seed), random.Random(seed)
                want = list(map(reference.getrandbits, repeat(bits, count)))
                if balance is not None:
                    want.append(reduce(xor, want, balance))
                got = source.next_ints(params, count, balance)
                assert got == want, (bits, count, balance)
                assert all(type(value) is int for value in got)
                assert source.consumed == count
                # The generator is left where the single draws leave it:
                # the next narrow and wide draws are the reference's.
                assert source.next_int(params) == reference.getrandbits(bits)
                assert source.next_ints(SchemeParams.binary(100), 1) == [
                    reference.getrandbits(100)]

    def test_one_generator_call_per_chunk_each_within_a_c_int(self):
        # getrandbits takes a C int: 2**40 bits raise OverflowError.
        calls = []

        class Recording(random.Random):
            def getrandbits(self, k):
                calls.append(k)
                return super().getrandbits(k)

        source = RandSource(rng=Recording(5))
        source.next_ints(SchemeParams.binary(16), 2 * LANE_CHUNK + 3, 0)
        assert calls == [32 * LANE_CHUNK, 32 * LANE_CHUNK, 32 * 3]
        assert 32 * LANE_CHUNK <= 2**31 - 1

    @pytest.mark.parametrize("bits", [1, 8, 16, 31, 32])
    @pytest.mark.parametrize("count", [1, 2, 3, 626, LANE_CHUNK + 2])
    def test_mask_balance_is_the_xor_of_the_draws(self, bits, count):
        params = SchemeParams.binary(bits)
        draws = list(map(random.Random(count).getrandbits, repeat(bits, count - 1)))
        masks = mask_ints(count, RandSource.seeded(count), params)
        assert masks == draws + [reduce(xor, draws, 0)]

    @given(st.integers(0, 2**64), st.integers(1, 300), st.integers(0, 2 * LANE_MIN), st.data())
    def test_balance_at_any_width_is_reduce(self, seed, bits, count, data):
        params = SchemeParams.binary(bits)
        balance = data.draw(st.integers(0, (1 << bits) - 1))
        source, single = RandSource.seeded(seed), RandSource.seeded(seed)
        batch = source.next_ints(params, count, balance)
        assert batch[:-1] == single.next_ints(params, count)
        assert batch[-1] == reduce(xor, batch[:-1], balance)
        assert source.consumed == count

    @given(st.sampled_from([1, 16, 32, 33, 128]), st.data())
    def test_fixture_sources_replay_and_balance_their_values(self, bits, data):
        params = SchemeParams.binary(bits)
        values = data.draw(st.lists(st.integers(0, (1 << bits) - 1), max_size=20))
        count = data.draw(st.integers(0, len(values)))
        source = RandSource.fixture(params, iter(values))
        batch = source.next_ints(params, count, 0)
        assert batch == values[:count] + [reduce(xor, values[:count], 0)]
        assert source.next_ints(params, len(values) - count) == values[count:]
        with pytest.raises(FixtureExhausted):
            source.next_ints(params, 1, 0)
        assert source.consumed == len(values)


class TestDeriveStreamSeed:
    def test_stable(self):
        assert derive_stream_seed(7, "dealer") == derive_stream_seed(7, "dealer")

    def test_labels_separate_streams(self):
        assert derive_stream_seed(7, "dealer") != derive_stream_seed(7, "owner")

    def test_seeds_separate_streams(self):
        assert derive_stream_seed(7, "dealer") != derive_stream_seed(8, "dealer")

    def test_fits_in_64_bits(self):
        assert 0 <= derive_stream_seed(123456789, "accumulator") < 2**64
