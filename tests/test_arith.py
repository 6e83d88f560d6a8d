import math
import random

import pytest
from hypothesis import given, strategies as st

from fairex.arith import (
    Rng,
    _comb_entry,
    _fixed_base_powers,
    fixed_base_exp,
    int_from_bytes,
    int_to_bytes,
    is_probable_prime,
    mod_exp,
    mod_inv,
    sample_range,
)
from fairex.errors import NotInvertibleError, ParameterError, SetupError
from fairex.keys import _gen_prime


def brute_force_is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def fresh_rng(tag: bytes = b"") -> Rng:
    return Rng.from_material(b"test_arith" + tag)


class TestEncoding:
    def test_zero_is_empty(self):
        assert int_to_bytes(0) == b""
        assert int_from_bytes(b"") == 0

    def test_minimal_no_leading_zeros(self):
        assert int_to_bytes(1) == b"\x01"
        assert int_to_bytes(256) == b"\x01\x00"
        assert int_to_bytes(0xDEADBEEF) == b"\xde\xad\xbe\xef"

    def test_negative_cannot_be_encoded(self):
        with pytest.raises(ParameterError, match="^negative integers cannot be encoded$"):
            int_to_bytes(-1)

    @given(st.integers(min_value=0, max_value=1 << 512))
    def test_round_trip(self, x):
        assert int_from_bytes(int_to_bytes(x)) == x


class TestModExp:
    def test_zero_exponent_gives_one(self):
        for x, n in [(0, 2), (7, 13), (123456789, 55)]:
            assert mod_exp(x, 0, n) == 1

    def test_small_vectors(self):
        assert mod_exp(5, 3, 23) == 10  # 125 = 5*23 + 10
        assert mod_exp(2, 27, 55) == 18
        assert mod_exp(18, 3, 55) == 2  # cross-check of the line above

    def test_bad_modulus(self):
        for bad in (1, 0, -5):
            with pytest.raises(ParameterError):
                mod_exp(2, 3, bad)

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=2, max_value=10**6),
    )
    def test_multiplicative(self, a, b, e, m):
        assert mod_exp(a * b % m, e, m) == mod_exp(a, e, m) * mod_exp(b, e, m) % m


def comb_span(modulus: int) -> int:
    return -(-modulus.bit_length() // 32)


def comb_tables_up_front(base: int, modulus: int) -> tuple[list[int], ...]:
    """Every entry of the comb's tables by pow: bit i of entry k of table j stands for base^(2^((8j+i)*span))."""
    span = comb_span(modulus)
    return tuple(
        [pow(base, sum(1 << (8 * j + i) * span for i in range(8) if k >> i & 1), modulus) for k in range(256)]
        for j in range(4)
    )


@st.composite
def comb_cases(draw):
    """(base, exponent, modulus) for a modulus of 2 to 1,100 bits, with exponents at the table's edge and past it."""
    bits = draw(st.integers(min_value=2, max_value=1100))
    m = draw(st.integers(min_value=1 << bits - 1, max_value=(1 << bits) - 1))
    covered = 32 * comb_span(m)
    e = draw(st.one_of(
        st.integers(min_value=0, max_value=(1 << covered) - 1),
        st.sampled_from([(1 << covered) - 1, 1 << covered, (1 << covered) + 1]),
        st.integers(min_value=1 << covered, max_value=1 << covered + 64),
    ))
    return draw(st.integers(min_value=0, max_value=3 * m)), e, m


class CountingModulus(int):
    """A modulus that counts the reductions made with it: `x % m` calls a subclass's __rmod__ first; pow does not."""

    reductions = 0

    def __rmod__(self, other):
        CountingModulus.reductions += 1
        return int.__rmod__(self, other)


class TestFixedBaseExp:
    @given(comb_cases())
    def test_matches_pow(self, case):
        b, e, m = case
        assert fixed_base_exp(b, e, m) == pow(b, e, m)

    def test_edge_cases(self):
        for b, e, m in [
            (7, 0, 13),  # empty exponent
            (0, 0, 2),  # 0^0 = 1, smallest modulus
            (0, 5, 97),  # zero base
            (1, 31, 2),  # m = 2
            (3, 1, 2),
            (100, 77, 13),  # base above the modulus
            (13, 77, 13),  # base equal to the modulus
            (5, 1 << 200, 1009),  # exponent far longer than the 2-entry table
        ]:
            assert fixed_base_exp(b, e, m) == pow(b, e, m), (b, e, m)

    def test_table_boundary(self):
        m = (1 << 1023) + 1155  # a 1024-bit modulus: span 32, so 32 rows cover 1024 bits
        tables = _fixed_base_powers(3, m)
        assert [len(table) for table in tables] == [256] * 4
        steps = [tables[row // 8][1 << row % 8] for row in range(32)]
        assert steps == [pow(3, 1 << 32 * row, m) for row in range(32)]
        for e in (m - 1, (1 << 1024) - 1, 1 << 1024, (1 << 1064) + 12345):
            assert fixed_base_exp(3, e, m) == pow(3, e, m)

    def test_same_errors_as_mod_exp(self):
        for b, e, m in [(2, 3, 1), (2, 3, 0), (2, 3, -5), (2, -1, 7), (2, -1, 1)]:
            with pytest.raises(ParameterError) as expected:
                mod_exp(b, e, m)
            with pytest.raises(ParameterError) as got:
                fixed_base_exp(b, e, m)
            assert str(got.value) == str(expected.value)

    def test_tables_are_never_shared(self):
        base, m1, m2 = 12345, 1000003, 999983
        assert _fixed_base_powers(base, m1) is not _fixed_base_powers(base, m2)
        assert _fixed_base_powers(2, m1) is not _fixed_base_powers(3, m1)
        for e in (1, 12345, m1 - 1, (1 << 32) - 1):
            # interleave, so a table cached for one key never serves another
            assert fixed_base_exp(base, e, m1) == pow(base, e, m1)
            assert fixed_base_exp(base, e, m2) == pow(base, e, m2)
            assert fixed_base_exp(2, e, m1) == pow(2, e, m1)
            assert fixed_base_exp(3, e, m1) == pow(3, e, m1)
        for b, m in [(base, m1), (base, m2), (2, m1), (3, m1)]:
            expected = comb_tables_up_front(b, m)
            for table, full in zip(_fixed_base_powers(b, m), expected):
                assert all(entry in (None, value) for entry, value in zip(table, full))

    @pytest.mark.parametrize("seed", range(3))
    def test_entries_filled_in_any_order_equal_products_built_up_front(self, seed):
        keys = [(3, 1000003), (12345, 1000003), (3, 999983), (7, (1 << 255) + 95), (2, 2)]
        fresh = {key: _fixed_base_powers.__wrapped__(*key) for key in keys}  # uncached, so filled here alone
        for tables in fresh.values():
            assert [sum(entry is not None for entry in table) for table in tables] == [9] * 4
        order = [(key, j, k) for key in keys for j in range(4) for k in range(256)]
        random.Random(seed).shuffle(order)  # interleaves bases, moduli, tables and entries
        for key, j, k in order:
            _comb_entry(fresh[key][j], k, key[1])
        for key, tables in fresh.items():
            assert tables == comb_tables_up_front(*key)

    def test_reductions_per_paper_size_power(self):
        """A warm 1024-bit power makes at most span - 1 = 31 squarings and 4 * span = 128 multiplications."""
        m = (1 << 1023) + 1155
        for table in _fixed_base_powers(5, m):
            for k in range(256):
                _comb_entry(table, k, m)
        counting, rng = CountingModulus(m), random.Random(29)
        exponents = [0, 1, m - 1, (1 << 1024) - 1, 1 << 1023, *(rng.getrandbits(1024) for _ in range(8))]
        counts = []
        for e in exponents:
            CountingModulus.reductions = 0
            assert fixed_base_exp(5, e, counting) == pow(5, e, m)
            counts.append(CountingModulus.reductions)
        assert max(counts) == counts[3] == 159  # every column of 2^1024 - 1 indexes every table
        assert counts[:2] == [0, 1]

    def test_cache_is_bounded(self):
        assert _fixed_base_powers.cache_info().maxsize == 32
        m = 1000003
        for base in range(2, 42):
            for e in (base, m - base, (1 << 32) - base):
                assert fixed_base_exp(base, e, m) == pow(base, e, m)
        assert _fixed_base_powers.cache_info().currsize <= 32
        assert [len(table) for table in _fixed_base_powers(41, m)] == [256] * 4


class TestModInv:
    def test_one_is_self_inverse(self):
        assert mod_inv(1, 97) == 1

    def test_vector(self):
        assert mod_inv(6, 23) == 4  # 6*4 = 24 = 23 + 1

    def test_not_coprime(self):
        with pytest.raises(NotInvertibleError):
            mod_inv(4, 8)

    @given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=2, max_value=10**9))
    def test_inverse_property(self, x, m):
        if math.gcd(x, m) != 1:
            with pytest.raises(NotInvertibleError):
                mod_inv(x, m)
        else:
            assert mod_inv(x, m) * x % m == 1


class TestGenPrime:
    def test_eight_bit_range_and_primality(self):
        rng = fresh_rng(b"p8")
        for _ in range(20):
            p = _gen_prime(8, rng, 0, False)[0]
            assert 128 <= p <= 255
            assert brute_force_is_prime(p)

    def test_512_bit(self):
        p = _gen_prime(512, fresh_rng(b"p512"), 0, False)[0]
        assert p.bit_length() == 512
        assert is_probable_prime(p)

    def test_deterministic(self):
        assert _gen_prime(32, fresh_rng(b"same"), 0, False) == _gen_prime(32, fresh_rng(b"same"), 0, False)

    def test_too_small(self):
        with pytest.raises(SetupError):  # no 8-bit integer lies above 255
            _gen_prime(8, fresh_rng(), 255, False)

    def test_probable_prime_agrees_with_brute_force(self):
        rng = fresh_rng(b"agree")
        for n in range(2, 1000):
            assert is_probable_prime(n, rng) == brute_force_is_prime(n)


class TestSampleRange:
    def test_singleton(self):
        assert sample_range(0, 1, fresh_rng()) == 0

    def test_empty_range(self):
        with pytest.raises(ParameterError):
            sample_range(5, 5, fresh_rng())

    def test_bounds(self):
        rng = fresh_rng(b"bounds")
        P = 1009
        for _ in range(500):
            x = sample_range(1, P - 1, rng)
            assert 1 <= x <= P - 2

    def test_top_byte_uniform_chi_square(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = fresh_rng(b"chi")
        counts = [0] * 256
        for _ in range(100_000):
            counts[sample_range(0, 1 << 16, rng) >> 8] += 1
        result = scipy_stats.chisquare(counts)
        assert result.pvalue > 0.001


class TestRng:
    def test_seed_must_be_32_bytes(self):
        with pytest.raises(ParameterError):
            Rng(b"short")

    def test_determinism(self):
        a, b = Rng(bytes(32)), Rng(bytes(32))
        assert a.random_bytes(100) == b.random_bytes(100)

    def test_children_are_independent_streams(self):
        root = Rng(bytes(32))
        assert root.child(b"x").random_bytes(32) != root.child(b"y").random_bytes(32)

    def test_rand_bits_width(self):
        rng = fresh_rng(b"bits")
        for bits in (1, 8, 9, 255):
            for _ in range(20):
                assert rng.rand_bits(bits) < 1 << bits

    def test_zero_bits_is_zero_and_draws_nothing(self):
        rng = fresh_rng(b"zero")
        assert rng.rand_bits(0) == 0
        assert rng.random_bytes(8) == fresh_rng(b"zero").random_bytes(8)

    @pytest.mark.parametrize("call", [
        lambda rng: rng.random_bytes(-1),
        lambda rng: rng.rand_bits(-1),
        lambda rng: rng.below(0),
        lambda rng: mod_inv(3, 1),
    ], ids=["random_bytes(-1)", "rand_bits(-1)", "below(0)", "mod_inv(x, 1)"])
    def test_out_of_range_arguments_raise_parameter_error(self, call):
        with pytest.raises(ParameterError):
            call(fresh_rng())
