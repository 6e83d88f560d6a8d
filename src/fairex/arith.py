"""Arbitrary-precision modular arithmetic and deterministic randomness.

Scalars are plain Python ints, always non-negative.  The byte encoding
used everywhere in this package is the minimal big-endian magnitude:
no leading zero bytes, and the empty string encodes zero.  Hash inputs
and wire fields carry it behind a length prefix, so no fixed width or
padding is needed.
"""

from __future__ import annotations

import hashlib
from functools import cache, lru_cache
from math import gcd

from .errors import NotInvertibleError, ParameterError

MR_ROUNDS = 40  # Miller-Rabin error bound 4^-40 <= 2^-80


def int_to_bytes(x: int) -> bytes:
    """Minimal big-endian encoding; b'' encodes 0."""
    if x < 0:
        raise ParameterError("negative integers cannot be encoded")
    return x.to_bytes((x.bit_length() + 7) // 8, "big")


def int_from_bytes(data: bytes) -> int:
    return int.from_bytes(data, "big")


class Rng:
    """Deterministic random stream: SHA-256 over (seed, block counter).

    The same 32-byte seed always yields the same sample sequence, on any
    platform and Python version, which is what makes protocol runs and
    test vectors replayable.  Instances are single-owner; derive
    independent streams with :meth:`child` instead of sharing one.
    """

    def __init__(self, seed: bytes):
        if len(seed) != 32:
            raise ParameterError("seed must be exactly 32 bytes")
        self._seed = bytes(seed)
        self._counter = 0
        self._buffer = b""

    @classmethod
    def from_material(cls, material: bytes) -> "Rng":
        """Build an Rng from arbitrary bytes by hashing them into a seed."""
        return cls(hashlib.sha256(material).digest())

    def child(self, label: bytes) -> "Rng":
        """Independent stream derived from this seed and a label."""
        return Rng(hashlib.sha256(self._seed + b"/" + label).digest())

    def random_bytes(self, n: int) -> bytes:
        if n < 0:
            raise ParameterError("byte count must be non-negative")
        while len(self._buffer) < n:
            block = hashlib.sha256(self._seed + self._counter.to_bytes(8, "big")).digest()
            self._counter += 1
            self._buffer += block
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out

    def rand_bits(self, bits: int) -> int:
        """Uniform integer in [0, 2^bits)."""
        if bits < 0:
            raise ParameterError("bit count must be non-negative")
        if bits == 0:
            return 0
        nbytes = (bits + 7) // 8
        value = int_from_bytes(self.random_bytes(nbytes))
        return value >> (nbytes * 8 - bits)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling (no modulo bias)."""
        if n <= 0:
            raise ParameterError("upper bound must be positive")
        if n == 1:
            return 0
        bits = (n - 1).bit_length()
        while True:
            value = self.rand_bits(bits)
            if value < n:
                return value


def sample_range(lo: int, hi: int, rng: Rng) -> int:
    """Uniform integer in [lo, hi)."""
    if lo >= hi:
        raise ParameterError(f"empty range [{lo}, {hi})")
    return lo + rng.below(hi - lo)


def mod_exp(base: int, exponent: int, modulus: int) -> int:
    """base^exponent mod modulus."""
    if modulus < 2:
        raise ParameterError("modulus must be at least 2")
    if exponent < 0:
        raise ParameterError("exponent must be non-negative")
    return pow(base, exponent, modulus)


FIXED_BASE_WINDOW = 5  # digits of fixed-base exponents are base 2^5 = 32


@lru_cache(maxsize=32)
def _fixed_base_powers(base: int, modulus: int) -> tuple[int, ...]:
    """base^(32^i) mod modulus for every 5-bit digit of a modulus-sized exponent."""
    power = base % modulus
    powers = [power]
    for _ in range((modulus.bit_length() - 1) // FIXED_BASE_WINDOW):
        power = pow(power, 1 << FIXED_BASE_WINDOW, modulus)
        powers.append(power)
    return tuple(powers)


def fixed_base_exp(base: int, exponent: int, modulus: int) -> int:
    """base^exponent mod modulus, for a base that recurs with the same modulus.

    The powers base^(32^i) are computed once per (base, modulus) and kept
    in a bounded cache (about 34 KB for a 1024-bit modulus).  With the
    exponent written in base-32 digits d_i, the result is
    prod_{d=1}^{31} (prod_{i: d_i = d} base^(32^i))^d, which the bucket
    method of Brickell, Gordon, McCurley and Wilson (EUROCRYPT '92)
    evaluates in about 240 multiplications at 1024 bits, against about
    1,230 inside pow.  Exponents longer than the table go to pow.
    """
    if modulus < 2:
        raise ParameterError("modulus must be at least 2")
    if exponent < 0:
        raise ParameterError("exponent must be non-negative")
    powers = _fixed_base_powers(base, modulus)
    if exponent.bit_length() > FIXED_BASE_WINDOW * len(powers):
        return pow(base, exponent, modulus)
    mask = (1 << FIXED_BASE_WINDOW) - 1
    buckets: list[int | None] = [None] * (mask + 1)
    for power in powers:
        digit = exponent & mask
        if digit:
            held = buckets[digit]
            buckets[digit] = power if held is None else held * power % modulus
        exponent >>= FIXED_BASE_WINDOW
    # prod_d bucket_d^d as a running product of suffix products, largest digit first.
    result = suffix = None
    for held in reversed(buckets[1:]):
        if held is not None:
            suffix = held if suffix is None else suffix * held % modulus
        if suffix is not None:
            result = suffix if result is None else result * suffix % modulus
    return 1 if result is None else result


def mod_inv(x: int, modulus: int) -> int:
    """y with x*y = 1 (mod modulus); raises if gcd(x, modulus) != 1."""
    if modulus < 2:
        raise ParameterError("modulus must be at least 2")
    if gcd(x, modulus) != 1:
        raise NotInvertibleError(f"gcd({x}, {modulus}) != 1")
    return pow(x, -1, modulus)


def _sieve(limit: int) -> list[int]:
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(range(i * i, limit + 1, i))
    return [i for i in range(limit + 1) if flags[i]]

_TRIAL_PRIMES = _sieve(2000)
# Below 1999^2, a number with no factor among the trial primes is prime.
TRIAL_BOUND = _TRIAL_PRIMES[-1] ** 2


@cache
def small_primes_to_100k() -> list[int]:
    """Primes up to 10^5, sieved once and cached (order checks, factor scans)."""
    return _sieve(100_000)


def _trial_division(n: int) -> bool | None:
    """True if n is a trial prime, False if n < 2 or a trial prime divides it, else None."""
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    return None


def is_probable_prime(n: int, rng: Rng | None = None) -> bool:
    """Miller-Rabin with MR_ROUNDS random bases.

    When no rng is given, bases are drawn from a stream derived from n
    itself, so the answer is a pure function of n (needed by parameter
    validation, which must be replayable).
    """
    verdict = _trial_division(n)
    if verdict is not None:
        return verdict
    if rng is None:
        rng = Rng.from_material(b"primality:" + int_to_bytes(n))
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(MR_ROUNDS):
        a = sample_range(2, n - 1, rng)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True

