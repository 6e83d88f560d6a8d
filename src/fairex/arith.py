"""Arbitrary-precision modular arithmetic and deterministic randomness.

Scalars are plain Python ints, always non-negative.  The byte encoding
used everywhere in this package is the minimal big-endian magnitude:
no leading zero bytes, and the empty string encodes zero.  Hash inputs
and wire fields carry it behind a length prefix, so no fixed width or
padding is needed.  `pair` runs two independent jobs at once, one of them
in a helper process that is forked once and kept; it is the package's one
way to use a second CPU, for modexps, keygen and primality checks alike.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import pickle
import select
import threading
import time
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


def _usable_cpus() -> int:
    # A child forked while another thread holds a lock (in hashlib, say) could wait on it forever.
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


PAIR_MIN_BITS = 256  # the one size gate (keygen's too) keeps toy sizes out: BENCH_pair_helper.json "break_even"
_solo_pairs = 24  # such pairs run here before the helper: a CLI child's 1-16 would not repay a fork
_OWNER = os.getpid()  # the one process that forks the helper and hands it jobs
_helper: tuple | None = None  # (pid, request pipe, reply pipe) while it runs
_busy = 0  # 1 while a pair waits on the helper, 2 while it owes a reply that came too late


def _spawn_helper() -> None:
    """Fork the helper: it answers each pickled (job, args) with the pickled result, until EOF or a raise."""
    global _helper
    request_r, request_w = map(open, os.pipe(), ("rb", "wb"), (-1, 0))
    reply_r, reply_w = map(open, os.pipe(), ("rb", "wb"), (-1, 0))
    _helper = 0, request_w, reply_r  # the fork hook closes these in the child; `_retire` if the fork is refused
    with request_r, reply_w:  # the helper's ends, closed here once it has them or the fork is refused
        pid = os.fork()
        if pid == 0:
            try:
                while True:
                    end = time.perf_counter() + 0.002  # poll 2 ms first, so the CPU stays awake between pairs
                    while time.perf_counter() < end and not select.select([request_r], [], [], 0)[0]:
                        pass
                    job, args = pickle.load(request_r)
                    reply_w.write(pickle.dumps(job(*args)))
            finally:
                os._exit(0)
    _helper = pid, request_w, reply_r


@atexit.register
def _retire() -> None:
    """Close the helper's pipes, so it exits, and reap it; a forked child only closes its copies."""
    global _helper, _busy
    if _helper is not None:
        (pid, *pipes), _helper, _busy = _helper, None, 0
        for pipe in pipes:
            pipe.close()
        if pid and os.getpid() == _OWNER:
            os.waitpid(pid, 0)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_retire)


def _reply(timeout: float | None) -> tuple | None:
    """(result,) of the helper's next reply if in by `timeout` (None: blocks), else None; () if it failed."""
    end = time.perf_counter() + (timeout or 0)  # polled: a CPU left to sleep wakes late
    while not select.select([_helper[2]], [], [], None if timeout is None else 0)[0]:
        if time.perf_counter() >= end:
            return None
    try:
        return (pickle.load(_helper[2]),)
    except (EOFError, OSError, pickle.UnpicklingError):
        _retire()
        return ()


def pair(first: tuple, second: tuple, bits: int, *, wait: bool = False) -> tuple:
    """(f(*f_args), g(*g_args)) for first = (f, f_args) and second = (g, g_args): the same result or error.

    g runs in the helper, pickled by reference, when `bits` >= PAIR_MIN_BITS after `_solo_pairs` such
    pairs, in the importing process, with two CPUs and no other thread; else here after f, as it does
    if the helper fails (it is retired) or is late (so the helper's CPU is busy: 8 more pairs run here).
    A pair that may `wait` (keygen, validation) skips the `_solo_pairs` gate and does not count toward
    it, and is never late: it blocks until g's reply comes, so neither of its jobs runs twice.
    """
    global _busy, _solo_pairs
    (f, f_args), (g, g_args) = first, second
    _solo_pairs -= bits >= PAIR_MIN_BITS and not wait
    if _busy == 2 and _reply(0) is not None:  # the late reply came in, and is dropped
        _busy = 0
    if (_busy or _solo_pairs >= 0 and not wait or bits < PAIR_MIN_BITS
            or os.getpid() != _OWNER or _usable_cpus() < 2):
        return f(*f_args), g(*g_args)
    try:
        request = pickle.dumps(second)
        if _helper is None:
            _spawn_helper()
        _helper[1].write(request)
    except (pickle.PicklingError, AttributeError, TypeError, OSError):  # a closure, no fork, a dead helper
        _retire()
        return f(*f_args), g(*g_args)
    _busy, start = 1, time.perf_counter()
    try:
        result = f(*f_args)
    finally:
        reply = _reply(None if wait else time.perf_counter() - start)  # late if g takes longer than f
        _busy, _solo_pairs = (0, _solo_pairs) if reply is not None else (2, 8)
    return result, reply[0] if reply else g(*g_args)
