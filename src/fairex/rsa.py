"""Textbook RSA signing and verification.

No padding scheme: s = m^d mod n, check m == s^e mod n.  Arbitrary byte
strings are mapped below the modulus by hashing (SHA-256, big-endian,
reduced mod n).  A key is used in one of two ways, chosen by
`keys.sound`: once `keys.validate_params` has found it sound, it signs
mod p and mod q (the CRT, the two halves as one `arith.pair`) and a check
compares with the key's own signature, kept per process; any other key
signs and checks mod n.  Answers are the mod-n ones either way.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

from .arith import int_from_bytes, mod_exp, mod_inv, pair
from .errors import DomainError, ParameterError
from .keys import RsaKeyPair, sound


def message_rep(raw: bytes, n: int) -> int:
    """The representative in [0, n) that a byte string is signed as: SHA-256(raw) mod n, for n >= 2."""
    if n < 2:
        raise ParameterError(f"RSA modulus must be at least 2, got {n}")
    return int_from_bytes(hashlib.sha256(raw).digest()) % n


def rsa_sign(rep: int, key: RsaKeyPair) -> int:
    """s = rep^d mod n.  Deterministic: the same representative always signs the same.

    A sound key (`keys.sound`) exponentiates mod p and mod q and
    recombines by the CRT (Garner's formula): the same s, as p and q are
    distinct primes with n = p*q.  Any other key signs mod n directly.
    """
    if key.d is None:
        raise ParameterError("signing requires the private exponent")
    if not 0 <= rep < key.n:
        raise DomainError(f"representative {rep} not in [0, {key.n})")
    return _signature(rep, key)


@lru_cache(maxsize=64)  # so rsa_verify's comparison with a signature this process made is a lookup
def _signature(rep: int, key: RsaKeyPair) -> int:
    if not sound(key):
        return mod_exp(rep, key.d, key.n)
    p, q = key.p, key.q
    # d reduced into [1, r - 1], never to 0: 0^0 would be 1, where 0^d is 0 (p = 2 is sound too).
    s_p, s_q = pair(*[(mod_exp, (rep, (key.d - 1) % (r - 1) + 1, r)) for r in (p, q)], p.bit_length())
    h = (s_p - s_q) * mod_inv(q, p) % p
    return s_q + h * q


def rsa_verify(s: int, rep: int, key: RsaKeyPair) -> bool:
    """Check s^e mod n == rep.  Malformed inputs verify as False, never raise.

    For a sound key, e*d == 1 mod p - 1 and mod q - 1 makes x^e and x^d
    inverse maps mod n (Fermat, non-units too), so the check is
    s == rsa_sign(rep): a lookup if this process signed it.  Any other key checks mod n.
    """
    n, e = key.n, key.e
    if n < 2 or e < 0 or s < 0 or s >= n or rep < 0 or rep >= n:
        return False
    if sound(key):
        return s == _signature(rep, key)
    return mod_exp(s, e, n) == rep
