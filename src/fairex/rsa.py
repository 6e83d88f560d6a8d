"""Textbook RSA signing and verification.

No padding scheme: s = m^d mod n, check m == s^e mod n.  Arbitrary byte
strings are mapped below the modulus by hashing (SHA-256, big-endian,
reduced mod n).
"""

from __future__ import annotations

import hashlib

from .arith import int_from_bytes, mod_exp, mod_inv
from .errors import DomainError, ParameterError
from .keys import RsaKeyPair


def rep_from_hash(digest: bytes, n: int) -> int:
    """Big-endian integer value of a digest, reduced mod n."""
    return int_from_bytes(digest) % n


def message_rep(raw: bytes, n: int) -> int:
    """The representative in [0, n) that a byte string is signed as: SHA-256(raw) mod n."""
    return rep_from_hash(hashlib.sha256(raw).digest(), n)


def rsa_sign(rep: int, key: RsaKeyPair) -> int:
    """s = rep^d mod n.  Deterministic: the same representative always signs the same.

    With the factors at hand the exponentiation runs mod p and mod q and
    is recombined by the CRT (Garner's formula): the same s whenever p, q
    are distinct odd primes with n = p*q and d is invertible mod phi(n).
    A key loaded with d alone signs mod n directly.
    """
    if key.d is None:
        raise ParameterError("signing requires the private exponent")
    if rep >= key.n:
        raise DomainError(f"representative {rep} >= modulus {key.n}")
    p, q = key.p, key.q
    if p is None or q is None:
        return mod_exp(rep, key.d, key.n)
    s_p = mod_exp(rep, key.d % (p - 1), p)
    s_q = mod_exp(rep, key.d % (q - 1), q)
    h = (s_p - s_q) * mod_inv(q, p) % p
    return s_q + h * q


def rsa_verify(s: int, rep: int, pub: tuple[int, int]) -> bool:
    """Check s^e mod n == rep.  Malformed inputs verify as False, never raise."""
    n, e = pub
    if n < 2 or s < 0 or s >= n or rep < 0 or rep >= n:
        return False
    return mod_exp(s, e, n) == rep
