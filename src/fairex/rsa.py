"""Textbook RSA signing and verification.

No padding scheme: s = m^d mod n, check m == s^e mod n.  Arbitrary byte
strings are mapped below the modulus by hashing (SHA-256, big-endian,
reduced mod n).  A key that carries its factors signs and checks mod p
and mod q (Quisquater-Couvreur, 1982), the two halves as one `arith.pair`;
once `keys.validate_params` has proved them prime, a check compares with
the key's own signature, kept per process.  Answers are the mod-n ones.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from math import gcd

from .arith import int_from_bytes, mod_exp, mod_inv, pair
from .errors import DomainError, ParameterError
from .keys import RsaKeyPair, proved_prime


def message_rep(raw: bytes, n: int) -> int:
    """The representative in [0, n) that a byte string is signed as: SHA-256(raw) mod n."""
    return int_from_bytes(hashlib.sha256(raw).digest()) % n


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
    return _signature(rep, key)


@lru_cache(maxsize=64)  # so rsa_verify's comparison with a signature this process made is a lookup
def _signature(rep: int, key: RsaKeyPair) -> int:
    p, q = key.p, key.q
    if p is None or q is None:
        return mod_exp(rep, key.d, key.n)
    s_p, s_q = pair(*[(mod_exp, (rep, key.d % (r - 1), r)) for r in (p, q)], p.bit_length())
    h = (s_p - s_q) * mod_inv(q, p) % p
    return s_q + h * q


def rsa_verify(s: int, rep: int, key: RsaKeyPair) -> bool:
    """Check s^e mod n == rep.  Malformed inputs verify as False, never raise.

    A key with coprime factors p, q > 1 and p*q == n checks mod p and mod q
    with the full e: by the CRT the same answer, prime or not.  But once
    both are proved prime and e*d == 1 mod p - 1 and mod q - 1, x^e and x^d
    are inverse maps mod n (Fermat, non-units too), so the check is
    s == rsa_sign(rep): a lookup if this process signed it.  Other keys check mod n.
    """
    n, e, p, q = key.n, key.e, key.p, key.q
    if n < 2 or s < 0 or s >= n or rep < 0 or rep >= n:
        return False
    if p is None or q is None or min(p, q) < 2 or p * q != n or gcd(p, q) != 1:
        return mod_exp(s, e, n) == rep
    if key.d is not None and e * key.d % (p - 1) == 1 == e * key.d % (q - 1):
        if proved_prime(p, key.p_cert) and proved_prime(q, key.q_cert):
            return s == _signature(rep, key)
    return pair((mod_exp, (s % p, e, p)), (mod_exp, (s % q, e, q)), p.bit_length()) == (rep % p, rep % q)
