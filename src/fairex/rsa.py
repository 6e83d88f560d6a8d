"""Textbook RSA signing and verification.

No padding scheme: s = m^d mod n, check m == s^e mod n.  Arbitrary byte
strings are mapped below the modulus by hashing (SHA-256, big-endian,
reduced mod n).  A key that carries its factors signs and checks mod p
and mod q (Quisquater-Couvreur, 1982), the two halves as one `arith.pair`,
with e reduced mod p - 1 and q - 1 once `keys.validate_params` has proved
them prime; the answers are those of the mod-n formulas.
"""

from __future__ import annotations

import hashlib
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
    p, q = key.p, key.q
    if p is None or q is None:
        return mod_exp(rep, key.d, key.n)
    s_p, s_q = pair(*[(mod_exp, (rep, key.d % (r - 1), r)) for r in (p, q)], p.bit_length())
    h = (s_p - s_q) * mod_inv(q, p) % p
    return s_q + h * q


def rsa_verify(s: int, rep: int, key: RsaKeyPair) -> bool:
    """Check s^e mod n == rep.  Malformed inputs verify as False, never raise.

    When the key carries coprime factors p, q > 1 with p*q == n, the check
    runs mod p and mod q: by the CRT the same answer, prime or not.  Once
    both are proved prime, e >= 1 drops to (e - 1) mod (p - 1) + 1 mod p,
    likewise mod q (Fermat; both sides are 0 when p divides s).  A public
    key, or factors that fail the first test, check mod n directly.
    """
    n, e, p, q = key.n, key.e, key.p, key.q
    if n < 2 or s < 0 or s >= n or rep < 0 or rep >= n:
        return False
    if p is None or q is None or min(p, q) < 2 or p * q != n or gcd(p, q) != 1:
        return mod_exp(s, e, n) == rep
    e_p = e_q = e
    if e > 0 and proved_prime(p, key.p_cert) and proved_prime(q, key.q_cert):
        e_p, e_q = (e - 1) % (p - 1) + 1, (e - 1) % (q - 1) + 1
    return pair((mod_exp, (s % p, e_p, p)), (mod_exp, (s % q, e_q, q)), p.bit_length()) == (rep % p, rep % q)
