"""Textbook RSA signing and verification.

No padding scheme: s = m^d mod n, check m == s^e mod n.  Arbitrary byte
strings are mapped below the modulus by hashing (SHA-256, big-endian,
reduced mod n); small-integer test vectors can bypass the hash with
direct mode.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .arith import int_from_bytes, mod_exp, mod_inv
from .errors import DomainError, ParameterError
from .keys import RsaKeyPair


@dataclass(frozen=True)
class Message:
    """A raw byte string plus its integer representative below some modulus."""

    raw: bytes
    rep: int


@dataclass(frozen=True)
class Signature:
    s: int
    signer: str = ""


def rep_from_hash(digest: bytes, n: int) -> int:
    """Big-endian integer value of a digest, reduced mod n."""
    return int_from_bytes(digest) % n


def message_rep(raw: bytes, n: int, mode: str = "hashed") -> Message:
    """Bind a byte string to a representative in [0, n).

    hashed: rep = SHA-256(raw) as a big-endian integer mod n.
    direct: rep = big-endian integer value of raw; must already be < n.
    """
    if mode == "hashed":
        return Message(raw=raw, rep=rep_from_hash(hashlib.sha256(raw).digest(), n))
    if mode == "direct":
        rep = int_from_bytes(raw)
        if rep >= n:
            raise DomainError(f"direct representative {rep} >= modulus {n}")
        return Message(raw=raw, rep=rep)
    raise ParameterError(f"unknown representative mode {mode!r}")


def rsa_sign(m: Message, key: RsaKeyPair) -> Signature:
    """s = rep^d mod n.  Deterministic: the same message always signs the same.

    With the factors at hand the exponentiation runs mod p and mod q and
    is recombined by the CRT (Garner's formula): the same s whenever p, q
    are distinct odd primes with n = p*q and d is invertible mod phi(n).
    A key loaded with d alone signs mod n directly.
    """
    if key.d is None:
        raise ParameterError("signing requires the private exponent")
    if m.rep >= key.n:
        raise DomainError(f"representative {m.rep} >= modulus {key.n}")
    p, q = key.p, key.q
    if p is None or q is None:
        return Signature(s=mod_exp(m.rep, key.d, key.n), signer=key.owner)
    s_p = mod_exp(m.rep, key.d % (p - 1), p)
    s_q = mod_exp(m.rep, key.d % (q - 1), q)
    h = (s_p - s_q) * mod_inv(q, p) % p
    return Signature(s=s_q + h * q, signer=key.owner)


def rsa_verify(s: Signature | int, m: Message, pub: tuple[int, int]) -> bool:
    """Check s^e mod n == rep.  Malformed inputs verify as False, never raise."""
    n, e = pub
    value = s.s if isinstance(s, Signature) else s
    if n < 2 or value < 0 or value >= n or m.rep < 0 or m.rep >= n:
        return False
    return mod_exp(value, e, n) == m.rep
