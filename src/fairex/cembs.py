"""Certificates that a ciphertext encrypts a claimed signature.

The sender encrypts a signature s under an ElGamal key (P, G, PK) as
(W, V) and publishes a commitment C = g^V mod n together with a
challenge-response pair (r, c):

    a = G^u,  A = a^PK              for a fresh 400-bit nonce u
    c = H(tag || g || W || C || a || A)
    r = u - c*w  reduced mod P-1

A verifier holding only (W, C, r, c) recomputes a' = G^r * W^c and
A' = a'^PK and accepts iff c matches the challenge hash over
(g, W, C, a', A').  V never enters verification, which is what lets the
third party check an offer it must not be able to decrypt for itself.

The scheme as first written has A = (G^PK)^u and A' = (G^PK)^r * (W^PK)^c;
both are exactly the forms above mod P, since (G^PK)^u = (G^u)^PK and
(G^PK)^r * (W^PK)^c = (G^r * W^c)^PK.  So A carries nothing beyond a,
and the certificate is in effect a Schnorr proof of knowledge of
w = log_G W with C hashed in (see README, Limitations).

r lives mod P-1: with a 400-bit u and a 256-bit challenge the integer
u - c*w is negative in general, and every verification exponentiation
happens in a group whose element orders divide P-1, so the reduction
changes nothing that a verifier can see.

Powers of the fixed bases G, PK (inside elg_encrypt) and g come from
arith.fixed_base_exp's cached tables; W and a vary per call and go
through mod_exp.

The challenge hash is SHA-256 over a canonical length-prefixed encoding
(see hash_challenge); the one-byte tag separates certificates bound to
the STTP's group from certificates bound to Client A's group.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .arith import Rng, fixed_base_exp, int_from_bytes, int_to_bytes, mod_exp, sample_range
from .errors import ParameterError
from .keys import CommitBase, SystemParams
from .elgamal import ElgCiphertext, elg_encrypt

CHALLENGE_BYTES = 32
NONCE_U_BITS = 400

A_SIDE_TAG = 0x41  # certificate over the STTP's group (Client A's offer)
B_SIDE_TAG = 0x42  # certificate over Client A's group (Client B's recovery)


@dataclass(frozen=True)
class CembsCertificate:
    """Response r (reduced mod P-1) and challenge c (32-byte hash as integer)."""

    r: int
    c: int


@dataclass(frozen=True)
class CembsContext:
    """Everything public a certificate is checked against.

    side_tag picks the domain: offers are certified in the STTP's group,
    recovery ciphertexts in Client A's group.
    """

    commit_base: CommitBase
    group: tuple[int, int, int]  # (P, G, PK)
    side_tag: int

    @classmethod
    def a_side(cls, params: SystemParams) -> "CembsContext":
        return cls(commit_base=params.commit_base, group=params.sttp_elg.pub, side_tag=A_SIDE_TAG)

    @classmethod
    def b_side(cls, params: SystemParams) -> "CembsContext":
        return cls(commit_base=params.commit_base, group=params.a_elg.pub, side_tag=B_SIDE_TAG)


@dataclass(frozen=True)
class Nonces:
    """Encryption nonce w in [1, P-2] and commitment nonce u of exactly 400 bits."""

    w: int
    u: int


def sample_nonces(P: int, rng: Rng) -> Nonces:
    w = sample_range(1, P - 1, rng)
    u = (1 << (NONCE_U_BITS - 1)) | rng.rand_bits(NONCE_U_BITS - 1)
    return Nonces(w=w, u=u)


def hash_challenge(side_tag: int, elems: list[int]) -> int:
    """SHA-256 over tag(1) || count(1) || per element len(4, BE) || magnitude."""
    if not 0 <= side_tag <= 0xFF:
        raise ParameterError("side tag must be one byte")
    if len(elems) > 0xFF:
        raise ParameterError("too many elements")
    h = hashlib.sha256()
    h.update(bytes([side_tag, len(elems)]))
    for x in elems:
        data = int_to_bytes(x)
        h.update(len(data).to_bytes(4, "big"))
        h.update(data)
    return int_from_bytes(h.digest())


def blind_commit(V: int, base: CommitBase) -> int:
    """C = g^V mod n_ref: stands in for V inside the challenge hash."""
    return fixed_base_exp(base.g, V, base.n_ref)


def encrypt_and_certify(
    value: int, ctx: CembsContext, nonces: Nonces
) -> tuple[ElgCiphertext, CembsCertificate]:
    """Encrypt any embeddable value and certify the ciphertext.

    The certificate binds (W, C) only; nothing ties the encrypted value
    to a particular signature equation (see README, Limitations).
    """
    P, G, PK = ctx.group
    if not 1 <= nonces.w <= P - 2:
        raise ParameterError(f"nonce w must be in [1, {P - 2}]")
    if nonces.u.bit_length() != NONCE_U_BITS:
        raise ParameterError(f"nonce u must be exactly {NONCE_U_BITS} bits")
    ct = elg_encrypt(value, ctx.group, nonces.w)
    commitment = blind_commit(ct.V, ctx.commit_base)
    a = fixed_base_exp(G, nonces.u, P)
    big_a = mod_exp(a, PK, P)
    c = hash_challenge(ctx.side_tag, [ctx.commit_base.g, ct.W, commitment, a, big_a])
    r = (nonces.u - c * nonces.w) % (P - 1)
    return ct, CembsCertificate(r=r, c=c)


def cembs_verify(W: int, C: int, cert: CembsCertificate, ctx: CembsContext) -> bool:
    """Check a certificate against (W, C) alone.  Malformed inputs fail, never raise."""
    P, G, PK = ctx.group
    if not 0 < W < P or not 0 < C < ctx.commit_base.n_ref:
        return False
    if not 0 <= cert.r < P - 1 or not 0 <= cert.c < 1 << (8 * CHALLENGE_BYTES):
        return False
    a = fixed_base_exp(G, cert.r, P) * mod_exp(W, cert.c, P) % P
    return cert.c == hash_challenge(ctx.side_tag, [ctx.commit_base.g, W, C, a, mod_exp(a, PK, P)])


def correctness_identity_check(
    u: int, c: int, w: int, G: int, W: int, PK: int, P: int
) -> bool:
    """The two algebraic identities behind verification, checked directly.

    Requires W = G^w mod P.  With r = (u - c*w) mod (P-1), both
    a = G^u = G^r * W^c = a' and A = a^PK = a'^PK = A' must hold mod P.
    """
    r = (u - c * w) % (P - 1)
    a = mod_exp(G, u % (P - 1), P)
    a_prime = mod_exp(G, r, P) * mod_exp(W, c, P) % P
    return a == a_prime and mod_exp(a, PK, P) == mod_exp(a_prime, PK, P)
