"""Certificates that a ciphertext encrypts a claimed signature.

The sender encrypts a signature s under an ElGamal key (P, G, PK) as
(W, V) and publishes a commitment C = g^V mod n together with a
challenge-response pair (c, r):

    a = G^u,  A = a^PK              for a fresh 400-bit nonce u
    c = H(tag || g || W || C || a || A)
    r = u - c*w  reduced mod P-1

A verifier holding only (W, C, c, r) recomputes a' = G^r * W^c and
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
arith.fixed_base_exp's cached tables, A included: with P prime,
a^PK = G^(u*PK mod P-1), so a certify needs no other power.  A
verifier's W and a' vary per call and go through mod_exp.

Every value is a plain int.  An offer is (W, V, c, r) in wire order, as
encrypt_and_certify returns it; cembs_verify takes (W, C, c, r).

The challenge hash is SHA-256 over a canonical length-prefixed encoding
(see hash_challenge); the one-byte tag separates certificates bound to
the STTP's group from certificates bound to Client A's group.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .arith import Rng, fixed_base_exp, int_from_bytes, int_to_bytes, mod_exp, pair, sample_range
from .errors import ParameterError
from .keys import CommitBase, ElgKeyPair, SystemParams
from .elgamal import elg_encrypt

CHALLENGE_BYTES = 32
NONCE_U_BITS = 400

A_SIDE_TAG = 0x41  # certificate over the STTP's group (Client A's offer)
B_SIDE_TAG = 0x42  # certificate over Client A's group (Client B's recovery)


@dataclass(frozen=True)
class CembsContext:
    """Everything public a certificate is checked against.

    side_tag picks the domain: offers are certified in the STTP's group,
    recovery ciphertexts in Client A's group.
    """

    commit_base: CommitBase
    group: ElgKeyPair  # only P, G and PK are read
    side_tag: int

    @classmethod
    def a_side(cls, params: SystemParams) -> "CembsContext":
        return cls(commit_base=params.commit_base, group=params.sttp_elg, side_tag=A_SIDE_TAG)

    @classmethod
    def b_side(cls, params: SystemParams) -> "CembsContext":
        return cls(commit_base=params.commit_base, group=params.a_elg, side_tag=B_SIDE_TAG)


def sample_nonces(P: int, rng: Rng) -> tuple[int, int]:
    """(w, u): encryption nonce w in [1, P-2], commitment nonce u of exactly 400 bits."""
    w = sample_range(1, P - 1, rng)
    return w, (1 << (NONCE_U_BITS - 1)) | rng.rand_bits(NONCE_U_BITS - 1)


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


def encrypt_and_certify(value: int, ctx: CembsContext, w: int, u: int) -> tuple[int, int, int, int]:
    """Encrypt any embeddable value and certify the ciphertext: (W, V, c, r).

    The certificate binds (W, C) only; nothing ties the encrypted value
    to a particular signature equation (see README, Limitations).
    """
    P, G, PK = ctx.group.P, ctx.group.G, ctx.group.PK
    if not 1 <= w <= P - 2:
        raise ParameterError(f"nonce w must be in [1, {P - 2}]")
    if u.bit_length() != NONCE_U_BITS:
        raise ParameterError(f"nonce u must be exactly {NONCE_U_BITS} bits")
    W, V = elg_encrypt(value, ctx.group, w)
    commitment = blind_commit(V, ctx.commit_base)
    big_a, a = pair((fixed_base_exp, (G, u * PK % (P - 1), P)), (fixed_base_exp, (G, u, P)), P.bit_length())
    c = hash_challenge(ctx.side_tag, [ctx.commit_base.g, W, commitment, a, big_a])
    return W, V, c, (u - c * w) % (P - 1)


def cembs_verify(W: int, C: int, c: int, r: int, ctx: CembsContext) -> bool:
    """Check a certificate (c, r) against (W, C) alone.  Malformed inputs fail, never raise."""
    P, G, PK = ctx.group.P, ctx.group.G, ctx.group.PK
    if not 0 < W < P or not 0 < C < ctx.commit_base.n_ref:
        return False
    if not 0 <= r < P - 1 or not 0 <= c < 1 << (8 * CHALLENGE_BYTES):
        return False
    w_c, g_r = pair((mod_exp, (W, c, P)), (fixed_base_exp, (G, r, P)), P.bit_length())
    a = g_r * w_c % P
    return c == hash_challenge(ctx.side_tag, [ctx.commit_base.g, W, C, a, mod_exp(a, PK, P)])
