"""Certificates that a ciphertext encrypts a claimed signature.

The sender encrypts a signature s under an ElGamal key (P, G, PK) as
(W, V) and publishes a commitment C = g^V mod n_A together with a
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
verifier's W and a' vary per call.  A certify in a `keys.sound` group
(P proved prime, 1 < G < P) keeps A as a^PK, exact by Fermat, so a
verify reads a'^PK back through `keys.known_power`: mod_exp's verdict.

Each `arith.pair` keeps its longer job here: a certify pairs (A, a) with
C = g^V after elg_encrypt's pair, a check of (W, V) pairs (g^V, G^r) with
W^c, and a check of (W, C) pairs W^c with G^r.

Every value is a plain int.  An offer is (W, V, c, r) in wire order, as
encrypt_and_certify returns it; cembs_verify takes (W, C, c, r), and
ciphertext_certified takes (W, V, c, r), as B, the STTP and the audit
hold a ciphertext, and returns the C it checked.

The challenge hash is SHA-256 over a canonical length-prefixed encoding
(see hash_challenge); the one-byte tag separates certificates bound to
the STTP's group from certificates bound to Client A's group.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .arith import Rng, fixed_base_exp, int_from_bytes, int_to_bytes, mod_exp, pair, sample_range
from .errors import ParameterError
from .keys import ElgKeyPair, SystemParams, known_power, remember
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

    g: int  # commitment base, a unit mod n
    n: int  # Client A's RSA modulus n_A
    group: ElgKeyPair  # P, G and PK are read; a certify keeps a^PK if it is `keys.sound`
    side_tag: int

    @classmethod
    def a_side(cls, params: SystemParams) -> "CembsContext":
        return cls(params.g, params.a_rsa.n, params.sttp_elg, A_SIDE_TAG)

    @classmethod
    def b_side(cls, params: SystemParams) -> "CembsContext":
        return cls(params.g, params.a_rsa.n, params.a_elg, B_SIDE_TAG)


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


def blind_commit(V: int, ctx: CembsContext) -> int:
    """C = g^V mod n_A: stands in for V inside the challenge hash."""
    return fixed_base_exp(ctx.g, V, ctx.n)


def encrypt_and_certify(value: int, ctx: CembsContext, w: int, u: int) -> tuple[int, int, int, int]:
    """Encrypt any embeddable value and certify the ciphertext: (W, V, c, r).

    The certificate binds (W, C) only; nothing ties the encrypted value
    to a particular signature equation (see README, Limitations).
    """
    P, G, PK = ctx.group.P, ctx.group.G, ctx.group.PK
    if u.bit_length() != NONCE_U_BITS:
        raise ParameterError(f"nonce u must be exactly {NONCE_U_BITS} bits")
    W, V = elg_encrypt(value, ctx.group, w)
    (big_a, a), commitment = pair(
        (lambda: (fixed_base_exp(G, u * PK % (P - 1), P), fixed_base_exp(G, u, P)), ()),
        (fixed_base_exp, (ctx.g, V, ctx.n)), P.bit_length())
    remember(a, PK, P, big_a, ctx.group)
    c = hash_challenge(ctx.side_tag, [ctx.g, W, commitment, a, big_a])
    return W, V, c, (u - c * w) % (P - 1)


def cembs_verify(W: int, C: int, c: int, r: int, ctx: CembsContext) -> bool:
    """Check a certificate (c, r) against (W, C) alone.  Malformed inputs fail, never raise."""
    return _certified(W, C, None, c, r, ctx) is not None


def ciphertext_certified(W: int, V: int, c: int, r: int, ctx: CembsContext) -> int | None:
    """The commitment g^V if (c, r) certifies the ciphertext (W, V), else None: V lies in (0, P), as every
    encryption's does, and `cembs_verify` accepts (W, g^V).  A V out of range fails before any power, g^V
    included, whose cost grows with V's size."""
    return _certified(W, None, V, c, r, ctx)


def _certified(W: int, C: int | None, V: int | None, c: int, r: int, ctx: CembsContext) -> int | None:
    """C, or g^V if C is None, when (c, r) certifies (W, C), else None.  Every range check runs before any
    power.  W^c outlasts G^r's comb but not g^V's and G^r's together, so each pair keeps the longer job here."""
    P, G, PK = ctx.group.P, ctx.group.G, ctx.group.PK
    if not (0 < W < P and 0 <= r < P - 1 and 0 <= c < 1 << (8 * CHALLENGE_BYTES)
            and (0 < V < P if C is None else 0 < C < ctx.n)):
        return None
    if C is None:
        (C, g_r), w_c = pair((lambda: (blind_commit(V, ctx), fixed_base_exp(G, r, P)), ()),
                             (mod_exp, (W, c, P)), P.bit_length())
    else:
        w_c, g_r = pair((mod_exp, (W, c, P)), (fixed_base_exp, (G, r, P)), P.bit_length())
    a = g_r * w_c % P
    certified = 0 < C < ctx.n and c == hash_challenge(ctx.side_tag, [ctx.g, W, C, a, known_power(a, PK, P)])
    return C if certified else None  # g^V leaves (0, n) only if g is no unit mod n
