"""ElGamal encryption with the decryption split needed for blind recovery.

A ciphertext is two ints, (W, V) = (G^w, m * PK^w) mod P, in the order
the wire carries them.  The key holder can be handed only W and return
W^SK; whoever holds V then finishes the decryption with
m = V * (W^SK)^-1 mod P.  The key holder never sees V, so it learns
nothing about the plaintext.
"""

from __future__ import annotations

from .arith import fixed_base_exp, mod_exp, mod_inv, pair
from .errors import EmbeddingError, NotInvertibleError, ParameterError
from .keys import ElgKeyPair


def elg_encrypt(m: int, key: ElgKeyPair, w: int) -> tuple[int, int]:
    """(W, V) = (G^w mod P, m * PK^w mod P) for plaintext m in (0, P)."""
    P, G, PK = key.P, key.G, key.PK
    if not 0 < m < P:
        raise EmbeddingError(f"plaintext must be in (0, {P}), got {m}")
    if not 1 <= w <= P - 2:
        raise ParameterError(f"nonce must be in [1, {P - 2}]")
    W, mask = pair((fixed_base_exp, (G, w, P)), (fixed_base_exp, (PK, w, P)), P.bit_length())
    return W, m * mask % P


def elg_decrypt(W: int, V: int, key: ElgKeyPair) -> int:
    """m = V * (W^SK)^-1 mod P."""
    if key.SK is None:
        raise ParameterError("decryption requires the private exponent")
    return unblind(V, mod_exp(W, key.SK, key.P), key.P)


def blind_half(W: int, key: ElgKeyPair) -> int:
    """The key holder's share of a decryption, W^SK mod P.  Takes only W, never V."""
    if key.SK is None:
        raise ParameterError("blind decryption requires the private exponent")
    if not 0 < W < key.P:
        raise ParameterError(f"W must be in (0, {key.P})")
    return mod_exp(W, key.SK, key.P)


def unblind(V: int, half: int, P: int) -> int:
    """Finish a blind decryption: V * half^-1 mod P."""
    try:
        return V * mod_inv(half, P) % P
    except NotInvertibleError as exc:
        raise EmbeddingError("malformed blind half: not invertible") from exc
