"""
Primitives walkthrough
======================

Textbook RSA signing, ElGamal encryption, and the blind-decryption split
that lets a key holder help decrypt a ciphertext without learning the
plaintext.  Everything is driven from one fixed seed, so the numbers
printed here are the same on every run.
"""

from fairex.arith import Rng, sample_range
from fairex.elgamal import blind_half, elg_decrypt, elg_encrypt, unblind
from fairex.keys import generate_system_params
from fairex.rsa import message_rep, rsa_sign, rsa_verify

rng = Rng.from_material(b"demo 01")
params = generate_system_params("toy", rng)

# ---------------------------------------------------------------------------
# RSA: sign a byte string by hashing it below the modulus, then verify.
# ---------------------------------------------------------------------------
rep = message_rep(b"pay the bearer 10 coins", params.a_rsa.n)
signature = rsa_sign(rep, params.a_rsa)
print(f"modulus n_A      = {params.a_rsa.n:#x}")
print(f"representative   = {rep:#x}")
print(f"signature        = {signature:#x}")
print(f"verifies         = {rsa_verify(signature, rep, params.a_rsa)}")

flipped = message_rep(b"pay the bearer 99 coins", params.a_rsa.n)
print(f"other message    = {rsa_verify(signature, flipped, params.a_rsa)}")

# ---------------------------------------------------------------------------
# ElGamal: encrypt the signature under the arbiter's key and decrypt it.
# ---------------------------------------------------------------------------
key = params.sttp_elg
nonce = sample_range(1, key.P - 1, rng)
W, V = elg_encrypt(signature, key, nonce)
print(f"\nciphertext       = (W={W:#x}, V={V:#x})")
print(f"decrypts back    = {elg_decrypt(W, V, params.sttp_elg) == signature}")

# ---------------------------------------------------------------------------
# Blind split: hand the key holder only W.  It returns W^SK; whoever holds
# V finishes the decryption, and the key holder never sees the plaintext.
# ---------------------------------------------------------------------------
half = blind_half(W, params.sttp_elg)
recovered = unblind(V, half, key.P)
print(f"\nblind half       = {half:#x}   (computed from W alone)")
print(f"unblinded value  = {recovered:#x}")
print(f"matches original = {recovered == signature}")
