"""
Certified encrypted signatures
==============================

A signature is encrypted under the arbiter's key as (W, V), and a
certificate (c, r) is attached; the four ints travel in that order.  Anyone can check the certificate against the
ciphertext half W and the commitment C = g^V -- without ever seeing V,
and therefore without being able to decrypt.  That is exactly the
position the arbiter is kept in.
"""

from fairex.arith import Rng
from fairex.cembs import CembsContext, blind_commit, cembs_verify, encrypt_and_certify, sample_nonces
from fairex.keys import generate_system_params
from fairex.rsa import message_rep, rsa_sign, rsa_verify

rng = Rng.from_material(b"demo 02")
params = generate_system_params("toy", rng)
ctx = CembsContext.a_side(params)

rep = message_rep(b"the agreed contract", params.a_rsa.n)
signature = rsa_sign(rep, params.a_rsa)
w, u = sample_nonces(params.sttp_elg.P, rng)
W, V, c, r = encrypt_and_certify(signature, ctx, w, u)
commitment = blind_commit(V, ctx)

print(f"ciphertext  W={W:#x}  V={V:#x}")
print(f"commitment  C={commitment:#x}")
print(f"certificate c={c:#x}")
print(f"            r={r:#x}")

# The verifier's whole view is (W, C, c, r) plus public parameters.
print(f"\nverifies blindly       = {cembs_verify(W, commitment, c, r, ctx)}")

# Any tampering breaks it: here the response is nudged by one.
bad_r = (r + 1) % (params.sttp_elg.P - 1)
print(f"tampered r             = {cembs_verify(W, commitment, c, bad_r, ctx)}")

# ... and a commitment to the wrong V does too.
wrong_c = blind_commit(V + 1, ctx)
print(f"commitment to wrong V  = {cembs_verify(W, wrong_c, c, r, ctx)}")

# Caveat (see README, Limitations): the certificate binds (W, C) but not
# the claim "the plaintext is a signature on m".  Encrypting garbage
# still certifies.
garbage = 31337 % params.sttp_elg.P
assert not rsa_verify(garbage, rep, params.a_rsa)
g_W, g_V, g_c, g_r = encrypt_and_certify(garbage, ctx, *sample_nonces(params.sttp_elg.P, rng))
g_commit = blind_commit(g_V, ctx)
print(f"garbage plaintext      = {cembs_verify(g_W, g_commit, g_c, g_r, ctx)}  (known limitation)")
