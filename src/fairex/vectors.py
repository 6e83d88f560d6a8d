"""Deterministic certificate test vectors.

`generate_vectors` always produces the same bytes: toy-profile keys and
nonces are drawn from a fixed seed, so the output works as a golden file
for regression tests and as a cross-implementation reference.  All
integers are lowercase hex (minimal width, "00" for zero); field names
follow the key-file convention (w/u are nonces, W/V the ciphertext,
C the commitment, c/r the certificate).
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from .arith import Rng
from .cembs import CembsContext, blind_commit, cembs_verify, encrypt_and_certify, sample_nonces
from .keys import _hex, generate_system_params
from .rsa import message_rep, rsa_sign

VECTORS_SEED = hashlib.sha256(b"fairex cembs vectors v1").digest()
VECTOR_COUNT = 4
FILE_NAME = "cembs_vectors.txt"


def generate_vectors_text() -> str:
    rng = Rng(VECTORS_SEED)
    lines = [
        "# fairex certificate test vectors",
        "# challenge hash: SHA-256 over tag||count||len-prefixed big-endian magnitudes",
        "",
    ]
    for index in range(VECTOR_COUNT):
        params = generate_system_params("toy", rng.child(b"keys-%d" % index))
        ctx = CembsContext.a_side(params)
        raw = b"vector message %d" % index
        rep = message_rep(raw, params.a_rsa.n)
        signature = rsa_sign(rep, params.a_rsa)
        nonces = sample_nonces(params.sttp_elg.P, rng.child(b"nonces-%d" % index))
        ct, cert = encrypt_and_certify(signature, ctx, nonces)
        commitment = blind_commit(ct.V, params.commit_base)
        assert cembs_verify(ct.W, commitment, cert, ctx)
        lines += [
            f"vector={index}",
            f"message={raw.hex()}",
            f"n_A={_hex(params.a_rsa.n)}",
            f"e_A={_hex(params.a_rsa.e)}",
            f"d_A={_hex(params.a_rsa.d)}",
            f"g={_hex(params.commit_base.g)}",
            f"P_T={_hex(params.sttp_elg.P)}",
            f"G_T={_hex(params.sttp_elg.G)}",
            f"SK_T={_hex(params.sttp_elg.SK)}",
            f"PK_T={_hex(params.sttp_elg.PK)}",
            f"rep={_hex(rep)}",
            f"s={_hex(signature)}",
            f"w={_hex(nonces.w)}",
            f"u={_hex(nonces.u)}",
            f"W={_hex(ct.W)}",
            f"V={_hex(ct.V)}",
            f"C={_hex(commitment)}",
            f"c={_hex(cert.c)}",
            f"r={_hex(cert.r)}",
            "",
        ]
    return "\n".join(lines)


def generate_vectors(out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / FILE_NAME
    path.write_text(generate_vectors_text())
    return path
