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
from .cembs import CembsContext, ciphertext_certified, encrypt_and_certify, sample_nonces
from .errors import write_whole
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
        w, u = sample_nonces(params.sttp_elg.P, rng.child(b"nonces-%d" % index))
        W, V, c, r = encrypt_and_certify(signature, ctx, w, u)
        commitment = ciphertext_certified(W, V, c, r, ctx)
        assert commitment is not None
        lines += [
            f"vector={index}",
            f"message={raw.hex()}",
            f"n_A={_hex(params.a_rsa.n)}",
            f"e_A={_hex(params.a_rsa.e)}",
            f"d_A={_hex(params.a_rsa.d)}",
            f"g={_hex(params.g)}",
            f"P_T={_hex(params.sttp_elg.P)}",
            f"G_T={_hex(params.sttp_elg.G)}",
            f"SK_T={_hex(params.sttp_elg.SK)}",
            f"PK_T={_hex(params.sttp_elg.PK)}",
            f"rep={_hex(rep)}",
            f"s={_hex(signature)}",
            f"w={_hex(w)}",
            f"u={_hex(u)}",
            f"W={_hex(W)}",
            f"V={_hex(V)}",
            f"C={_hex(commitment)}",
            f"c={_hex(c)}",
            f"r={_hex(r)}",
            "",
        ]
    return "\n".join(lines)


def generate_vectors(out_dir: str | Path) -> Path:
    path = Path(out_dir) / FILE_NAME
    path.parent.mkdir(parents=True, exist_ok=True)
    write_whole(path, generate_vectors_text().encode())
    return path
