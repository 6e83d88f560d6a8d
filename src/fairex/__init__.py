"""Fair exchange of RSA signatures through certified encrypted signatures.

Two clients swap RSA signatures (or data for a signature) so that either
both sides end up with a verified item or neither does.  A's signature
travels encrypted under a semi-trusted third party's ElGamal key together
with a certificate that anyone can check against the ciphertext half W
and a blinded commitment to V, never against V itself; the third party
is contacted only when something goes wrong and can restore fairness by
blind decryption without ever learning the signature.

The package is a library plus a simulated-network harness: deterministic
party state machines, an in-process transport with fault injection, a
transcript auditor, and a small CLI (`fairex`).  The package re-exports
only the names the demos use; everything else is imported from its
module, e.g. `fairex.protocol.Terms` or `fairex.cli.cli_main`.
"""

from .arith import Rng, sample_range
from .cembs import CembsContext, blind_commit, cembs_verify, encrypt_and_certify, sample_nonces
from .elgamal import blind_half, elg_decrypt, elg_encrypt, unblind
from .harness import SHIPPED_FAULT_SCRIPTS, audit, default_payload, run_session, shipped_script
from .keys import generate_system_params
from .protocol import Protocol, SessionConfig
from .rsa import message_rep, rsa_sign, rsa_verify

__all__ = [
    "CembsContext",
    "Protocol",
    "Rng",
    "SHIPPED_FAULT_SCRIPTS",
    "SessionConfig",
    "audit",
    "blind_commit",
    "blind_half",
    "cembs_verify",
    "default_payload",
    "elg_decrypt",
    "elg_encrypt",
    "encrypt_and_certify",
    "generate_system_params",
    "message_rep",
    "rsa_sign",
    "rsa_verify",
    "run_session",
    "sample_nonces",
    "sample_range",
    "shipped_script",
    "unblind",
]
