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
transcript auditor, and a small CLI (`fairex`).
"""

from .arith import Rng, gen_prime, int_from_bytes, int_to_bytes, mod_exp, mod_inv, sample_range
from .cembs import (
    BlindCommitment,
    CembsCertificate,
    CembsContext,
    Nonces,
    blind_commit,
    cembs_verify,
    correctness_identity_check,
    encrypt_and_certify,
    hash_challenge,
    sample_nonces,
)
from .elgamal import BlindHalf, ElgCiphertext, blind_half, elg_decrypt, elg_encrypt, unblind
from .errors import (
    AuditError,
    DomainError,
    EmbeddingError,
    FairexError,
    FaultScriptError,
    NotInvertibleError,
    ParameterError,
    SetupError,
    TranscriptError,
    WireError,
)
from .cli import cli_main
from .harness import (
    SHIPPED_FAULT_SCRIPTS,
    AuditReport,
    FaultDirective,
    FaultScript,
    SessionResult,
    Transport,
    audit,
    default_payload,
    live_flags,
    run_session,
    shipped_script,
)
from .keys import (
    PROFILES,
    BitProfile,
    CommitBase,
    ElgKeyPair,
    RsaKeyPair,
    SystemParams,
    generate_system_params,
    init_client_a,
    init_client_b,
    init_sttp,
    load_params,
    save_params,
    validate_params,
)
from .protocol import (
    ClientA,
    ClientB,
    PartyState,
    Protocol,
    SessionConfig,
    Sttp,
    Timeout,
    check_data_matches,
    link_messages,
)
from .rsa import Message, Signature, message_rep, rep_from_hash, rsa_sign, rsa_verify
from .vectors import generate_vectors, generate_vectors_text
from .wire import MsgType, Transcript, TranscriptRecord, WireMessage

__all__ = [
    "AuditError",
    "AuditReport",
    "BitProfile",
    "BlindCommitment",
    "BlindHalf",
    "CembsCertificate",
    "CembsContext",
    "ClientA",
    "ClientB",
    "CommitBase",
    "DomainError",
    "ElgCiphertext",
    "ElgKeyPair",
    "EmbeddingError",
    "FairexError",
    "FaultDirective",
    "FaultScript",
    "FaultScriptError",
    "Message",
    "MsgType",
    "Nonces",
    "NotInvertibleError",
    "PROFILES",
    "ParameterError",
    "PartyState",
    "Protocol",
    "Rng",
    "RsaKeyPair",
    "SHIPPED_FAULT_SCRIPTS",
    "SessionConfig",
    "SessionResult",
    "SetupError",
    "Signature",
    "Sttp",
    "SystemParams",
    "Timeout",
    "Transcript",
    "TranscriptRecord",
    "TranscriptError",
    "Transport",
    "WireError",
    "WireMessage",
    "audit",
    "blind_commit",
    "blind_half",
    "cembs_verify",
    "check_data_matches",
    "cli_main",
    "correctness_identity_check",
    "default_payload",
    "elg_decrypt",
    "elg_encrypt",
    "encrypt_and_certify",
    "gen_prime",
    "generate_system_params",
    "generate_vectors",
    "generate_vectors_text",
    "hash_challenge",
    "live_flags",
    "init_client_a",
    "init_client_b",
    "init_sttp",
    "int_from_bytes",
    "int_to_bytes",
    "link_messages",
    "load_params",
    "message_rep",
    "mod_exp",
    "mod_inv",
    "rep_from_hash",
    "rsa_sign",
    "rsa_verify",
    "run_session",
    "sample_nonces",
    "sample_range",
    "save_params",
    "shipped_script",
    "unblind",
    "validate_params",
]
