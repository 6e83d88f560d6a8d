"""Deterministic per-role state machines for the three exchange protocols.

Protocol variants:

* common: both clients sign one agreed message m.
* linked: two files M_A, M_B; each client signs its own file concatenated
  with the hash of the other (m_A = M_A || H(M_B), m_B = M_B || H(M_A)),
  so neither signature is meaningful without both files.
* data-for-sig: B trades a confidential payload M for A's signature on
  H(M); A starts out knowing only the hash.

The wire sequence is the same everywhere: A opens with an encrypted,
certified signature; B answers with a counter-signature (or the data);
A closes with the plaintext signature.  If A's closing message is
missing or invalid, B escalates to the STTP with both ciphertexts and
both certificates; the STTP checks the certificates and, only if both
pass, blind-decrypts A's ciphertext for B and forwards B's ciphertext
to A.

Machines are advanced by explicit step calls and never share state;
timeouts are abstract tick counts injected by the orchestrator, so runs
are fully replayable from a seed.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field

from .arith import Rng, int_from_bytes, int_to_bytes, pair
from .cembs import CembsContext, blind_commit, cembs_verify, encrypt_and_certify, sample_nonces
from .elgamal import blind_half, elg_decrypt, unblind
from .errors import EmbeddingError, ParameterError, SetupError
from .keys import SystemParams, validate_params
from .rsa import message_rep, rsa_sign, rsa_verify
from .wire import MsgType, WireMessage


class Protocol(enum.Enum):
    COMMON_MESSAGE = "common"
    LINKED_FILES = "linked"
    DATA_FOR_SIGNATURE = "data-for-sig"


class Timeout:
    """Marker delivered to a party whose wait deadline has passed."""


@dataclass
class SessionConfig:
    protocol: Protocol
    params: SystemParams
    payload: bytes | tuple[bytes, bytes]
    seed: bytes
    timeout: int = 8
    terms: Terms = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.terms = Terms(self.protocol, self.payload, self.params)
        if len(self.seed) != 32:
            raise ParameterError("session seed must be 32 bytes")
        if self.timeout < 1:
            raise ParameterError("timeout must be at least one tick")


@dataclass
class PartyState:
    phase: str
    acquired: int | bytes | None = None  # the valid item held, kept in any phase
    verdict: str = "pending"  # pending | success | recovered | aborted | late (aborted, yet holds an item)
    violations: list[str] = field(default_factory=list)


def link_messages(file_a: bytes, file_b: bytes) -> tuple[bytes, bytes]:
    """m_A = M_A || H(M_B) and m_B = M_B || H(M_A), as raw byte strings."""
    return (
        file_a + hashlib.sha256(file_b).digest(),
        file_b + hashlib.sha256(file_a).digest(),
    )


def data_as_int(data: bytes) -> int:
    """Integer embedding of a data payload; must round-trip exactly."""
    value = int_from_bytes(data)
    if value <= 0 or int_to_bytes(value) != data:
        raise EmbeddingError("data payload must be non-empty with no leading zero byte")
    return value


@dataclass(frozen=True)
class Terms:
    """What each client is owed: the one definition the parties and the audit share.

    B is owed A's signature on a_rep.  A is owed B's signature on b_rep,
    or in the data protocol the data whose SHA-256, read big-endian, is
    expected_hash (A signs H(M) and knows only that hash).  A signature
    is an int and data is bytes, so an item of the wrong kind is invalid.
    """

    protocol: Protocol
    payload: bytes | tuple[bytes, bytes]
    params: SystemParams = field(repr=False)
    a_rep: int = field(init=False)
    b_rep: int | None = field(init=False)  # None in the data protocol
    expected_hash: int | None = field(init=False)  # data protocol only

    def __post_init__(self):
        a_n, b_n = self.params.a_rsa.n, self.params.b_rsa.n
        b_rep = expected_hash = None
        if self.protocol is Protocol.LINKED_FILES:
            if not (isinstance(self.payload, tuple) and len(self.payload) == 2):
                raise ParameterError("linked-files protocol needs a (file_a, file_b) payload")
            m_a, m_b = link_messages(*self.payload)
            a_rep, b_rep = message_rep(m_a, a_n), message_rep(m_b, b_n)
        elif not isinstance(self.payload, bytes):
            raise ParameterError(f"{self.protocol.value} protocol needs a bytes payload")
        elif self.protocol is Protocol.COMMON_MESSAGE:
            a_rep, b_rep = message_rep(self.payload, a_n), message_rep(self.payload, b_n)
        else:
            a_rep = message_rep(self.payload, a_n)
            expected_hash = int_from_bytes(hashlib.sha256(self.payload).digest())
        object.__setattr__(self, "a_rep", a_rep)
        object.__setattr__(self, "b_rep", b_rep)
        object.__setattr__(self, "expected_hash", expected_hash)

    def valid_for_A(self, item: int | bytes | None) -> bool:
        """Is item B's signature on b_rep, or the data that hashes to expected_hash?"""
        if self.protocol is Protocol.DATA_FOR_SIGNATURE:
            return (
                isinstance(item, bytes)
                and int_from_bytes(hashlib.sha256(item).digest()) == self.expected_hash
            )
        return isinstance(item, int) and rsa_verify(item, self.b_rep, self.params.b_rsa)

    def valid_for_B(self, item: int | bytes | None) -> bool:
        """Is item A's signature on a_rep?"""
        return isinstance(item, int) and rsa_verify(item, self.a_rep, self.params.a_rsa)


def _int_fields(msg: WireMessage) -> list[int]:
    return [int_from_bytes(f) for f in msg.fields]


def carried_item(msg: WireMessage, terms: Terms, v_a: int | None = None) -> int | bytes | None:
    """The item a delivered message hands its receiver; None if it hands none.

    The data as sent; a counter- or closing signature as an int; a blind
    half unblinded with the offer's V_A; the forwarded ciphertext
    decrypted with A's key (None when terms.params lack it).  Whether the
    item is the one owed is for terms.valid_for_A and valid_for_B.
    """
    kind = msg.msg_type
    if kind is MsgType.DATA_PAYLOAD:
        return msg.fields[0]
    if kind in (MsgType.COUNTER_SIGNATURE, MsgType.FINAL_SIGNATURE):
        return int_from_bytes(msg.fields[0])
    try:
        if kind is MsgType.BLIND_HALF_REPLY and v_a is not None:
            return unblind(v_a, int_from_bytes(msg.fields[0]), terms.params.sttp_elg.P)
        if kind is MsgType.FORWARD_CIPHERTEXT:
            value = elg_decrypt(*_int_fields(msg), terms.params.a_elg)  # data travels as data_as_int
            return int_to_bytes(value) if terms.protocol is Protocol.DATA_FOR_SIGNATURE else value
    except (EmbeddingError, ParameterError):
        pass
    return None


def _reply_type(cfg: SessionConfig) -> MsgType:
    """What B answers a valid offer with: the data itself, or a counter-signature."""
    if cfg.protocol is Protocol.DATA_FOR_SIGNATURE:
        return MsgType.DATA_PAYLOAD
    return MsgType.COUNTER_SIGNATURE


class _Party:
    """Shared plumbing: state, deadline bookkeeping, message construction.

    A client keeps every valid item delivered to it, in any phase; its
    phase only decides what it sends, so an item that arrives late is
    kept but answered by nothing.
    """

    def __init__(self, cfg: SessionConfig, session_id: bytes):
        self.cfg = cfg
        self.session_id = session_id
        self.state = PartyState(phase="start")
        self.deadline: int | None = None

    def _msg(self, msg_type: MsgType, *values: int | bytes) -> WireMessage:
        fields = tuple(v if isinstance(v, bytes) else int_to_bytes(v) for v in values)
        return WireMessage(msg_type=msg_type, session_id=self.session_id, fields=fields)

    def _violation(self, incoming, note: str = "out-of-phase message") -> list:
        kind = incoming.msg_type.name if isinstance(incoming, WireMessage) else type(incoming).__name__
        self.state.violations.append(f"{note}: {kind} in phase {self.state.phase}")
        return []

    def _hold(self, item: int | bytes) -> None:
        self.state.acquired = item
        if self.state.verdict == "aborted":
            self.state.verdict = "late"

    def _finish(self, verdict: str) -> None:
        if verdict == "aborted" and self.state.acquired is not None:
            verdict = "late"
        self.state.verdict = verdict
        self.state.phase = "done"
        self.deadline = None


class ClientA(_Party):
    """Initiator: offers the certified encrypted signature, releases it only
    after checking B's step-2 reply, passively receives B's ciphertext if
    the STTP had to step in."""

    def __init__(self, cfg: SessionConfig, session_id: bytes, rng: Rng):
        super().__init__(cfg, session_id)
        self.rng = rng
        self.a_ctx = CembsContext.a_side(cfg.params)
        self.signature = rsa_sign(cfg.terms.a_rep, cfg.params.a_rsa)

    def step(self, incoming: WireMessage | Timeout | None, now: int = 0) -> list[tuple[str, WireMessage]]:
        if incoming is None:
            if self.state.phase != "start":
                return self._violation(incoming, "spurious kickoff")
            w, u = sample_nonces(self.a_ctx.group.P, self.rng)
            offer = encrypt_and_certify(self.signature, self.a_ctx, w, u)
            self.state.phase = "wait_step2"
            self.deadline = now + self.cfg.timeout
            return [("B", self._msg(MsgType.CEMBS_OFFER, *offer))]

        if isinstance(incoming, Timeout):
            if self.state.phase == "wait_step2":
                # Nothing of B's in hand and no dispute path of her own.
                self._finish("aborted")
            return []

        item = carried_item(incoming, self.cfg.terms)
        valid = self.cfg.terms.valid_for_A(item)
        if valid:
            self._hold(item)
        if incoming.msg_type is MsgType.FORWARD_CIPHERTEXT:
            return self._on_forward(incoming, item, valid)
        if incoming.msg_type is _reply_type(self.cfg) and self.state.phase == "wait_step2":
            if not valid:
                self._finish("aborted")  # refuse to release s_A
                return []
            self._finish("success")
            return [("B", self._msg(MsgType.FINAL_SIGNATURE, self.signature))]
        return self._violation(incoming)

    def _on_forward(self, incoming: WireMessage, item: int | bytes | None, valid: bool) -> list:
        if valid:
            if self.state.verdict != "success":
                self._finish("recovered")
            return []
        if item is None:
            return self._violation(incoming, "undecryptable forwarded ciphertext")
        if isinstance(item, bytes):
            return self._violation(incoming, "forwarded data does not match the agreed hash")
        return self._violation(incoming, "forwarded ciphertext holds no valid signature")


class ClientB(_Party):
    """Responder: checks the certificate before answering, and escalates to
    the STTP when the closing signature never arrives or fails to verify."""

    def __init__(self, cfg: SessionConfig, session_id: bytes, rng: Rng):
        super().__init__(cfg, session_id)
        self.rng = rng
        self.a_ctx = CembsContext.a_side(cfg.params)
        self.b_ctx = CembsContext.b_side(cfg.params)
        self.state.phase = "wait_offer"
        self.deadline = cfg.timeout  # give up if the opening offer never comes
        if cfg.protocol is Protocol.DATA_FOR_SIGNATURE:
            self.item = cfg.payload
        else:
            self.item = rsa_sign(cfg.terms.b_rep, cfg.params.b_rsa)
        self.v_a: int | None = None  # V_A of the accepted offer, to unblind the arbiter's half
        self.offer: tuple[int, int, int, int] | None = None  # (W_A, g^V_A, c_A, r_A) for the STTP

    def step(self, incoming: WireMessage | Timeout | None, now: int = 0) -> list[tuple[str, WireMessage]]:
        if incoming is None:
            return []
        if isinstance(incoming, Timeout):
            return self._on_timeout(now)
        item = carried_item(incoming, self.cfg.terms, self.v_a)
        valid = self.cfg.terms.valid_for_B(item)
        if valid:
            self._hold(item)
        phase = self.state.phase
        if incoming.msg_type is MsgType.CEMBS_OFFER and phase == "wait_offer":
            return self._on_offer(incoming, now)
        if incoming.msg_type is MsgType.FINAL_SIGNATURE and phase == "wait_final":
            if valid:
                self._finish("success")
                return []
            return self._recover(now)  # invalid closing signature: dispute
        if incoming.msg_type is MsgType.BLIND_HALF_REPLY and phase == "wait_sttp":
            if valid:
                self._finish("recovered")
                return []
            self.state.violations.append(
                "unusable blind half from the arbiter" if item is None
                else "recovered value is not a valid signature"
            )
            self._finish("aborted")
            return []
        return self._violation(incoming)

    def _on_offer(self, incoming: WireMessage, now: int) -> list:
        w_a, v_a, c_a, r_a = _int_fields(incoming)
        if not 0 < v_a < self.cfg.params.sttp_elg.P:
            self._finish("aborted")  # stop the protocol
            return []
        commitment = blind_commit(v_a, self.cfg.params.commit_base)
        if not cembs_verify(w_a, commitment, c_a, r_a, self.a_ctx):
            self._finish("aborted")
            return []
        self.v_a, self.offer = v_a, (w_a, commitment, c_a, r_a)
        self.state.phase = "wait_final"
        self.deadline = now + self.cfg.timeout
        return [("A", self._msg(_reply_type(self.cfg), self.item))]

    def _on_timeout(self, now: int) -> list:
        if self.state.phase == "wait_final":
            return self._recover(now)
        if self.state.phase == "wait_offer":
            self._finish("aborted")  # never heard from A; nothing to dispute with
        elif self.state.phase == "wait_sttp":
            self.state.violations.append("arbiter unreachable")
            self._finish("aborted")
        return []

    def _recover(self, now: int) -> list:
        """Escalate: certify own ciphertext under A's key and ask the STTP."""
        value = data_as_int(self.item) if isinstance(self.item, bytes) else self.item
        w, u = sample_nonces(self.b_ctx.group.P, self.rng)
        reply = encrypt_and_certify(value, self.b_ctx, w, u)
        self.state.phase = "wait_sttp"
        self.deadline = now + self.cfg.timeout
        return [("STTP", self._msg(MsgType.RECOVERY_REQUEST, *self.offer, *reply))]


class Sttp(_Party):
    """Stateless arbiter: answers any recovery request whose two
    certificates verify, and answers identical requests identically."""

    def __init__(self, cfg: SessionConfig, session_id: bytes):
        super().__init__(cfg, session_id)
        self.a_ctx = CembsContext.a_side(cfg.params)
        self.b_ctx = CembsContext.b_side(cfg.params)
        self.state.phase = "ready"

    def step(self, incoming: WireMessage | Timeout | None, now: int = 0) -> list[tuple[str, WireMessage]]:
        if incoming is None or isinstance(incoming, Timeout):
            return []
        if incoming.msg_type is not MsgType.RECOVERY_REQUEST:
            return self._violation(incoming)
        w_a, c_blind, c_a, r_a, w_b, v_b, c_b, r_b = _int_fields(incoming)
        offer = (cembs_verify, (w_a, c_blind, c_a, r_a, self.a_ctx))
        reply = (cembs_verify, (w_b, blind_commit(v_b, self.b_ctx.commit_base), c_b, r_b, self.b_ctx))
        offer_ok, reply_ok = pair(offer, reply, self.a_ctx.group.P.bit_length())
        if not (offer_ok and reply_ok):
            self.state.violations.append(
                f"rejected recovery request (offer cert {'ok' if offer_ok else 'bad'}, "
                f"reply cert {'ok' if reply_ok else 'bad'})"
            )
            return []
        return [
            ("B", self._msg(MsgType.BLIND_HALF_REPLY, blind_half(w_a, self.cfg.params.sttp_elg))),
            ("A", self._msg(MsgType.FORWARD_CIPHERTEXT, w_b, v_b)),
        ]


def build_parties(cfg: SessionConfig) -> dict[str, _Party]:
    """Instantiate the three machines with independent derived rngs."""
    problems = validate_params(cfg.params)
    if problems:
        raise SetupError(f"invalid parameters: {problems}")
    for name, value in (
        ("A's signing key", cfg.params.a_rsa.d),
        ("A's decryption key", cfg.params.a_elg.SK),
        ("STTP's decryption key", cfg.params.sttp_elg.SK),
    ):
        if value is None:
            raise SetupError(f"session needs {name}; load the private key file")
    if cfg.protocol is not Protocol.DATA_FOR_SIGNATURE and cfg.params.b_rsa.d is None:
        raise SetupError("session needs B's signing key; load the private key file")
    if cfg.protocol is Protocol.DATA_FOR_SIGNATURE:
        value = data_as_int(cfg.payload)
        if value >= cfg.params.a_elg.P:
            raise SetupError("data payload too large to embed under A's key")
    root = Rng(cfg.seed)
    session_id = root.child(b"session-id").random_bytes(16)
    return {
        "A": ClientA(cfg, session_id, root.child(b"party-a")),
        "B": ClientB(cfg, session_id, root.child(b"party-b")),
        "STTP": Sttp(cfg, session_id),
    }
