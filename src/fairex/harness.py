"""In-process transport with fault injection, the session loop, and audit.

Fault scripts are plain text, one directive per line:

    <match> <action> [args]

where <match> is either a tick number or a message type name
(cembs-offer, counter-signature, final-signature, data-payload,
recovery-request, blind-half-reply, forward-ciphertext) and <action> is

    drop                         swallow the matching message
    corrupt_field INDEX MODE     mangle one field (mode: bitflip | zero)
    delay TICKS                  hold the matching message back
    silence_party ROLE           swallow everything ROLE sends from here on
    force_timeout ROLE           make ROLE's wait deadline expire now

Each directive fires at most once (silencing, once begun, persists).
Blank lines and lines starting with '#' are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from .arith import int_from_bytes
from .cembs import CembsCertificate, CembsContext, blind_commit, cembs_verify
from .errors import FaultScriptError, WireError
from .keys import SystemParams
from .protocol import PartyState, Protocol, SessionConfig, Terms, Timeout, build_parties, carried_item
from .wire import ROLES, MsgType, Transcript, WireMessage

CORRUPT_MODES = ("bitflip", "zero")


@dataclass
class FaultDirective:
    """One line of a fault script; fires at most once."""

    match_tick: int | None
    match_type: MsgType | None
    action: str
    args: tuple = ()
    used: bool = False

    def matches(self, tick: int, msg: WireMessage) -> bool:
        if self.used:
            return False
        if self.match_tick is not None:
            return tick == self.match_tick
        return msg.msg_type is self.match_type


@dataclass
class FaultScript:
    directives: list[FaultDirective] = field(default_factory=list)

    @classmethod
    def parse(cls, text: str) -> "FaultScript":
        directives = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            match, action, args = parts[0], parts[1] if len(parts) > 1 else "", parts[2:]
            try:
                match_tick: int | None = int(match)
                match_type: MsgType | None = None
            except ValueError:
                match_tick = None
                try:
                    match_type = MsgType.from_wire_name(match)
                except WireError:
                    raise FaultScriptError(f"line {lineno}: unknown match {match!r}") from None
            try:
                directives.append(cls._directive(match_tick, match_type, action, args))
            except FaultScriptError as exc:
                raise FaultScriptError(f"line {lineno}: {exc}") from None
        return cls(directives)

    @staticmethod
    def _directive(match_tick, match_type, action, args) -> FaultDirective:
        if action == "drop":
            if args:
                raise FaultScriptError("drop takes no arguments")
            return FaultDirective(match_tick, match_type, "drop")
        if action == "corrupt_field":
            if len(args) != 2 or args[1] not in CORRUPT_MODES:
                raise FaultScriptError("corrupt_field takes INDEX and MODE (bitflip|zero)")
            try:
                index = int(args[0])
            except ValueError:
                raise FaultScriptError("corrupt_field INDEX must be an integer") from None
            if index < 0:
                raise FaultScriptError("corrupt_field INDEX must be non-negative")
            return FaultDirective(match_tick, match_type, "corrupt_field", (index, args[1]))
        if action == "delay":
            try:
                ticks = int(args[0]) if len(args) == 1 else None
            except ValueError:
                ticks = None
            if ticks is None or ticks < 0:
                raise FaultScriptError("delay takes a non-negative tick count")
            return FaultDirective(match_tick, match_type, "delay", (ticks,))
        if action in ("silence_party", "force_timeout"):
            if len(args) != 1 or args[0] not in ROLES:
                raise FaultScriptError(f"{action} takes one of {ROLES}")
            return FaultDirective(match_tick, match_type, action, (args[0],))
        raise FaultScriptError(f"unknown action {action!r}")

    @classmethod
    def load(cls, path: str | Path) -> "FaultScript":
        return cls.parse(Path(path).read_text())


# The misbehavior matrix: the two ways B can cheat (bad counter-signature,
# dispute without cause), the two ways A can (silence, garbage signature),
# plain channel drops, and the data-protocol variant where the delivered
# payload mismatches its agreed hash.  A cheating sender gains nothing by
# escalating honestly, so the cheat scripts also swallow the recovery
# request; the channel-fault scripts leave it alone and recovery restores
# fairness.
SHIPPED_FAULT_SCRIPTS: dict[str, str] = {
    "none": "",
    "b-bad-countersig": (
        "counter-signature corrupt_field 0 bitflip\nrecovery-request drop\n"
    ),
    "b-early-dispute": "counter-signature drop\ncounter-signature force_timeout B\n",
    "a-silent-step3": "final-signature silence_party A\n",
    "a-garbage-s": "final-signature corrupt_field 0 bitflip\n",
    "drop-final": "final-signature drop\n",
    "drop-countersig": "counter-signature drop\n",
    "a-garbage-data": "data-payload corrupt_field 0 bitflip\nrecovery-request drop\n",
}


def shipped_script(name: str) -> FaultScript:
    try:
        return FaultScript.parse(SHIPPED_FAULT_SCRIPTS[name])
    except KeyError:
        raise FaultScriptError(f"unknown shipped script {name!r}") from None


def _corrupt(msg: WireMessage, index: int, mode: str) -> WireMessage:
    if index >= len(msg.fields):
        raise FaultScriptError(
            f"corrupt_field index {index} out of range for {msg.msg_type.name}"
        )
    fields = list(msg.fields)
    if mode == "bitflip":
        data = fields[index]
        fields[index] = (data[:-1] + bytes([data[-1] ^ 0x01])) if data else b"\x01"
    else:
        fields[index] = b""
    return replace(msg, fields=tuple(fields))


@dataclass
class _QueuedMessage:
    deliver_at: int
    seq: int
    sender: str
    receiver: str
    message: WireMessage


class Transport:
    """Ordered in-process message queue; all faults are applied here.

    Messages sent at tick t arrive at t+1 (plus any injected delay);
    within a tick, deliveries happen in send order, so a run is a pure
    function of (config, seed, fault script).
    """

    def __init__(self, fault: FaultScript | None = None, transcript: Transcript | None = None):
        self.fault = fault or FaultScript()
        self.transcript = transcript if transcript is not None else Transcript()
        self.queue: list[_QueuedMessage] = []
        self.silenced: set[str] = set()
        self.forced_timeouts: list[str] = []
        self._seq = 0

    def send(self, tick: int, sender: str, receiver: str, msg: WireMessage) -> None:
        if sender in self.silenced:
            return
        dropped = False
        delay = 0
        for directive in self.fault.directives:
            if not directive.matches(tick, msg):
                continue
            directive.used = True
            if directive.action == "drop":
                dropped = True
            elif directive.action == "corrupt_field":
                msg = _corrupt(msg, *directive.args)
            elif directive.action == "delay":
                delay += directive.args[0]
            elif directive.action == "silence_party":
                self.silenced.add(directive.args[0])
            elif directive.action == "force_timeout":
                self.forced_timeouts.append(directive.args[0])
        if dropped or sender in self.silenced:
            return
        self._seq += 1
        self.queue.append(_QueuedMessage(tick + 1 + delay, self._seq, sender, receiver, msg))

    def deliver(self, tick: int) -> tuple[list[tuple[str, str, WireMessage]], list[str]]:
        """Everything due at this tick, in order, plus forced-timeout roles."""
        due = sorted(
            (q for q in self.queue if q.deliver_at <= tick),
            key=lambda q: (q.deliver_at, q.seq),
        )
        for q in due:
            self.queue.remove(q)
            self.transcript.add(tick, q.sender, q.receiver, q.message)
        forced, self.forced_timeouts = self.forced_timeouts, []
        return [(q.sender, q.receiver, q.message) for q in due], forced

    @property
    def quiescent(self) -> bool:
        return not self.queue and not self.forced_timeouts


@dataclass
class SessionResult:
    transcript: Transcript
    states: dict[str, PartyState]
    stalled: bool
    session_id: bytes


def run_session(cfg: SessionConfig, fault: FaultScript | None = None) -> SessionResult:
    """Drive all three machines to quiescence under a fault script."""
    parties, session_id = build_parties(cfg)
    transport = Transport(fault=fault, transcript=Transcript())
    kicked = False
    stalled = True
    for tick in range(cfg.tick_budget):
        deliveries, forced = transport.deliver(tick)
        inbox: dict[str, list[WireMessage]] = {role: [] for role in ROLES}
        for sender, receiver, msg in deliveries:
            inbox[receiver].append(msg)
        for role in ROLES:
            party = parties[role]
            outgoing = []
            if role == "A" and not kicked:
                outgoing += party.step(None, now=tick)
                kicked = True
            for msg in inbox[role]:
                outgoing += party.step(msg, now=tick)
            timed_out = party.deadline is not None and tick >= party.deadline and not inbox[role]
            if role in forced or timed_out:
                outgoing += party.step(Timeout(), now=tick)
            for receiver, msg in outgoing:
                transport.send(tick, role, receiver, msg)
        if kicked and transport.quiescent and all(p.deadline is None for p in parties.values()):
            stalled = False
            break
    transcript = transport.transcript
    for role in ROLES:
        for violation in parties[role].state.violations:
            transcript.note(f"{role}: {violation}")
    return SessionResult(
        transcript=transcript,
        states={role: parties[role].state for role in ROLES},
        stalled=stalled,
        session_id=session_id,
    )


# --- transcript audit ------------------------------------------------------


@dataclass(frozen=True)
class AuditReport:
    """What a transcript proves about a finished session.

    fair: both parties hold a verified item, or neither does.
    sttp_involved: any message to or from the arbiter.
    sttp_saw_va: some field delivered to the arbiter equals the offer's V_A
    (it never should: the arbiter sees only W_A and the commitment).
    """

    fair: bool
    sttp_involved: bool
    sttp_saw_va: bool
    a_acquired_valid: bool
    b_acquired_valid: bool


def _delivered(transcript: Transcript, receiver: str, msg_type: MsgType):
    for rec in transcript.records:
        if rec.receiver == receiver and rec.message.msg_type is msg_type:
            yield rec.message


def _sttp_involved(transcript: Transcript) -> bool:
    return any("STTP" in (rec.sender, rec.receiver) for rec in transcript.records)


def _sttp_saw_va(transcript: Transcript) -> bool:
    va_values = {
        int_from_bytes(m.fields[1]) for m in _delivered(transcript, "B", MsgType.CEMBS_OFFER)
    }
    return any(
        int_from_bytes(fld) in va_values
        for rec in transcript.records
        if rec.receiver == "STTP"
        for fld in rec.message.fields
    )


def _report(transcript: Transcript, a_ok: bool, b_ok: bool) -> AuditReport:
    return AuditReport(
        fair=a_ok == b_ok,
        sttp_involved=_sttp_involved(transcript),
        sttp_saw_va=_sttp_saw_va(transcript),
        a_acquired_valid=a_ok,
        b_acquired_valid=b_ok,
    )


def audit(
    transcript: Transcript,
    params: SystemParams,
    protocol: Protocol = Protocol.COMMON_MESSAGE,
    payload: bytes | tuple[bytes, bytes] | None = None,
) -> AuditReport:
    """Recompute the fairness and semi-trust flags from a transcript.

    A party holds a valid item when any message delivered to it carries
    one (`carried_item`, judged by the session's `Terms`), whatever it
    did with the message: the same possession the parties record.  A
    blind half is unblinded with the first offer's V_A.  Without A's
    ElGamal private key the forwarded ciphertext cannot be decrypted; it
    is then accepted when it reproduces a recovery request whose
    certificate verifies.
    """
    if payload is None:
        payload = default_payload(protocol)
    terms = Terms(protocol, payload, params)
    offer = next(_delivered(transcript, "B", MsgType.CEMBS_OFFER), None)
    v_a = int_from_bytes(offer.fields[1]) if offer is not None else None

    def holds(role: str, valid) -> bool:
        return any(
            valid(carried_item(rec.message, terms, v_a))
            for rec in transcript.records
            if rec.receiver == role
        )

    a_ok = holds("A", terms.valid_for_A)
    if not a_ok and params.a_elg.SK is None:
        a_ok = _forward_certified(transcript, params)
    return _report(transcript, a_ok, holds("B", terms.valid_for_B))


def _forward_certified(transcript: Transcript, params: SystemParams) -> bool:
    """Did A get a forward that reproduces a certified recovery request verbatim?"""
    forwards = {
        tuple(int_from_bytes(f) for f in m.fields)
        for m in _delivered(transcript, "A", MsgType.FORWARD_CIPHERTEXT)
    }
    b_ctx = CembsContext.b_side(params)
    for m in _delivered(transcript, "STTP", MsgType.RECOVERY_REQUEST):
        w_b, v_b, c_b, r_b = (int_from_bytes(f) for f in m.fields[4:8])
        if (w_b, v_b) in forwards and cembs_verify(
            w_b, blind_commit(v_b, params.commit_base), CembsCertificate(r=r_b, c=c_b), b_ctx
        ):
            return True
    return False


def live_flags(result: SessionResult) -> AuditReport:
    """The audit flags as the parties themselves hold them, for soundness checks.

    Reads what each client holds (`PartyState.acquired`), not its verdict.
    """
    states = result.states
    return _report(result.transcript, states["A"].acquired is not None, states["B"].acquired is not None)


DEFAULT_MESSAGE = b"the undersigned agree to the attached terms"
DEFAULT_FILE_A = b"contract counterpart held by A"
DEFAULT_FILE_B = b"contract counterpart held by B"
DEFAULT_DATA = b"ok"


def default_payload(protocol: Protocol) -> bytes | tuple[bytes, bytes]:
    if protocol is Protocol.COMMON_MESSAGE:
        return DEFAULT_MESSAGE
    if protocol is Protocol.LINKED_FILES:
        return (DEFAULT_FILE_A, DEFAULT_FILE_B)
    return DEFAULT_DATA
