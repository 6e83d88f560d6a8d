"""In-process transport with fault injection, the session loop, and audit.

Fault scripts are plain text, one directive per line:

    <match> <action> [args]

where <match> is either a tick number or a message type name, spelled
exactly (cembs-offer, counter-signature, final-signature, data-payload,
recovery-request, blind-half-reply, forward-ciphertext), and <action> is

    drop                         swallow the matching message
    corrupt_field INDEX MODE     mangle one field (mode: bitflip | zero)
    delay TICKS                  hold the matching message back
    silence_party ROLE           swallow everything ROLE sends from here on
    force_timeout ROLE           time ROLE out at the next tick, after that tick's messages to the role

`ACTIONS` holds this grammar.  Counts (ticks, indexes, delays) are ASCII
decimal digits.  A `corrupt_field` index past its message type's arity
fails at parse time (under a tick match, when the message is sent).
Each directive fires at most once per session (silencing, once begun,
persists).  A run never changes its script, so a run is a pure function
of (config, seed, script) even when one script object is run again.
Blank lines and text after '#' are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from .arith import int_from_bytes
from .cembs import CembsContext, ciphertext_certified
from .errors import FaultScriptError, WireError, read_text
from .keys import SystemParams
from .protocol import PartyState, Protocol, SessionConfig, Terms, Timeout, build_parties, carried_item
from .wire import ARITY, ROLES, MsgType, Transcript, WireMessage, read_count

CORRUPT_MODES = ("bitflip", "zero")
# Each action's argument slots: the words allowed there, or int for a count.
ACTIONS: dict[str, tuple] = {
    "drop": (),
    "corrupt_field": (int, CORRUPT_MODES),
    "delay": (int,),
    "silence_party": (ROLES,),
    "force_timeout": (ROLES,),
}
TICK_LIMIT = 200  # ticks visited before an unsettled session counts as stalled


@dataclass(frozen=True)
class FaultDirective:
    """One line of a fault script; fires at most once per session."""

    match_tick: int | None
    match_type: MsgType | None
    action: str
    args: tuple = ()

    def matches(self, tick: int, msg: WireMessage) -> bool:
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
            words = raw.split("#", 1)[0].split()
            if not words:
                continue
            try:
                directives.append(_directive(*words))
            except (FaultScriptError, ValueError) as exc:  # int() refuses counts past its digit limit
                raise FaultScriptError(f"line {lineno}: {exc}") from None
        return cls(directives)

    @classmethod
    def load(cls, path: str | Path) -> "FaultScript":
        return cls.parse(read_text(path, FaultScriptError))


def _arg(slot, word: str):
    """word read in its slot (a count, or one of the slot's words), else None."""
    if slot is int:
        return read_count(word)
    return word if word in slot else None


def _directive(match: str, action: str = "", *words: str) -> FaultDirective:
    """One script line, checked against ACTIONS and, under a type match, the type's arity."""
    match_tick, match_type = read_count(match), None
    if match_tick is None:
        try:
            match_type = MsgType.from_wire_name(match)
        except WireError:
            raise FaultScriptError(f"unknown match {match!r}") from None
    if action not in ACTIONS:
        raise FaultScriptError(f"unknown action {action!r}")
    slots = ACTIONS[action]
    args = tuple(_arg(slot, word) for slot, word in zip(slots, words))
    if len(words) != len(slots) or None in args:
        usage = " ".join("COUNT" if slot is int else "|".join(slot) for slot in slots)
        raise FaultScriptError(f"{action} takes {usage or 'no arguments'}, not {' '.join(words)!r}")
    if action == "corrupt_field" and match_type is not None and args[0] >= ARITY[match_type]:
        raise FaultScriptError(f"{match_type.wire_name} has no field {args[0]}")
    return FaultDirective(match_tick, match_type, action, args)


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
        raise FaultScriptError(f"{msg.msg_type.wire_name} has no field {index}")
    fields = list(msg.fields)
    if mode == "bitflip":
        data = fields[index]
        fields[index] = (data[:-1] + bytes([data[-1] ^ 0x01])) if data else b"\x01"
    else:
        fields[index] = b""
    return replace(msg, fields=tuple(fields))


class Transport:
    """Ordered in-process queue of messages and forced timeouts; all faults are applied here.

    Messages sent at tick t arrive at t+1 (plus any injected delay); a
    forced timeout lands at the next tick, after that tick's messages to
    the role.  Within a tick, deliveries happen in send order, so a run
    is a pure function of (config, seed, fault script).
    """

    def __init__(self, fault: FaultScript | None = None):
        self.pending = list(fault.directives) if fault else []  # directives yet to fire
        self.transcript = Transcript()
        self.queue: list[tuple[int, str, str, WireMessage | Timeout]] = []  # (deliver_at, sender, receiver, event)
        self.silenced: set[str] = set()

    def send(self, tick: int, sender: str, receiver: str, msg: WireMessage) -> None:
        if sender in self.silenced:
            return
        dropped = False
        delay = 0
        timeouts = []
        for directive in [d for d in self.pending if d.matches(tick, msg)]:
            self.pending.remove(directive)
            if directive.action == "drop":
                dropped = True
            elif directive.action == "corrupt_field":
                msg = _corrupt(msg, *directive.args)
            elif directive.action == "delay":
                delay += directive.args[0]
            elif directive.action == "silence_party":
                self.silenced.add(directive.args[0])
            elif directive.action == "force_timeout":
                timeouts.append((tick + 1, sender, directive.args[0], Timeout()))
        if not dropped and sender not in self.silenced:
            self.queue.append((tick + 1 + delay, sender, receiver, msg))
        self.queue += timeouts

    def deliver(self, tick: int) -> list[tuple[str, str, WireMessage | Timeout]]:
        """Everything due at this tick, in send order; the transcript records only messages.

        A forced `Timeout` lands at the next tick, after that tick's messages to the role.
        """
        # The queue is in send order and sorted is stable, so ties keep send order.
        due = sorted((q for q in self.queue if q[0] <= tick), key=lambda q: q[0])
        self.queue = [q for q in self.queue if q[0] > tick]
        for _, sender, receiver, event in due:
            if isinstance(event, WireMessage):
                self.transcript.add(tick, sender, receiver, event)
        return [q[1:] for q in due]


@dataclass
class SessionResult:
    transcript: Transcript
    states: dict[str, PartyState]
    stalled: bool


def run_session(cfg: SessionConfig, fault: FaultScript | None = None) -> SessionResult:
    """Drive all three machines to quiescence under a fault script.

    A opens at tick 0; after that only ticks where a delivery or a deadline
    is due are visited, since any other tick does nothing.  Each role steps
    that tick's messages, then one `Timeout` if a forced one arrived or its
    deadline has passed with no message.
    """
    parties = build_parties(cfg)
    transport = Transport(fault=fault)
    for receiver, msg in parties["A"].step(None, now=0):
        transport.send(0, "A", receiver, msg)
    tick = 0
    for _ in range(TICK_LIMIT):
        deadlines = [p.deadline for p in parties.values() if p.deadline is not None]
        if not transport.queue and not deadlines:
            break
        tick = max(tick + 1, min([q[0] for q in transport.queue] + deadlines))
        due = transport.deliver(tick)
        for role in ROLES:
            party = parties[role]
            inbox = [e for _, to, e in due if to == role and isinstance(e, WireMessage)]
            forced = any(to == role and isinstance(e, Timeout) for _, to, e in due)
            outgoing = []
            for msg in inbox:
                outgoing += party.step(msg, now=tick)
            timed_out = party.deadline is not None and tick >= party.deadline and not inbox
            if forced or timed_out:
                outgoing += party.step(Timeout(), now=tick)
            for receiver, msg in outgoing:
                transport.send(tick, role, receiver, msg)
    stalled = bool(transport.queue) or any(p.deadline is not None for p in parties.values())
    return SessionResult(
        transcript=transport.transcript,
        states={role: parties[role].state for role in ROLES},
        stalled=stalled,
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
        sttp_involved=any("STTP" in (rec.sender, rec.receiver) for rec in transcript.records),
        sttp_saw_va=_sttp_saw_va(transcript),
        a_acquired_valid=a_ok,
        b_acquired_valid=b_ok,
    )


def audit(
    transcript: Transcript,
    params: SystemParams,
    protocol: Protocol,
    payload: bytes | tuple[bytes, bytes],
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
    forwards = {tuple(map(int_from_bytes, m.fields)) for m in _delivered(transcript, "A", MsgType.FORWARD_CIPHERTEXT)}
    requests = _delivered(transcript, "STTP", MsgType.RECOVERY_REQUEST)
    b_ctx = CembsContext.b_side(params)
    return any(
        (w_b, v_b) in forwards and ciphertext_certified(w_b, v_b, c_b, r_b, b_ctx) is not None
        for w_b, v_b, c_b, r_b in (map(int_from_bytes, m.fields[4:8]) for m in requests)
    )


def live_flags(result: SessionResult) -> AuditReport:
    """The audit flags as the parties themselves hold them, for soundness checks.

    Reads what each client holds (`PartyState.acquired`), not its verdict.
    """
    states = result.states
    return _report(result.transcript, states["A"].acquired is not None, states["B"].acquired is not None)


_DEFAULT_PAYLOADS = {
    Protocol.COMMON_MESSAGE: b"the undersigned agree to the attached terms",
    Protocol.LINKED_FILES: (b"contract counterpart held by A", b"contract counterpart held by B"),
    Protocol.DATA_FOR_SIGNATURE: b"ok",
}


def default_payload(protocol: Protocol) -> bytes | tuple[bytes, bytes]:
    return _DEFAULT_PAYLOADS[protocol]
