"""Wire message encoding and the session transcript.

Binary layout of a message:

    msg_type (1 byte) || session_id (16 bytes) || field count (1 byte)
    || per field: length (4 bytes, big-endian) || field bytes

Integer fields use the minimal big-endian magnitude.  A transcript file
holds one delivered message per line, tab-separated:

    tick <TAB> sender <TAB> receiver <TAB> hex(message)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path

from .errors import TranscriptError, WireError, read_text, write_whole

SESSION_ID_BYTES = 16

ROLES = ("A", "B", "STTP")


class MsgType(enum.IntEnum):
    CEMBS_OFFER = 1         # W_A, V_A, c_A, r_A
    COUNTER_SIGNATURE = 2   # s_B
    FINAL_SIGNATURE = 3     # s_A
    DATA_PAYLOAD = 4        # M
    RECOVERY_REQUEST = 5    # W_A, C, c_A, r_A, W_B, V_B, c_B, r_B
    BLIND_HALF_REPLY = 6    # W_A^SK_T
    FORWARD_CIPHERTEXT = 7  # W_B, V_B

    @property
    def wire_name(self) -> str:
        return self.name.lower().replace("_", "-")

    @classmethod
    def from_wire_name(cls, name: str) -> "MsgType":
        for msg_type in cls:
            if msg_type.wire_name == name:
                return msg_type
        raise WireError(f"unknown message type {name!r}")


def read_count(word: str) -> int | None:
    """word as a count if it is ASCII decimal digits, else None; int() alone takes "-1", "1_0", " 1"."""
    return int(word) if word.isascii() and word.isdigit() else None


ARITY = {
    MsgType.CEMBS_OFFER: 4,
    MsgType.COUNTER_SIGNATURE: 1,
    MsgType.FINAL_SIGNATURE: 1,
    MsgType.DATA_PAYLOAD: 1,
    MsgType.RECOVERY_REQUEST: 8,
    MsgType.BLIND_HALF_REPLY: 1,
    MsgType.FORWARD_CIPHERTEXT: 2,
}


@dataclass(frozen=True)
class WireMessage:
    msg_type: MsgType
    session_id: bytes
    fields: tuple[bytes, ...]

    def __post_init__(self):
        if len(self.session_id) != SESSION_ID_BYTES:
            raise WireError(f"session id must be {SESSION_ID_BYTES} bytes")
        if len(self.fields) != ARITY[self.msg_type]:
            raise WireError(
                f"{self.msg_type.name} carries {ARITY[self.msg_type]} fields, got {len(self.fields)}"
            )

    def encode(self) -> bytes:
        out = bytearray([self.msg_type.value])
        out += self.session_id
        out.append(len(self.fields))
        for f in self.fields:
            out += len(f).to_bytes(4, "big")
            out += f
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "WireMessage":
        if len(data) < 1 + SESSION_ID_BYTES + 1:
            raise WireError("message too short")
        try:
            msg_type = MsgType(data[0])
        except ValueError:
            raise WireError(f"unknown message type byte {data[0]}") from None
        session_id = data[1 : 1 + SESSION_ID_BYTES]
        count = data[1 + SESSION_ID_BYTES]
        pos = 2 + SESSION_ID_BYTES
        fields = []
        for _ in range(count):
            if pos + 4 > len(data):
                raise WireError("truncated field length")
            length = int.from_bytes(data[pos : pos + 4], "big")
            pos += 4
            if pos + length > len(data):
                raise WireError("truncated field")
            fields.append(data[pos : pos + length])
            pos += length
        if pos != len(data):
            raise WireError("trailing bytes after last field")
        return cls(msg_type=msg_type, session_id=session_id, fields=tuple(fields))


@dataclass(frozen=True)
class TranscriptRecord:
    tick: int
    sender: str
    receiver: str
    message: WireMessage

    @property
    def line(self) -> str:
        return f"{self.tick}\t{self.sender}\t{self.receiver}\t{self.message.encode().hex()}"


@dataclass
class Transcript:
    """Every delivered message, in order: all that a transcript file holds."""

    records: list[TranscriptRecord] = field(default_factory=list)

    def add(self, tick: int, sender: str, receiver: str, message: WireMessage) -> None:
        self.records.append(TranscriptRecord(tick, sender, receiver, message))

    def to_text(self) -> str:
        return "".join(rec.line + "\n" for rec in self.records)

    def save(self, path: str | Path) -> None:
        write_whole(path, self.to_text().encode())

    @classmethod
    def from_text(cls, text: str) -> "Transcript":
        """Load a text exactly as to_text writes it: each line a record ended by "\n"."""
        transcript = cls()
        lines = text.split("\n")
        if lines.pop():
            raise TranscriptError(f"line {len(lines) + 1}: no line end")
        for lineno, line in enumerate(lines, start=1):
            parts = line.split("\t")
            if len(parts) != 4:
                raise TranscriptError(f"line {lineno}: expected 4 tab-separated columns")
            tick_str, sender, receiver, hex_msg = parts
            try:
                tick = read_count(tick_str)
                message = WireMessage.decode(bytes.fromhex(hex_msg))
            except (ValueError, WireError) as exc:
                raise TranscriptError(f"line {lineno}: {exc}") from None
            if sender not in ROLES or receiver not in ROLES:
                raise TranscriptError(f"line {lineno}: unknown party")
            record = TranscriptRecord(tick, sender, receiver, message)
            if tick is None or record.line != line:
                raise TranscriptError(f"line {lineno}: not as a run writes it")
            transcript.records.append(record)
        return transcript

    @classmethod
    def load(cls, path: str | Path) -> "Transcript":
        return cls.from_text(read_text(path, TranscriptError))
