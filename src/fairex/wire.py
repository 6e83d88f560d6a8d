"""Wire message encoding and the session transcript.

Binary layout of a message:

    msg_type (1 byte) || session_id (16 bytes) || field count (1 byte)
    || per field: length (4 bytes, big-endian) || field bytes

Integer fields use the minimal big-endian magnitude.  A transcript file
holds one delivered message per line, tab-separated:

    tick <TAB> sender <TAB> receiver <TAB> hex(message)

A message and a transcript line load only as they are written: each reader
reads leniently, then keeps what it read only if it writes back the same.
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
        """The message whose `encode` is `data`: read leniently, then kept only if it writes back the same."""
        pos, fields = 2 + SESSION_ID_BYTES, []
        for _ in range(int.from_bytes(data[pos - 1 : pos], "big")):
            length = int.from_bytes(data[pos : pos + 4], "big")
            fields.append(data[pos + 4 : pos + 4 + length])
            pos += 4 + length
        try:
            message = cls(MsgType(data[0]), data[1 : 1 + SESSION_ID_BYTES], tuple(fields))
        except (IndexError, ValueError):  # no type byte, or none of MsgType's
            message = None
        if message is None or message.encode() != data:
            raise WireError("not a message as encode writes it")
        return message


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
            try:
                tick, sender, receiver, hex_msg = line.split("\t", 3)
                message = WireMessage.decode(bytes.fromhex(hex_msg))
            except (ValueError, WireError) as exc:
                raise TranscriptError(f"line {lineno}: {exc}") from None
            record = TranscriptRecord(read_count(tick), sender, receiver, message)
            if record.tick is None or not {sender, receiver} <= set(ROLES) or record.line != line:
                raise TranscriptError(f"line {lineno}: not as a run writes it")
            transcript.records.append(record)
        return transcript

    @classmethod
    def load(cls, path: str | Path) -> "Transcript":
        return cls.from_text(read_text(path, TranscriptError))
