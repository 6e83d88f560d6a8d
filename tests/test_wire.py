import os

import pytest
from hypothesis import given, strategies as st

from fairex.errors import TranscriptError, WireError
from fairex.wire import ARITY, ROLES, MsgType, Transcript, WireMessage

SID = bytes(range(16))


def offer(fields=(b"\x0a", b"\x0e", b"\x01\x02", b"")) -> WireMessage:
    return WireMessage(msg_type=MsgType.CEMBS_OFFER, session_id=SID, fields=tuple(fields))


class TestWireMessage:
    def test_round_trip_every_type(self):
        for msg_type, arity in ARITY.items():
            fields = tuple(bytes([i]) * i for i in range(arity))
            msg = WireMessage(msg_type=msg_type, session_id=SID, fields=fields)
            assert WireMessage.decode(msg.encode()) == msg

    def test_layout(self):
        msg = WireMessage(msg_type=MsgType.FINAL_SIGNATURE, session_id=SID, fields=(b"\x12",))
        assert msg.encode() == bytes([3]) + SID + bytes([1]) + b"\x00\x00\x00\x01" + b"\x12"

    def test_empty_field_encodes_zero(self):
        decoded = WireMessage.decode(offer().encode())
        assert decoded.fields[3] == b""

    def test_wrong_arity_rejected(self):
        with pytest.raises(WireError):
            WireMessage(msg_type=MsgType.FINAL_SIGNATURE, session_id=SID, fields=(b"a", b"b"))

    def test_bad_session_id_rejected(self):
        with pytest.raises(WireError):
            WireMessage(msg_type=MsgType.FINAL_SIGNATURE, session_id=b"short", fields=(b"a",))

    # offer() encodes as type byte, 16-byte id, count 4, then 4-byte lengths: 1 of b"\x0a" first.
    UNWRITTEN_MESSAGES = {
        "empty": lambda e: b"",
        "17 bytes": lambda e: e[:17],
        "unknown type byte": lambda e: b"\x08" + e[1:],
        "type byte 0": lambda e: b"\x00" + e[1:],
        "truncated length": lambda e: e[:20],
        "truncated field": lambda e: e[:22],
        "last field cut": lambda e: e[:-1],
        "trailing byte": lambda e: e + b"\x00",
        "wrong field count": lambda e: e[:17] + b"\x03" + e[18:],
        "field count too high": lambda e: e[:17] + b"\x05" + e[18:],
        "length one too short": lambda e: e[:21] + b"\x00" + e[22:],
    }

    @pytest.mark.parametrize("form", sorted(UNWRITTEN_MESSAGES))
    def test_decode_refuses_what_encode_never_writes(self, form):
        with pytest.raises(WireError):
            WireMessage.decode(self.UNWRITTEN_MESSAGES[form](offer().encode()))

    def test_wire_names(self):
        assert MsgType.CEMBS_OFFER.wire_name == "cembs-offer"
        for msg_type in MsgType:
            assert MsgType.from_wire_name(msg_type.wire_name) is msg_type
        for name in ("telegram", "RECOVERY_REQUEST", "recovery_request", "Recovery-Request"):
            with pytest.raises(WireError):
                MsgType.from_wire_name(name)


class TestTranscript:
    def make(self) -> Transcript:
        t = Transcript()
        t.add(1, "A", "B", offer())
        t.add(2, "B", "A", WireMessage(MsgType.COUNTER_SIGNATURE, SID, (b"\x07",)))
        return t

    def test_file_round_trip(self, tmp_path):
        t = self.make()
        path = tmp_path / "transcript.txt"
        t.save(path)
        loaded = Transcript.load(path)
        assert loaded.records == t.records

    def test_saved_file_holds_exactly_to_text(self, tmp_path):
        t = self.make()
        path = tmp_path / "transcript.txt"
        t.save(path)
        assert path.read_bytes() == t.to_text().encode()

    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "transcript.txt"
        path.write_bytes(b"old bytes\n")

        def refused(src, dst):
            raise OSError("replace refused")

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", refused)
            with pytest.raises(OSError, match="replace refused"):
                self.make().save(path)
        assert path.read_bytes() == b"old bytes\n" and list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("newline", ["\r", "\r\n"])
    def test_file_with_other_line_ends_rejected(self, tmp_path, newline):
        # Read as written: no newline translation turns these into records.
        path = tmp_path / "transcript.txt"
        path.write_bytes(self.make().to_text().replace("\n", newline).encode())
        with pytest.raises(TranscriptError, match=r"^line 1: "):
            Transcript.load(path)

    def test_file_format(self, tmp_path):
        t = self.make()
        line = t.to_text().splitlines()[0]
        tick, sender, receiver, payload = line.split("\t")
        assert (tick, sender, receiver) == ("1", "A", "B")
        assert bytes.fromhex(payload) == offer().encode()

    def test_truncated_line_rejected(self):
        text = self.make().to_text()
        with pytest.raises(TranscriptError):
            Transcript.from_text(text[:-3])

    LOOSE_LINES = {
        "three columns": "1\tA\tB",
        "five columns": "1\tA\tB\t{0}\t",
        "unknown receiver": "1\tA\tEVE\t{0}",
        "unknown sender": "1\tsttp\tB\t{0}",
        "tick -1": "-1\tA\tB\t{0}",
        "tick +1": "+1\tA\tB\t{0}",
        "tick None": "None\tA\tB\t{0}",
        "negative tick": "-5\tA\tB\t{0}",
        "signed tick with underscore": "+1_0\tA\tB\t{0}",
        "tick with a space": " 1\tA\tB\t{0}",
        "tick with a leading zero": "01\tA\tB\t{0}",
        "non-ASCII digit tick": "\u0661\tA\tB\t{0}",
        "upper-case hex": "1\tA\tB\t{upper}",
        "hex with a space": "1\tA\tB\t{spaced}",
        "carriage return": "1\tA\tB\t{0}\r",
        "form feed between records": "1\tA\tB\t{0}\x0c1\tA\tB\t{0}",
    }

    @pytest.mark.parametrize("form", sorted(LOOSE_LINES))
    def test_only_lines_a_run_writes_load(self, form):
        payload = offer().encode().hex()
        assert Transcript.from_text(f"1\tA\tB\t{payload}\n").to_text() == f"1\tA\tB\t{payload}\n"
        spaced = f"{payload[:2]} {payload[2:]}"
        line = self.LOOSE_LINES[form].format(payload, upper=payload.upper(), spaced=spaced)
        with pytest.raises(TranscriptError, match=r"^line 1: "):
            Transcript.from_text(line + "\n")

    # Texts around make()'s two lines ({0}, {1}), each with the line its error names.
    UNWRITTEN_TEXTS = {
        "inserted whitespace line": ("{0}\n \v\r\n{1}\n", 2),
        "inserted blank line": ("{0}\n\n{1}\n", 2),
        "trailing blank line": ("{0}\n{1}\n\n", 3),
        "lone newline": ("\n", 1),
        "no final newline": ("{0}\n{1}", 2),
    }

    @pytest.mark.parametrize("form", sorted(UNWRITTEN_TEXTS))
    def test_every_line_is_a_record_ended_by_newline(self, form):
        text, lineno = self.UNWRITTEN_TEXTS[form]
        with pytest.raises(TranscriptError, match=rf"^line {lineno}: "):
            Transcript.from_text(text.format(*self.make().to_text().splitlines()))

    def test_empty_text_is_an_empty_transcript(self):
        assert Transcript.from_text("").records == []


class TestParserFuzz:
    MESSAGE = st.one_of(
        st.binary(max_size=80),
        st.sampled_from(list(ARITY)).flatmap(
            lambda msg_type: st.lists(
                st.binary(max_size=4), min_size=ARITY[msg_type], max_size=ARITY[msg_type]
            ).map(lambda fields: WireMessage(msg_type, SID, tuple(fields)).encode())
        ),
    )

    @given(MESSAGE, st.data())
    def test_decode_raises_only_wire_error(self, encoded, data):
        cut = data.draw(st.integers(min_value=0, max_value=len(encoded)))
        flipped = bytearray(encoded)
        if flipped:
            flipped[cut % len(flipped)] ^= data.draw(st.integers(min_value=1, max_value=255))
        for candidate in (encoded, encoded[:cut], encoded + b"\x00", bytes(flipped)):
            try:
                decoded = WireMessage.decode(candidate)
            except WireError:
                continue
            assert decoded.encode() == candidate

    LINE = st.one_of(
        st.text(max_size=30),
        st.builds(
            "{}\t{}\t{}\t{}".format,
            st.one_of(st.integers(), st.text(max_size=4)),
            st.sampled_from(ROLES + ("EVE",)),
            st.sampled_from(ROLES + ("",)),
            MESSAGE.map(bytes.hex),
        ),
    )

    @given(st.lists(LINE, max_size=6), st.booleans())
    def test_from_text_raises_only_transcript_error(self, lines, line_ends):
        text = "".join(line + "\n" for line in lines) if line_ends else "\n".join(lines)
        try:
            transcript = Transcript.from_text(text)
        except TranscriptError:
            return
        assert transcript.to_text() == text
        assert transcript.to_text().splitlines() == [line for line in text.splitlines() if line.strip()]

    def test_non_utf8_transcript_file(self, tmp_path):
        path = tmp_path / "transcript.txt"
        path.write_bytes(b"1\tA\tB\t\xff\xfe\n")
        with pytest.raises(TranscriptError, match="not a text file"):
            Transcript.load(path)
