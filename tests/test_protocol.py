import dataclasses
import hashlib

import pytest

from fairex.arith import Rng, int_from_bytes, int_to_bytes
from fairex.errors import ParameterError, SetupError
from fairex.keys import generate_system_params
from fairex.protocol import (
    ClientA,
    ClientB,
    Protocol,
    SessionConfig,
    Sttp,
    Timeout,
    build_parties,
    carried_item,
    check_data_matches,
    data_as_int,
    link_messages,
)
from fairex.rsa import rsa_sign, rsa_verify
from fairex.wire import MsgType, WireMessage


SID = bytes(16)


def rng(tag: bytes = b"") -> Rng:
    return Rng.from_material(b"test_protocol" + tag)


@pytest.fixture(scope="module")
def params():
    return generate_system_params("toy", rng(b"params"))


def make_cfg(params, protocol=Protocol.COMMON_MESSAGE, payload=b"the deal", **kw):
    if protocol is Protocol.LINKED_FILES and isinstance(payload, bytes):
        payload = (b"file a", b"file b")
    return SessionConfig(protocol=protocol, params=params, payload=payload,
                         seed=rng(b"session").random_bytes(32), **kw)


def fresh_parties(cfg):
    parties, _ = build_parties(cfg)
    return parties["A"], parties["B"], parties["STTP"]


class TestLinkMessages:
    def test_empty_inputs_coincide(self):
        m_a, m_b = link_messages(b"", b"")
        assert m_a == m_b == hashlib.sha256(b"").digest()

    def test_one_byte_of_other_file_changes_linked_message(self):
        m_a, _ = link_messages(b"file a", b"file b")
        m_a2, _ = link_messages(b"file a", b"file B")
        assert m_a != m_a2

    def test_suffix_recovers_other_hash(self):
        m_a, m_b = link_messages(b"file a", b"file b")
        assert m_a[-32:] == hashlib.sha256(b"file b").digest()
        assert m_b[-32:] == hashlib.sha256(b"file a").digest()
        assert m_a[:-32] == b"file a"


class TestCheckDataMatches:
    def expected(self, data: bytes) -> int:
        return int_from_bytes(hashlib.sha256(data).digest())

    def test_honest(self):
        assert check_data_matches(b"payload", self.expected(b"payload"))

    def test_flipped_byte(self):
        assert not check_data_matches(b"paxload", self.expected(b"payload"))

    def test_empty(self):
        assert check_data_matches(b"", self.expected(b""))


class TestClientASteps:
    def test_kickoff_emits_one_offer(self, params):
        a, _, _ = fresh_parties(make_cfg(params))
        out = a.step(None, now=0)
        assert len(out) == 1
        receiver, msg = out[0]
        assert receiver == "B" and msg.msg_type is MsgType.CEMBS_OFFER
        assert a.state.phase == "wait_step2"

    def test_valid_countersig_releases_final_signature(self, params):
        cfg = make_cfg(params)
        a, b, _ = fresh_parties(cfg)
        a.step(None, now=0)
        s_b = rsa_sign(cfg.terms.b_rep, params.b_rsa)
        out = a.step(WireMessage(MsgType.COUNTER_SIGNATURE, a.session_id, (int_to_bytes(s_b),)), now=1)
        assert a.state.verdict == "success" and a.state.acquired == s_b
        assert [m.msg_type for _, m in out] == [MsgType.FINAL_SIGNATURE]
        assert int_from_bytes(out[0][1].fields[0]) == a.signature

    def test_invalid_countersig_aborts_without_output(self, params):
        cfg = make_cfg(params)
        a, _, _ = fresh_parties(cfg)
        a.step(None, now=0)
        s_b = rsa_sign(cfg.terms.b_rep, params.b_rsa)
        bad = (s_b + 1) % params.b_rsa.n
        out = a.step(WireMessage(MsgType.COUNTER_SIGNATURE, a.session_id, (int_to_bytes(bad),)), now=1)
        assert out == []
        assert a.state.verdict == "aborted"

    def test_timeout_waiting_for_step2_aborts(self, params):
        a, _, _ = fresh_parties(make_cfg(params))
        a.step(None, now=0)
        assert a.step(Timeout(), now=9) == []
        assert a.state.verdict == "aborted"

    def test_countersig_after_abort_is_kept_and_answered_by_nothing(self, params):
        cfg = make_cfg(params)
        a, _, _ = fresh_parties(cfg)
        a.step(None, now=0)
        a.step(Timeout(), now=9)
        s_b = rsa_sign(cfg.terms.b_rep, params.b_rsa)
        out = a.step(WireMessage(MsgType.COUNTER_SIGNATURE, a.session_id, (int_to_bytes(s_b),)), now=10)
        assert out == []
        assert a.state.verdict == "late" and a.state.acquired == s_b
        assert a.state.violations == ["out-of-phase message: COUNTER_SIGNATURE in phase done"]

    def test_out_of_phase_message_is_logged_and_ignored(self, params):
        a, _, _ = fresh_parties(make_cfg(params))
        a.step(None, now=0)
        msg = WireMessage(MsgType.BLIND_HALF_REPLY, a.session_id, (b"\x01",))
        phase_before = a.state.phase
        assert a.step(msg, now=1) == []
        assert a.state.phase == phase_before
        assert any("BLIND_HALF_REPLY" in v for v in a.state.violations)


def run_offer_through_b(cfg, a, b):
    (receiver, offer), = a.step(None, now=0)
    assert receiver == "B"
    return b.step(offer, now=1), offer


class TestClientBSteps:
    def test_valid_offer_yields_countersignature(self, params):
        cfg = make_cfg(params)
        a, b, _ = fresh_parties(cfg)
        out, _ = run_offer_through_b(cfg, a, b)
        assert [m.msg_type for _, m in out] == [MsgType.COUNTER_SIGNATURE]
        assert b.state.phase == "wait_final"

    def test_invalid_offer_stops_the_protocol(self, params):
        cfg = make_cfg(params)
        a, b, _ = fresh_parties(cfg)
        (_, offer), = a.step(None, now=0)
        tampered = dataclasses.replace(
            offer, fields=offer.fields[:3] + (int_to_bytes(int_from_bytes(offer.fields[3]) + 1),)
        )
        assert b.step(tampered, now=1) == []
        assert b.state.verdict == "aborted"

    def test_timeout_after_countersig_sends_recovery_request(self, params):
        cfg = make_cfg(params)
        a, b, _ = fresh_parties(cfg)
        run_offer_through_b(cfg, a, b)
        out = b.step(Timeout(), now=9)
        assert [m.msg_type for _, m in out] == [MsgType.RECOVERY_REQUEST]
        receiver, request = out[0]
        assert receiver == "STTP"
        assert len(request.fields) == 8

    def test_invalid_final_signature_triggers_recovery(self, params):
        cfg = make_cfg(params)
        a, b, _ = fresh_parties(cfg)
        run_offer_through_b(cfg, a, b)
        bad = WireMessage(MsgType.FINAL_SIGNATURE, b.session_id, (b"\x00",))
        out = b.step(bad, now=2)
        assert [m.msg_type for _, m in out] == [MsgType.RECOVERY_REQUEST]

    def test_valid_final_signature_succeeds(self, params):
        cfg = make_cfg(params)
        a, b, _ = fresh_parties(cfg)
        run_offer_through_b(cfg, a, b)
        good = WireMessage(MsgType.FINAL_SIGNATURE, b.session_id, (int_to_bytes(a.signature),))
        assert b.step(good, now=2) == []
        assert b.state.verdict == "success" and b.state.acquired == a.signature

    def test_final_signature_after_escalation_is_kept(self, params):
        cfg = make_cfg(params)
        a, b, _ = fresh_parties(cfg)
        run_offer_through_b(cfg, a, b)
        b.step(Timeout(), now=9)  # escalates to the arbiter
        good = WireMessage(MsgType.FINAL_SIGNATURE, b.session_id, (int_to_bytes(a.signature),))
        assert b.step(good, now=10) == []
        assert b.state.phase == "wait_sttp" and b.state.acquired == a.signature
        b.step(Timeout(), now=18)  # the arbiter never answers
        assert b.state.verdict == "late"

    def test_timeout_with_no_offer_aborts(self, params):
        _, b, _ = fresh_parties(make_cfg(params))
        assert b.step(Timeout(), now=9) == []
        assert b.state.verdict == "aborted"


class TestSttpSteps:
    def drive_to_recovery(self, cfg, params):
        a, b, sttp = fresh_parties(cfg)
        run_offer_through_b(cfg, a, b)
        (_, request), = b.step(Timeout(), now=9)
        return a, b, sttp, request

    def test_valid_request_yields_exactly_two_replies(self, params):
        cfg = make_cfg(params)
        a, b, sttp, request = self.drive_to_recovery(cfg, params)
        out = sttp.step(request, now=10)
        assert {(r, m.msg_type) for r, m in out} == {
            ("B", MsgType.BLIND_HALF_REPLY),
            ("A", MsgType.FORWARD_CIPHERTEXT),
        }

    def test_recovered_signature_equals_directly_issued_one(self, params):
        cfg = make_cfg(params)
        a, b, sttp, request = self.drive_to_recovery(cfg, params)
        out = sttp.step(request, now=10)
        half = next(m for r, m in out if m.msg_type is MsgType.BLIND_HALF_REPLY)
        b.step(half, now=11)
        assert b.state.verdict == "recovered"
        expected = rsa_sign(cfg.terms.a_rep, params.a_rsa)
        assert b.state.acquired == expected  # bit-for-bit, RSA is deterministic

    def test_forward_gives_a_the_countersignature(self, params):
        cfg = make_cfg(params)
        a, b, sttp, request = self.drive_to_recovery(cfg, params)
        out = sttp.step(request, now=10)
        forward = next(m for r, m in out if m.msg_type is MsgType.FORWARD_CIPHERTEXT)
        a.step(forward, now=11)
        assert a.state.verdict == "recovered"
        assert rsa_verify(a.state.acquired, cfg.terms.b_rep, params.b_rsa.pub)

    def test_tampered_offer_certificate_is_rejected(self, params):
        cfg = make_cfg(params)
        a, b, sttp, request = self.drive_to_recovery(cfg, params)
        c_a = int_from_bytes(request.fields[2])
        tampered = dataclasses.replace(
            request, fields=request.fields[:2] + (int_to_bytes(c_a ^ 1),) + request.fields[3:]
        )
        assert sttp.step(tampered, now=10) == []
        assert any("rejected recovery request" in v for v in sttp.state.violations)

    def test_missing_reply_certificate_is_rejected(self, params):
        cfg = make_cfg(params)
        a, b, sttp, request = self.drive_to_recovery(cfg, params)
        gutted = dataclasses.replace(
            request, fields=request.fields[:5] + (b"", b"", b"")
        )
        assert sttp.step(gutted, now=10) == []

    def test_identical_requests_get_identical_replies(self, params):
        cfg = make_cfg(params)
        a, b, sttp, request = self.drive_to_recovery(cfg, params)
        first = sttp.step(request, now=10)
        second = sttp.step(request, now=25)
        assert first == second


class TestCarriedItem:
    def test_items_by_message_type(self, params):
        cfg = make_cfg(params)
        a, b, sttp = fresh_parties(cfg)
        (_, offer), = a.step(None, now=0)
        assert carried_item(offer, cfg.terms) is None
        sig = WireMessage(MsgType.FINAL_SIGNATURE, SID, (b"\x01\x02",))
        assert carried_item(sig, cfg.terms) == 0x0102
        data = WireMessage(MsgType.DATA_PAYLOAD, SID, (b"\x00ok",))
        assert carried_item(data, cfg.terms) == b"\x00ok"  # as sent, leading zero and all

    def test_malformed_or_unreadable_input_gives_none(self, params):
        cfg = make_cfg(params)
        half = WireMessage(MsgType.BLIND_HALF_REPLY, SID, (b"",))  # zero is not invertible
        assert carried_item(half, cfg.terms, v_a=5) is None
        assert carried_item(dataclasses.replace(half, fields=(b"\x01",)), cfg.terms) is None  # no V_A
        forward = WireMessage(MsgType.FORWARD_CIPHERTEXT, SID, (b"\x02", b"\x03"))
        assert carried_item(forward, cfg.terms) is not None
        public = make_cfg(params.public())
        assert carried_item(forward, public.terms) is None  # A's key is missing
        multiple = WireMessage(MsgType.FORWARD_CIPHERTEXT, SID, (int_to_bytes(params.a_elg.P), b"\x03"))
        assert carried_item(multiple, cfg.terms) is None  # W^SK = 0 mod P


class TestDataProtocolSteps:
    def test_b_answers_offer_with_the_data(self, params):
        cfg = make_cfg(params, protocol=Protocol.DATA_FOR_SIGNATURE, payload=b"ok")
        a, b, _ = fresh_parties(cfg)
        out, _ = run_offer_through_b(cfg, a, b)
        assert [m.msg_type for _, m in out] == [MsgType.DATA_PAYLOAD]
        assert out[0][1].fields[0] == b"ok"

    def test_a_accepts_matching_data_and_releases_signature(self, params):
        cfg = make_cfg(params, protocol=Protocol.DATA_FOR_SIGNATURE, payload=b"ok")
        a, b, _ = fresh_parties(cfg)
        a.step(None, now=0)
        out = a.step(WireMessage(MsgType.DATA_PAYLOAD, a.session_id, (b"ok",)), now=1)
        assert a.state.verdict == "success" and a.state.acquired == b"ok"
        assert [m.msg_type for _, m in out] == [MsgType.FINAL_SIGNATURE]

    def test_a_does_nothing_on_mismatching_data(self, params):
        cfg = make_cfg(params, protocol=Protocol.DATA_FOR_SIGNATURE, payload=b"ok")
        a, b, _ = fresh_parties(cfg)
        a.step(None, now=0)
        out = a.step(WireMessage(MsgType.DATA_PAYLOAD, a.session_id, (b"no",)), now=1)
        assert out == [] and a.state.verdict == "aborted"

    def test_oversize_payload_rejected_at_session_start(self, params):
        too_big = int_to_bytes(params.a_elg.P + 1)
        cfg = make_cfg(params, protocol=Protocol.DATA_FOR_SIGNATURE, payload=too_big)
        with pytest.raises(SetupError):
            build_parties(cfg)

    def test_leading_zero_payload_rejected(self):
        with pytest.raises(Exception):
            data_as_int(b"\x00ok")


class TestSessionConfigShape:
    def test_payload_shape_must_match_protocol(self, params):
        with pytest.raises(ParameterError):
            SessionConfig(Protocol.LINKED_FILES, params, b"single", bytes(32))
        with pytest.raises(ParameterError):
            SessionConfig(Protocol.COMMON_MESSAGE, params, (b"a", b"b"), bytes(32))

    def test_private_keys_required(self, params):
        cfg = make_cfg(dataclasses.replace(params, a_rsa=params.a_rsa.public()))
        with pytest.raises(SetupError):
            build_parties(cfg)
