import copy
import dataclasses
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from fairex import cembs
from fairex.arith import Rng, int_from_bytes, int_to_bytes
from fairex.cembs import encrypt_and_certify, sample_nonces
from fairex.errors import EmbeddingError, ParameterError, SetupError
from fairex.harness import audit, run_session
from fairex.keys import generate_system_params
from fairex.protocol import (
    ClientA,
    ClientB,
    Protocol,
    SessionConfig,
    Sttp,
    Terms,
    Timeout,
    build_parties,
    carried_item,
    data_as_int,
    link_messages,
)
from fairex.rsa import rsa_sign, rsa_verify
from fairex.wire import ARITY, ROLES, MsgType, Transcript, WireMessage


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
    parties = build_parties(cfg)
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


@pytest.mark.parametrize(
    "payload, data, valid",
    [(b"payload", b"payload", True), (b"payload", b"paxload", False), (b"", b"", True)],
    ids=["honest", "flipped-byte", "empty"],
)
def test_data_valid_for_a_exactly_when_its_hash_matches(params, payload, data, valid):
    assert Terms(Protocol.DATA_FOR_SIGNATURE, payload, params).valid_for_A(data) is valid


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

    def test_second_kickoff_is_a_violation(self, params):
        a, _, _ = fresh_parties(make_cfg(params))
        a.step(None, now=0)
        assert a.step(None, now=1) == []
        assert a.state.phase == "wait_step2"
        assert a.state.violations == ["spurious kickoff: NoneType in phase wait_step2"]

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

    def test_kickoff_changes_nothing(self, params):
        _, b, _ = fresh_parties(make_cfg(params))
        before = copy.deepcopy((b.state, b.deadline, b.v_a, b.offer))
        assert b.step(None, now=3) == []
        assert (b.state, b.deadline, b.v_a, b.offer) == before


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
        assert rsa_verify(a.state.acquired, cfg.terms.b_rep, params.b_rsa)

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

    @pytest.mark.parametrize("v_b", ["P_A", "4 KB"])
    def test_reply_value_out_of_range_makes_no_power_of_g(self, params, monkeypatch, v_b):
        """V_B outside (0, P_A), as B requires of V_A: rejected as before, before g^V_B is made."""
        cfg = make_cfg(params)
        a, b, sttp, request = self.drive_to_recovery(cfg, params)
        value = params.a_elg.P if v_b == "P_A" else 1 << (8 * 4096 - 1)
        hostile = dataclasses.replace(request, fields=request.fields[:5] + (int_to_bytes(value),) + request.fields[6:])
        forward = WireMessage(MsgType.FORWARD_CIPHERTEXT, SID, hostile.fields[4:6])
        transcript = Transcript()
        transcript.add(0, "B", "STTP", hostile)
        transcript.add(1, "STTP", "A", forward)
        powers, fixed_base_exp = [], cembs.fixed_base_exp  # (base, modulus) of each fixed-base power
        monkeypatch.setattr(cembs, "fixed_base_exp", lambda *args: powers.append(args[::2]) or fixed_base_exp(*args))
        assert sttp.step(hostile, now=10) == []
        assert sttp.state.violations == ["rejected recovery request (offer cert ok, reply cert bad)"]
        report = audit(transcript, params.public(), cfg.protocol, cfg.payload)
        assert (report.fair, report.a_acquired_valid, report.b_acquired_valid) == (True, False, False)
        assert powers and (params.g, params.a_rsa.n) not in powers

    @pytest.mark.parametrize("v_a", ["P_T", "4 KB"])
    def test_offer_value_out_of_range_makes_no_power_of_g(self, params, monkeypatch, v_a):
        """V_A outside (0, P_T): B stops the protocol, as the STTP rejects such a V_B, before g^V_A is made."""
        a, b, _ = fresh_parties(make_cfg(params))
        (_, offer), = a.step(None, now=0)
        value = params.sttp_elg.P if v_a == "P_T" else 1 << (8 * 4096 - 1)
        hostile = dataclasses.replace(offer, fields=offer.fields[:1] + (int_to_bytes(value),) + offer.fields[2:])
        powers, fixed_base_exp = [], cembs.fixed_base_exp  # (base, modulus) of each fixed-base power
        monkeypatch.setattr(cembs, "fixed_base_exp", lambda *args: powers.append(args[::2]) or fixed_base_exp(*args))
        assert b.step(hostile, now=1) == []
        assert (b.state.verdict, b.state.violations) == ("aborted", [])
        assert (params.g, params.a_rsa.n) not in powers


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
        with pytest.raises(SetupError, match="^data payload too large to embed under A's key$"):
            build_parties(cfg)

    def test_leading_zero_payload_rejected(self):
        with pytest.raises(EmbeddingError, match="^data payload must be non-empty with no leading zero byte$"):
            data_as_int(b"\x00ok")


class TestSessionConfigShape:
    def test_payload_shape_must_match_protocol(self, params):
        with pytest.raises(ParameterError):
            SessionConfig(Protocol.LINKED_FILES, params, b"single", bytes(32))
        with pytest.raises(ParameterError):
            SessionConfig(Protocol.COMMON_MESSAGE, params, (b"a", b"b"), bytes(32))

    def test_seed_must_be_32_bytes(self, params):
        with pytest.raises(ParameterError, match="session seed must be 32 bytes"):
            SessionConfig(Protocol.COMMON_MESSAGE, params, b"the deal", bytes(31))

    @pytest.mark.parametrize("key, name, protocol", [
        ("a_rsa", "A's signing key", Protocol.COMMON_MESSAGE),
        ("a_elg", "A's decryption key", Protocol.COMMON_MESSAGE),
        ("sttp_elg", "STTP's decryption key", Protocol.COMMON_MESSAGE),
        ("b_rsa", "B's signing key", Protocol.COMMON_MESSAGE),
        ("b_rsa", "B's signing key", Protocol.LINKED_FILES),
    ], ids=["a-rsa", "a-elg", "sttp-elg", "b-rsa-common", "b-rsa-linked"])
    def test_private_keys_required(self, params, key, name, protocol):
        public = dataclasses.replace(params, **{key: getattr(params, key).public()})
        with pytest.raises(SetupError, match=f"^session needs {name}; load the private key file$"):
            build_parties(make_cfg(public, protocol=protocol))

    def test_data_protocol_needs_no_signing_key_of_b(self, params):
        cfg = make_cfg(dataclasses.replace(params, b_rsa=params.b_rsa.public()),
                       protocol=Protocol.DATA_FOR_SIGNATURE, payload=b"ok")
        states = run_session(cfg).states
        assert (states["A"].verdict, states["A"].acquired) == ("success", b"ok")
        assert states["B"].verdict == "success" and cfg.terms.valid_for_B(states["B"].acquired)


class TestReplayGap:
    """Known gap (README, Limitations): nothing binds a recovery request to its session."""

    def test_other_sessions_arbiter_answers_the_request(self, params):
        cfg_x = make_cfg(params)
        a, b, _ = fresh_parties(cfg_x)
        run_offer_through_b(cfg_x, a, b)
        (_, request), = b.step(Timeout(), now=9)
        cfg_y = dataclasses.replace(cfg_x, seed=rng(b"session y").random_bytes(32))
        sttp_y = build_parties(cfg_y)["STTP"]
        assert sttp_y.session_id != request.session_id
        out = sttp_y.step(request, now=10)
        assert [(r, m.msg_type) for r, m in out] == [
            ("B", MsgType.BLIND_HALF_REPLY),
            ("A", MsgType.FORWARD_CIPHERTEXT),
        ]
        assert all(m.session_id == sttp_y.session_id for _, m in out)
        # The challenge hash omits the session id and B does not read it,
        # so session Y's blind half completes session X's recovery.
        b.step(out[0][1], now=11)
        assert b.state.verdict == "recovered"


class TestDishonestA:
    """Known gap (README, Limitations): A certifies garbage in place of s_A and never releases it.

    The certificate does not bind the plaintext, so B's check passes and
    B replies: A holds B's item.  The arbiter answers B's recovery, and
    the blind half unblinds to the garbage, so B aborts.  Both audits,
    with the private keys and with the public ones, call the run unfair.
    """

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_both_audits_call_the_run_unfair(self, params, protocol):
        cfg = make_cfg(params, protocol=protocol, payload=b"ok")
        a, b, sttp = fresh_parties(cfg)
        a.signature = 2  # what A certifies in its offer
        out, offer = run_offer_through_b(cfg, a, b)
        (_, reply), = out
        assert [m.msg_type for _, m in a.step(reply, now=2)] == [MsgType.FINAL_SIGNATURE]  # never sent
        (_, request), = b.step(Timeout(), now=9)
        transcript = Transcript()
        transcript.add(1, "A", "B", offer)
        transcript.add(2, "B", "A", reply)
        transcript.add(9, "B", "STTP", request)
        for receiver, message in sttp.step(request, now=10):
            transcript.add(11, "STTP", receiver, message)
            {"A": a, "B": b}[receiver].step(message, now=11)
        assert (a.state.verdict, b.state.verdict) == ("success", "aborted")
        assert b.state.violations == ["recovered value is not a valid signature"]
        for keys in (params, params.public()):
            report = audit(transcript, keys, protocol, cfg.payload)
            assert (report.fair, report.a_acquired_valid, report.b_acquired_valid) == (False, True, False)


class TestDishonestB:
    """Known gap (README, Limitations): B keeps its reply and escrows garbage under A's key.

    The certificate does not bind the plaintext, so the arbiter answers:
    B recovers s_A and A is forwarded garbage.  The audit with the private
    keys calls the run unfair; the public-key audit credits A with the
    certified forward and calls it fair.
    """

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_public_audit_calls_the_unfair_run_fair(self, params, protocol):
        cfg = make_cfg(params, protocol=protocol, payload=b"ok")
        a, b, sttp = fresh_parties(cfg)
        out, offer = run_offer_through_b(cfg, a, b)
        assert len(out) == 1  # B's reply, which it never sends
        transcript = Transcript()
        transcript.add(1, "A", "B", offer)
        garbage = encrypt_and_certify(2, b.b_ctx, *sample_nonces(b.b_ctx.group.P, rng(b"garbage")))
        request = b._msg(MsgType.RECOVERY_REQUEST, *b.offer, *garbage)
        transcript.add(2, "B", "STTP", request)
        for receiver, reply in sttp.step(request, now=2):
            transcript.add(3, "STTP", receiver, reply)
            {"A": a, "B": b}[receiver].step(reply, now=3)
        assert b.state.acquired == a.signature and a.state.acquired is None
        private = audit(transcript, params, protocol, cfg.payload)
        public = audit(transcript, params.public(), protocol, cfg.payload)
        assert (private.fair, private.a_acquired_valid, private.b_acquired_valid) == (False, False, True)
        assert (public.fair, public.a_acquired_valid, public.b_acquired_valid) == (True, True, True)


# Honest runs, as (role, what it is handed): "kick" starts A, "msg" is the
# last message addressed to the role, "tick" a timeout.  Every prefix of
# every run is a reachable state; together they put A and B in each phase.
HONEST_RUNS = (
    (("A", "kick"), ("B", "msg"), ("A", "msg"), ("B", "msg")),
    (("A", "kick"), ("B", "msg"), ("B", "tick"), ("STTP", "msg"), ("B", "msg"), ("A", "msg")),
    (("A", "kick"), ("A", "tick")),
    (("B", "tick"),),
)
PREFIXES = sorted({run[:k] for run in HONEST_RUNS for k in range(len(run) + 1)})


def drive(cfg, prefix) -> tuple[dict, list[bytes]]:
    """Parties after an honest prefix, and every field value they sent."""
    parties = build_parties(cfg)
    last: dict[str, WireMessage] = {}
    fields: list[bytes] = []
    for now, (role, handed) in enumerate(prefix):
        if handed == "msg":
            incoming = last.pop(role)
        else:
            incoming = None if handed == "kick" else Timeout()
        for receiver, msg in parties[role].step(incoming, now=now):
            last[receiver] = msg
            fields += msg.fields
    return parties, fields


class TestStepFuzz:
    """No party's step raises on a well-formed message, in any reachable phase."""

    @settings(max_examples=20, deadline=None)
    @given(protocol=st.sampled_from(list(Protocol)), data=st.data())
    def test_no_step_raises(self, params, protocol, data):
        cfg = make_cfg(params, protocol=protocol, payload=b"ok")
        parties, seen = drive(cfg, HONEST_RUNS[1])
        field_value = st.one_of(st.binary(max_size=4), st.binary(max_size=200), st.sampled_from(seen))
        session_id = st.one_of(st.just(parties["A"].session_id), st.binary(min_size=16, max_size=16))
        messages = [
            WireMessage(kind, data.draw(session_id), tuple(data.draw(field_value) for _ in range(arity)))
            for kind, arity in ARITY.items()
        ]
        # The arbiter keeps no state, so one instance takes every message.
        cases = [(("STTP",), ())] + [(("A", "B"), prefix) for prefix in PREFIXES]
        for roles, prefix in cases:
            for role in roles:
                for msg in messages:
                    parties, _ = drive(cfg, prefix)
                    out = parties[role].step(msg, now=len(prefix))
                    out += parties[role].step(Timeout(), now=len(prefix) + 9)
                    assert all(r in ROLES and isinstance(m, WireMessage) for r, m in out)
