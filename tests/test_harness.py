import dataclasses
import random

import pytest
from hypothesis import given, strategies as st

from fairex.arith import Rng, int_from_bytes, int_to_bytes
from fairex.errors import FaultScriptError
from fairex.harness import (
    CORRUPT_MODES,
    SHIPPED_FAULT_SCRIPTS,
    FaultScript,
    Transport,
    audit,
    default_payload,
    live_flags,
    run_session,
    shipped_script,
)
from fairex.keys import generate_system_params
from fairex.protocol import Protocol, SessionConfig, Terms
from fairex.rsa import rsa_sign, rsa_verify
from fairex.wire import ARITY, ROLES, MsgType, Transcript, WireMessage

SID = bytes(16)


def rng(tag: bytes = b"") -> Rng:
    return Rng.from_material(b"test_harness" + tag)


@pytest.fixture(scope="module")
def params():
    return generate_system_params("toy", rng(b"params"))


def make_cfg(params, protocol=Protocol.COMMON_MESSAGE, **kw):
    return SessionConfig(
        protocol=protocol,
        params=params,
        payload=default_payload(protocol),
        seed=rng(b"seed").random_bytes(32),
        **kw,
    )


def final_sig(value: bytes = b"\x07") -> WireMessage:
    return WireMessage(MsgType.FINAL_SIGNATURE, SID, (value,))


class TestFaultScriptParsing:
    def test_empty_and_comments(self):
        script = FaultScript.parse("# nothing here\n\n")
        assert script.directives == []

    def test_all_actions(self):
        script = FaultScript.parse(
            "final-signature drop\n"
            "3 corrupt_field 0 bitflip\n"
            "counter-signature delay 5\n"
            "2 silence_party A\n"
            "cembs-offer force_timeout B\n"
        )
        assert [d.action for d in script.directives] == [
            "drop", "corrupt_field", "delay", "silence_party", "force_timeout",
        ]
        assert script.directives[1].match_tick == 3
        assert script.directives[2].args == (5,)

    @pytest.mark.parametrize(
        "line",
        [
            "telegram drop",
            "final-signature explode",
            "final-signature corrupt_field x bitflip",
            "final-signature corrupt_field 0 scramble",
            "final-signature delay -1",
            "final-signature silence_party EVE",
            "final-signature drop now",
        ],
    )
    def test_bad_lines_rejected(self, line):
        with pytest.raises(FaultScriptError):
            FaultScript.parse(line)

    def test_shipped_scripts_parse(self):
        for name in SHIPPED_FAULT_SCRIPTS:
            shipped_script(name)

    @given(st.text())
    def test_arbitrary_text_raises_only_fault_script_error(self, text):
        try:
            FaultScript.parse(text)
        except FaultScriptError:
            pass


class TestTransport:
    def test_fifo_without_faults(self):
        t = Transport()
        t.send(0, "A", "B", final_sig(b"\x01"))
        t.send(0, "A", "B", final_sig(b"\x02"))
        delivered, _ = t.deliver(1)
        assert [m.fields[0] for _, _, m in delivered] == [b"\x01", b"\x02"]

    def test_drop_directive(self):
        t = Transport(fault=FaultScript.parse("final-signature drop"))
        t.send(0, "A", "B", final_sig())
        assert t.deliver(1) == ([], [])

    def test_directive_fires_exactly_once(self):
        t = Transport(fault=FaultScript.parse("final-signature drop"))
        t.send(0, "A", "B", final_sig(b"\x01"))
        t.send(0, "A", "B", final_sig(b"\x02"))
        delivered, _ = t.deliver(1)
        assert [m.fields[0] for _, _, m in delivered] == [b"\x02"]

    def test_corrupt_field_bitflip(self):
        t = Transport(fault=FaultScript.parse("final-signature corrupt_field 0 bitflip"))
        t.send(0, "A", "B", final_sig(b"\x07"))
        delivered, _ = t.deliver(1)
        assert delivered[0][2].fields[0] == b"\x06"

    def test_corrupt_index_out_of_range(self):
        t = Transport(fault=FaultScript.parse("final-signature corrupt_field 5 zero"))
        with pytest.raises(FaultScriptError):
            t.send(0, "A", "B", final_sig())

    def test_delay_holds_message_back(self):
        t = Transport(fault=FaultScript.parse("final-signature delay 3"))
        t.send(0, "A", "B", final_sig())
        assert t.deliver(1) == ([], [])
        assert t.deliver(3) == ([], [])
        delivered, _ = t.deliver(4)
        assert len(delivered) == 1

    def test_silence_swallows_from_match_onward(self):
        t = Transport(fault=FaultScript.parse("final-signature silence_party A"))
        t.send(0, "A", "B", WireMessage(MsgType.COUNTER_SIGNATURE, SID, (b"\x01",)))
        t.send(1, "A", "B", final_sig())
        t.send(2, "A", "B", WireMessage(MsgType.COUNTER_SIGNATURE, SID, (b"\x02",)))
        t.send(2, "B", "A", WireMessage(MsgType.COUNTER_SIGNATURE, SID, (b"\x03",)))
        delivered, _ = t.deliver(10)
        assert [(s, m.fields[0]) for s, _, m in delivered] == [("A", b"\x01"), ("B", b"\x03")]

    def test_force_timeout_surfaces_role(self):
        t = Transport(fault=FaultScript.parse("final-signature force_timeout B"))
        t.send(0, "A", "B", final_sig())
        delivered, forced = t.deliver(1)
        assert forced == ["B"]
        assert len(delivered) == 1

    def test_transcript_records_deliveries_only(self):
        transcript = Transcript()
        t = Transport(fault=FaultScript.parse("final-signature drop"), transcript=transcript)
        t.send(0, "A", "B", final_sig())
        t.send(0, "B", "A", WireMessage(MsgType.COUNTER_SIGNATURE, SID, (b"\x01",)))
        t.deliver(1)
        assert [r.message.msg_type for r in transcript.records] == [MsgType.COUNTER_SIGNATURE]


class TestFaultMatrix:
    @pytest.mark.parametrize("name", sorted(SHIPPED_FAULT_SCRIPTS))
    def test_every_script_ends_fair(self, params, name):
        protocol = (
            Protocol.DATA_FOR_SIGNATURE if name == "a-garbage-data" else Protocol.COMMON_MESSAGE
        )
        cfg = make_cfg(params, protocol=protocol)
        result = run_session(cfg, shipped_script(name))
        report = audit(result.transcript, params, protocol, cfg.payload)
        assert not result.stalled
        assert report.fair
        assert not report.sttp_saw_va
        assert report == live_flags(result)

    def test_fault_free_run_never_touches_the_arbiter(self, params):
        cfg = make_cfg(params)
        result = run_session(cfg)
        assert all("STTP" not in (r.sender, r.receiver) for r in result.transcript.records)

    def test_recovery_run_outcomes(self, params):
        cfg = make_cfg(params)
        result = run_session(cfg, shipped_script("a-silent-step3"))
        assert result.states["A"].verdict == "success"
        assert result.states["B"].verdict == "recovered"
        assert rsa_verify(result.states["B"].acquired, cfg.terms.a_rep, params.a_rsa.pub)

    def test_bad_countersig_leaves_a_aborted_with_no_final_signature(self, params):
        cfg = make_cfg(params)
        result = run_session(cfg, shipped_script("b-bad-countersig"))
        assert result.states["A"].verdict == "aborted"
        assert all(
            r.message.msg_type is not MsgType.FINAL_SIGNATURE for r in result.transcript.records
        )

    def test_early_dispute_sends_no_countersignature(self, params):
        cfg = make_cfg(params)
        result = run_session(cfg, shipped_script("b-early-dispute"))
        types = [r.message.msg_type for r in result.transcript.records]
        assert MsgType.COUNTER_SIGNATURE not in types
        assert MsgType.RECOVERY_REQUEST in types
        assert result.states["A"].verdict == "recovered"
        assert result.states["B"].verdict == "recovered"


class TestTerms:
    @pytest.mark.parametrize("script", sorted(SHIPPED_FAULT_SCRIPTS))
    @pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
    def test_valid_item_exactly_when_verdict_says_so(self, params, protocol, script):
        cfg = make_cfg(params, protocol=protocol)
        result = run_session(cfg, shipped_script(script))
        terms = Terms(protocol, cfg.payload, params)
        live = live_flags(result)
        a, b = result.states["A"], result.states["B"]
        assert live.a_acquired_valid == terms.valid_for_A(a.acquired)
        assert live.b_acquired_valid == terms.valid_for_B(b.acquired)
        assert live.a_acquired_valid == (a.verdict in ("success", "recovered"))
        assert live.b_acquired_valid == (b.verdict in ("success", "recovered"))

    def test_only_the_owed_item_is_valid(self, params):
        data = Terms(Protocol.DATA_FOR_SIGNATURE, b"ok", params)
        common = Terms(Protocol.COMMON_MESSAGE, b"ok", params)
        assert data.valid_for_A(b"ok") and not data.valid_for_A(b"no")
        assert not data.valid_for_A(int.from_bytes(b"ok", "big"))  # data must arrive as bytes
        s_a, s_b = rsa_sign(common.a_rep, params.a_rsa), rsa_sign(common.b_rep, params.b_rsa)
        assert common.valid_for_B(s_a) and not common.valid_for_B(s_a ^ 1)
        assert common.valid_for_A(s_b) and not common.valid_for_A(s_b ^ 1)
        assert not common.valid_for_A(int_to_bytes(s_b)) and not common.valid_for_A(None)
        assert data.b_rep is None and common.expected_hash is None


class TestDeterminism:
    def test_same_inputs_same_transcript_bytes(self, params):
        cfg = make_cfg(params)
        first = run_session(cfg, shipped_script("drop-final"))
        second = run_session(cfg, shipped_script("drop-final"))
        assert first.transcript.to_text() == second.transcript.to_text()

    def test_different_seed_different_transcript(self, params):
        cfg1 = make_cfg(params)
        cfg2 = dataclasses.replace(cfg1, seed=rng(b"other").random_bytes(32))
        assert run_session(cfg1).transcript.to_text() != run_session(cfg2).transcript.to_text()


class TestAudit:
    def test_flags_match_live_for_every_protocol(self, params):
        for protocol in Protocol:
            cfg = make_cfg(params, protocol=protocol)
            result = run_session(cfg)
            report = audit(result.transcript, params, protocol, cfg.payload)
            assert report == live_flags(result)
            assert report.fair and not report.sttp_involved

    def test_audit_from_saved_file(self, params, tmp_path):
        cfg = make_cfg(params)
        result = run_session(cfg, shipped_script("drop-final"))
        path = tmp_path / "t.txt"
        result.transcript.save(path)
        report = audit(Transcript.load(path), params, Protocol.COMMON_MESSAGE, cfg.payload)
        assert report == live_flags(result)

    def test_public_keys_only_fallback(self, params):
        cfg = make_cfg(params)
        result = run_session(cfg, shipped_script("drop-countersig"))
        report = audit(result.transcript, params.public(), Protocol.COMMON_MESSAGE, cfg.payload)
        assert report.a_acquired_valid and report.fair

    def test_sttp_receives_only_recovery_fields(self, params):
        cfg = make_cfg(params)
        result = run_session(cfg, shipped_script("drop-final"))
        to_sttp = [r for r in result.transcript.records if r.receiver == "STTP"]
        assert to_sttp
        offers = [r for r in result.transcript.records if r.message.msg_type is MsgType.CEMBS_OFFER]
        v_a = int_from_bytes(offers[0].message.fields[1])
        for rec in to_sttp:
            assert rec.message.msg_type is MsgType.RECOVERY_REQUEST
            assert v_a not in [int_from_bytes(f) for f in rec.message.fields]


class TestAuditLateDelivery:
    """An item delivered after its receiver gave up is still held.

    The party keeps it and reads `late`; the audit counts it too, so both
    judge fairness by what each party holds.
    """

    def run_and_audit(self, params, protocol, script):
        cfg = SessionConfig(
            protocol=protocol, params=params, payload=default_payload(protocol), seed=bytes(32)
        )
        result = run_session(cfg, FaultScript.parse(script))
        report = audit(result.transcript, params, protocol, cfg.payload)
        assert report == live_flags(result)
        return result.states, report

    def test_blind_half_after_b_aborted(self, params):
        states, report = self.run_and_audit(
            params, Protocol.COMMON_MESSAGE, "counter-signature drop\nrecovery-request delay 9\n"
        )
        assert states["A"].verdict == "recovered" and states["B"].verdict == "late"
        assert "arbiter unreachable" in states["B"].violations
        assert report.fair and report.a_acquired_valid and report.b_acquired_valid

    def test_counter_signature_after_a_aborted(self, params):
        # The corrupted recovery request is rejected, so B never recovers:
        # fairness presumes the arbiter channel delivers.
        states, report = self.run_and_audit(
            params,
            Protocol.LINKED_FILES,
            "counter-signature delay 9\nrecovery-request corrupt_field 2 zero\n",
        )
        assert states["A"].verdict == "late" and states["B"].verdict == "aborted"
        assert states["B"].acquired is None
        assert not report.fair and report.a_acquired_valid and not report.b_acquired_valid


def every_directive() -> list[str]:
    """Each directive of the fault-script grammar; delays run to one tick past the timeout."""
    out = []
    for msg_type in MsgType:
        name = msg_type.wire_name
        out.append(f"{name} drop")
        out += [f"{name} corrupt_field {i} {m}" for i in range(ARITY[msg_type]) for m in CORRUPT_MODES]
        out += [f"{name} delay {t}" for t in range(1, SessionConfig.timeout + 2)]
        out += [f"{name} {a} {role}" for a in ("silence_party", "force_timeout") for role in ROLES]
    return out


class TestPossessionSweep:
    def test_audit_agrees_with_the_parties_on_two_directive_scripts(self, params):
        directives = every_directive()
        assert len(directives) == 148
        gen = random.Random(1998)
        cfgs = [make_cfg(params, protocol=protocol) for protocol in Protocol]
        for i in range(1500):
            cfg = cfgs[i % 3]
            script = "\n".join(gen.choice(directives) for _ in range(2))
            result = run_session(cfg, FaultScript.parse(script))
            live = live_flags(result)
            assert not result.stalled, script
            assert audit(result.transcript, params, cfg.protocol, cfg.payload) == live, script
            for role, holds in (("A", live.a_acquired_valid), ("B", live.b_acquired_valid)):
                assert holds == (result.states[role].verdict in ("success", "recovered", "late")), script


class TestStall:
    def test_unreachable_arbiter_ends_aborted_not_stalled(self, params):
        cfg = make_cfg(params)
        script = FaultScript.parse("final-signature drop\nrecovery-request drop")
        result = run_session(cfg, script)
        assert not result.stalled
        assert result.states["B"].verdict == "aborted"
        assert any("arbiter unreachable" in n for n in result.transcript.notes)

    def test_tiny_budget_reports_stall(self, params):
        cfg = make_cfg(params, tick_budget=2)
        result = run_session(cfg)
        assert result.stalled
