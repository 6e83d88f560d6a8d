import dataclasses
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from fairex import harness
from fairex.arith import Rng, int_from_bytes, int_to_bytes
from fairex.elgamal import blind_half
from fairex.errors import FaultScriptError
from fairex.harness import (
    ACTIONS,
    CORRUPT_MODES,
    SHIPPED_FAULT_SCRIPTS,
    TICK_LIMIT,
    FaultScript,
    Transport,
    audit,
    default_payload,
    live_flags,
    run_session,
    shipped_script,
)
from fairex.keys import generate_system_params
from fairex.protocol import ClientB, Protocol, SessionConfig, Terms, Timeout, data_as_int
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


@pytest.fixture(scope="module")
def zero_seed_toy():
    return generate_system_params("toy", Rng(bytes(32)))


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
            "final-signature corrupt_field 1 zero",
            "recovery-request corrupt_field 8 zero",
            "+1 drop",
            "-1 drop",
            "final-signature delay +3",
            "final-signature delay 1_0",
            pytest.param("final-signature delay " + "9" * 5000, id="delay-past-int-digit-limit"),
        ],
    )
    def test_bad_lines_rejected(self, line):
        with pytest.raises(FaultScriptError, match=r"^line 2: "):
            FaultScript.parse(f"# a comment line counts\n{line}\n")

    @pytest.mark.parametrize("match", ["FINAL_SIGNATURE", "final_signature", "Final-Signature"])
    def test_message_types_have_one_spelling(self, match):
        with pytest.raises(FaultScriptError, match=r"^line 1: unknown match"):
            FaultScript.parse(f"{match} drop\n")

    @staticmethod
    def readme_paragraph() -> str:
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        paragraph = readme[readme.index("Fault scripts are plain text"):]
        return paragraph[: paragraph.index("\n\n")]

    def test_every_action_is_documented(self):
        paragraph = self.readme_paragraph()
        for action in ACTIONS:
            assert f"    {action} " in harness.__doc__, action
            assert f"`{action}" in paragraph, action

    def test_every_message_type_is_documented(self):
        paragraph = self.readme_paragraph()
        for msg_type in MsgType:
            assert msg_type.wire_name in harness.__doc__, msg_type
            assert f"`{msg_type.wire_name}`" in paragraph, msg_type

    def test_shipped_scripts_parse(self):
        for name in SHIPPED_FAULT_SCRIPTS:
            shipped_script(name)

    def test_unknown_shipped_script_is_named(self):
        with pytest.raises(FaultScriptError, match="^unknown shipped script 'nope'$"):
            shipped_script("nope")

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
        delivered = t.deliver(1)
        assert [m.fields[0] for _, _, m in delivered] == [b"\x01", b"\x02"]

    def test_drop_directive(self):
        t = Transport(fault=FaultScript.parse("final-signature drop"))
        t.send(0, "A", "B", final_sig())
        assert t.deliver(1) == []

    def test_directive_fires_exactly_once(self):
        t = Transport(fault=FaultScript.parse("final-signature drop"))
        t.send(0, "A", "B", final_sig(b"\x01"))
        t.send(0, "A", "B", final_sig(b"\x02"))
        delivered = t.deliver(1)
        assert [m.fields[0] for _, _, m in delivered] == [b"\x02"]

    def test_corrupt_field_bitflip(self):
        t = Transport(fault=FaultScript.parse("final-signature corrupt_field 0 bitflip"))
        t.send(0, "A", "B", final_sig(b"\x07"))
        delivered = t.deliver(1)
        assert delivered[0][2].fields[0] == b"\x06"

    def test_corrupt_index_out_of_range(self):
        t = Transport(fault=FaultScript.parse("2 corrupt_field 3 zero"))
        with pytest.raises(FaultScriptError, match="^final-signature has no field 3$"):
            t.send(2, "A", "B", final_sig())

    def test_delay_holds_message_back(self):
        t = Transport(fault=FaultScript.parse("final-signature delay 3"))
        t.send(0, "A", "B", final_sig())
        assert t.deliver(1) == []
        assert t.deliver(3) == []
        delivered = t.deliver(4)
        assert len(delivered) == 1

    def test_silence_swallows_from_match_onward(self):
        t = Transport(fault=FaultScript.parse("final-signature silence_party A"))
        t.send(0, "A", "B", WireMessage(MsgType.COUNTER_SIGNATURE, SID, (b"\x01",)))
        t.send(1, "A", "B", final_sig())
        t.send(2, "A", "B", WireMessage(MsgType.COUNTER_SIGNATURE, SID, (b"\x02",)))
        t.send(2, "B", "A", WireMessage(MsgType.COUNTER_SIGNATURE, SID, (b"\x03",)))
        delivered = t.deliver(10)
        assert [(s, m.fields[0]) for s, _, m in delivered] == [("A", b"\x01"), ("B", b"\x03")]

    def test_force_timeout_surfaces_role(self):
        t = Transport(fault=FaultScript.parse("final-signature force_timeout B"))
        t.send(0, "A", "B", final_sig())
        delivered = t.deliver(1)
        assert [(receiver, type(event)) for _, receiver, event in delivered] == [
            ("B", WireMessage),
            ("B", Timeout),
        ]
        assert [r.message for r in t.transcript.records] == [final_sig()]

    def test_transcript_records_deliveries_only(self):
        t = Transport(fault=FaultScript.parse("final-signature drop"))
        t.send(0, "A", "B", final_sig())
        t.send(0, "B", "A", WireMessage(MsgType.COUNTER_SIGNATURE, SID, (b"\x01",)))
        t.deliver(1)
        assert [r.message.msg_type for r in t.transcript.records] == [MsgType.COUNTER_SIGNATURE]


class TestForcedTimeoutOrder:
    """A role steps a tick's messages first, then the forced `Timeout` that arrives with them."""

    @pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
    def test_offer_then_timeout_replies_then_escalates(self, zero_seed_toy, protocol):
        cfg = SessionConfig(protocol, zero_seed_toy, default_payload(protocol), seed=bytes(32))
        result = run_session(cfg, FaultScript.parse("cembs-offer force_timeout B"))
        reply = MsgType.DATA_PAYLOAD if protocol is Protocol.DATA_FOR_SIGNATURE else MsgType.COUNTER_SIGNATURE
        b_sends = [(r.tick, r.message.msg_type) for r in result.transcript.records if r.sender == "B"]
        assert b_sends == [(2, reply), (2, MsgType.RECOVERY_REQUEST)]
        a, b = result.states["A"], result.states["B"]
        assert (a.verdict, b.verdict) == ("success", "recovered")
        assert b.violations == ["out-of-phase message: FINAL_SIGNATURE in phase wait_sttp"]
        assert audit(result.transcript, zero_seed_toy, protocol, cfg.payload).sttp_involved
        assert not result.stalled

    @pytest.mark.parametrize(
        "script",
        ["final-signature force_timeout B", "final-signature force_timeout B\n" * 2, "2 force_timeout B"],
        ids=["by-type", "twice", "by-tick"],
    )
    @pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
    def test_final_signature_then_timeout_ends_optimistic(self, zero_seed_toy, protocol, script):
        cfg = SessionConfig(protocol, zero_seed_toy, default_payload(protocol), seed=bytes(32))
        result = run_session(cfg, FaultScript.parse(script))
        assert (result.states["A"].verdict, result.states["B"].verdict) == ("success", "success")
        assert not audit(result.transcript, zero_seed_toy, protocol, cfg.payload).sttp_involved
        assert not result.stalled


class TestTickMatch:
    """A tick match fires on whatever is sent at that tick: B replies at 1, A releases at 2."""

    @pytest.mark.parametrize(
        "by_tick, by_type",
        [
            ("2 drop", SHIPPED_FAULT_SCRIPTS["drop-final"]),
            ("1 corrupt_field 0 bitflip", "{reply} corrupt_field 0 bitflip"),
        ],
        ids=["drop-final", "corrupt-reply"],
    )
    @pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
    def test_same_session_as_the_type_match(self, params, protocol, by_tick, by_type):
        reply = "data-payload" if protocol is Protocol.DATA_FOR_SIGNATURE else "counter-signature"
        cfg = make_cfg(params, protocol=protocol)
        ticked = run_session(cfg, FaultScript.parse(by_tick))
        typed = run_session(cfg, FaultScript.parse(by_type.format(reply=reply)))
        assert ticked.transcript.to_text() == typed.transcript.to_text()
        assert ticked.states == typed.states
        assert ticked.transcript.to_text() != run_session(cfg).transcript.to_text()


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
        assert rsa_verify(result.states["B"].acquired, cfg.terms.a_rep, params.a_rsa)

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

    @pytest.mark.parametrize("name", ["drop-final", "b-early-dispute", "a-silent-step3"])
    def test_one_script_object_replays(self, params, name):
        cfg, script = make_cfg(params), shipped_script(name)
        first, second = run_session(cfg, script), run_session(cfg, script)
        assert first.transcript.to_text() == second.transcript.to_text()
        assert first.states == second.states

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


def sttp_view(result, params) -> tuple[list[int], int]:
    """What the arbiter knows after a recovery: every value delivered to it, in
    delivery order, and the blind half h = W_A^SK_T it computes from the first."""
    delivered = [
        int_from_bytes(f) for rec in result.transcript.records if rec.receiver == "STTP" for f in rec.message.fields
    ]
    return delivered, blind_half(delivered[0], params.sttp_elg)


def legendre(x: int, P: int) -> int:
    """The Legendre symbol of x mod the prime P, by Euler's criterion."""
    return {1: 1, P - 1: -1}.get(pow(x, (P - 1) // 2, P), 0)


class TestArbiterView:
    """What the STTP can compute from its view (README, Limitations).

    A recovery request hands it W_A and C = g^V_A mod n_A, and it computes
    h = W_A^SK_T.  V_A = s_A * h mod P_T, so it can test any guess s of A's
    signature: g^(s*h mod P_T) = C (mod n_A).  It never sees V_A itself.

    The request also carries B's item x as (W_B, V_B) = (G_A^w, x * PK_A^w)
    mod P_A, and raw ElGamal keeps the Legendre symbol L: L(V_B) = L(x) *
    L(PK_A)^w.  Keygen makes G_A a non-residue, so L(W_B) = (-1)^w gives
    the parity of w and with it L(x).
    """

    @staticmethod
    def recover(params, protocol, seed=bytes(32)):
        """A drop-final session, the view it gives the STTP, A's signature s_A and V_A."""
        cfg = SessionConfig(protocol=protocol, params=params, payload=default_payload(protocol), seed=seed)
        result = run_session(cfg, shipped_script("drop-final"))
        s_a = rsa_sign(Terms(protocol, cfg.payload, params).a_rep, params.a_rsa)
        assert result.states["B"].acquired == s_a
        offer = next(r.message for r in result.transcript.records if r.message.msg_type is MsgType.CEMBS_OFFER)
        return sttp_view(result, params), s_a, int_from_bytes(offer.fields[1])

    @staticmethod
    def passes(s, view, params) -> bool:
        (_, c, *_), h = view
        return pow(params.g, s * h % params.sttp_elg.P, params.a_rsa.n) == c

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_toy_view_narrows_s_a_to_21_candidates(self, zero_seed_toy, protocol):
        view, s_a, _ = self.recover(zero_seed_toy, protocol)
        n = zero_seed_toy.a_rsa.n
        candidates = [s for s in range(1, n) if self.passes(s, view, zero_seed_toy)]
        assert (n - 1, len(candidates)) == (47_896, 21) and s_a in candidates

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_paper_view_confirms_a_guess_of_s_a(self, certified_paper_key_set, protocol):
        view, s_a, _ = self.recover(certified_paper_key_set, protocol)
        assert self.passes(s_a, view, certified_paper_key_set)
        assert not self.passes(s_a + 1, view, certified_paper_key_set)

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_no_delivered_value_is_v_a(self, zero_seed_toy, certified_paper_key_set, protocol):
        for params in (zero_seed_toy, certified_paper_key_set):
            (delivered, h), s_a, v_a = self.recover(params, protocol)
            assert v_a == s_a * h % params.sttp_elg.P and v_a not in delivered

    @staticmethod
    def b_item(params, protocol) -> int:
        """B's item as B encrypts it: s_B, or the data as an int in data-for-sig."""
        payload = default_payload(protocol)
        if protocol is Protocol.DATA_FOR_SIGNATURE:
            return data_as_int(payload)
        return rsa_sign(Terms(protocol, payload, params).b_rep, params.b_rsa)

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_view_gives_the_quadratic_character_of_b_item(self, zero_seed_toy, certified_paper_key_set, protocol):
        characters = set()
        for params, seeds in ((zero_seed_toy, range(12)), (certified_paper_key_set, range(1))):
            P, G, PK = params.a_elg.P, params.a_elg.G, params.a_elg.PK
            assert legendre(G, P) == -1
            x = legendre(self.b_item(params, protocol), P)
            for seed in seeds:
                (delivered, _), _, _ = self.recover(params, protocol, bytes([seed]) * 32)
                W_b, V_b = delivered[4:6]
                assert legendre(V_b, P) * (legendre(PK, P) if legendre(W_b, P) == -1 else 1) == x
                characters.add((legendre(W_b, P), legendre(V_b, P)))
        assert len(characters) > 1


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


def small_scope_outcome(params, protocol: Protocol, script: str) -> tuple:
    """What a session shows but its bytes: the stall flag, both audits, and each role's phase, verdict,
    whether it holds an item, and its violations."""
    payload = default_payload(protocol)
    result = run_session(SessionConfig(protocol, params, payload, bytes(32)), FaultScript.parse(script))
    roles = [(s.phase, s.verdict, s.acquired is not None, s.violations) for s in map(result.states.get, ROLES)]
    return (
        result.stalled, roles,
        audit(result.transcript, params, protocol, payload),
        audit(result.transcript, params.public(), protocol, payload),
    )


def test_single_directives_end_alike_at_paper_and_toy_size(paper_key_set, zero_seed_toy):
    """Every 8th single directive under each protocol: the paper-size outcome is the toy one."""
    for protocol in Protocol:
        for script in every_directive()[::8]:
            paper = small_scope_outcome(paper_key_set, protocol, script)
            assert paper == small_scope_outcome(zero_seed_toy, protocol, script), (protocol, script)


class TestStall:
    def test_unreachable_arbiter_ends_aborted_not_stalled(self, params):
        cfg = make_cfg(params)
        script = FaultScript.parse("final-signature drop\nrecovery-request drop")
        result = run_session(cfg, script)
        assert not result.stalled
        assert result.states["B"].verdict == "aborted"
        assert "arbiter unreachable" in result.states["B"].violations

    def test_endlessly_rearmed_deadline_reports_stall(self, params, monkeypatch):
        timeouts = []

        def rearm(self, now):
            timeouts.append(now)
            self.deadline = now + 1
            return []

        monkeypatch.setattr(ClientB, "_on_timeout", rearm)
        result = run_session(make_cfg(params), FaultScript.parse("cembs-offer drop"))
        assert result.stalled
        assert result.states["A"].verdict == "aborted"
        assert len(timeouts) == TICK_LIMIT  # every visited tick but A's opening one

    def test_long_timeout_recovers(self, params):
        cfg = make_cfg(params, timeout=300)
        result = run_session(cfg, shipped_script("drop-final"))
        assert not result.stalled
        assert (result.states["A"].verdict, result.states["B"].verdict) == ("success", "recovered")
        assert result.transcript.records[-1].tick > 300

    def test_huge_delay_is_delivered_not_stalled(self, params):
        result = run_session(make_cfg(params), FaultScript.parse("final-signature delay 1000000000"))
        assert not result.stalled
        assert result.transcript.records[-1].tick == 1000000003
        assert result.transcript.records[-1].message.msg_type is MsgType.FINAL_SIGNATURE
        assert result.states["B"].verdict == "recovered"


class TestShortTimeout:
    """A round trip takes 2 ticks, so at timeout 1 every wait ends before its answer (README, `--timeout`)."""

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_timeout_one_sends_a_clean_run_to_the_arbiter(self, params, protocol):
        cfg = make_cfg(params, protocol, timeout=1)
        result = run_session(cfg)
        a, b = result.states["A"], result.states["B"]
        assert (a.verdict, b.verdict) == ("recovered", "late")
        assert "arbiter unreachable" in b.violations
        report = audit(result.transcript, params, protocol, cfg.payload)
        assert report.sttp_involved and report.fair and not result.stalled

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_timeout_two_stays_optimistic(self, params, protocol):
        cfg = make_cfg(params, protocol, timeout=2)
        result = run_session(cfg)
        assert (result.states["A"].verdict, result.states["B"].verdict) == ("success", "success")
        assert not audit(result.transcript, params, protocol, cfg.payload).sttp_involved
