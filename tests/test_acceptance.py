"""Acceptance suite: one test per shipped guarantee, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
pass; every test also enforces its runtime budget.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from fairex.arith import Rng, int_from_bytes, int_to_bytes
from fairex.cembs import (
    CembsCertificate,
    CembsContext,
    blind_commit,
    cembs_verify,
    correctness_identity_check,
    encrypt_and_certify,
    sample_nonces,
)
from fairex.cli import cli_main
from fairex.elgamal import blind_half, elg_decrypt, elg_encrypt, unblind
from fairex.harness import audit, default_payload, live_flags, run_session, shipped_script
from fairex.keys import ElgKeyPair, RsaKeyPair, generate_system_params
from fairex.protocol import Protocol, SessionConfig, link_messages
from fairex.rsa import message_rep, rsa_sign, rsa_verify
from fairex.vectors import generate_vectors_text
from fairex.wire import MsgType

GOLDEN = Path(__file__).parent / "golden" / "cembs_vectors.txt"

# Spec'd misbehavior/channel-fault matrix for the common-message protocol.
MATRIX = (
    "none",
    "b-bad-countersig",
    "b-early-dispute",
    "a-silent-step3",
    "a-garbage-s",
    "drop-final",
    "drop-countersig",
)


@contextmanager
def criterion(number: int, limit_s: float, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    line = f"criterion {number:2d} PASS ({elapsed:6.2f}s < {limit_s:.0f}s): {description}"
    print(line)
    assert elapsed < limit_s, line


def rng(tag: bytes) -> Rng:
    return Rng.from_material(b"acceptance" + tag)


@pytest.fixture(scope="module")
def toy_params():
    return generate_system_params("toy", rng(b"toy-params"))


def toy_cfg(params, protocol=Protocol.COMMON_MESSAGE, payload=None, seed=b"fixed"):
    return SessionConfig(
        protocol=protocol,
        params=params,
        payload=payload if payload is not None else default_payload(protocol),
        seed=rng(seed).random_bytes(32),
    )


def test_01_rsa_round_trip_exhaustive():
    with criterion(1, 1.0, "RSA round-trip, exhaustive over n=55 with brute-force oracle"):
        key = RsaKeyPair(n=55, e=3, d=27, p=5, q=11)
        for m in range(55):
            signature = rsa_sign(m, key)
            assert rsa_verify(signature, m, key.pub)
            valid = [s for s in range(55) if pow(s, key.e, key.n) == m]
            assert valid == [signature]


def test_02_elgamal_round_trip_and_blind_equivalence():
    with criterion(2, 1.0, "ElGamal round-trip + blind-split equivalence, all 462 toy pairs"):
        key = ElgKeyPair(P=23, G=5, PK=8, SK=6)
        cases = 0
        for m in range(1, 23):
            for w in range(1, 22):
                ct = elg_encrypt(m, key.pub, w)
                direct = elg_decrypt(ct, key)
                split = unblind(ct.V, blind_half(ct.W, key), key.P)
                assert direct == split == m
                cases += 1
        assert cases == 462


def test_03_certificate_completeness():
    with criterion(3, 10.0, "certificate completeness: 1000 random toy cases + exhaustive identities"):
        source = rng(b"completeness")
        for i in range(1000):
            params = generate_system_params("toy", source.child(b"keys%d" % i))
            ctx = CembsContext.a_side(params)
            message = message_rep(b"case %d" % i, params.a_rsa.n)
            signature = rsa_sign(message, params.a_rsa)
            nonces = sample_nonces(params.sttp_elg.P, source.child(b"nonce%d" % i))
            ct, cert = encrypt_and_certify(signature, ctx, nonces)
            assert cembs_verify(ct.W, blind_commit(ct.V, params.commit_base), cert, ctx)
        P, G, PK = 23, 5, 8
        for w in range(22):
            W = pow(G, w, P)
            for u in range(22):
                for c in range(22):
                    assert correctness_identity_check(u, c, w, G, W, PK, P)


def test_04_certificate_tamper_sensitivity(toy_params):
    with criterion(4, 10.0, "certificate tamper sensitivity: 1000 single-byte corruptions, 0 accepts"):
        params = toy_params
        ctx = CembsContext.a_side(params)
        source = rng(b"tamper")
        false_accepts = 0
        for i in range(1000):
            message = message_rep(b"tamper %d" % i, params.a_rsa.n)
            signature = rsa_sign(message, params.a_rsa)
            nonces = sample_nonces(params.sttp_elg.P, source.child(b"n%d" % i))
            ct, cert = encrypt_and_certify(signature, ctx, nonces)
            commitment = blind_commit(ct.V, params.commit_base)
            values = [ct.W, commitment, cert.r, cert.c]
            encodings = [bytearray(int_to_bytes(v)) or bytearray(b"\x00") for v in values]
            lengths = [len(e) for e in encodings]
            position = source.below(sum(lengths))
            index = 0
            while position >= lengths[index]:
                position -= lengths[index]
                index += 1
            old = encodings[index][position]
            encodings[index][position] = (old + 1 + source.below(255)) % 256
            w2, c2, r2, ch2 = (int_from_bytes(bytes(e)) for e in encodings)
            if cembs_verify(w2, c2, CembsCertificate(r=r2, c=ch2), ctx):
                false_accepts += 1
        assert false_accepts == 0


def test_05_protocol1_fault_matrix(toy_params):
    with criterion(5, 5.0, "common-message fault matrix: fair, arbiter offline/blind"):
        for name in MATRIX:
            cfg = toy_cfg(toy_params, seed=b"matrix")
            result = run_session(cfg, shipped_script(name))
            report = audit(result.transcript, toy_params, cfg.protocol, cfg.payload)
            assert not result.stalled, name
            assert report.fair, name
            assert report == live_flags(result), name
            records = result.transcript.records
            if name == "none":
                assert not any("STTP" in (r.sender, r.receiver) for r in records), name
            offers = [r for r in records if r.message.msg_type is MsgType.CEMBS_OFFER]
            va = {int_from_bytes(o.message.fields[1]) for o in offers}
            for rec in records:
                if rec.receiver == "STTP":
                    assert all(int_from_bytes(f) not in va for f in rec.message.fields), name


def test_06_linked_files_linkage(toy_params):
    with criterion(6, 1.0, "linked-files: one flipped byte of M_B breaks the signature on m_A"):
        file_a, file_b = b"deliverable alpha", b"deliverable beta"
        cfg = toy_cfg(toy_params, Protocol.LINKED_FILES, (file_a, file_b))
        result = run_session(cfg)
        assert result.states["A"].verdict == result.states["B"].verdict == "success"
        finals = [
            r.message for r in result.transcript.records
            if r.message.msg_type is MsgType.FINAL_SIGNATURE
        ]
        s_a = int_from_bytes(finals[0].fields[0])
        n_a = toy_params.a_rsa.n
        good_rep = message_rep(link_messages(file_a, file_b)[0], n_a)
        assert rsa_verify(s_a, good_rep, toy_params.a_rsa.pub)
        flipped = file_b[:-1] + bytes([file_b[-1] ^ 0x01])
        bad_rep = message_rep(link_messages(file_a, flipped)[0], n_a)
        assert not rsa_verify(s_a, bad_rep, toy_params.a_rsa.pub)


def test_07_data_for_signature(toy_params):
    with criterion(7, 1.0, "data-for-signature: honest exchange, and garbage data aborts A"):
        data = b"ok"
        cfg = toy_cfg(toy_params, Protocol.DATA_FOR_SIGNATURE, data)
        result = run_session(cfg)
        assert result.states["A"].acquired == data
        assert rsa_verify(
            result.states["B"].acquired,
            message_rep(data, toy_params.a_rsa.n),
            toy_params.a_rsa.pub,
        )
        garbage = run_session(cfg, shipped_script("a-garbage-data"))
        assert garbage.states["A"].verdict == "aborted"
        on_wire = {r.message.msg_type for r in garbage.transcript.records}
        assert MsgType.FINAL_SIGNATURE not in on_wire   # s_A never sent in the clear
        assert MsgType.BLIND_HALF_REPLY not in on_wire  # nor recoverable from the arbiter


def test_08_paper_profile_smoke():
    with criterion(8, 60.0, "paper-profile smoke: 512-bit primes, 1024-bit moduli, fair run"):
        params = generate_system_params("paper", rng(b"paper"))
        assert params.a_rsa.p.bit_length() == 512
        assert params.sttp_elg.P.bit_length() == 1024
        assert params.a_elg.P.bit_length() == 1024
        cfg = SessionConfig(
            protocol=Protocol.COMMON_MESSAGE,
            params=params,
            payload=default_payload(Protocol.COMMON_MESSAGE),
            seed=rng(b"paper-run").random_bytes(32),
        )
        result = run_session(cfg)
        report = audit(result.transcript, params, cfg.protocol, cfg.payload)
        assert report.fair and not report.sttp_involved
        assert result.states["A"].verdict == result.states["B"].verdict == "success"


def test_09_determinism(tmp_path):
    with criterion(9, 30.0, "replayability: identical transcripts and stable golden vectors"):
        keys = tmp_path / "keys.txt"
        assert cli_main(["keygen", "--profile", "toy", "--seed", "5eed", "--out", str(keys)]) == 0
        args = [
            "run", "--protocol", "common", "--keys", str(keys), "--seed", "0123",
            "--fault", "drop-final",
        ]
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        assert cli_main(args + ["--transcript", str(first)]) == 0
        assert cli_main(args + ["--transcript", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert generate_vectors_text() == GOLDEN.read_text()


def test_10_certificate_binding_gap(toy_params):
    """The certificate does not bind the plaintext to any signature.

    Verification never touches the signer's modulus or exponent, so a
    ciphertext of an arbitrary non-signature value carries a perfectly
    valid certificate.  Known limitation, kept as shipped; see README,
    Limitations.
    """
    with criterion(10, 1.0, "documented gap: non-signature plaintext still certifies"):
        params = toy_params
        ctx = CembsContext.a_side(params)
        not_a_signature = 31337 % params.sttp_elg.P
        message = message_rep(default_payload(Protocol.COMMON_MESSAGE), params.a_rsa.n)
        assert not rsa_verify(not_a_signature, message, params.a_rsa.pub)
        nonces = sample_nonces(params.sttp_elg.P, rng(b"gap"))
        ct, cert = encrypt_and_certify(not_a_signature, ctx, nonces)
        assert cembs_verify(ct.W, blind_commit(ct.V, params.commit_base), cert, ctx)
