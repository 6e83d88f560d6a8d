"""Powers this process already made are read back, and the bytes stay the same.

`keys._KNOWN` maps (base, exponent, modulus) to the power.  A certify in a
sound group keeps (a, PK, P) -> A, and an encryption under a sound key keeps
(W, SK, P) -> PK^w.  A certificate check whose a' was kept, and a decryption
of a kept W, read the power instead of computing it.  "Lookups off" below
means what a process that never validated does: nothing is kept or read.
"""

import dataclasses
import sys
import threading
from collections import OrderedDict

import pytest

from fairex import cembs, elgamal, keys, rsa
from fairex.arith import Rng
from fairex.cembs import CembsContext, blind_commit, cembs_verify, encrypt_and_certify, sample_nonces
from fairex.elgamal import blind_half, elg_decrypt, elg_encrypt
from fairex.harness import FaultScript, audit, default_payload, run_session, shipped_script
from fairex.keys import generate_system_params, validate_params
from fairex.protocol import Protocol, SessionConfig
from fairex.wire import ROLES
from test_harness import every_directive


@pytest.fixture(scope="module")
def toy():
    return generate_system_params("toy", Rng.from_material(b"test_known_powers"))


@pytest.fixture
def params(toy):
    """The toy set, validated just now: later validations of other sets may have evicted its keys."""
    assert validate_params(toy) == []
    return toy


@pytest.fixture
def empty_stores(monkeypatch):
    """No power made before the test counts as made, and no signature either."""
    monkeypatch.setattr(keys, "_KNOWN", OrderedDict())
    rsa._signature.cache_clear()


def lookups_off(monkeypatch):
    """Keep and read nothing: no key is sound to `remember`, and nothing kept before is left."""
    monkeypatch.setattr(keys, "sound", lambda key: False)
    monkeypatch.setattr(keys, "_KNOWN", OrderedDict())


def kept(key) -> list:
    """The exponent and modulus of each kept power, newest last: "PK" (a certify's A) or "SK" (a mask) under `key`."""
    names = {(key.PK, key.P): "PK", (key.SK, key.P): "SK"}
    return [names.get((e, m), (e, m)) for _, e, m in keys._KNOWN]


@pytest.fixture
def powers(monkeypatch):
    """(exponent, modulus) of each `mod_exp` that `rsa`, `cembs` and `keys` make."""
    seen = []
    for module in (rsa, cembs, keys):
        def counted(b, e, m, real=module.mod_exp):
            seen.append((e, m))
            return real(b, e, m)

        monkeypatch.setattr(module, "mod_exp", counted)
    return seen


def certify(params, value: int, tag: bytes):
    ctx = CembsContext.a_side(params)
    W, V, c, r = encrypt_and_certify(value, ctx, *sample_nonces(ctx.group.P, Rng.from_material(tag)))
    return ctx, W, V, blind_commit(V, ctx), c, r


def outcome(cfg: SessionConfig, script: str) -> tuple:
    """Everything a session shows: transcript, party states, stall flag, private and public audits."""
    params, protocol, payload = cfg.params, cfg.protocol, cfg.payload
    result = run_session(cfg, FaultScript.parse(script))
    states = [(s.phase, s.verdict, s.acquired, s.violations) for s in map(result.states.get, ROLES)]
    return (
        result.transcript.to_text(), states, result.stalled,
        audit(result.transcript, params, protocol, payload),
        audit(result.transcript, params.public(), protocol, payload),
    )


def test_single_directive_scripts_match_with_lookups_off(params, empty_stores, monkeypatch):
    cfgs = [SessionConfig(p, params, default_payload(p), seed=bytes(32)) for p in Protocol]
    scripts = every_directive()
    assert len(scripts) == 148
    on = [outcome(cfg, script) for cfg in cfgs for script in scripts]
    assert {"PK", "SK"} <= {*kept(params.sttp_elg), *kept(params.a_elg)}  # the lookups ran
    lookups_off(monkeypatch)
    off = [outcome(cfg, script) for cfg in cfgs for script in scripts]
    assert not keys._KNOWN
    assert on == off


@pytest.mark.parametrize("script, per_protocol_on, per_protocol_off", [
    # A's and B's signs (two half-size powers each), B's W^c; off, B's a'^PK too.
    ("none", [5, 5, 3], [6, 6, 4]),
    # Also the STTP's two W^c; off, its two a'^PK, W_A^SK_T and A's W_B^SK_A too.
    ("drop-final", [7, 7, 5], [12, 12, 10]),
])
def test_modexps_per_session(params, empty_stores, powers, monkeypatch, script, per_protocol_on,
                             per_protocol_off):
    def count() -> list[int]:
        counts = []
        for protocol in Protocol:
            rsa._signature.cache_clear()  # a sign the process made before would count as none
            powers.clear()
            cfg = SessionConfig(protocol, params, default_payload(protocol), seed=bytes(32))
            run_session(cfg, shipped_script(script))
            counts.append(len(powers))
        return counts

    assert count() == per_protocol_on
    lookups_off(monkeypatch)
    assert count() == per_protocol_off


@pytest.mark.parametrize("script, per_protocol", [
    # A's G_T^w, PK_T^w, g^V_A, G_T^u and A = G_T^(u*PK_T); B's G_T^r and its own C_A = g^V_A.
    ("none", [7, 7, 7]),
    # Also the STTP's G_T^r, B's recovery under A's key (the same five, in G_A), the STTP's G_A^r
    # and its own C_B = g^V_B.
    ("drop-final", [15, 15, 15]),
])
def test_fixed_base_powers_per_session(params, empty_stores, monkeypatch, script, per_protocol):
    seen = []

    def counted(b, e, m, real=cembs.fixed_base_exp):
        seen.append(b)
        return real(b, e, m)

    def count() -> list[int]:
        counts = []
        for protocol in Protocol:
            seen.clear()
            run_session(SessionConfig(protocol, params, default_payload(protocol), seed=bytes(32)),
                        shipped_script(script))
            counts.append(len(seen))
        return counts

    for module in (cembs, elgamal):
        monkeypatch.setattr(module, "fixed_base_exp", counted)
    assert count() == per_protocol
    lookups_off(monkeypatch)
    assert count() == per_protocol


class TestCertificateLookup:
    def test_kept_power_is_read_and_tampering_misses(self, params, empty_stores, powers):
        ctx, W, V, C, c, r = certify(params, 1234, b"tamper")
        P, PK = ctx.group.P, ctx.group.PK
        assert kept(ctx.group) == ["SK", "PK"] and powers == []
        assert cembs_verify(W, C, c, r, ctx) and powers == [(c, P)]  # only W^c
        tampered_c, tampered_r, tampered_w = (c + 1) % 2**256, (r + 1) % (P - 1), W % (P - 1) + 1
        for tampered in [(W, C, tampered_c, r), (W, C, c, tampered_r), (tampered_w, C, c, r)]:
            powers.clear()
            assert not cembs_verify(*tampered, ctx)
            assert powers[-1] == (PK, P)  # a' was not kept: a'^PK is computed

    def test_composite_modulus_keeps_and_reads_nothing(self, toy, empty_stores, powers):
        bad = toy.sttp_elg
        P = toy.a_rsa.n * toy.b_rsa.n  # above n_A, so only primality fails
        bad = dataclasses.replace(bad, P=P, PK=pow(bad.G, bad.SK, P))
        sp = dataclasses.replace(toy, sttp_elg=bad)
        assert validate_params(sp) == ["STTP: modulus not prime"] and not keys.sound(bad)
        ctx, W, V, C, c, r = certify(sp, 1234, b"composite")
        assert not keys._KNOWN
        cembs_verify(W, C, c, r, ctx)
        assert powers[-1] == (bad.PK, P)
        powers.clear()
        assert blind_half(W, bad) == pow(W, bad.SK, P) and powers == [(bad.SK, P)]

    def test_inconsistent_key_keeps_and_reads_nothing(self, toy, empty_stores, powers):
        bad = dataclasses.replace(toy.sttp_elg, PK=toy.sttp_elg.PK % (toy.sttp_elg.P - 1) + 1)
        sp = dataclasses.replace(toy, sttp_elg=bad)
        assert validate_params(sp) == ["STTP: key consistency (PK != G^SK mod P)"] and not keys.sound(bad)
        ctx, W, V, C, c, r = certify(sp, 1234, b"inconsistent")
        assert not keys._KNOWN
        assert cembs_verify(W, C, c, r, ctx) and powers[-1] == (bad.PK, bad.P)
        powers.clear()
        assert blind_half(W, bad) == pow(W, bad.SK, bad.P) and powers == [(bad.SK, bad.P)]

    def test_public_key_audit_reads_the_same_verdict(self, params, empty_stores, powers, monkeypatch):
        # A holds only the forward, so an audit without A's ElGamal key runs `_forward_certified`.
        protocol = Protocol.COMMON_MESSAGE
        cfg = SessionConfig(protocol, params, default_payload(protocol), seed=bytes(32))
        result = run_session(cfg, shipped_script("drop-countersig"))
        args = (result.transcript, params.public(), cfg.protocol, cfg.payload)
        powers.clear()
        on, on_powers = audit(*args), list(powers)
        assert on.a_acquired_valid and on == audit(result.transcript, params, cfg.protocol, cfg.payload)
        lookups_off(monkeypatch)
        powers.clear()
        assert audit(*args) == on
        assert sorted(powers) == sorted(on_powers + [(params.a_elg.PK, params.a_elg.P)])  # a'^PK, once


class TestDecryptionLookup:
    def test_mask_is_kept_under_a_sound_key_and_read_under_any(self, params, empty_stores, powers):
        key = params.sttp_elg
        W, V = elg_encrypt(77, key, 5)
        assert list(keys._KNOWN) == [(W, key.SK, key.P)]
        assert blind_half(W, key) == pow(W, key.SK, key.P) and elg_decrypt(W, V, key) == 77
        assert powers == []
        unvalidated = dataclasses.replace(key, P_cert=())  # the same numbers, a key no validation saw
        assert not keys.sound(unvalidated)
        assert elg_decrypt(W, V, unvalidated) == 77 and powers == []  # W^SK mod P is read all the same
        W2, V2 = elg_encrypt(78, unvalidated, 6)
        assert list(keys._KNOWN) == [(W, key.SK, key.P)]  # made under it, nothing is kept
        assert elg_decrypt(W2, V2, key) == 78 and powers == [(key.SK, key.P)]

    def test_bound_drops_the_oldest(self, params, empty_stores, powers):
        # A certify keeps two powers, its mask and its A.
        made = [certify(params, 1000 + i, b"bound %d" % i) for i in range(keys.KNOWN_POWERS // 2 + 1)]
        assert len(keys._KNOWN) == keys.KNOWN_POWERS
        (ctx, W0, V0, C0, c0, r0), (_, W1, V1, C1, c1, r1) = made[0], made[1]
        key = ctx.group
        assert (W0, key.SK, key.P) not in keys._KNOWN
        assert (W1, key.SK, key.P) in keys._KNOWN
        assert cembs_verify(W1, C1, c1, r1, ctx) and elg_decrypt(W1, V1, key) == 1001
        assert powers == [(c1, key.P)]
        assert cembs_verify(W0, C0, c0, r0, ctx) and elg_decrypt(W0, V0, key) == 1000
        assert powers[1:] == [(c0, key.P), (key.PK, key.P), (key.SK, key.P)]


def test_threads_keep_and_read_only_right_powers(params, empty_stores):
    # More threads than CPUs, switching often: a lost or torn update must not give a wrong verdict.
    ctx, key, errors = CembsContext.a_side(params), params.sttp_elg, []

    def work(worker: int) -> None:
        try:
            for i in range(120):
                value = 1000 + i
                _, W, V, C, c, r = certify(params, value, b"thread %d %d" % (worker, i))
                assert cembs_verify(W, C, c, r, ctx) and not cembs_verify(W, C, c, (r + 1) % (key.P - 1), ctx)
                assert elg_decrypt(W, V, key) == value
        except Exception as exc:  # reported below, with the worker that raised
            errors.append((worker, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    assert len(keys._KNOWN) == keys.KNOWN_POWERS
