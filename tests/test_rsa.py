import hashlib
from dataclasses import replace
from math import gcd

import pytest
from hypothesis import assume, given, strategies as st

import fairex.rsa
from fairex import keys
from fairex.arith import Rng
from fairex.errors import DomainError, ParameterError
from fairex.keys import PROFILES, RsaKeyPair, _gen_rsa, generate_system_params, validate_params
from fairex.rsa import message_rep, rsa_sign, rsa_verify

# n = 55 = 5*11, phi = 40, e = 3, d = 27 (3*27 = 81 = 2*40 + 1)
TOY = RsaKeyPair(n=55, e=3, d=27, p=5, q=11)


class TestSign:
    def test_vector(self):
        assert rsa_sign(2, TOY) == 18
        assert pow(18, 3, 55) == 2

    def test_fixed_points(self):
        assert rsa_sign(1, TOY) == 1
        assert rsa_sign(0, TOY) == 0

    def test_rep_too_large(self):
        with pytest.raises(DomainError):
            rsa_sign(55, TOY)

    def test_needs_private_exponent(self):
        with pytest.raises(ParameterError):
            rsa_sign(2, TOY.public())

    def test_deterministic(self):
        assert rsa_sign(42, TOY) == rsa_sign(42, TOY)


class TestCrtSign:
    """A key that validation found sound signs by the CRT, with the same s as rep^d mod n."""

    @pytest.fixture
    def sound(self):
        toy_set = generate_system_params("toy", Rng.from_material(b"test_rsa crt sign"))

        def sound(key: RsaKeyPair) -> RsaKeyPair:
            """`key`, found sound as B's key, with no signature kept from before."""
            assert validate_params(replace(toy_set, b_rsa=key)) == [] and keys.sound_rsa(key)
            fairex.rsa._signature.cache_clear()
            return key

        return sound

    def test_toy_key_matches_plain_exponentiation(self, sound):
        sound(TOY)
        for m in range(55):
            assert rsa_sign(m, TOY) == pow(m, TOY.d, TOY.n)

    def test_generated_toy_keys_match_plain_exponentiation(self, sound):
        for i in range(20):
            key = sound(_gen_rsa(PROFILES["toy"], Rng.from_material(b"test_rsa toy %d" % i)))
            for rep in (0, 1, key.p, key.q, key.n - 1, *range(2, key.n, 97)):
                assert rsa_sign(rep, key) == pow(rep, key.d, key.n)

    def test_paper_key_matches_plain_exponentiation(self, paper_key_set):
        key = paper_key_set.b_rsa
        assert validate_params(paper_key_set) == [] and keys.sound_rsa(key)
        fairex.rsa._signature.cache_clear()
        draws = Rng.from_material(b"test_rsa paper reps")
        for rep in (0, 1, key.p, key.q, key.n - 1, *(draws.below(key.n) for _ in range(20))):
            assert rsa_sign(rep, key) == pow(rep, key.d, key.n)

    def test_key_without_factors_signs_mod_n(self):
        key = RsaKeyPair(n=TOY.n, e=TOY.e, d=TOY.d)
        for m in range(55):
            assert rsa_sign(m, key) == pow(m, TOY.d, TOY.n)


class TestVerify:
    def test_vectors(self):
        for key in (TOY, TOY.public()):
            assert rsa_verify(18, 2, key)
            assert not rsa_verify(17, 2, key)  # 17^3 mod 55 = 18 != 2

    def test_round_trip_all_residues(self):
        for m in range(55):
            assert rsa_verify(rsa_sign(m, TOY), m, TOY)

    def test_exactly_one_valid_signature_per_message(self):
        # Brute force over every residue: cubing mod 55 is a bijection.
        for m in range(55):
            valid = [s for s in range(55) if pow(s, 3, 55) == m]
            assert valid == [rsa_sign(m, TOY)]

    def test_malformed_inputs_return_false(self):
        for key in (TOY, TOY.public()):
            assert not rsa_verify(-1, 2, key)
            assert not rsa_verify(60, 2, key)
            assert not rsa_verify(18, 60, key)

    @pytest.mark.parametrize(
        "key", [RsaKeyPair(n=55, e=-1), RsaKeyPair(n=55, e=-1, p=5, q=11)], ids=["public", "factors"]
    )
    def test_negative_exponent_verifies_as_false(self, key):
        assert rsa_verify(2, 28, key) is False  # though pow(2, -1, 55) == 28
        assert not any(answers(key))


def answers(key: RsaKeyPair) -> list[bool]:
    return [rsa_verify(s, rep, key) for s in range(key.n) for rep in range(key.n)]


class TestCrtVerify:
    """A key with its factors that no validation found sound checks mod n, as its public key does."""

    def test_every_pair_matches_the_public_key(self):
        assert answers(TOY) == answers(TOY.public())
        assert answers(TOY).count(True) == 55

    @given(st.integers(2, 60), st.integers(2, 60), st.integers(0, 300), st.data())
    def test_coprime_factors_need_not_be_prime(self, p, q, e, data):
        assume(gcd(p, q) == 1)
        n = p * q
        s, rep = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        assert rsa_verify(s, rep, RsaKeyPair(n=n, e=e, p=p, q=q)) == (pow(s, e, n) == rep)

    @pytest.mark.parametrize(
        "key",
        [
            RsaKeyPair(n=55, e=3, p=5, q=7),
            RsaKeyPair(n=49, e=5, p=7, q=7),
            RsaKeyPair(n=55, e=3, p=1, q=55),
            RsaKeyPair(n=55, e=3, p=5),
            RsaKeyPair(n=55, e=3, q=11),
        ],
        ids=["product-not-n", "equal-factors", "unit-factor", "no-q", "no-p"],
    )
    def test_hostile_factors_check_mod_n(self, key):
        assert answers(key) == answers(key.public())

    def test_paper_key_matches_the_public_key(self, paper_key_set):
        key = paper_key_set.a_rsa
        rep = message_rep(b"paper check", key.n)
        s = rsa_sign(rep, key)
        assert [rsa_verify(s, rep, key), rsa_verify(s + 1, rep, key)] == [True, False]
        assert [rsa_verify(s, rep, key.public()), rsa_verify(s + 1, rep, key.public())] == [True, False]


class TestReducedVerify:
    """Once validation finds a key sound, its holder's check is reduced to a comparison.

    e*d == 1 mod p - 1 and q - 1 makes x^e and x^d inverse maps mod n, so
    s^e == rep exactly when s == rsa_sign(rep), and signatures are kept
    per process: a check of one this process made costs no modexp.  Any
    other key signs and checks mod n.
    """

    @pytest.fixture
    def toy_set(self):
        return generate_system_params("toy", Rng.from_material(b"test_rsa reduced"))

    @pytest.fixture
    def proofs(self, monkeypatch):
        # An empty store: only what this test validates counts as sound.
        monkeypatch.setattr(keys, "_SOUND", {})

    @pytest.fixture
    def signatures(self):
        # No signature made before this test counts as made.
        fairex.rsa._signature.cache_clear()

    @pytest.fixture
    def exponents(self, monkeypatch):
        seen = []
        real = fairex.rsa.mod_exp
        monkeypatch.setattr(fairex.rsa, "mod_exp", lambda b, e, m: seen.append((e, m)) or real(b, e, m))
        return seen

    def test_validated_key_compares_with_its_own_signature(self, toy_set, proofs, signatures, exponents):
        key = toy_set.a_rsa
        rep = message_rep(b"reduced", key.n)
        s = pow(rep, key.d, key.n)
        assert rsa_verify(s, rep, key)
        assert exponents == [(key.e, key.n)]
        exponents.clear()
        assert validate_params(toy_set) == []
        assert [rsa_verify(s, rep, key), rsa_verify(s - 1, rep, key)] == [True, False]
        assert exponents == [(key.d % (key.p - 1), key.p), (key.d % (key.q - 1), key.q)]  # one sign
        exponents.clear()
        other = message_rep(b"signed first", key.n)
        signature = rsa_sign(other, key)
        exponents.clear()
        assert [rsa_verify(signature, other, key), rsa_verify(s, other, key)] == [True, False]
        assert exponents == []

    def test_every_signature_matches_mod_n(self, toy_set, proofs):
        key = toy_set.b_rsa
        assert validate_params(toy_set) == []
        assert keys.sound_rsa(key)
        for s in range(key.n):  # s = p and s = q among them, where one half is 0 == 0
            rep = pow(s, key.e, key.n)
            assert [rsa_verify(s, rep, key), rsa_verify(s, rep + 1, key)] == [True, False]

    def test_zero_exponent_keeps_the_full_e(self, toy_set, proofs):
        key = replace(toy_set.a_rsa, e=0)
        assert validate_params(toy_set) == [] and not keys.sound_rsa(key)
        assert rsa_verify(key.p, 1, key)  # p^0 == 1, where p^(p - 1) == 0 mod p

    @pytest.mark.parametrize("p, q", [(15, 7), (7, 15)])
    def test_composite_factor_keeps_the_full_e(self, toy_set, proofs, exponents, p, q):
        hostile = RsaKeyPair(n=105, e=23, p=p, q=q)
        assert "client B: rsa factor not prime" in validate_params(replace(toy_set, b_rsa=hostile))
        assert rsa_verify(2, pow(2, 23, 105), hostile)
        assert exponents == [(23, 105)]
        assert answers(hostile) == answers(hostile.public())

    def test_composite_factors_sign_mod_n(self, toy_set, proofs, signatures):
        hostile = RsaKeyPair(n=105, e=23, d=47, p=15, q=7)
        assert rsa_sign(2, hostile) == pow(2, 47, 105) == 53  # a CRT with p = 15 gives 32
        assert "client B: rsa factor not prime" in validate_params(replace(toy_set, b_rsa=hostile))
        fairex.rsa._signature.cache_clear()
        assert not keys.sound_rsa(hostile) and rsa_sign(2, hostile) == 53

    def test_factor_two_signs_and_checks_mod_n(self, toy_set, proofs, signatures):
        key = RsaKeyPair(n=22, e=3, d=7, p=2, q=11)
        assert validate_params(replace(toy_set, b_rsa=key)) == [] and keys.sound_rsa(key)
        assert [rsa_sign(m, key) for m in range(22)] == [pow(m, 7, 22) for m in range(22)]  # d % (2 - 1) == 0
        assert answers(key) == answers(key.public())

    def test_exponent_that_does_not_invert_e_keeps_the_full_e(self, toy_set, proofs, signatures, exponents):
        wrong = replace(TOY, d=TOY.d + 1)
        assert "client B: rsa exponents not inverse" in validate_params(replace(toy_set, b_rsa=wrong))
        assert not keys.sound_rsa(wrong)
        assert rsa_verify(18, 2, wrong) and rsa_sign(2, wrong) != 18  # a comparison would say False
        assert exponents[:2] == [(3, 55), (wrong.d, 55)]
        assert answers(wrong) == answers(wrong.public())

    def test_paper_key_answers_before_and_after_validation(
        self, certified_paper_key_set, proofs, signatures, exponents
    ):
        key = certified_paper_key_set.a_rsa
        rep = message_rep(b"paper check", key.n)
        s = pow(rep, key.d, key.n)
        before = [rsa_verify(s, rep, key), rsa_verify(s + 1, rep, key)]
        assert exponents[:2] == [(key.e, key.n)] * 2
        assert validate_params(certified_paper_key_set) == []
        assert keys.sound_rsa(key) and not keys.sound_rsa(replace(key, p_cert=None))
        exponents.clear()
        assert [rsa_verify(s, rep, key), rsa_verify(s + 1, rep, key)] == before == [True, False]
        assert exponents == [(key.d % (key.p - 1), key.p), (key.d % (key.q - 1), key.q)]  # one sign
        exponents.clear()
        assert rsa_verify(s, rep, key) and exponents == []


class TestMessageRep:
    def test_hashed_below_modulus_and_deterministic(self):
        for raw in (b"", b"a", b"hello world", bytes(1000)):
            m1 = message_rep(raw, 55)
            m2 = message_rep(raw, 55)
            assert 0 <= m1 < 55
            assert m1 == m2

    def test_hashed_matches_digest_reduction(self):
        raw = b"check"
        expected = int.from_bytes(hashlib.sha256(raw).digest(), "big") % 997
        assert message_rep(raw, 997) == expected
