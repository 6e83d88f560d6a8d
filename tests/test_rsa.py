import hashlib

import pytest

from fairex.arith import Rng
from fairex.errors import DomainError, ParameterError
from fairex.keys import PROFILES, RsaKeyPair, init_client_b
from fairex.rsa import message_rep, rep_from_hash, rsa_sign, rsa_verify

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
    def test_toy_key_matches_plain_exponentiation(self):
        for m in range(55):
            assert rsa_sign(m, TOY) == pow(m, TOY.d, TOY.n)

    def test_generated_toy_keys_match_plain_exponentiation(self):
        for i in range(20):
            key = init_client_b(PROFILES["toy"], Rng.from_material(b"test_rsa toy %d" % i))
            for rep in (0, 1, key.p, key.q, key.n - 1, *range(2, key.n, 97)):
                assert rsa_sign(rep, key) == pow(rep, key.d, key.n)

    def test_paper_key_matches_plain_exponentiation(self, paper_key_set):
        key = paper_key_set.b_rsa
        draws = Rng.from_material(b"test_rsa paper reps")
        for rep in (0, 1, key.p, key.q, key.n - 1, *(draws.below(key.n) for _ in range(20))):
            assert rsa_sign(rep, key) == pow(rep, key.d, key.n)

    def test_key_without_factors_signs_mod_n(self):
        key = RsaKeyPair(n=TOY.n, e=TOY.e, d=TOY.d)
        for m in range(55):
            assert rsa_sign(m, key) == pow(m, TOY.d, TOY.n)


class TestVerify:
    def test_vectors(self):
        assert rsa_verify(18, 2, TOY.pub)
        assert not rsa_verify(17, 2, TOY.pub)  # 17^3 mod 55 = 18 != 2

    def test_round_trip_all_residues(self):
        for m in range(55):
            assert rsa_verify(rsa_sign(m, TOY), m, TOY.pub)

    def test_exactly_one_valid_signature_per_message(self):
        # Brute force over every residue: cubing mod 55 is a bijection.
        for m in range(55):
            valid = [s for s in range(55) if pow(s, 3, 55) == m]
            assert valid == [rsa_sign(m, TOY)]

    def test_malformed_inputs_return_false(self):
        assert not rsa_verify(-1, 2, TOY.pub)
        assert not rsa_verify(60, 2, TOY.pub)
        assert not rsa_verify(18, 60, TOY.pub)


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
        assert rep_from_hash(hashlib.sha256(raw).digest(), 997) == expected
