import inspect

import pytest

from fairex.elgamal import blind_half, elg_decrypt, elg_encrypt, unblind
from fairex.errors import EmbeddingError, ParameterError
from fairex.keys import ElgKeyPair

# P = 23, G = 5, SK = 6, PK = 5^6 mod 23 = 8
KEY = ElgKeyPair(P=23, G=5, PK=8, SK=6)


class TestEncrypt:
    def test_vector(self):
        assert elg_encrypt(10, KEY, w=3) == (10, 14)  # 5^3 = 125 = 10 mod 23; 10*8^3 = 10*6 = 14 mod 23

    def test_unit_nonce_collapses_to_key_material(self):
        assert elg_encrypt(1, KEY, w=1) == (KEY.G, KEY.PK)

    def test_plaintext_out_of_range(self):
        for bad in (0, 23, 24):
            with pytest.raises(EmbeddingError):
                elg_encrypt(bad, KEY, w=3)

    def test_nonce_out_of_range(self):
        for bad in (0, 22, 23):
            with pytest.raises(ParameterError):
                elg_encrypt(10, KEY, w=bad)


class TestDecrypt:
    def test_vector(self):
        assert elg_decrypt(10, 14, KEY) == 10

    def test_inverse_of_unit_nonce(self):
        assert elg_decrypt(KEY.G, KEY.PK, KEY) == 1

    def test_needs_private_exponent(self):
        with pytest.raises(ParameterError):
            elg_decrypt(10, 14, KEY.public())


class TestBlindSplit:
    def test_vector(self):
        assert blind_half(10, KEY) == 6  # 10^6 mod 23

    def test_identity_element(self):
        assert blind_half(1, KEY) == 1

    def test_output_range(self):
        for w in range(1, 23):
            assert 0 < blind_half(w, KEY) < KEY.P

    def test_unblind_vector(self):
        assert unblind(14, 6, 23) == 10

    def test_unblind_of_equal_parts_is_one(self):
        assert unblind(14, 14, 23) == 1

    def test_takes_only_w_by_interface(self):
        # The decryptor's half can only depend on W: V is not an input.
        assert list(inspect.signature(blind_half).parameters) == ["W", "key"]


class TestRoundTripExhaustive:
    def test_all_462_toy_pairs(self):
        cases = 0
        for m in range(1, 23):
            for w in range(1, 22):
                W, V = elg_encrypt(m, KEY, w)
                assert elg_decrypt(W, V, KEY) == m
                assert unblind(V, blind_half(W, KEY), KEY.P) == m
                cases += 1
        assert cases == 462
