import inspect

import pytest
from hypothesis import given, settings, strategies as st

from fairex.arith import Rng, fixed_base_exp, mod_exp, sample_range
from fairex.cembs import (
    A_SIDE_TAG,
    CembsContext,
    NONCE_U_BITS,
    blind_commit,
    cembs_verify,
    encrypt_and_certify,
    hash_challenge,
    sample_nonces,
)
from fairex.errors import ParameterError
from fairex.keys import generate_system_params
from fairex.rsa import message_rep, rsa_sign


def rng(tag: bytes = b"") -> Rng:
    return Rng.from_material(b"test_cembs" + tag)


@pytest.fixture(scope="module")
def toy_params():
    return generate_system_params("toy", rng(b"params"))


def make_certified(params, raw: bytes, nonce_rng: Rng):
    ctx = CembsContext.a_side(params)
    sig = rsa_sign(message_rep(raw, params.a_rsa.n), params.a_rsa)
    W, V, c, r = encrypt_and_certify(sig, ctx, *sample_nonces(params.sttp_elg.P, nonce_rng))
    return ctx, (W, V), blind_commit(V, ctx), (c, r)


def commit_ctx(g: int, n: int) -> CembsContext:
    """A context for `blind_commit` alone, which reads only g and n."""
    return CembsContext(g=g, n=n, group=None, side_tag=A_SIDE_TAG)


class TestBlindCommit:
    def test_vector(self):
        base = commit_ctx(g=2, n=55)
        assert blind_commit(14, base) == 49  # 2^14 = 16384 = 297*55 + 49

    def test_zero_exponent(self):
        assert blind_commit(0, commit_ctx(g=2, n=55)) == 1

    def test_deterministic(self):
        base = commit_ctx(g=7, n=143)
        assert blind_commit(99, base) == blind_commit(99, base)


class TestHashChallenge:
    def test_deterministic(self):
        assert hash_challenge(0x41, [1, 2, 3]) == hash_challenge(0x41, [1, 2, 3])

    def test_permutation_sensitive(self):
        assert hash_challenge(0x41, [1, 2, 3]) != hash_challenge(0x41, [2, 1, 3])

    def test_length_prefix_keeps_adjacent_elements_apart(self):
        # (0x0102, 0x03) and (0x01, 0x0203) concatenate identically without prefixes.
        assert hash_challenge(0x41, [0x0102, 0x03]) != hash_challenge(0x41, [0x01, 0x0203])

    def test_side_tag_separates_domains(self):
        assert hash_challenge(0x41, [1, 2, 3]) != hash_challenge(0x42, [1, 2, 3])

    def test_output_width(self):
        assert 0 <= hash_challenge(0x41, []) < 1 << 256
        with pytest.raises(ParameterError):
            hash_challenge(300, [1])

    def test_element_count_fits_its_byte(self):
        assert 0 <= hash_challenge(0x41, [1] * 255) < 1 << 256
        with pytest.raises(ParameterError, match="too many elements"):
            hash_challenge(0x41, [1] * 256)


class TestGenerateVerify:
    def test_honest_certificate_verifies(self, toy_params):
        ctx, (W, _), commitment, (c, r) = make_certified(toy_params, b"hello", rng(b"n1"))
        assert cembs_verify(W, commitment, c, r, ctx)

    def test_response_is_reduced(self, toy_params):
        _, _, _, (_, r) = make_certified(toy_params, b"hello", rng(b"n2"))
        assert 0 <= r < toy_params.sttp_elg.P - 1

    def test_fixed_seed_reproduces_certificate(self, toy_params):
        first = make_certified(toy_params, b"same", rng(b"n3"))
        second = make_certified(toy_params, b"same", rng(b"n3"))
        assert first[1:] == second[1:]

    def test_tampered_response_rejected(self, toy_params):
        ctx, (W, _), commitment, (c, r) = make_certified(toy_params, b"hello", rng(b"n4"))
        P = ctx.group.P
        assert not cembs_verify(W, commitment, c, (r + 1) % (P - 1), ctx)

    def test_commitment_from_wrong_v_rejected(self, toy_params):
        ctx, (W, V), _, (c, r) = make_certified(toy_params, b"hello", rng(b"n5"))
        wrong = blind_commit(V + 1, ctx)
        assert wrong != blind_commit(V, ctx)
        assert not cembs_verify(W, wrong, c, r, ctx)

    def test_out_of_range_inputs_fail_quietly(self, toy_params):
        ctx, (W, _), commitment, (c, r) = make_certified(toy_params, b"hello", rng(b"n6"))
        P = ctx.group.P
        assert not cembs_verify(0, commitment, c, r, ctx)
        assert not cembs_verify(P, commitment, c, r, ctx)
        assert not cembs_verify(W, 0, c, r, ctx)
        assert not cembs_verify(W, commitment, c, P - 1, ctx)
        assert not cembs_verify(W, commitment, 1 << 256, r, ctx)

    def test_a_and_b_side_contexts_are_disjoint(self, toy_params):
        ctx_a = CembsContext.a_side(toy_params)
        ctx_b = CembsContext.b_side(toy_params)
        sig = rsa_sign(message_rep(b"x", toy_params.b_rsa.n), toy_params.b_rsa)
        W, V, c, r = encrypt_and_certify(sig, ctx_b, *sample_nonces(ctx_b.group.P, rng(b"n7")))
        commitment = blind_commit(V, ctx_b)
        assert cembs_verify(W, commitment, c, r, ctx_b)
        assert not cembs_verify(W, commitment, c, r, ctx_a)

    def test_nonce_constraints_enforced(self, toy_params):
        ctx = CembsContext.a_side(toy_params)
        with pytest.raises(ParameterError):
            encrypt_and_certify(2, ctx, 0, 1 << (NONCE_U_BITS - 1))
        with pytest.raises(ParameterError):
            encrypt_and_certify(2, ctx, 3, 1 << NONCE_U_BITS)

    def test_sampled_nonces_shape(self, toy_params):
        P = toy_params.sttp_elg.P
        source = rng(b"n8")
        for _ in range(50):
            w, u = sample_nonces(P, source)
            assert 1 <= w <= P - 2
            assert u.bit_length() == NONCE_U_BITS

    def test_verifier_never_receives_v_by_interface(self):
        assert list(inspect.signature(cembs_verify).parameters) == ["W", "C", "c", "r", "ctx"]

    def test_certificate_does_not_bind_the_signature_equation(self, toy_params):
        """A ciphertext of a non-signature passes verification.

        The certificate ties the challenge to (W, C) only; no part of it
        involves the signer's modulus or exponent, so `verify = yes` must
        not be read as "the plaintext is a valid signature".  See README,
        Limitations.
        """
        ctx = CembsContext.a_side(toy_params)
        not_a_signature = 12345 % toy_params.sttp_elg.P
        w, u = sample_nonces(toy_params.sttp_elg.P, rng(b"gap"))
        W, V, c, r = encrypt_and_certify(not_a_signature, ctx, w, u)
        commitment = blind_commit(V, ctx)
        assert cembs_verify(W, commitment, c, r, ctx)


class TestCertifyPower:
    """A certify takes A = a^PK from G's table as G^(u*PK mod P-1); P prime makes that exact."""

    @settings(max_examples=40, deadline=None)
    @given(
        u=st.integers(1 << (NONCE_U_BITS - 1), (1 << NONCE_U_BITS) - 1),
        w_seed=st.binary(max_size=8),
        paper=st.booleans(),
        side=st.sampled_from([CembsContext.a_side, CembsContext.b_side]),
    )
    def test_table_form_matches_a_to_the_pk(self, toy_params, paper_key_set, u, w_seed, paper, side):
        ctx = side(paper_key_set if paper else toy_params)
        P, G, PK = ctx.group.P, ctx.group.G, ctx.group.PK
        a = fixed_base_exp(G, u, P)
        big_a = mod_exp(a, PK, P)
        assert fixed_base_exp(G, u * PK % (P - 1), P) == big_a
        w = sample_range(1, P - 1, Rng.from_material(w_seed))
        W, V, c, _ = encrypt_and_certify(5, ctx, w, u)
        commitment = blind_commit(V, ctx)
        assert c == hash_challenge(ctx.side_tag, [ctx.g, W, commitment, a, big_a])


class TestCorrectnessIdentities:
    def test_exhaustive_toy_cube(self, correctness_identity_check):
        P, G, PK = 23, 5, 8
        passed = 0
        for w in range(22):
            W = pow(G, w, P)
            for u in range(22):
                for c in range(22):
                    assert correctness_identity_check(u, c, w, G, W, PK, P)
                    passed += 1
        assert passed == 22**3

    def test_large_nonce_values(self, correctness_identity_check):
        P, G, PK = 23, 5, 8
        w = 7
        W = pow(G, w, P)
        assert correctness_identity_check(1 << 399, (1 << 255) + 17, w, G, W, PK, P)

    def test_misreduction_mod_p_has_counterexamples(self):
        # Reducing the response mod P instead of mod P-1 must break the
        # identity for some (u, c, w): exponent arithmetic lives mod P-1.
        P, G, PK = 23, 5, 8
        found = False
        for w in range(1, 22):
            W = pow(G, w, P)
            for u in range(22):
                for c in range(22):
                    r_wrong = (u - c * w) % P
                    lhs = pow(G, u % (P - 1), P)
                    rhs = pow(G, r_wrong, P) * pow(W, c, P) % P
                    if lhs != rhs:
                        found = True
                        break
                if found:
                    break
            if found:
                break
        assert found
