import inspect

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fairex import arith, cembs, elgamal
from fairex.arith import Rng, fixed_base_exp, mod_exp, sample_range
from fairex.cembs import (
    A_SIDE_TAG,
    CembsContext,
    NONCE_U_BITS,
    blind_commit,
    cembs_verify,
    ciphertext_certified,
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
        with pytest.raises(ParameterError, match=r"^nonce must be in \[1, "):
            encrypt_and_certify(2, ctx, 0, 1 << (NONCE_U_BITS - 1))
        with pytest.raises(ParameterError, match=f"nonce u must be exactly {NONCE_U_BITS} bits"):
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


class TestPairSplit:
    """Each `pair` keeps its longer job in the caller and hands the shorter one to the helper."""

    @pytest.fixture
    def pairs(self, monkeypatch):
        """(caller job, helper job) of each pair that `cembs` and `elgamal` make."""
        seen = []

        def recorded(first, second, bits):
            seen.append((first, second))
            return arith.pair(first, second, bits)

        for module in (cembs, elgamal):
            monkeypatch.setattr(module, "pair", recorded)
        return seen

    @pytest.fixture
    def offer(self, paper_key_set):
        ctx = CembsContext.a_side(paper_key_set)
        return ctx, encrypt_and_certify(1234, ctx, *sample_nonces(ctx.group.P, rng(b"split")))

    def test_certify_makes_two_pairs_and_hands_over_g_to_the_v(self, paper_key_set, pairs):
        ctx = CembsContext.a_side(paper_key_set)
        P, G, PK = ctx.group.P, ctx.group.G, ctx.group.PK
        w, u = sample_nonces(P, rng(b"split"))
        _, V, _, _ = encrypt_and_certify(1234, ctx, w, u)
        assert [second for _, second in pairs] == [(fixed_base_exp, (PK, w, P)), (fixed_base_exp, (ctx.g, V, ctx.n))]
        (job, args), _ = pairs[1]
        assert job(*args) == (pow(G, u * PK % (P - 1), P), pow(G, u, P))

    def test_ciphertext_check_makes_one_pair_and_hands_over_w_to_the_c(self, offer, pairs):
        ctx, (W, V, c, r) = offer
        P, G = ctx.group.P, ctx.group.G
        assert ciphertext_certified(W, V, c, r, ctx) == blind_commit(V, ctx)
        [((job, args), second)] = pairs
        assert second == (mod_exp, (W, c, P))
        assert job(*args) == (blind_commit(V, ctx), pow(G, r, P))

    def test_commitment_check_keeps_w_to_the_c_and_hands_over_g_to_the_r(self, offer, pairs):
        ctx, (W, V, c, r) = offer
        P, G = ctx.group.P, ctx.group.G
        assert cembs_verify(W, blind_commit(V, ctx), c, r, ctx)
        assert pairs == [((mod_exp, (W, c, P)), (fixed_base_exp, (G, r, P)))]


def _tamper(name: str, W: int, V: int, c: int, r: int, P: int) -> tuple[int, int, int, int]:
    """The offer (W, V, c, r) with one field off by one or set to an edge."""
    if name == "honest":
        return W, V, c, r
    field, change = name[0], name[1:]
    value = {"W": W, "V": V, "c": c, "r": r}[field]
    value = {"+1": value + 1, "-1": value - 1, "=0": 0, "=P": P, "=P-1": P - 1, "=2^256": 1 << 256}[change]
    return tuple(value if f == field else old for f, old in zip("WVcr", (W, V, c, r)))


class TestCheckParity:
    """`ciphertext_certified` is `cembs_verify` on g^V, and an input out of range makes no power."""

    @pytest.mark.parametrize("case", [
        "honest", "W+1", "W-1", "V+1", "V-1", "c+1", "c-1", "r+1", "r-1",
        "V=0", "V=P", "W=0", "W=P", "r=P-1", "c=2^256",
    ])
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        seed=st.binary(max_size=8),
        paper=st.booleans(),
        side=st.sampled_from([CembsContext.a_side, CembsContext.b_side]),
    )
    def test_parity_and_early_exit(self, toy_params, paper_key_set, monkeypatch, case, seed, paper, side):
        ctx = side(paper_key_set if paper else toy_params)
        P = ctx.group.P
        W, V, c, r = _tamper(case, *encrypt_and_certify(5, ctx, *sample_nonces(P, rng(seed))), P)
        powers = []

        def counted(real):
            def power(*args):
                powers.append(args)
                return real(*args)
            return power

        with monkeypatch.context() as patch:
            for name in ("fixed_base_exp", "mod_exp"):
                patch.setattr(cembs, name, counted(getattr(cembs, name)))
            commitment = ciphertext_certified(W, V, c, r, ctx)
        if not (0 < W < P and 0 < V < P and 0 <= r < P - 1 and 0 <= c < 1 << 256):
            assert powers == []
        C = blind_commit(V, ctx)
        assert commitment == (C if cembs_verify(W, C, c, r, ctx) else None)
        assert (commitment is not None) == (case == "honest")


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
