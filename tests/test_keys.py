import dataclasses
import os
import random
import re
import select
import sys
import threading
from math import gcd
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from fairex import arith, keys
from fairex.arith import TRIAL_BOUND, Rng, is_probable_prime, mod_exp
from fairex.cli import cli_main
from fairex.errors import ParameterError, SetupError
from fairex.keys import (
    PROFILES,
    BitProfile,
    ElgKeyPair,
    SystemParams,
    generate_system_params,
    load_params,
    save_params,
    validate_params,
)
from fairex.protocol import Protocol, SessionConfig, build_parties


def rng(tag: bytes = b"") -> Rng:
    return Rng.from_material(b"test_keys" + tag)


@pytest.fixture(scope="module")
def toy_params():
    return generate_system_params("toy", rng(b"toy"))


@pytest.fixture(scope="module")
def certified_toy():
    return generate_system_params("toy", rng(b"certified toy"), certified=True)


class TestInitClients:
    def test_client_a_material_is_consistent(self):
        source = rng(b"a")
        rsa = keys._gen_rsa(PROFILES["toy"], source)
        elg = keys._gen_elg(PROFILES["toy"], source, floor=rsa.n)
        base = keys._gen_commit_base(rsa.n, source)
        assert rsa.n == rsa.p * rsa.q and rsa.p != rsa.q
        phi = (rsa.p - 1) * (rsa.q - 1)
        assert rsa.e * rsa.d % phi == 1
        assert mod_exp(elg.G, elg.SK, elg.P) == elg.PK
        assert elg.P > rsa.n
        assert base not in (1, rsa.n - 1) and gcd(base, rsa.n) == 1

    def test_client_a_respects_external_floor(self):
        elg = keys._gen_elg(PROFILES["toy"], rng(b"floor"), floor=(1 << 24) - 9000)
        assert elg.P > (1 << 24) - 9000

    def test_client_b_exponents(self):
        key = keys._gen_rsa(PROFILES["toy"], rng(b"b"))
        phi = (key.p - 1) * (key.q - 1)
        assert key.e * key.d % phi == 1
        assert key.p != key.q

    def test_equal_primes_always_resampled(self):
        # Only 23 eight-bit primes exist, so collisions do occur and must
        # be rejected; many draws make that path certain to run.
        source = rng(b"collisions")
        assert all(
            (k := keys._gen_rsa(PROFILES["toy"], source)).p != k.q for _ in range(60)
        )

    def test_sttp_public_element_recomputes(self):
        key = keys._gen_elg(PROFILES["toy"], rng(b"t"))
        assert mod_exp(key.G, key.SK, key.P) == key.PK

    def test_sttp_toy_fixed_vector(self):
        # PK = G^SK mod P: 5^6 = 15625 = 679*23 + 8
        key = ElgKeyPair(P=23, G=5, PK=8, SK=6)
        assert mod_exp(key.G, key.SK, key.P) == key.PK

    def test_deterministic_across_runs(self):
        a = generate_system_params("toy", rng(b"det"))
        b = generate_system_params("toy", rng(b"det"))
        assert a == b

    def test_paper_profile_sizes(self, paper_key_set):
        params = paper_key_set
        assert params.a_rsa.n.bit_length() == 1024
        assert params.a_elg.P.bit_length() == 1024
        assert params.sttp_elg.P.bit_length() == 1024
        assert params.a_rsa.p.bit_length() == 512
        assert params.a_elg.P > params.b_rsa.n
        assert params.a_elg.P > params.a_rsa.n
        assert params.sttp_elg.P > params.a_rsa.n

    def test_unknown_profile_name(self):
        with pytest.raises(ParameterError):
            generate_system_params("huge", rng())


class TestValidateParams:
    def test_honest_setup_is_clean(self, toy_params):
        assert validate_params(toy_params) == []

    def test_embedding_violation(self, toy_params):
        broken = dataclasses.replace(
            toy_params, a_rsa=dataclasses.replace(toy_params.a_rsa, n=toy_params.sttp_elg.P + 1)
        )
        assert any("plaintext embedding" in v for v in validate_params(broken))

    def test_key_consistency_violation(self, toy_params):
        bad_elg = dataclasses.replace(toy_params.a_elg, PK=toy_params.a_elg.PK ^ 1)
        broken = dataclasses.replace(toy_params, a_elg=bad_elg)
        assert any("key consistency" in v for v in validate_params(broken))

    def test_commit_base_violation(self, toy_params):
        broken = dataclasses.replace(toy_params, g=1)
        assert any("commit base" in v for v in validate_params(broken))

    def test_equal_rsa_primes_reported(self, toy_params):
        a = toy_params.a_rsa
        broken = dataclasses.replace(toy_params, a_rsa=dataclasses.replace(a, q=a.p, q_cert=a.p_cert))
        assert "client A: rsa primes equal" in validate_params(broken)

    @pytest.mark.parametrize("n, e", [(3, 3), (None, 1)], ids=["n<4", "e<2"])
    def test_public_rsa_key_out_of_range(self, toy_params, n, e):
        b = toy_params.b_rsa.public()
        broken = dataclasses.replace(toy_params, b_rsa=dataclasses.replace(b, n=n or b.n, e=e))
        assert validate_params(broken) == ["client B: rsa public key out of range"]

    def test_public_export_still_validates(self, toy_params):
        assert validate_params(toy_params.public()) == []

    def test_generator_has_no_tiny_order(self, toy_params):
        # G^((P-1)/f) != 1 for every small prime factor f of P-1.
        for key in (toy_params.a_elg, toy_params.sttp_elg):
            remaining = key.P - 1
            for f in range(2, 100_000):
                if f * f > remaining and remaining > 1:
                    break
                if remaining % f == 0:
                    assert mod_exp(key.G, (key.P - 1) // f, key.P) != 1
                    while remaining % f == 0:
                        remaining //= f


class TestValidateParamsCache:
    @pytest.fixture
    def primality_tests(self, monkeypatch):
        tested = []

        def counting(n, *args, **kwargs):
            tested.append(n)
            return is_probable_prime(n, *args, **kwargs)

        monkeypatch.setattr(keys, "is_probable_prime", counting)
        return tested

    def test_returned_list_does_not_poison_the_cache(self, toy_params):
        validate_params(toy_params).append("poisoned")
        assert validate_params(toy_params) == []
        broken = dataclasses.replace(toy_params, g=1)
        validate_params(broken).clear()
        assert validate_params(broken) == ["commit base: invalid element"]

    def test_loaded_copy_is_not_validated_again(self, toy_params, tmp_path, primality_tests):
        validate_params(toy_params)
        primality_tests.clear()
        path = tmp_path / "keys.txt"
        save_params(toy_params, path)
        loaded = load_params(path)
        assert loaded == toy_params and loaded is not toy_params
        assert validate_params(loaded) == []
        assert primality_tests == []

    def test_certified_paper_set_round_trips_without_miller_rabin(
        self, certified_paper_key_set, tmp_path, primality_tests, monkeypatch
    ):
        sp = certified_paper_key_set
        assert sp.a_rsa.p.bit_length() == sp.b_rsa.q.bit_length() == 512
        assert sp.a_rsa.n.bit_length() == sp.b_rsa.n.bit_length() == 1024
        assert sp.a_elg.P.bit_length() == sp.sttp_elg.P.bit_length() == 1024
        assert sp.a_elg.P > max(sp.a_rsa.n, sp.b_rsa.n) and sp.sttp_elg.P > sp.a_rsa.n
        path = tmp_path / "keys.txt"
        save_params(sp, path)
        loaded = load_params(path)
        assert loaded == sp
        # A cold store, so each prime is proved again, by its certificate.
        monkeypatch.setattr(keys, "_CHECKED", {})
        assert validate_params(loaded) == []
        assert primality_tests == []

    def test_only_new_pairs_are_proved(self, toy_params, primality_tests):
        validate_params(toy_params)
        primality_tests.clear()
        n = toy_params.a_rsa.n
        g = next(g for g in range(2, n) if g != toy_params.g and gcd(g, n) == 1)
        other = dataclasses.replace(toy_params, g=g)
        assert validate_params(other) == [] and primality_tests == []
        b = toy_params.b_rsa
        new_b = dataclasses.replace(b, d=b.d + (b.p - 1) * (b.q - 1))
        assert validate_params(dataclasses.replace(other, b_rsa=new_b)) == [] and keys.sound(new_b)
        assert sorted(primality_tests) == sorted([b.p, b.q])

    def test_public_pairs_are_kept_but_not_sound(self, toy_params, primality_tests, monkeypatch):
        monkeypatch.setattr(keys, "_CHECKED", {})
        public = toy_params.public()
        assert validate_params(public) == [] and sorted(primality_tests) == sorted([public.a_elg.P, public.sttp_elg.P])
        assert validate_params(public) == [] and len(primality_tests) == 2
        assert {public.a_rsa, public.b_rsa, public.a_elg, public.sttp_elg} <= keys._CHECKED.keys()
        assert not any(map(keys.sound, (public.a_rsa, public.b_rsa, public.a_elg, public.sttp_elg)))

    def test_proof_store_stays_bounded(self, toy_params, monkeypatch):
        monkeypatch.setattr(keys, "_CHECKED", {})
        b = toy_params.b_rsa
        phi = (b.p - 1) * (b.q - 1)
        variants = [dataclasses.replace(b, d=b.d + k * phi) for k in range(keys._MAX_CHECKED)]  # all sound
        for key in variants:
            assert validate_params(dataclasses.replace(toy_params, b_rsa=key)) == []
        assert len(keys._CHECKED) == keys._MAX_CHECKED
        assert keys.sound(toy_params.a_rsa) and not keys.sound(variants[0])
        assert all(map(keys.sound, variants[-5:]))
        assert keys.sound(toy_params.a_elg) and keys.sound(toy_params.sttp_elg)
        wrong = dataclasses.replace(b, d=b.d + 1)
        problems = validate_params(dataclasses.replace(toy_params, b_rsa=wrong))
        assert problems == ["client B: rsa exponents not inverse"]
        assert not keys.sound(wrong) and list(keys._CHECKED)[-3] == toy_params.a_rsa
        assert list(keys._CHECKED)[-2:] == [toy_params.a_elg, toy_params.sttp_elg]

    def test_broken_set_rejected_after_a_valid_one(self, toy_params):
        cfg = SessionConfig(Protocol.COMMON_MESSAGE, toy_params, b"terms", seed=bytes(32))
        build_parties(cfg)
        bad_elg = dataclasses.replace(toy_params.a_elg, PK=toy_params.a_elg.PK ^ 1)
        broken = dataclasses.replace(toy_params, a_elg=bad_elg)
        with pytest.raises(SetupError):
            build_parties(dataclasses.replace(cfg, params=broken))

    def test_threads_keep_and_read_only_right_verdicts(self, monkeypatch):
        # More threads than CPUs, switching often: a lost or torn update of the store must not give a wrong verdict.
        monkeypatch.setattr(keys, "_CHECKED", {})
        sets = [generate_system_params("toy", rng(b"thread set %d" % i)) for i in range(24)]
        errors = []

        def work(worker: int) -> None:
            try:
                draw = random.Random(worker)
                for _ in range(40):
                    sp = draw.choice(sets)
                    bad = dataclasses.replace(sp.a_elg, PK=sp.a_elg.PK % (sp.a_elg.P - 1) + 1)  # in range, wrong
                    assert validate_params(sp) == []
                    problems = validate_params(dataclasses.replace(sp, a_elg=bad))
                    assert problems == ["client A: key consistency (PK != G^SK mod P)"]
                    assert not keys.sound(bad)
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


SMALL = BitProfile(128, 256)  # the smallest keys whose keygen and checks reach `arith.pair`'s helper


def _late_in_helper(fd: int) -> bytes:
    """b"" here; in the helper, b"late" once `fd` can be read (or after 10 s): its reply comes on cue."""
    if os.getpid() == arith._OWNER:
        return b""
    select.select([fd], [], [], 10)
    return b"late"


@pytest.fixture(scope="module")
def small_set():
    return generate_system_params(SMALL, rng(b"small set"))


@pytest.fixture
def forks(monkeypatch):
    """Every fork this test makes, from no helper on: the one it forks sees the test's patches."""
    arith._retire()
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


class TestBatchedPrimality:
    """`_primality` gives `is_probable_prime`'s verdicts, whoever computes them."""

    @pytest.fixture
    def many_cpus(self, monkeypatch, forks):
        # Use the helper even on a 1-CPU host, so its path always runs.
        monkeypatch.setattr(arith, "_usable_cpus", lambda: 3)
        return forks

    @pytest.fixture(scope="class")
    def paper_numbers(self, paper_key_set):
        sp = paper_key_set
        source = rng(b"256-bit primes")
        (r, _), (s, _) = keys._gen_prime(256, source, 0, False), keys._gen_prime(256, source, 0, False)
        # n_A and r*s are composites with no factor below 10^5, so
        # Miller-Rabin has to reject them; 3*P_A is caught by trial division.
        return {
            sp.a_rsa.p, sp.a_rsa.q, sp.b_rsa.p, sp.b_rsa.q, sp.a_elg.P, sp.sttp_elg.P,
            sp.a_rsa.n, r * s, r, 3 * sp.a_elg.P, 1, 0,
        }

    @pytest.fixture(scope="class")
    def plain_verdicts(self, paper_numbers):
        return {n: is_probable_prime(n) for n in paper_numbers}

    def test_paper_verdicts_match_a_plain_loop(self, paper_numbers, plain_verdicts, many_cpus):
        assert keys._primality(paper_numbers) == plain_verdicts
        assert list(plain_verdicts.values()).count(False) == 5
        assert len(many_cpus) == 1 and arith._helper is not None

    def test_silent_child_falls_back_to_the_caller(
        self, paper_numbers, plain_verdicts, many_cpus, monkeypatch
    ):
        tested = []

        def owner_only(n, *args, **kwargs):
            if os.getpid() != arith._OWNER:
                raise RuntimeError("the helper dies before writing a verdict")
            tested.append(n)
            return is_probable_prime(n, *args, **kwargs)

        monkeypatch.setattr(keys, "is_probable_prime", owner_only)
        assert keys._primality(paper_numbers) == plain_verdicts
        assert len(many_cpus) == 1 and sorted(tested) == sorted(paper_numbers)
        assert arith._helper is None  # retired once it died

    def test_composite_modulus_reported_in_place(self, paper_key_set, many_cpus):
        sp = paper_key_set
        broken = dataclasses.replace(
            sp,
            b_rsa=dataclasses.replace(sp.b_rsa, d=sp.b_rsa.d + 1),
            sttp_elg=dataclasses.replace(sp.sttp_elg, P=sp.a_rsa.n * sp.b_rsa.n),
        )
        assert validate_params(broken) == [
            "client B: rsa exponents not inverse",
            "STTP: modulus not prime",
            "STTP: key consistency (PK != G^SK mod P)",
        ]

    def test_forked_validation_keeps_its_proofs(self, small_set, many_cpus, monkeypatch):
        monkeypatch.setattr(keys, "_CHECKED", {})
        assert validate_params(small_set) == []
        sp = small_set
        assert len(many_cpus) == 1
        assert list(keys._CHECKED) == [sp.a_rsa, sp.b_rsa, sp.a_elg, sp.sttp_elg]
        assert not keys.sound(sp.a_rsa.public()) and not keys.sound(sp.a_elg.public())

    def test_toy_sets_never_fork(self, many_cpus, monkeypatch):
        def no_fork():
            raise AssertionError("forked for a toy set")

        monkeypatch.setattr(os, "fork", no_fork)
        params = generate_system_params("toy", rng(b"never forks"))
        assert validate_params(params) == []

    def test_threaded_process_does_not_fork(self, small_set, monkeypatch):
        sp = small_set
        numbers = {sp.a_elg.P, sp.sttp_elg.P, sp.a_rsa.n, sp.a_rsa.p, sp.b_rsa.q}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked in a threaded process"))
        release = threading.Event()
        worker = threading.Thread(target=release.wait)
        worker.start()
        try:
            assert keys._primality(numbers) == {n: is_probable_prime(n) for n in numbers}
        finally:
            release.set()
            worker.join(timeout=10)
        assert not worker.is_alive()


class TestForkedKeygen:
    """Keygen with `arith.pair`'s helper makes the set that one CPU makes, whatever the helper does."""

    @pytest.fixture
    def made_here(self, monkeypatch):
        """The sizes of the primes keygen makes in this process; the helper's go to its copy of the list."""
        made, gen_prime = [], keys._gen_prime

        def recorded(bits, *args):
            made.append(bits)
            return gen_prime(bits, *args)

        monkeypatch.setattr(keys, "_gen_prime", recorded)
        return made

    @pytest.fixture
    def own_store(self, monkeypatch):
        """A cold store of checked pairs, the test's own, so the pairs other tests validated stay in the shared one."""
        monkeypatch.setattr(keys, "_CHECKED", {})

    def generate(self, monkeypatch, cpus: int, tag: bytes = b"forked keygen", certified: bool = False):
        monkeypatch.setattr(arith, "_usable_cpus", lambda: cpus)
        return generate_system_params(SMALL, rng(tag), certified=certified)

    def test_same_set_and_file_on_one_and_three_cpus(
        self, monkeypatch, tmp_path, made_here, forks, own_store, certified=False
    ):
        one = self.generate(monkeypatch, 1, certified=certified)
        assert forks == [] and sorted(made_here) == [128] * 4 + [256] * 2
        assert (one.sttp_elg.P_cert is not None) == (one.b_rsa.q_cert is not None) == certified
        made_here.clear()
        # The 1-CPU run left this set's pairs in the store, so the
        # 3-CPU run pairs only keygen's jobs: B's and the STTP's keys are made in the helper.
        three = self.generate(monkeypatch, 3, certified=certified)
        assert len(forks) == 1 and sorted(made_here) == [128, 128, 256]
        assert three == one
        save_params(one, tmp_path / "one.txt")
        save_params(three, tmp_path / "three.txt")
        assert (tmp_path / "three.txt").read_bytes() == (tmp_path / "one.txt").read_bytes()

    def test_same_certified_set_and_file_on_one_and_three_cpus(
        self, monkeypatch, tmp_path, made_here, forks, own_store
    ):
        self.test_same_set_and_file_on_one_and_three_cpus(monkeypatch, tmp_path, made_here, forks, own_store, True)

    def test_children_that_die_leave_the_work_to_the_parent(
        self, monkeypatch, tmp_path, made_here, forks, own_store, certified=False
    ):
        one = self.generate(monkeypatch, 1, b"dying children", certified)
        made_here.clear()
        gen_prime = keys._gen_prime
        monkeypatch.setattr(
            keys, "_gen_prime", lambda *args: gen_prime(*args) if os.getpid() == arith._OWNER else os._exit(1)
        )
        three = self.generate(monkeypatch, 3, b"dying children", certified)
        # Each keygen pair forks a helper that dies mid-job, so every key is made here.
        assert len(forks) == 2 and arith._helper is None
        assert sorted(made_here) == [128] * 4 + [256] * 2
        save_params(one, tmp_path / "one.txt")
        save_params(three, tmp_path / "three.txt")
        assert three == one and (tmp_path / "three.txt").read_bytes() == (tmp_path / "one.txt").read_bytes()

    def test_certified_children_that_die_leave_the_work_to_the_parent(
        self, monkeypatch, tmp_path, made_here, forks, own_store
    ):
        self.test_children_that_die_leave_the_work_to_the_parent(
            monkeypatch, tmp_path, made_here, forks, own_store, True
        )

    @pytest.mark.filterwarnings("error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")
    def test_refused_fork_leaves_the_work_to_the_parent(self, monkeypatch):
        one = self.generate(monkeypatch, 1, b"refused forks")
        opened, pipe = [], os.pipe

        def recorded_pipe():
            ends = pipe()
            opened.extend(ends)
            return ends

        def refused_fork():
            raise OSError("fork refused")

        def is_open(fd: int) -> bool:
            try:
                os.fstat(fd)
            except OSError:
                return False
            return True

        monkeypatch.setattr(os, "pipe", recorded_pipe)
        monkeypatch.setattr(os, "fork", refused_fork)
        monkeypatch.setattr(keys, "_CHECKED", {})  # so the set-up validates again
        assert self.generate(monkeypatch, 3, b"refused forks") == one
        numbers = {one.a_elg.P, one.sttp_elg.P, one.a_rsa.n, one.a_rsa.p, one.b_rsa.q, 3 * one.a_elg.P}
        assert keys._primality(numbers) == {n: is_probable_prime(n) for n in numbers}
        # Two pipes for each of keygen's two pairs, validation's pair and the last call's.
        assert len(opened) == 16 and not any(map(is_open, opened))

    def test_failing_search_raises_the_same_error(self, monkeypatch, forks):
        monkeypatch.setattr(keys, "_MAX_RETRIES", 0)
        with pytest.raises(SetupError) as one:
            self.generate(monkeypatch, 1)
        with pytest.raises(SetupError) as three:
            self.generate(monkeypatch, 3)
        assert forks and str(three.value) == str(one.value)
        # The caller's job raised once the helper's had: the helper was reaped, and none is left.
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_waiting_pairs_never_take_a_late_pair_s_reply(self, monkeypatch, made_here, forks, own_store):
        one = self.generate(monkeypatch, 1, b"late reply")
        numbers = {one.a_elg.P, one.sttp_elg.P, one.a_rsa.n, one.a_rsa.p, one.b_rsa.q}
        verdicts = keys._primality(numbers)
        monkeypatch.setattr(arith, "_solo_pairs", 0)
        monkeypatch.setattr(arith, "_usable_cpus", lambda: 3)
        r, w = os.pipe()
        try:
            assert arith.pair((abs, (-1,)), (_late_in_helper, (r,)), arith.PAIR_MIN_BITS) == (1, b"")
            assert arith._busy == 2  # the helper owes a reply: keygen and validation run here
            made_here.clear()
            monkeypatch.setattr(keys, "_CHECKED", {})  # so each set-up validates
            assert self.generate(monkeypatch, 3, b"late reply") == one
            assert keys._primality(numbers) == verdicts
            assert sorted(made_here) == [128] * 4 + [256] * 2
            os.write(w, b"x")  # the late reply comes, and is left unread
            assert select.select([arith._helper[2]], [], [], 10)[0] and arith._busy == 2
            made_here.clear()
            monkeypatch.setattr(keys, "_CHECKED", {})  # so each set-up validates
            assert self.generate(monkeypatch, 3, b"late reply") == one
            assert keys._primality(numbers) == verdicts
            assert sorted(made_here) == [128, 128, 256] and arith._busy == 0 and len(forks) == 1
        finally:
            os.close(r)
            os.close(w)


def _qnr(P: int) -> int:
    return next(a for a in range(2, P) if pow(a, (P - 1) // 2, P) == P - 1)


class TestCertificates:
    """A certificate proves its number prime, or validation reports the number as not prime."""

    # Each rewrites the certificate of A's ElGamal modulus P, whose toy
    # chain is one level ((2, q),) with q below the trial bound, so that
    # exactly one condition of `_certified` fails (see each comment).
    BROKEN = {
        # q = 2 divides P - 1, a non-residue passes both powers, 2 is a trial prime.
        "q squared not above n": lambda P, cert, other: ((_qnr(P), 2),),
        # The STTP's q: a proven prime above sqrt(P) that does not divide P - 1.
        "q does not divide n - 1": lambda P, cert, other: ((2, other[0][1]),),
        # a = P: a^((P-1)/q) = 0, so gcd(0 - 1, P) = 1 but a^(P-1) = 0.
        "a^(n-1) is not 1": lambda P, cert, other: ((P, cert[0][1]),),
        # a = 1: a^(P-1) = 1 but gcd(1 - 1, P) = P.
        "gcd is not 1": lambda P, cert, other: ((1, cert[0][1]),),
        # 2q divides P - 1 = 2tq, and 2^t != 1 as 2^(2t) != 1; 2q is even.
        "chain ends at a composite": lambda P, cert, other: ((2, 2 * cert[0][1]),),
        # The empty chain: P itself is above 1999^2.
        "chain ends above the trial bound": lambda P, cert, other: (),
        "certificate of another number": lambda P, cert, other: other,
    }

    def test_toy_chain_shape(self, certified_toy):
        (a, q), = certified_toy.a_elg.P_cert
        assert a == 2 and q < TRIAL_BOUND < certified_toy.a_elg.P
        assert (certified_toy.a_elg.P - 1) % certified_toy.sttp_elg.P_cert[0][1] != 0
        assert certified_toy.a_rsa.p_cert == certified_toy.b_rsa.q_cert == ()

    @pytest.mark.parametrize("broken", sorted(BROKEN))
    def test_broken_certificate_reads_not_prime(self, certified_toy, broken, monkeypatch):
        sp = certified_toy
        cert = self.BROKEN[broken](sp.a_elg.P, sp.a_elg.P_cert, sp.sttp_elg.P_cert)
        # P is prime, and Miller-Rabin is never asked: a broken certificate
        # is a violation, not a reason to test the number another way.
        assert is_probable_prime(sp.a_elg.P)
        monkeypatch.setattr(keys, "is_probable_prime", None)
        broken_set = dataclasses.replace(sp, a_elg=dataclasses.replace(sp.a_elg, P_cert=cert))
        assert validate_params(broken_set) == ["client A: modulus not prime"]

    def test_swapped_rsa_certificates_read_not_prime(self, certified_paper_key_set):
        key = certified_paper_key_set.a_rsa
        swapped = dataclasses.replace(key, p_cert=key.q_cert, q_cert=key.p_cert)
        assert validate_params(dataclasses.replace(certified_paper_key_set, a_rsa=swapped)) == [
            "client A: rsa factor not prime"
        ]

    @pytest.mark.parametrize("cert", [(), ((2, 0),), ((2, 1),), ((2, 2),), ((0, 3),)])
    def test_zero_and_one_are_never_proved_and_never_raise(self, cert):
        assert not keys._certified(0, cert) and not keys._certified(1, cert)

    @st.composite
    def chains(draw):
        """n and a chain built as keygen builds one, but from any start and any t.

        Each level is 2tq + 1 with t <= q/2, so q^2 > n nearly always, but n
        and q are prime only by chance; a q is sometimes swapped for any number.
        """
        q = draw(st.one_of(st.sampled_from([2, 3, 5, 1009, 1999]), st.integers(0, 2000)))
        cert = []
        for _ in range(draw(st.integers(1, 3))):
            n = 2 * draw(st.integers(1, max(1, q // 2))) * q + 1
            cert.insert(0, (draw(st.one_of(st.integers(0, 5), st.integers(0, n))), q))
            q = n
        if draw(st.booleans()):
            i = draw(st.integers(0, len(cert) - 1))
            cert[i] = (cert[i][0], draw(st.integers(0, 2 * cert[i][1])))
        return n, tuple(cert)

    @settings(max_examples=150)
    @given(chains())
    def test_never_proves_a_composite(self, chain):
        n, cert = chain
        if keys._certified(n, cert):
            assert is_probable_prime(n)

    def test_provable_primes_have_their_size_and_floor(self):
        source = rng(b"provable")
        for bits, floor in ((2, 0), (21, 0), (22, 0), (40, 0), (40, (1 << 40) - (1 << 30)), (257, 0)):
            p, cert = keys._gen_provable(bits, source, floor)
            assert p.bit_length() == bits and p > floor and keys._certified(p, cert)
            assert is_probable_prime(p) and (cert == ()) == (1 << bits <= TRIAL_BOUND)


class TestKeyFileFuzz:
    FIELDS = sorted({name for fields in keys._ROLE_FIELDS.values() for name in fields} | {"role", "x"})
    LINE = st.one_of(
        st.text(max_size=20),
        st.builds(
            "{}={}".format,
            st.sampled_from(FIELDS),
            st.one_of(st.sampled_from(["A", "B", "STTP", "C"]), st.text(max_size=8),
                      st.integers(min_value=0).map("{:x}".format), st.integers(min_value=0).map(keys._hex)),
        ),
    )
    # Certificates as `save_params` writes them, and cut short.
    CERT = st.builds(
        lambda cert, cut: keys._cert_hex(tuple(cert))[:cut],
        st.lists(st.tuples(st.integers(0, 1 << 40), st.integers(0, 1 << 40)), max_size=3),
        st.integers(min_value=1),
    )
    LINE = st.one_of(LINE, st.builds("{}={}".format, st.sampled_from(keys._CERT_FIELDS), CERT))
    FILE = st.one_of(
        st.binary(max_size=200),
        st.lists(LINE, max_size=20).map(lambda lines: "\n".join(lines).encode()),
        st.lists(LINE, max_size=20).map(lambda lines: "".join(line + "\n" for line in lines).encode()),
    )

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=FILE)
    def test_load_params_raises_only_parameter_error(self, tmp_path, data):
        path = tmp_path / "keys.txt"
        path.write_bytes(data)
        try:
            loaded = load_params(path)
        except ParameterError:
            return
        assert isinstance(loaded, keys.SystemParams)

    # A toy key file with some values swapped for hostile ones: signs,
    # prefixes and separators int(_, 16) would take, zero, one, any
    # toy-sized number written as save_params writes it, and certificates
    # whole or cut.
    HOSTILE = st.one_of(
        st.sampled_from(["-01", "0x05", "1_0", " 7", "+3", "00", "01"]),
        st.integers(min_value=0, max_value=1 << 32).map(keys._hex),
        CERT,
    )

    # Line index (taken modulo the file's length; role lines are left alone) -> hostile value.
    EDITS = st.dictionaries(st.integers(0, 40), HOSTILE, min_size=1, max_size=4)

    @staticmethod
    def hostile_file(sp: SystemParams, edits: dict[int, str], path: Path) -> None:
        save_params(sp, path)
        lines = path.read_text().splitlines()
        for index, value in edits.items():
            name = lines[index % len(lines)].partition("=")[0]
            if name != "role":
                lines[index % len(lines)] = f"{name}={value}"
        path.write_text("".join(line + "\n" for line in lines))

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(certified=st.booleans(), edits=EDITS)
    def test_validate_params_reports_and_never_raises(self, toy_params, certified_toy, tmp_path, certified, edits):
        path = tmp_path / "keys.txt"
        self.hostile_file(certified_toy if certified else toy_params, edits, path)
        try:
            loaded = load_params(path)
        except ParameterError:
            return
        assert isinstance(validate_params(loaded), list)

    @pytest.fixture(scope="class")
    def honest_transcripts(self, toy_params, certified_toy, tmp_path_factory) -> dict[bool, Path]:
        """The transcript of a fault-free `fairex run` on each toy set's own key file, by `certified`."""
        paths = {}
        for certified, sp in ((False, toy_params), (True, certified_toy)):
            keyfile, transcript = (tmp_path_factory.mktemp("honest") / name for name in ("keys.txt", "t.txt"))
            save_params(sp, keyfile)
            assert cli_main(["run", "--keys", str(keyfile), "--seed", "01", "--transcript", str(transcript)]) == 0
            paths[certified] = transcript
        return paths

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(certified=st.booleans(), edits=EDITS)
    @example(certified=False, edits={1: "00"})  # A's RSA modulus 0
    @example(certified=False, edits={12: "00"})  # B's
    def test_cli_run_and_audit_exit_with_a_code(self, toy_params, certified_toy, honest_transcripts, tmp_path,
                                                certified, edits):
        # 0 fair, 1 unfair, 2 error: anything else, a traceback included, is a crash.
        path = tmp_path / "keys.txt"
        self.hostile_file(certified_toy if certified else toy_params, edits, path)
        assert cli_main(["run", "--keys", str(path), "--seed", "01", "--fault", "drop-final"]) in (0, 1, 2)
        assert cli_main(["audit", "--keys", str(path), "--transcript", str(honest_transcripts[certified])]) in (0, 1, 2)

    # One to three line edits, each (what, line, other line), line indexes taken modulo the file's length.
    LINE_EDITS = st.lists(
        st.tuples(st.sampled_from(["swap", "duplicate", "delete"]), st.integers(0, 40), st.integers(0, 40)),
        min_size=1, max_size=3,
    )

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(certified=st.booleans(), public=st.booleans(), edits=LINE_EDITS)
    @example(certified=False, public=False, edits=[("swap", 1, 2)])  # A's n and e
    def test_a_file_loads_only_if_save_params_writes_it_back(self, toy_params, certified_toy, tmp_path, certified,
                                                            public, edits):
        sp = certified_toy if certified else toy_params
        path = tmp_path / "keys.txt"
        save_params(sp.public() if public else sp, path)
        lines = path.read_bytes().splitlines(keepends=True)
        for what, i, j in edits:
            i, j = i % len(lines), j % len(lines)
            if what == "swap":
                lines[i], lines[j] = lines[j], lines[i]
            elif what == "duplicate":
                lines.insert(j, lines[i])
            else:
                del lines[i]
        path.write_bytes(b"".join(lines))
        try:
            loaded = load_params(path)
        except ParameterError:
            return
        save_params(loaded, path)
        assert path.read_bytes() == b"".join(lines)

    def test_non_utf8_key_file(self, tmp_path):
        path = tmp_path / "keys.txt"
        path.write_bytes(b"role=A\n\xff\xfe\n")
        with pytest.raises(ParameterError, match="not a text file"):
            load_params(path)


class TestKeyFiles:
    @pytest.mark.parametrize("step", ["write", "replace"])
    def test_failed_save_keeps_the_old_file(self, toy_params, tmp_path, monkeypatch, step):
        path = tmp_path / "keys.txt"
        path.write_bytes(b"old bytes\n")
        write = Path.write_bytes

        def half_written(self, data):
            write(self, data[: len(data) // 2])
            raise OSError("disk full")

        def refused(src, dst):
            raise OSError("replace refused")

        with monkeypatch.context() as patch:
            if step == "write":
                patch.setattr(Path, "write_bytes", half_written)
            else:
                patch.setattr(os, "replace", refused)
            with pytest.raises(OSError):
                save_params(toy_params, path)
        assert path.read_bytes() == b"old bytes\n" and list(tmp_path.iterdir()) == [path]
        save_params(toy_params, path)
        assert load_params(path) == toy_params
        assert list(tmp_path.iterdir()) == [path]

    def test_round_trip(self, toy_params, tmp_path):
        path = tmp_path / "keys.txt"
        save_params(toy_params, path)
        loaded = load_params(path)
        assert loaded.a_rsa == dataclasses.replace(toy_params.a_rsa)
        assert loaded.b_rsa == toy_params.b_rsa
        assert loaded.a_elg == toy_params.a_elg
        assert loaded.sttp_elg == toy_params.sttp_elg
        assert loaded.g == toy_params.g

    def test_public_export_omits_private_fields(self, toy_params, certified_toy, tmp_path):
        for params, certificates in ((toy_params, 0), (certified_toy, 2)):
            path = tmp_path / "pub.txt"
            save_params(params.public(), path)
            text = path.read_text()
            for private in ("d=", "p=", "q=", "SK=", "p_cert=", "q_cert="):
                assert private not in text
            # The ElGamal moduli are public, and so are their certificates.
            assert text.count("P_cert=") == certificates
            loaded = load_params(path)
            assert loaded.a_rsa.d is None and loaded.a_elg.SK is None and loaded.b_rsa.q_cert is None
            assert loaded.a_rsa.n == params.a_rsa.n
            assert loaded.sttp_elg.P_cert == params.sttp_elg.P_cert
            assert validate_params(loaded) == []

    def test_format_is_field_equals_hex(self, toy_params, tmp_path):
        path = tmp_path / "keys.txt"
        save_params(toy_params, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "role=A"
        assert all("=" in line for line in lines)
        n_line = next(line for line in lines if line.startswith("n="))
        assert int(n_line.split("=")[1], 16) == toy_params.a_rsa.n

    def test_certificate_format_is_count_then_length_prefixed_magnitudes(self):
        cert, value = ((2, 0x1234), (3, 5)), "02" + "000102" + "00021234" + "000103" + "000105"
        assert keys._line("P_cert", cert) == f"P_cert={value}" and keys._read("P_cert", value) == cert

    def test_missing_role_rejected(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("role=A\nn=0f\ne=03\n")
        with pytest.raises(ParameterError):
            load_params(path)

    def test_bad_hex_rejected(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("role=A\nn=zz\n")
        with pytest.raises(ParameterError):
            load_params(path)

    STRICT = {
        "field no role has": ("role=B\nbogus=ff\n", 2),
        "field of another role": ("role=B\nn=0f\nP=17\n", 3),
        "repeated field": ("role=A\nn=0f\nn=11\n", 3),
        "repeated role": ("role=A\nn=0f\nrole=B\nrole=A\n", 4),
        "certificate missing its levels": ("role=STTP\nP_cert=01\n", 2),
        "certificate cut inside a length": ("role=STTP\nP_cert=0100\n", 2),
        "certificate longer than its count": ("role=STTP\nP_cert=00000001ff\n", 2),
        "certificate of odd length": ("role=STTP\nP_cert=000\n", 2),
        "certificate of more levels than a count byte holds": ("role=STTP\nP_cert=00" + "00000000" * 256 + "\n", 2),
        "B's record before A's": ("role=B\nn=0f\ne=03\nrole=A\nn=0f\ne=03\n", 1),
    }

    @pytest.mark.parametrize("case", sorted(STRICT))
    def test_lines_save_params_never_writes_rejected(self, tmp_path, case):
        text, lineno = self.STRICT[case]
        path = tmp_path / "broken.txt"
        path.write_text(text)
        with pytest.raises(ParameterError, match=f"broken.txt:{lineno}: "):
            load_params(path)

    @pytest.mark.parametrize("value", ["-01", "0x05", "1_0", " 7", "+3", "", "\u0663"])
    def test_int_syntax_beyond_hex_digits_rejected(self, tmp_path, value):
        path = tmp_path / "broken.txt"
        path.write_text(f"role=A\nn={value}\n")
        with pytest.raises(ParameterError, match="broken.txt:2: not as save_params writes it"):
            load_params(path)

    # One change to the toy file save_params writes for `toy_params`, and the line it breaks.
    UNWRITTEN = {
        "line end \\r\\n": ("n=b9c9\n", "n=b9c9\r\n", 2),
        "line end \\r": ("n=b9c9\n", "n=b9c9\r", 2),
        "line end \\v": ("n=b9c9\n", "n=b9c9\v", 2),
        "trailing space": ("e=1e19\n", "e=1e19 \n", 3),
        "upper-case hex": ("n=b9c9\n", "n=B9C9\n", 2),
        "leading zero byte": ("n=b9c9\n", "n=00b9c9\n", 2),
        "comment line": ("role=A\n", "role=A\n# a comment\n", 2),
        "blank line": ("role=A\n", "role=A\n\n", 2),
        "no final line end": ("PK=6093c6\n", "PK=6093c6", 22),
        "A's n and e swapped": ("n=b9c9\ne=1e19\n", "e=1e19\nn=b9c9\n", 2),
    }

    @pytest.mark.parametrize("case", sorted(UNWRITTEN))
    def test_lines_save_params_did_not_write_rejected(self, toy_params, tmp_path, case):
        old, new, lineno = self.UNWRITTEN[case]
        path = tmp_path / "keys.txt"
        save_params(toy_params, path)
        text = path.read_bytes().decode()
        assert text.count(old) == 1 and load_params(path) == toy_params
        path.write_bytes(text.replace(old, new).encode())
        with pytest.raises(ParameterError, match=f"keys.txt:{lineno}: "):
            load_params(path)


class TestProfileGuards:
    def test_rsa_prime_floor(self):
        with pytest.raises(ParameterError):
            BitProfile(rsa_prime_bits=4, elg_bits=16)

    def test_elg_must_cover_rsa(self):
        with pytest.raises(ParameterError):
            BitProfile(rsa_prime_bits=16, elg_bits=24)

    def test_impossible_floor_errors_out(self):
        with pytest.raises(SetupError):
            keys._gen_elg(PROFILES["toy"], rng(b"x"), floor=1 << 24)


class TestSearchesGiveUp:
    """Each keygen search stops after `_MAX_RETRIES` samples with a `SetupError` that names it."""

    @pytest.mark.parametrize(
        "search, never, what",
        [
            (lambda: keys._gen_prime(8, rng(), 0, False), "is_probable_prime", "8-bit prime above 0"),
            (lambda: keys._gen_prime(8, rng(), 0, True), "_certified", "provable 8-bit prime above 0"),
            (lambda: keys._gen_prime(40, rng(), 0, True), "_pocklington", "provable 40-bit prime above 0"),
            (lambda: keys._gen_elg(PROFILES["toy"], rng()), "mod_exp", "base of large order"),
            (lambda: keys._gen_rsa(PROFILES["toy"], rng()), "_gen_prime", "second distinct prime"),
            (lambda: keys._gen_rsa(PROFILES["toy"], rng()), "gcd", "public exponent coprime to phi(n)"),
            (lambda: keys._gen_commit_base(35, rng()), "gcd", "commitment base"),
        ],
        ids=["prime", "provable-by-trial", "provable-2qt+1", "elg-base", "rsa-q", "rsa-e", "commit-base"],
    )
    def test_search_gives_up_naming_itself(self, monkeypatch, search, never, what):
        # Each patch makes every sample of that search fail and lets the searches before it pass.
        fails = {
            "is_probable_prime": lambda *_: False,
            "_certified": lambda *_: False,
            "_pocklington": lambda *_: False,
            "mod_exp": lambda *_: 1,  # every base has order dividing (P-1)/f
            "_gen_prime": lambda *_: (191, None),  # the same prime every time
            "gcd": lambda *_: 2,
        }
        monkeypatch.setattr(keys, "_MAX_RETRIES", 100)
        monkeypatch.setattr(keys, never, fails[never])
        with pytest.raises(SetupError, match=rf"^no {re.escape(what)} found after bounded retries$"):
            search()

    def test_empty_t_range_draws_nothing(self):
        # A 40-bit p = 2qt + 1 above 2^40 - 3 is 2^40 - 1, so q divides 2^39 - 1 = 7 * 79 * 8191 * 121369,
        # and no 21-bit q does: the search gives up after drawing only q.
        source, twin = rng(b"empty t"), rng(b"empty t")
        floor = (1 << 40) - 3
        with pytest.raises(SetupError, match=f"^no provable 40-bit prime above {floor} found after bounded retries$"):
            keys._gen_provable(40, source, floor)
        keys._gen_provable(21, twin)
        assert source.random_bytes(16) == twin.random_bytes(16)

    def test_invalid_set_is_refused(self, monkeypatch):
        monkeypatch.setattr(keys, "validate_params", lambda sp: ["commit base: invalid element"])
        with pytest.raises(SetupError, match=r"^generated parameters invalid: \['commit base: invalid element'\]$"):
            generate_system_params("toy", rng(b"refused"))
