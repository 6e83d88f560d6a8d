import dataclasses
import os
import threading
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fairex import keys
from fairex.arith import Rng, is_probable_prime, mod_exp
from fairex.errors import ParameterError, SetupError
from fairex.keys import (
    PROFILES,
    BitProfile,
    CommitBase,
    ElgKeyPair,
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
        assert base.n_ref == rsa.n and base.g not in (1, rsa.n - 1)

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
        broken = dataclasses.replace(
            toy_params, commit_base=CommitBase(g=1, n_ref=toy_params.a_rsa.n)
        )
        assert any("commit base" in v for v in validate_params(broken))

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
        broken = dataclasses.replace(toy_params, commit_base=CommitBase(g=1, n_ref=toy_params.a_rsa.n))
        validate_params(broken).clear()
        assert validate_params(broken) == ["commit base: invalid element"]

    def test_loaded_copy_is_not_validated_again(self, toy_params, tmp_path, primality_tests):
        validate_params(toy_params)
        primality_tests.clear()
        path = tmp_path / "keys.txt"
        save_params(toy_params, path)
        loaded = load_params(path)
        assert loaded.bit_profile is None and toy_params.bit_profile is not None
        assert validate_params(loaded) == []
        assert primality_tests == []

    def test_distinct_set_is_validated_again(self, toy_params, primality_tests):
        validate_params(toy_params)
        primality_tests.clear()
        n = toy_params.a_rsa.n
        g = next(g for g in range(2, n) if g != toy_params.commit_base.g and gcd(g, n) == 1)
        other = dataclasses.replace(toy_params, commit_base=CommitBase(g=g, n_ref=n))
        assert validate_params(other) == []
        a, b = toy_params.a_rsa, toy_params.b_rsa
        assert sorted(primality_tests) == sorted(
            [a.p, a.q, b.p, b.q, toy_params.a_elg.P, toy_params.sttp_elg.P]
        )

    def test_broken_set_rejected_after_a_valid_one(self, toy_params):
        cfg = SessionConfig(Protocol.COMMON_MESSAGE, toy_params, b"terms", seed=bytes(32))
        build_parties(cfg)
        bad_elg = dataclasses.replace(toy_params.a_elg, PK=toy_params.a_elg.PK ^ 1)
        broken = dataclasses.replace(toy_params, a_elg=bad_elg)
        with pytest.raises(SetupError):
            build_parties(dataclasses.replace(cfg, params=broken))


class TestBatchedPrimality:
    """`_primality` gives `is_probable_prime`'s verdicts, whoever computes them."""

    @pytest.fixture
    def many_cpus(self, monkeypatch):
        # Fork even on a 1-CPU host, so the children's path always runs.
        monkeypatch.setattr(keys, "_usable_cpus", lambda: 3)

    @pytest.fixture(scope="class")
    def paper_numbers(self, paper_key_set):
        sp = paper_key_set
        source = rng(b"256-bit primes")
        r, s = keys._gen_prime_exact(256, source), keys._gen_prime_exact(256, source)
        # n_A and r*s are composites with no factor below 10^5, so
        # Miller-Rabin has to reject them; 3*P_A is caught by trial division.
        return {
            sp.a_rsa.p, sp.a_rsa.q, sp.b_rsa.p, sp.b_rsa.q, sp.a_elg.P, sp.sttp_elg.P,
            sp.a_rsa.n, r * s, r, 3 * sp.a_elg.P, 1, 0,
        }

    def test_paper_verdicts_match_a_plain_loop(self, paper_numbers, many_cpus):
        expected = {n: is_probable_prime(n) for n in paper_numbers}
        assert keys._primality(paper_numbers) == expected
        assert list(expected.values()).count(False) == 5

    def test_silent_child_falls_back_to_the_caller(self, paper_numbers, many_cpus, monkeypatch):
        parent, tested, forks = os.getpid(), [], []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())

        def parent_only(n, *args, **kwargs):
            if os.getpid() != parent:
                raise RuntimeError("child dies before writing a verdict")
            tested.append(n)
            return is_probable_prime(n, *args, **kwargs)

        monkeypatch.setattr(keys, "is_probable_prime", parent_only)
        assert keys._primality(paper_numbers) == {n: is_probable_prime(n) for n in paper_numbers}
        assert len(forks) == 2 and sorted(tested) == sorted(paper_numbers)

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

    def test_toy_sets_never_fork(self, many_cpus, monkeypatch):
        def no_fork():
            raise AssertionError("forked for a toy set")

        monkeypatch.setattr(os, "fork", no_fork)
        params = generate_system_params("toy", rng(b"never forks"))
        assert validate_params(params) == []

    def test_threaded_process_does_not_fork(self):
        release = threading.Event()
        worker = threading.Thread(target=release.wait)
        worker.start()
        try:
            assert keys._usable_cpus() == 1
        finally:
            release.set()
            worker.join(timeout=10)
        assert not worker.is_alive()


class TestForkedKeygen:
    """Keygen with forked children makes the set that one CPU makes, whatever the children do."""

    PROFILE = BitProfile("fork-test", 64, 128)  # just above _FORK_MIN_BITS

    @pytest.fixture
    def made_here(self, monkeypatch):
        """The keys the test process itself makes, by kind; a child's calls do not show."""
        made, parent = [], os.getpid()

        def recorded(name, real):
            def gen(*args, **kwargs):
                if os.getpid() == parent:
                    made.append(name)
                return real(*args, **kwargs)
            return gen

        for name in ("_gen_rsa", "_gen_elg"):
            monkeypatch.setattr(keys, name, recorded(name, getattr(keys, name)))
        return made

    @pytest.fixture
    def spawned(self, monkeypatch):
        calls, spawn = [], keys._spawn
        monkeypatch.setattr(keys, "_spawn", lambda work: calls.append(work) or spawn(work))
        return calls

    def generate(self, monkeypatch, cpus: int, tag: bytes = b"forked keygen"):
        monkeypatch.setattr(keys, "_usable_cpus", lambda: cpus)
        return generate_system_params(self.PROFILE, rng(tag))

    def test_same_set_and_file_on_one_and_three_cpus(self, monkeypatch, tmp_path, made_here, spawned):
        keys._violations.cache_clear()
        one = self.generate(monkeypatch, 1)
        assert spawned == [] and sorted(made_here) == ["_gen_elg"] * 2 + ["_gen_rsa"] * 2
        made_here.clear()
        # The 1-CPU run left this set's validation in the cache, so the
        # only forks of the 3-CPU run are keygen's two.
        three = self.generate(monkeypatch, 3)
        assert len(spawned) == 2 and made_here == ["_gen_rsa", "_gen_elg"]
        assert three == one
        save_params(one, tmp_path / "one.txt")
        save_params(three, tmp_path / "three.txt")
        assert (tmp_path / "three.txt").read_text() == (tmp_path / "one.txt").read_text()

    def test_children_that_die_leave_the_work_to_the_parent(self, monkeypatch, made_here):
        one = self.generate(monkeypatch, 1, b"dying children")
        made_here.clear()
        spawn = keys._spawn
        monkeypatch.setattr(keys, "_spawn", lambda work: spawn(lambda: os._exit(1)))
        assert self.generate(monkeypatch, 3, b"dying children") == one
        assert sorted(made_here) == ["_gen_elg"] * 2 + ["_gen_rsa"] * 2

    def test_failing_search_raises_the_same_error(self, monkeypatch, spawned):
        monkeypatch.setattr(keys, "_MAX_RETRIES", 0)
        with pytest.raises(SetupError) as one:
            self.generate(monkeypatch, 1)
        with pytest.raises(SetupError) as three:
            self.generate(monkeypatch, 3)
        assert spawned and str(three.value) == str(one.value)


class TestKeyFileFuzz:
    FIELDS = sorted({name for fields in keys._ROLE_FIELDS.values() for name in fields} | {"role", "x"})
    LINE = st.one_of(
        st.text(max_size=20),
        st.builds(
            "{}={}".format,
            st.sampled_from(FIELDS),
            st.one_of(st.sampled_from(["A", "B", "STTP", "C"]), st.text(max_size=8),
                      st.integers(min_value=0).map("{:x}".format)),
        ),
    )
    FILE = st.one_of(
        st.binary(max_size=200),
        st.lists(LINE, max_size=20).map(lambda lines: "\n".join(lines).encode()),
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
    # prefixes and separators int(_, 16) would take, zero, one, and any
    # toy-sized number.
    HOSTILE = st.one_of(
        st.sampled_from(["-01", "0x05", "1_0", " 7", "+3", "00", "01"]),
        st.integers(min_value=0, max_value=1 << 32).map("{:x}".format),
    )

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_validate_params_reports_and_never_raises(self, toy_params, tmp_path, data):
        path = tmp_path / "keys.txt"
        save_params(toy_params, path)
        lines = path.read_text().splitlines()
        for index in data.draw(st.sets(st.integers(0, len(lines) - 1), min_size=1, max_size=4)):
            name = lines[index].partition("=")[0]
            if name != "role":
                lines[index] = f"{name}={data.draw(self.HOSTILE)}"
        path.write_text("\n".join(lines))
        try:
            loaded = load_params(path)
        except ParameterError:
            return
        assert isinstance(validate_params(loaded), list)

    def test_non_utf8_key_file(self, tmp_path):
        path = tmp_path / "keys.txt"
        path.write_bytes(b"role=A\n\xff\xfe\n")
        with pytest.raises(ParameterError, match="not a text file"):
            load_params(path)


class TestKeyFiles:
    def test_round_trip(self, toy_params, tmp_path):
        path = tmp_path / "keys.txt"
        save_params(toy_params, path)
        loaded = load_params(path)
        assert loaded.a_rsa == dataclasses.replace(toy_params.a_rsa)
        assert loaded.b_rsa == toy_params.b_rsa
        assert loaded.a_elg == toy_params.a_elg
        assert loaded.sttp_elg == toy_params.sttp_elg
        assert loaded.commit_base == toy_params.commit_base

    def test_public_export_omits_private_fields(self, toy_params, tmp_path):
        path = tmp_path / "pub.txt"
        save_params(toy_params.public(), path)
        text = path.read_text()
        for private in ("d=", "p=", "q=", "SK="):
            assert private not in text
        loaded = load_params(path)
        assert loaded.a_rsa.d is None and loaded.a_elg.SK is None
        assert loaded.a_rsa.n == toy_params.a_rsa.n
        assert validate_params(loaded) == []

    def test_format_is_field_equals_hex(self, toy_params, tmp_path):
        path = tmp_path / "keys.txt"
        save_params(toy_params, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "role=A"
        assert all("=" in line for line in lines)
        n_line = next(line for line in lines if line.startswith("n="))
        assert int(n_line.split("=")[1], 16) == toy_params.a_rsa.n

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

    @pytest.mark.parametrize("value", ["-01", "0x05", "1_0", " 7", "+3", "", "\u0663"])
    def test_int_syntax_beyond_hex_digits_rejected(self, tmp_path, value):
        path = tmp_path / "broken.txt"
        path.write_text(f"role=A\nn={value}\n")
        with pytest.raises(ParameterError, match="bad hex value"):
            load_params(path)


class TestProfileGuards:
    def test_rsa_prime_floor(self):
        with pytest.raises(ParameterError):
            BitProfile("tiny", rsa_prime_bits=4, elg_bits=16)

    def test_elg_must_cover_rsa(self):
        with pytest.raises(ParameterError):
            BitProfile("cramped", rsa_prime_bits=16, elg_bits=24)

    def test_impossible_floor_errors_out(self):
        with pytest.raises(SetupError):
            keys._gen_elg(PROFILES["toy"], rng(b"x"), floor=1 << 24)
