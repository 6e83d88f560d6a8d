"""Key material and public parameters for Client A, Client B, and the STTP.

Client A holds an RSA signing pair, an ElGamal pair, and the commitment
base g in Z_{n_A}^*; Client B holds an RSA pair; the STTP holds an
ElGamal pair.  Both ElGamal moduli are generated strictly above the RSA
modulus whose signatures they must carry (n_A < P_T and n_B < P_A), so
a signature always embeds injectively as a plaintext.

Two named size profiles ship: "paper" (512-bit RSA primes, 1024-bit
ElGamal moduli) and "toy" (8-bit primes, 24-bit moduli) for exhaustive
desk-scale tests.

Above toy size, keygen uses up to two CPUs and validation every usable
one, through forked children; each party's keys come from its own stream,
so the bytes are the same on any number of CPUs.
"""

from __future__ import annotations

import os
import re
import threading
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import lru_cache
from math import gcd, isqrt
from pathlib import Path

from .arith import (
    Rng,
    int_to_bytes,
    is_probable_prime,
    mod_exp,
    sample_range,
    small_primes_to_100k,
)
from .errors import ParameterError, SetupError, read_text

# Candidates tried before a generation step is declared failed.
_MAX_RETRIES = 100_000

# Keygen and validation fork only when their largest number has at least
# this many bits: 40 Miller-Rabin rounds on a 128-bit prime take about
# 2.4 ms, more than a fork, a short pipe read and a waitpid (about 1.6 ms)
# cost.  Toy sets (24-bit moduli) never fork.
_FORK_MIN_BITS = 128


@dataclass(frozen=True)
class RsaKeyPair:
    """RSA signing identity.  Private fields are None in public exports."""

    n: int
    e: int
    d: int | None = None
    p: int | None = None
    q: int | None = None

    def public(self) -> "RsaKeyPair":
        return replace(self, d=None, p=None, q=None)

    @property
    def pub(self) -> tuple[int, int]:
        return (self.n, self.e)


@dataclass(frozen=True)
class ElgKeyPair:
    """ElGamal identity: prime modulus P, base G, PK = G^SK mod P."""

    P: int
    G: int
    PK: int
    SK: int | None = None

    def public(self) -> "ElgKeyPair":
        return replace(self, SK=None)

    @property
    def pub(self) -> tuple[int, int, int]:
        return (self.P, self.G, self.PK)


@dataclass(frozen=True)
class CommitBase:
    """Base g of the blinded commitment g^V, living in Z_{n_ref}^*.

    n_ref = p*q is composite, so the unit group is not cyclic and g has
    some unknown (large, with overwhelming probability) order; g is
    sampled uniformly from the units with {1, n_ref - 1} excluded.
    """

    g: int
    n_ref: int


@dataclass(frozen=True)
class BitProfile:
    name: str
    rsa_prime_bits: int
    elg_bits: int

    def __post_init__(self):
        if self.rsa_prime_bits < 8:
            raise ParameterError("RSA primes must be at least 8 bits")
        if self.elg_bits < 2 * self.rsa_prime_bits:
            raise ParameterError("ElGamal modulus must cover the RSA modulus size")


PROFILES: dict[str, BitProfile] = {
    "paper": BitProfile("paper", rsa_prime_bits=512, elg_bits=1024),
    "toy": BitProfile("toy", rsa_prime_bits=8, elg_bits=24),
}


@dataclass(frozen=True)
class SystemParams:
    a_rsa: RsaKeyPair
    b_rsa: RsaKeyPair
    a_elg: ElgKeyPair
    sttp_elg: ElgKeyPair
    commit_base: CommitBase
    bit_profile: BitProfile | None = None

    def public(self) -> "SystemParams":
        return replace(
            self,
            a_rsa=self.a_rsa.public(),
            b_rsa=self.b_rsa.public(),
            a_elg=self.a_elg.public(),
            sttp_elg=self.sttp_elg.public(),
        )


def _gen_prime_exact(bits: int, rng: Rng, floor: int = 0) -> int:
    """Probable prime of exactly `bits` bits, strictly above `floor`."""
    lo = max(1 << (bits - 1), floor + 1)
    hi = 1 << bits
    if lo >= hi:
        raise SetupError(f"no {bits}-bit integers above {floor}")
    for _ in range(_MAX_RETRIES):
        candidate = sample_range(lo, hi, rng) | 1
        if candidate >= hi:
            continue
        if is_probable_prime(candidate, rng):
            return candidate
    raise SetupError(f"no {bits}-bit prime above {floor} found after bounded retries")


def _small_prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n found by trial division up to 10^5."""
    found = []
    for p in small_primes_to_100k():
        if n % p == 0:
            found.append(p)
            while n % p == 0:
                n //= p
            if n == 1:
                break
    return found


def _gen_elg(profile: BitProfile, rng: Rng, floor: int = 0) -> ElgKeyPair:
    P = _gen_prime_exact(profile.elg_bits, rng, floor=floor)
    small_factors = _small_prime_factors(P - 1)
    for _ in range(_MAX_RETRIES):
        G = sample_range(2, P - 1, rng)  # excludes 1 and P-1
        # G^((P-1)/f) != 1 for every small prime factor f of P-1.
        if all(mod_exp(G, (P - 1) // f, P) != 1 for f in small_factors):
            break
    else:
        raise SetupError("no base of large order found after bounded retries")
    SK = sample_range(1, P - 1, rng)  # [1, P-2]
    return ElgKeyPair(P=P, G=G, PK=mod_exp(G, SK, P), SK=SK)


def _gen_rsa(profile: BitProfile, rng: Rng) -> RsaKeyPair:
    bits = profile.rsa_prime_bits
    # Keep both primes above sqrt(2^(2*bits - 1)) so n = p*q has exactly
    # twice as many bits as each prime; 2^(2*bits - 1) is never a square.
    floor = isqrt(1 << (2 * bits - 1))
    p = _gen_prime_exact(bits, rng, floor=floor)
    for _ in range(_MAX_RETRIES):
        q = _gen_prime_exact(bits, rng, floor=floor)
        if q != p:
            break
    else:
        raise SetupError("could not find a second distinct prime")
    n = p * q
    phi = (p - 1) * (q - 1)
    for _ in range(_MAX_RETRIES):
        e = sample_range(2, phi, rng)
        if gcd(e, phi) == 1:
            break
    else:
        raise SetupError("no public exponent coprime to phi(n) found")
    d = pow(e, -1, phi)
    return RsaKeyPair(n=n, e=e, d=d, p=p, q=q)


def _gen_commit_base(n: int, rng: Rng) -> CommitBase:
    for _ in range(_MAX_RETRIES):
        g = sample_range(2, n - 1, rng)  # excludes 1 and n-1
        if gcd(g, n) == 1:
            return CommitBase(g=g, n_ref=n)
    raise SetupError("no commitment base found after bounded retries")


def generate_system_params(profile: BitProfile | str, rng: Rng) -> SystemParams:
    """Every party's keys, with the cross-party size constraints.

    P_A lies above both n_A and n_B, so B's signatures embed under A's
    ElGamal key, and P_T above n_A.  Per-party child streams keep each
    party's keys independent of how many samples the others consumed, so
    identical seeds give identical parameter sets run after run.  It also
    lets a forked child make B's RSA key while A's is made here, then the
    STTP's ElGamal key (needs n_A) while A's (needs n_A and n_B) and the
    commitment base are made here: the same set on any number of CPUs.
    """
    if isinstance(profile, str):
        try:
            profile = PROFILES[profile]
        except KeyError:
            raise ParameterError(f"unknown profile {profile!r}") from None
    rng_a, rng_b, rng_t = rng.child(b"client-a"), rng.child(b"client-b"), rng.child(b"sttp")
    fork = profile.elg_bits >= _FORK_MIN_BITS and _usable_cpus() > 1
    a_rsa, b_rsa = _alongside(
        lambda: _gen_rsa(profile, rng_a), lambda: _gen_rsa(profile, rng_b), RsaKeyPair, fork
    )
    floor_a = max(a_rsa.n, b_rsa.n)
    (a_elg, base), sttp_elg = _alongside(
        lambda: (_gen_elg(profile, rng_a, floor=floor_a), _gen_commit_base(a_rsa.n, rng_a)),
        lambda: _gen_elg(profile, rng_t, floor=a_rsa.n), ElgKeyPair, fork,
    )
    params = SystemParams(
        a_rsa=a_rsa,
        b_rsa=b_rsa,
        a_elg=a_elg,
        sttp_elg=sttp_elg,
        commit_base=base,
        bit_profile=profile,
    )
    violations = validate_params(params)
    if violations:
        raise SetupError(f"generated parameters invalid: {violations}")
    return params


def _alongside(mine: Callable, theirs: Callable, kind: type, fork: bool) -> tuple:
    """(mine(), theirs()), where theirs() makes a `kind` key in a forked child when `fork`.

    A child that dies or raises sends nothing; theirs() then runs here on
    its stream, which the child left untouched, giving the same key or the
    same SetupError.  The RSA keys' errors name no party, so A's going
    first raises what B's would.
    """
    child = None
    if fork:
        child = _spawn(lambda: " ".join(f"{v:x}" for v in vars(theirs()).values()).encode())
    try:
        made = mine()
    finally:
        reply = _reap(child)
    return made, kind(*(int(v, 16) for v in reply.split())) if reply else theirs()


def _check_rsa(key: RsaKeyPair, who: str, prime: dict[int, bool], out: list[str]) -> None:
    if key.p is not None and key.q is not None:
        if key.p == key.q:
            out.append(f"{who}: rsa primes equal")
        if not prime[key.p] or not prime[key.q]:
            out.append(f"{who}: rsa factor not prime")
        if key.n != key.p * key.q:
            out.append(f"{who}: rsa modulus mismatch")
        phi = (key.p - 1) * (key.q - 1)
        if not 1 < key.e < phi or gcd(key.e, phi) != 1:
            out.append(f"{who}: rsa public exponent invalid")
        elif key.d is not None and key.e * key.d % phi != 1:
            out.append(f"{who}: rsa exponents not inverse")
    elif key.n < 4 or key.e < 2:
        out.append(f"{who}: rsa public key out of range")


def _check_elg(key: ElgKeyPair, who: str, prime: dict[int, bool], out: list[str]) -> None:
    if not prime[key.P]:
        out.append(f"{who}: modulus not prime")
    if not 1 < key.G < key.P:
        out.append(f"{who}: base out of range")
    if key.SK is not None:
        if not 1 <= key.SK <= key.P - 2:
            out.append(f"{who}: secret exponent out of range")
        elif mod_exp(key.G, key.SK, key.P) != key.PK:
            out.append(f"{who}: key consistency (PK != G^SK mod P)")
    if not 0 < key.PK < key.P:
        out.append(f"{who}: public element out of range")


def validate_params(sp: SystemParams) -> list[str]:
    """Every violated invariant as a human-readable string; empty iff valid.

    Checks that need private material are skipped when it is absent, so
    public exports validate too.  No check reads the bit profile, so the
    result is cached per parameter set with the profile stripped: a set
    that was generated and then loaded back from a key file runs its
    primality tests once.  Those tests (40 Miller-Rabin rounds on each of
    up to six numbers) run as one batch spread across the usable CPUs;
    each verdict is a pure function of its number, so the result is the
    same on any number of CPUs.
    """
    return list(_violations(replace(sp, bit_profile=None)))


def _usable_cpus() -> int:
    # A child forked while another thread holds a lock (in hashlib, say)
    # could wait on it forever, so a threaded process tests in-process.
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _spawn(work: Callable[[], bytes]) -> tuple[int, int] | None:
    """Fork a child that writes work() to a pipe; None if the fork fails."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(r)
            with open(w, "wb") as pipe:
                pipe.write(work())
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, r


def _reap(child: tuple[int, int] | None) -> bytes:
    """What the child wrote, or b"" when there is no child or it did not exit cleanly."""
    if child is None:
        return b""
    pid, r = child
    with open(r, "rb") as pipe:
        reply = pipe.read()
    _, status = os.waitpid(pid, 0)
    return reply if status == 0 else b""


def _primality(numbers: set[int]) -> dict[int, bool]:
    """is_probable_prime of each number, the work dealt out to forked children.

    Largest first, the numbers go round-robin into one group per usable
    CPU; the caller tests group 0 while a child tests each other group.
    A child that dies before sending every verdict has its group tested
    again here, so a crash can never change the answer.
    """
    ordered = sorted(numbers, reverse=True)
    k = 1
    if ordered[0].bit_length() >= _FORK_MIN_BITS:
        k = min(_usable_cpus(), len(ordered))
    groups = [ordered[i::k] for i in range(k)]
    children = [_spawn(lambda g=group: bytes(map(is_probable_prime, g))) for group in groups[1:]]
    try:
        prime = {n: is_probable_prime(n) for n in groups[0]}
    finally:
        replies = [_reap(child) for child in children]
    for group, reply in zip(groups[1:], replies):
        if len(reply) != len(group):
            reply = bytes(is_probable_prime(n) for n in group)
        prime.update(zip(group, map(bool, reply)))
    return prime


@lru_cache(maxsize=16)
def _violations(sp: SystemParams) -> tuple[str, ...]:
    out: list[str] = []
    numbers = {sp.a_elg.P, sp.sttp_elg.P}
    for key in (sp.a_rsa, sp.b_rsa):
        if key.p is not None and key.q is not None:
            numbers |= {key.p, key.q}
    prime = _primality(numbers)
    _check_rsa(sp.a_rsa, "client A", prime, out)
    _check_rsa(sp.b_rsa, "client B", prime, out)
    _check_elg(sp.a_elg, "client A", prime, out)
    _check_elg(sp.sttp_elg, "STTP", prime, out)
    base = sp.commit_base
    if base.n_ref != sp.a_rsa.n:
        out.append("commit base: wrong modulus")
    if gcd(base.g, base.n_ref) != 1 or base.g in (1, base.n_ref - 1) or not 0 < base.g < base.n_ref:
        out.append("commit base: invalid element")
    if sp.a_rsa.n >= sp.sttp_elg.P:
        out.append("plaintext embedding (n_A >= P_T)")
    if sp.b_rsa.n >= sp.a_elg.P:
        out.append("plaintext embedding (n_B >= P_A)")
    return tuple(out)


# --- key files: one `field=hex` record per line, grouped by role ----------

_ROLE_FIELDS = {
    "A": ("n", "e", "d", "p", "q", "P", "G", "SK", "PK", "g"),
    "B": ("n", "e", "d", "p", "q"),
    "STTP": ("P", "G", "SK", "PK"),
}
_HEX_VALUE = re.compile("[0-9a-fA-F]+")


def _hex(x: int) -> str:
    return int_to_bytes(x).hex() or "00"


def save_params(sp: SystemParams, path: str | Path) -> None:
    """Write a key file: `role=A|B|STTP` opens a record, `field=hex` lines follow.

    Fields that are None are omitted, so `sp.public()` writes a private-free export.
    """
    # Key-file field names are the key pairs' field names.
    values = {
        "A": {**vars(sp.a_rsa), **vars(sp.a_elg), "g": sp.commit_base.g},
        "B": vars(sp.b_rsa),
        "STTP": vars(sp.sttp_elg),
    }
    lines = []
    for role, fields in _ROLE_FIELDS.items():
        lines.append(f"role={role}")
        for name in fields:
            value = values[role][name]
            if value is None:
                continue
            lines.append(f"{name}={_hex(value)}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_params(path: str | Path) -> SystemParams:
    """Parse a key file written by save_params.  Missing private fields load as None."""
    records: dict[str, dict[str, int]] = {}
    current: dict[str, int] | None = None
    text = read_text(path, ParameterError)
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected field=value")
        name, _, value = line.partition("=")
        if name == "role":
            if value not in _ROLE_FIELDS:
                raise ParameterError(f"{path}:{lineno}: unknown role {value!r}")
            current = records.setdefault(value, {})
            continue
        if current is None:
            raise ParameterError(f"{path}:{lineno}: field before any role line")
        # int(value, 16) alone would also take a sign, "0x", "_" and spaces.
        if not _HEX_VALUE.fullmatch(value):
            raise ParameterError(f"{path}:{lineno}: bad hex value")
        current[name] = int(value, 16)
    missing = set(_ROLE_FIELDS) - set(records)
    if missing:
        raise ParameterError(f"{path}: missing roles {sorted(missing)}")
    a, b, t = records["A"], records["B"], records["STTP"]
    try:
        return SystemParams(
            a_rsa=RsaKeyPair(n=a["n"], e=a["e"], d=a.get("d"), p=a.get("p"), q=a.get("q")),
            b_rsa=RsaKeyPair(n=b["n"], e=b["e"], d=b.get("d"), p=b.get("p"), q=b.get("q")),
            a_elg=ElgKeyPair(P=a["P"], G=a["G"], PK=a["PK"], SK=a.get("SK")),
            sttp_elg=ElgKeyPair(P=t["P"], G=t["G"], PK=t["PK"], SK=t.get("SK")),
            commit_base=CommitBase(g=a["g"], n_ref=a["n"]),
        )
    except KeyError as exc:
        raise ParameterError(f"{path}: missing field {exc}") from None
