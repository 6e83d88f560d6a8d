"""Key material and public parameters for Client A, Client B, and the STTP.

Client A holds an RSA signing pair, an ElGamal pair, and the commitment
base g in Z_{n_A}^*; Client B holds an RSA pair; the STTP holds an
ElGamal pair.  Both ElGamal moduli are generated strictly above the RSA
modulus whose signatures they must carry (n_A < P_T and n_B < P_A), so
a signature always embeds injectively as a plaintext.

Two named size profiles ship: "paper" (512-bit RSA primes, 1024-bit
ElGamal moduli) and "toy" (8-bit primes, 24-bit moduli) for exhaustive
desk-scale tests.

Above toy size, keygen and validation hand one job of each pair to
`arith.pair`'s helper and wait for it; a job the helper cannot finish runs
in the caller.  Each party's keys come from its own stream, so the bytes
are the same on one CPU and on two.

Every keygen search draws through `_draw`, which gives up with `SetupError`
after a bounded number of samples.

Certified keygen (`fairex keygen`) builds each prime with a Pocklington
certificate, a chain of (a, q) pairs that validation checks in about one
modexp per level; a prime without one gets 40 Miller-Rabin rounds.
Validation keeps its newest 64 key pairs found with nothing wrong, so a
process proves such a pair once, whatever set it comes in (`validate_params`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from itertools import zip_longest
from math import gcd, isqrt
from pathlib import Path

from .arith import (
    TRIAL_BOUND,
    Rng,
    _trial_division,
    int_to_bytes,
    is_probable_prime,
    mod_exp,
    pair,
    sample_range,
    small_primes_to_100k,
)
from .errors import ParameterError, SetupError, read_text, write_whole

# Candidates tried before a generation step is declared failed.
_MAX_RETRIES = 100_000

# (a, q) per level, largest q first; see `_certified`.
Certificate = tuple[tuple[int, int], ...]

# Key pairs that recent validations found nothing wrong with, newest last (an ordered set); see `validate_params`.
_MAX_CHECKED = 4 * 16
_CHECKED: dict[RsaKeyPair | ElgKeyPair, None] = {}
_KNOWN: OrderedDict[tuple[int, int, int], int] = OrderedDict()  # powers, newest last; see `remember`
KNOWN_POWERS = 64  # entries `_KNOWN` keeps
_REMEMBERING = threading.Lock()  # held while `_KNOWN` changes


@dataclass(frozen=True)
class RsaKeyPair:
    """RSA signing identity.  Private fields are None in public exports."""

    n: int
    e: int
    d: int | None = None
    p: int | None = None
    q: int | None = None
    p_cert: Certificate | None = None
    q_cert: Certificate | None = None

    def public(self) -> "RsaKeyPair":
        # A certificate is as private as its prime.  Its top q divides p - 1
        # and 2q > n^(1/4), and knowing p mod 2q at that size factors n in
        # polynomial time (Coppersmith; Boneh-Durfee-Howgrave-Graham).
        return replace(self, d=None, p=None, q=None, p_cert=None, q_cert=None)


@dataclass(frozen=True)
class ElgKeyPair:
    """ElGamal identity: prime modulus P, base G, PK = G^SK mod P."""

    P: int
    G: int
    PK: int
    SK: int | None = None
    P_cert: Certificate | None = None

    def public(self) -> "ElgKeyPair":
        return replace(self, SK=None)


@dataclass(frozen=True)
class BitProfile:
    rsa_prime_bits: int
    elg_bits: int

    def __post_init__(self):
        if self.rsa_prime_bits < 8:
            raise ParameterError("RSA primes must be at least 8 bits")
        if self.elg_bits < 2 * self.rsa_prime_bits:
            raise ParameterError("ElGamal modulus must cover the RSA modulus size")


PROFILES: dict[str, BitProfile] = {
    "paper": BitProfile(rsa_prime_bits=512, elg_bits=1024),
    "toy": BitProfile(rsa_prime_bits=8, elg_bits=24),
}


@dataclass(frozen=True)
class SystemParams:
    a_rsa: RsaKeyPair
    b_rsa: RsaKeyPair
    a_elg: ElgKeyPair
    sttp_elg: ElgKeyPair
    # Base of the blinded commitment g^V mod n_A: a unit other than 1 and n_A - 1.  n_A = p*q is
    # composite, so the unit group is not cyclic and g has an unknown (large, whp) order.
    g: int
    bit_profile: BitProfile | None = None

    def public(self) -> "SystemParams":
        return replace(
            self,
            a_rsa=self.a_rsa.public(),
            b_rsa=self.b_rsa.public(),
            a_elg=self.a_elg.public(),
            sttp_elg=self.sttp_elg.public(),
        )


def _prime_range(bits: int, floor: int) -> tuple[int, int]:
    """[lo, hi): the `bits`-bit integers strictly above `floor`; hi is even, so x | 1 < hi for any x < hi."""
    lo = max(1 << (bits - 1), floor + 1)
    hi = 1 << bits
    if lo >= hi:
        raise SetupError(f"no {bits}-bit integers above {floor}")
    return lo, hi


def _draw(sample: Callable | None, accept: Callable, what: str) -> int | tuple:
    """The first of up to `_MAX_RETRIES` samples that `accept` takes; a `sample` of None has nothing to draw."""
    for _ in range(_MAX_RETRIES if sample else 0):
        candidate = sample()
        if accept(candidate):
            return candidate
    raise SetupError(f"no {what} found after bounded retries")


def _gen_provable(bits: int, rng: Rng, floor: int = 0) -> tuple[int, Certificate]:
    """Prime of exactly `bits` bits above `floor`, with the certificate that proves it.

    Below 1999^2 trial division proves it and the certificate is empty.
    Above, p = 2tq + 1 for a provable q of ceil(bits/2) + 1 bits, so
    q^2 > p, and t drawn so that p lies in range; p is kept when no trial
    prime divides it and base 2 passes `_pocklington` (Maurer, J. Cryptology
    1995; FIPS 186-4 C.6).
    """
    lo, hi = _prime_range(bits, floor)
    what = f"provable {bits}-bit prime above {floor}"
    if hi <= TRIAL_BOUND:
        return _draw(lambda: sample_range(lo, hi, rng) | 1, lambda p: _certified(p, ()), what), ()
    q, cert = _gen_provable((bits + 1) // 2 + 1, rng)
    t_lo, t_hi = -((1 - lo) // (2 * q)), (hi - 2) // (2 * q) + 1
    sample = (lambda: 2 * q * sample_range(t_lo, t_hi, rng) + 1) if t_lo < t_hi else None
    return _draw(sample, lambda p: _trial_division(p) is None and _pocklington(p, 2, q), what), ((2, q), *cert)


def _gen_prime(bits: int, rng: Rng, floor: int, certified: bool) -> tuple[int, Certificate | None]:
    """A prime of exactly `bits` bits, strictly above `floor`: provable with its certificate, or probable and None."""
    if certified:
        return _gen_provable(bits, rng, floor)
    lo, hi = _prime_range(bits, floor)
    what = f"{bits}-bit prime above {floor}"
    return _draw(lambda: sample_range(lo, hi, rng) | 1, lambda p: is_probable_prime(p, rng), what), None


def _pocklington(n: int, a: int, q: int) -> bool:
    """Whether base a shows every prime factor of n to be 1 mod q, so above sqrt(n).

    With q^2 > n and q | n - 1, b = a^((n-1)/q) has b^q = a^(n-1), and
    b^q = 1 with gcd(b - 1, n) = 1 gives b order q modulo each prime factor
    r of n, so q | r - 1: n is prime once q is (Pocklington, 1914).
    """
    if not (1 < q and n < q * q and (n - 1) % q == 0):
        return False
    b = pow(a, (n - 1) // q, n)
    return pow(b, q, n) == 1 and gcd(b - 1, n) == 1


def _certified(n: int, cert: Certificate) -> bool:
    """Whether `cert` proves n prime: each level passes, and the last q is a prime below 1999^2."""
    for a, q in cert:
        if not _pocklington(n, a, q):
            return False
        n = q
    return n < TRIAL_BOUND and _trial_division(n) is not False


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


def _gen_elg(profile: BitProfile, rng: Rng, floor: int = 0, certified: bool = False) -> ElgKeyPair:
    P, P_cert = _gen_prime(profile.elg_bits, rng, floor, certified)
    small_factors = _small_prime_factors(P - 1)
    G = _draw(
        lambda: sample_range(2, P - 1, rng),  # excludes 1 and P-1
        # G^((P-1)/f) != 1 for every small prime factor f of P-1.
        lambda G: all(mod_exp(G, (P - 1) // f, P) != 1 for f in small_factors),
        "base of large order",
    )
    SK = sample_range(1, P - 1, rng)  # [1, P-2]
    return ElgKeyPair(P=P, G=G, PK=mod_exp(G, SK, P), SK=SK, P_cert=P_cert)


def _gen_rsa(profile: BitProfile, rng: Rng, certified: bool = False) -> RsaKeyPair:
    bits = profile.rsa_prime_bits
    # Keep both primes above sqrt(2^(2*bits - 1)) so n = p*q has exactly
    # twice as many bits as each prime; 2^(2*bits - 1) is never a square.
    floor = isqrt(1 << (2 * bits - 1))
    p, p_cert = _gen_prime(bits, rng, floor, certified)
    q, q_cert = _draw(lambda: _gen_prime(bits, rng, floor, certified), lambda c: c[0] != p, "second distinct prime")
    n = p * q
    phi = (p - 1) * (q - 1)
    e = _draw(lambda: sample_range(2, phi, rng), lambda e: gcd(e, phi) == 1, "public exponent coprime to phi(n)")
    d = pow(e, -1, phi)
    return RsaKeyPair(n=n, e=e, d=d, p=p, q=q, p_cert=p_cert, q_cert=q_cert)


def _gen_commit_base(n: int, rng: Rng) -> int:
    """A unit mod n other than 1 and n - 1."""
    return _draw(lambda: sample_range(2, n - 1, rng), lambda g: gcd(g, n) == 1, "commitment base")


def generate_system_params(profile: BitProfile | str, rng: Rng, *, certified: bool = False) -> SystemParams:
    """Every party's keys, with the cross-party size constraints.

    `certified` builds each prime with its certificate (`_gen_provable`), so
    the set differs from the default one for the same seed.

    P_A lies above both n_A and n_B, so B's signatures embed under A's
    ElGamal key, and P_T above n_A.  Per-party child streams keep each
    party's keys independent of how many samples the others consumed, so
    identical seeds give identical parameter sets run after run.  So the
    helper of `arith.pair` can make B's RSA key while A's is made here,
    then the STTP's ElGamal key (needs n_A) while A's (needs n_A and n_B)
    and the commitment base are made here: the same set on one CPU or two.
    """
    if isinstance(profile, str):
        try:
            profile = PROFILES[profile]
        except KeyError:
            raise ParameterError(f"unknown profile {profile!r}") from None
    rng_a, rng_b, rng_t = rng.child(b"client-a"), rng.child(b"client-b"), rng.child(b"sttp")
    bits = profile.elg_bits
    a_rsa, b_rsa = pair(
        (_gen_rsa, (profile, rng_a, certified)), (_gen_rsa, (profile, rng_b, certified)), bits, wait=True
    )
    floor_a = max(a_rsa.n, b_rsa.n)
    (a_elg, g), sttp_elg = pair(
        (lambda: (_gen_elg(profile, rng_a, floor_a, certified), _gen_commit_base(a_rsa.n, rng_a)), ()),
        (_gen_elg, (profile, rng_t, a_rsa.n, certified)), bits, wait=True,
    )
    params = SystemParams(a_rsa=a_rsa, b_rsa=b_rsa, a_elg=a_elg, sttp_elg=sttp_elg, g=g)
    violations = validate_params(params)
    if violations:
        raise SetupError(f"generated parameters invalid: {violations}")
    return params


def _check_rsa(key: RsaKeyPair, who: str, prime: dict[tuple, bool], out: list[str]) -> bool:
    """Append what is wrong with `key` to `out`; return whether nothing is."""
    found = len(out)
    if key.p is not None and key.q is not None:
        if key.p == key.q:
            out.append(f"{who}: rsa primes equal")
        if not prime[key.p, key.p_cert] or not prime[key.q, key.q_cert]:
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
    return len(out) == found


def _check_elg(key: ElgKeyPair, who: str, prime: dict[tuple, bool], out: list[str]) -> bool:
    """Append what is wrong with `key` to `out`; return whether nothing is."""
    found = len(out)
    if not prime[key.P, key.P_cert]:
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
    return len(out) == found


def validate_params(sp: SystemParams) -> list[str]:
    """Every violated invariant as a human-readable string; empty iff valid.

    Checks that need private material are skipped when it is absent, so
    public exports validate too.  A prime with a certificate is proved by
    it (`_certified`), and a broken certificate reads "not prime"; one
    without gets 40 Miller-Rabin rounds through `_primality`.  A pair's
    checks read no other pair, so the pairs found with nothing wrong are
    kept, newest last, four per set for the last 16 sets, and a call
    checks only the pairs it does not hold (`sound` reads them); the
    checks across pairs (g a unit mod n_A, embeddings) run on every call.
    """
    global _CHECKED
    checked = _CHECKED  # one snapshot, so each pair it lacks is both proved and checked
    checks = [(_check_rsa, "client A", sp.a_rsa), (_check_rsa, "client B", sp.b_rsa),
              (_check_elg, "client A", sp.a_elg), (_check_elg, "STTP", sp.sttp_elg)]
    claims = set()
    for key in (key for _, _, key in checks if key not in checked):
        if isinstance(key, ElgKeyPair):
            claims.add((key.P, key.P_cert))
        elif key.p is not None and key.q is not None:
            claims |= {(key.p, key.p_cert), (key.q, key.q_cert)}
    tested = _primality({n for n, cert in claims if cert is None})
    prime = {(n, cert): tested[n] if cert is None else _certified(n, cert) for n, cert in claims}
    out: list[str] = []
    fine = [key for check, who, key in checks if key in checked or check(key, who, prime, out)]
    if not 1 < sp.g < sp.a_rsa.n - 1 or gcd(sp.g, sp.a_rsa.n) != 1:
        out.append("commit base: invalid element")
    if sp.a_rsa.n >= sp.sttp_elg.P:
        out.append("plaintext embedding (n_A >= P_T)")
    if sp.b_rsa.n >= sp.a_elg.P:
        out.append("plaintext embedding (n_B >= P_A)")
    # Rebound, never changed in place, so a reader in another thread sees
    # an old store or a new one; a racing writer can only drop keys.
    _CHECKED = dict.fromkeys([*(key for key in _CHECKED if key not in fine), *fine][-_MAX_CHECKED:])
    return out


def sound(key: RsaKeyPair | ElgKeyPair) -> bool:
    """Whether `key` is among the pairs `validate_params` kept and holds its private parts: d, p and q, or SK."""
    private = (key.d, key.p, key.q) if isinstance(key, RsaKeyPair) else (key.SK,)
    return key in _CHECKED and None not in private


def remember(base: int, exponent: int, modulus: int, power: int, made_under: ElgKeyPair) -> None:
    """Keep base^exponent mod modulus = power if `made_under` is sound, which makes it exact (see `cembs`,
    `elgamal`).  An entry holds whoever asks, so a reader needs no key and no lock: its get is one call
    into C, so it may miss a power but never misreads one."""
    if sound(made_under):
        with _REMEMBERING:
            _KNOWN[base, exponent, modulus] = power
            if len(_KNOWN) > KNOWN_POWERS:
                _KNOWN.popitem(last=False)


def known_power(base: int, exponent: int, modulus: int) -> int:
    """base^exponent mod modulus: the kept power (never 0), else `mod_exp`'s."""
    return _KNOWN.get((base, exponent, modulus)) or mod_exp(base, exponent, modulus)


def _probable_primes(group: list[int]) -> list[bool]:
    return list(map(is_probable_prime, group))


def _primality(numbers: set[int]) -> dict[int, bool]:
    """is_probable_prime of each number; largest first, round-robin into the two jobs of one pair."""
    if not numbers:
        return {}
    ordered = sorted(numbers, reverse=True)
    first, second, bits = ordered[::2], ordered[1::2], ordered[0].bit_length()
    verdicts = pair((_probable_primes, (first,)), (_probable_primes, (second,)), bits, wait=True)
    return dict(zip(first + second, verdicts[0] + verdicts[1]))


# --- key files: one `field=hex` record per line, grouped by role ----------

_ROLE_FIELDS = {
    "A": ("n", "e", "d", "p", "q", "p_cert", "q_cert", "P", "G", "SK", "PK", "P_cert", "g"),
    "B": ("n", "e", "d", "p", "q", "p_cert", "q_cert"),
    "STTP": ("P", "G", "SK", "PK", "P_cert"),
}
_CERT_FIELDS = ("p_cert", "q_cert", "P_cert")


def _hex(x: int) -> str:
    return int_to_bytes(x).hex() or "00"


def _cert_hex(cert: Certificate) -> str:
    """A count byte, then a and q of each level, each as a 2-byte length and its magnitude."""
    out = bytearray([len(cert)])
    for x in (x for level in cert for x in level):
        raw = int_to_bytes(x)
        out += len(raw).to_bytes(2, "big") + raw
    return out.hex()


def _line(name: str, value: int | Certificate) -> str:
    """The key-file line of one field, as `save_params` writes it and `load_params` requires it."""
    return f"{name}={_cert_hex(value) if name in _CERT_FIELDS else _hex(value)}"


def _read(name: str, value: str) -> int | Certificate:
    """The value of a `_line`, unchecked but of no more levels than its count byte: `load_params` writes it back."""
    data = bytes.fromhex(value)
    if name not in _CERT_FIELDS:
        return int.from_bytes(data, "big")
    ints, pos = [], 1
    while pos < len(data) and len(ints) < 2 * data[0]:
        size = int.from_bytes(data[pos : pos + 2], "big")
        ints.append(int.from_bytes(data[pos + 2 : pos + 2 + size], "big"))
        pos += 2 + size
    return tuple(zip(ints[::2], ints[1::2]))


def _render(records: dict[str, dict]) -> Iterator[str]:
    """The lines of a key file holding `records` (role -> field -> value), in `_ROLE_FIELDS` order, None left out."""
    for role, names in _ROLE_FIELDS.items():
        if role in records:
            yield f"role={role}"
            yield from (_line(name, records[role][name]) for name in names if records[role].get(name) is not None)


def save_params(sp: SystemParams, path: str | Path) -> None:
    """Write a key file: each role's `role=` line, then its `field=hex` lines, in `_ROLE_FIELDS` order.

    Fields that are None are omitted, so `sp.public()` writes a private-free export.
    """
    # Key-file field names are the key pairs' field names.
    values = {
        "A": {**vars(sp.a_rsa), **vars(sp.a_elg), "g": sp.g},
        "B": vars(sp.b_rsa),
        "STTP": vars(sp.sttp_elg),
    }
    write_whole(path, ("\n".join(_render(values)) + "\n").encode())


def load_params(path: str | Path) -> SystemParams:
    """Parse a key file, exactly as save_params writes it.  Missing private fields load as None.

    Lines split on "\n" only, and the last one must end in it.  A role line
    opens a record, and a role or field given twice keeps its first copy.  The
    file loads only if `_render` writes back the very lines read, so upper case,
    leading zeros, spaces, comments, blank lines, repeats, stray or unreadable
    fields and any other order are errors naming the first line that differs.
    """
    records: dict[str, dict] = {}
    fields: dict = {}  # where lines before any role line go; never written back
    lines = read_text(path, ParameterError).split("\n")
    if lines.pop():
        raise ParameterError(f"{path}:{len(lines) + 1}: no line end")
    for name, _, value in (line.partition("=") for line in lines):
        if name == "role":
            fields = records.setdefault(value, {})
            continue
        try:
            fields.setdefault(name, _read(name, value))
        except ValueError:
            pass  # an unreadable value is not written back
    for lineno, (line, written) in enumerate(zip_longest(lines, _render(records)), start=1):
        if line != written:
            raise ParameterError(f"{path}:{lineno}: not as save_params writes it")
    missing = set(_ROLE_FIELDS) - set(records)
    if missing:
        raise ParameterError(f"{path}: missing roles {sorted(missing)}")
    a, b, t = records["A"], records["B"], records["STTP"]
    try:
        return SystemParams(
            a_rsa=RsaKeyPair(a["n"], a["e"], *map(a.get, ("d", "p", "q", "p_cert", "q_cert"))),
            b_rsa=RsaKeyPair(b["n"], b["e"], *map(b.get, ("d", "p", "q", "p_cert", "q_cert"))),
            a_elg=ElgKeyPair(a["P"], a["G"], a["PK"], a.get("SK"), a.get("P_cert")),
            sttp_elg=ElgKeyPair(t["P"], t["G"], t["PK"], t.get("SK"), t.get("P_cert")),
            g=a["g"],
        )
    except KeyError as exc:
        raise ParameterError(f"{path}: missing field {exc}") from None
