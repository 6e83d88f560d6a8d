import pytest

from fairex import arith
from fairex.arith import Rng, mod_exp
from fairex.keys import generate_system_params, save_params


@pytest.fixture(autouse=True)
def retired_pair_helper():
    """Retire `arith.pair`'s helper after each test.

    The next test that pairs forks a fresh one, which sees that test's
    monkeypatches, and no test finds a child of another test still running.
    """
    yield
    arith._retire()


@pytest.fixture(scope="session")
def paper_key_set():
    """One paper-profile set (512-bit RSA primes, 1024-bit moduli).

    `test_byte_identity` pins its sessions (`PAPER_EXPECTED`), so this seed
    stays.  It takes about 1.0 s to make on 2 CPUs and 1.5-1.9 s on 1.
    """
    return generate_system_params("paper", Rng.from_material(b"test_byte_identity paper params"))


@pytest.fixture(scope="session")
def certified_paper_key_set():
    """A paper-profile set whose six primes carry certificates, as `fairex keygen` makes it."""
    seed = Rng.from_material(b"tests certified paper key set")
    return generate_system_params("paper", seed, certified=True)


@pytest.fixture(scope="session")
def paper_key_file(paper_key_set, tmp_path_factory):
    path = tmp_path_factory.mktemp("paper") / "keys.txt"
    save_params(paper_key_set, path)
    return path


def _identities_hold(u: int, c: int, w: int, G: int, W: int, PK: int, P: int) -> bool:
    """The two algebraic identities behind certificate verification, checked directly.

    Requires W = G^w mod P.  With r = (u - c*w) mod (P-1), both
    a = G^u = G^r * W^c = a' and A = a^PK = a'^PK = A' must hold mod P.
    """
    r = (u - c * w) % (P - 1)
    a = mod_exp(G, u % (P - 1), P)
    a_prime = mod_exp(G, r, P) * mod_exp(W, c, P) % P
    return a == a_prime and mod_exp(a, PK, P) == mod_exp(a_prime, PK, P)


@pytest.fixture(scope="session")
def correctness_identity_check():
    """The identity check that test_cembs and test_acceptance share."""
    return _identities_hold
