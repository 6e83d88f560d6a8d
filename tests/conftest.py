import pytest

from fairex.arith import Rng
from fairex.keys import generate_system_params, save_params


@pytest.fixture(scope="session")
def paper_key_set():
    """One paper-profile set (512-bit RSA primes, 1024-bit moduli).

    It takes about 1.7 s to make on 2 CPUs and 2.3 s on 1; the search for
    A's ElGamal prime alone takes 1.1 s of it with this seed.
    """
    return generate_system_params("paper", Rng.from_material(b"tests paper key set"))


@pytest.fixture(scope="session")
def paper_key_file(paper_key_set, tmp_path_factory):
    path = tmp_path_factory.mktemp("paper") / "keys.txt"
    save_params(paper_key_set, path)
    return path
