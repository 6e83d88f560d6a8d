"""Byte-identity regression for every protocol x shipped fault script.

Each pair runs once on fixed toy keys and a fixed session seed; the
transcript text, each party's verdict, acquired item and violations, and
the audit report (with the private keys and with public keys only) are
hashed together.  The certificate test vectors are hashed as well.  The
expected digests were recorded before the certificate algebra, the
CRT signing path and the parameter-validation cache went in, so any of
those that changes an output byte fails here.

Toy keys have 24-bit moduli, so a fixed-base comb for them has columns
of one bit.  One paper-profile key set (1024-bit moduli, 32 columns per
power), conftest's shared `paper_key_set`, is therefore pinned too, on the
fault-free and the dispute path of each protocol; its digests were
recorded before fixed-base exponentiation went in.

Certified keygen draws other samples than the default one, so the key
files of two certified sets, conftest's `certified_paper_key_set` and a
toy one, are pinned with their public exports; their digests were
recorded before keygen's searches went through `keys._draw`.
"""

import hashlib

import pytest

from fairex import arith
from fairex.arith import Rng
from fairex.harness import SHIPPED_FAULT_SCRIPTS, audit, default_payload, run_session, shipped_script
from fairex.keys import generate_system_params, save_params
from fairex.protocol import Protocol, SessionConfig
from fairex.vectors import generate_vectors_text
from fairex.wire import ROLES

SESSION_SEED = hashlib.sha256(b"test_byte_identity session").digest()

EXPECTED = {
    ("common", "a-garbage-data"): "fae6f71cdedf00c1d1edb8d54739b9b26b21654706fdf7d0ed62525798b41c15",
    ("common", "a-garbage-s"): "98e15ab5a2b793a79ec148479cc1c59118d15fa4b2cca41feab98626fddbc8f1",
    ("common", "a-silent-step3"): "66d2f022f0e02de1a49a70980f55aaeab132bfb75eb953a78a8ce3e2e950ff87",
    ("common", "b-bad-countersig"): "a949d89a8da38d670960ac82fdb939a3c741a6eb1104e5aecbfcf4d030846ba8",
    ("common", "b-early-dispute"): "0e0e6f4abdbb3bd90dc34b31ef4eae81298bfc1de2851a64afc8b1bb8827f098",
    ("common", "drop-countersig"): "d1d514477d0218f7a2ed6b887795e3eead7198b3dc71c4785761a29570c64c93",
    ("common", "drop-final"): "66d2f022f0e02de1a49a70980f55aaeab132bfb75eb953a78a8ce3e2e950ff87",
    ("common", "none"): "fae6f71cdedf00c1d1edb8d54739b9b26b21654706fdf7d0ed62525798b41c15",
    ("linked", "a-garbage-data"): "78e0e029c4c6f74f8fe0dacf683e452981a3c51b2f60aeae6d77db48d6c5cc2a",
    ("linked", "a-garbage-s"): "8ebe2b261898879c68606f0af3c265cf8035f8d7c85763d70b89f53254c73980",
    ("linked", "a-silent-step3"): "8ec2dd95aa7fd17fcbc7dd48398845b3396cd0c6ad3b6d2e549fc13e9be99893",
    ("linked", "b-bad-countersig"): "6c573e0666e0bf3b36518cc7d143837c7135afa1029fac4c65664dd138c9ff5a",
    ("linked", "b-early-dispute"): "9e17813432bb8e227e05a5b0545f5b89b2b1e4155e463739bf0459b3f6fc7f35",
    ("linked", "drop-countersig"): "5586faab9aa5b34ff1b16c34d11c0eb67488cb57d786089a8bd1203398700f33",
    ("linked", "drop-final"): "8ec2dd95aa7fd17fcbc7dd48398845b3396cd0c6ad3b6d2e549fc13e9be99893",
    ("linked", "none"): "78e0e029c4c6f74f8fe0dacf683e452981a3c51b2f60aeae6d77db48d6c5cc2a",
    ("data-for-sig", "a-garbage-data"): "9349443e9025f98e697408d21d0b08656d2d5ac425b7b57bfc125b48938d2fc5",
    ("data-for-sig", "a-garbage-s"): "2488822cfe3c8b569a34492cd7f9cd1bab69c98e7a57c2ded9f45e0b3c87f2e9",
    ("data-for-sig", "a-silent-step3"): "1937a04da2d323a6a44f48b65f15c583006de93d18139800fbb67eec89d9f733",
    ("data-for-sig", "b-bad-countersig"): "a25d8626bce1c7f47a59ed54b0127ad372fd8d3abb3afa00ae31de25a52bbc52",
    ("data-for-sig", "b-early-dispute"): "a25d8626bce1c7f47a59ed54b0127ad372fd8d3abb3afa00ae31de25a52bbc52",
    ("data-for-sig", "drop-countersig"): "a25d8626bce1c7f47a59ed54b0127ad372fd8d3abb3afa00ae31de25a52bbc52",
    ("data-for-sig", "drop-final"): "1937a04da2d323a6a44f48b65f15c583006de93d18139800fbb67eec89d9f733",
    ("data-for-sig", "none"): "a25d8626bce1c7f47a59ed54b0127ad372fd8d3abb3afa00ae31de25a52bbc52",
}

PAPER_EXPECTED = {
    ("common", "none"): "ddc44e679edb52f51069cc4835eacd00a9337f42f6b12c8c7f779b0de804b3ac",
    ("common", "drop-final"): "879d8550856cc79cf4e1feedb53af99ea069a75673a22d87cd662de5590b89a3",
    ("linked", "none"): "df500c63695a53eaef6f2bdb95d31890ad2d6486beb4f54e90404145b807c7b2",
    ("linked", "drop-final"): "0d7b159ee1f4e178521668142d7b66b7f3f0b796699ad6bfa5129458582888e4",
    ("data-for-sig", "none"): "6089302b13e2700f35b3ace6bac76fd8aa7442c8bf354dd90d726ff2de712dcc",
    ("data-for-sig", "drop-final"): "3af740feccfea1f69e9263152e3e8e602004cba52f51543140f4ad27f64e5a7c",
}

VECTORS_SHA256 = "6d95c5df3db71bc2019f877dc886f71da3b6b4189d9b50ab450320c0f5a3da4d"

# The key file, then its public export.
CERTIFIED_KEYS_SHA256 = {
    "certified_paper_key_set": (
        "7f54c1e04054188a5fada5a9499ed065422119f25f6516f1e19dea88b0b52d74",
        "cb14725fd69446ec59be9d1388ffabe1d63cb1ff03ffb1c31f3e263e7a23dff2",
    ),
    "certified_toy_params": (
        "d7a904338bc2aeb865dc0530b22a96a6228c5ad53f4e0a1d05731aa5fd4da7c5",
        "815f27589180ce0100e01755ef94354ca92ab882bedfcb44066aaf8949600a46",
    ),
}


@pytest.fixture(scope="module")
def params():
    return generate_system_params("toy", Rng.from_material(b"test_byte_identity params"))


@pytest.fixture(scope="module")
def certified_toy_params():
    return generate_system_params("toy", Rng.from_material(b"test_byte_identity certified toy params"), certified=True)


def session_digest(params, protocol: Protocol, script: str) -> str:
    payload = default_payload(protocol)
    cfg = SessionConfig(protocol=protocol, params=params, payload=payload, seed=SESSION_SEED)
    result = run_session(cfg, shipped_script(script))
    h = hashlib.sha256(result.transcript.to_text().encode())
    for role in ROLES:
        for violation in result.states[role].violations:
            h.update(f"{role}: {violation}\n".encode())
    for role in ROLES:
        state = result.states[role]
        h.update(repr((role, state.verdict, state.acquired, state.violations)).encode())
    for keys in (params, params.public()):
        h.update(repr(audit(result.transcript, keys, protocol, payload)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("script", sorted(SHIPPED_FAULT_SCRIPTS))
@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
def test_session_bytes_unchanged(params, protocol, script):
    assert session_digest(params, protocol, script) == EXPECTED[protocol.value, script]


@pytest.mark.parametrize("script", ["none", "drop-final"])
@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
def test_paper_session_bytes_unchanged(paper_key_set, protocol, script):
    assert session_digest(paper_key_set, protocol, script) == PAPER_EXPECTED[protocol.value, script]


@pytest.mark.parametrize("cpus", [1, 2])
def test_paper_session_bytes_unchanged_with_and_without_pair_helper(paper_key_set, monkeypatch, cpus):
    # On 2 CPUs `arith.pair` hands half its jobs to its helper process; on 1 it runs both.
    monkeypatch.setattr(arith, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(arith, "_solo_pairs", 0)
    for (protocol, script), expected in PAPER_EXPECTED.items():
        assert session_digest(paper_key_set, Protocol(protocol), script) == expected
    assert (arith._helper is not None) == (cpus > 1)


def test_vector_bytes_unchanged():
    assert hashlib.sha256(generate_vectors_text().encode()).hexdigest() == VECTORS_SHA256


@pytest.mark.parametrize("key_set", sorted(CERTIFIED_KEYS_SHA256))
def test_certified_key_file_bytes_unchanged(request, tmp_path, key_set):
    sp = request.getfixturevalue(key_set)
    digests = []
    for keys in (sp, sp.public()):
        save_params(keys, tmp_path / "keys.txt")
        digests.append(hashlib.sha256((tmp_path / "keys.txt").read_bytes()).hexdigest())
    assert tuple(digests) == CERTIFIED_KEYS_SHA256[key_set]
