"""Paper-size sessions equal the slow path's, with every exact fast path on and with the helper's replies late.

Differential testing (McKeeman, Digital Technical Journal, 1998): each fast path, the CRT sign,
the comparison check, the comb, the kept powers and `arith.pair`'s helper with its late rule, claims
the same bytes as plain `pow` mod n.  A fresh session seed each run, printed if a session differs;
a difference is a defect in a fast path.
"""

import os

from fairex import arith, cembs, elgamal, keys, rsa
from fairex.harness import SHIPPED_FAULT_SCRIPTS, default_payload
from fairex.protocol import Protocol, SessionConfig
from test_known_powers import empty_stores, lookups_off, outcome  # noqa: F401 (a fixture)

# The message type each protocol never sends: a shipped script that names it does not apply.
UNSENT = {Protocol.COMMON_MESSAGE: "data-payload", Protocol.LINKED_FILES: "data-payload",
          Protocol.DATA_FOR_SIGNATURE: "counter-signature"}


def slow_path(monkeypatch) -> None:
    """Every exact fast path off: `lookups_off`, no comb, no helper, no CRT, and no kept signature."""
    lookups_off(monkeypatch)
    for module in (cembs, elgamal):
        monkeypatch.setattr(module, "fixed_base_exp", pow)
    for module in (cembs, elgamal, keys, rsa):
        monkeypatch.setattr(module, "pair", lambda first, second, bits, wait=False: (
            first[0](*first[1]), second[0](*second[1])))
    monkeypatch.setattr(rsa, "_signature", lambda rep, key: pow(rep, key.d, key.n))
    monkeypatch.setattr(rsa, "sound", lambda key: False)  # so `rsa_verify` checks mod n


def late_every_other_reply(monkeypatch) -> list[bool]:
    """The helper serves from the first pair, as `test_pair`'s `two_cpus` has it, and every other
    reply that a pair does not wait for reads late: the pair re-runs its job here and the next 8
    pairs run here.  Returns whether each such reply read late."""
    monkeypatch.setattr(arith, "_solo_pairs", 0)
    monkeypatch.setattr(arith, "_usable_cpus", lambda: 2)
    late, reply = [], arith._reply

    def sometimes_late(timeout):
        if timeout:  # a pair's own wait; 0 drains a late reply, None is a pair that may wait
            late.append(not late or not late[-1])
            if late[-1]:
                return None
        return reply(timeout)

    monkeypatch.setattr(arith, "_reply", sometimes_late)
    return late


def test_paper_sessions_match_the_slow_path(paper_key_set, empty_stores, monkeypatch):  # noqa: F811
    seed = os.urandom(32)
    runs = [(SessionConfig(protocol, paper_key_set, default_payload(protocol), seed=seed), script)
            for protocol in Protocol for script in SHIPPED_FAULT_SCRIPTS.values() if UNSENT[protocol] not in script]
    assert len(runs) == 19
    with monkeypatch.context() as patch:
        late = late_every_other_reply(patch)
        fast = [outcome(cfg, script) for cfg, script in runs]
    assert arith._helper is not None and True in late and False in late  # replies both late and on time
    slow_path(monkeypatch)
    slow = [outcome(cfg, script) for cfg, script in runs]
    assert not keys._KNOWN
    assert fast == slow, f"session seed {seed.hex()}"
