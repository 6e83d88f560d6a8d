"""
Fair-exchange scenarios
=======================

Three runs of the common-message protocol over the simulated transport:

  1) both parties behave -- the arbiter never hears a thing;
  2) A goes silent instead of releasing her signature -- B recovers it
     through the arbiter, which blind-decrypts without learning it;
  3) B sends a garbage counter-signature and (being a cheat) never
     escalates honestly -- A refuses to release anything and nobody
     gains an item.

Every run is audited from its transcript alone.
"""

import hashlib

from fairex.arith import Rng
from fairex.harness import audit, default_payload, run_session, shipped_script
from fairex.keys import generate_system_params
from fairex.protocol import Protocol, SessionConfig

params = generate_system_params("toy", Rng.from_material(b"demo 03 keys"))
payload = default_payload(Protocol.COMMON_MESSAGE)


def play(title: str, fault_name: str) -> None:
    print(f"\n----------------------- {title} -----------------------")
    cfg = SessionConfig(
        protocol=Protocol.COMMON_MESSAGE,
        params=params,
        payload=payload,
        seed=hashlib.sha256(b"demo 03 session").digest(),
    )
    result = run_session(cfg, shipped_script(fault_name))
    for record in result.transcript.records:
        label = record.message.msg_type.wire_name
        print(f"  tick {record.tick:2d}  {record.sender:>4s} -> {record.receiver:<4s}  {label}")
    for role in ("A", "B"):
        state = result.states[role]
        print(f"  {role}: verdict={state.verdict}")
    report = audit(result.transcript, params, Protocol.COMMON_MESSAGE, payload)
    print(f"  audit: fair={report.fair}  arbiter involved={report.sttp_involved}"
          f"  arbiter saw V_A={report.sttp_saw_va}")


play("Scenario 1: honest run", "none")
play("Scenario 2: A never releases her signature", "a-silent-step3")
play("Scenario 3: B sends a garbage counter-signature", "b-bad-countersig")
