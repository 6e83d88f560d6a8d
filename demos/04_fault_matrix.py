"""
Fault matrix at a glance
========================

Runs every shipped fault script and tabulates the outcome.  Whatever a
single party or the channel does, the audit verdict stays fair: either
both sides end up holding a verified item, or neither does.
"""

import hashlib

from fairex.arith import Rng
from fairex.harness import SHIPPED_FAULT_SCRIPTS, audit, default_payload, run_session, shipped_script
from fairex.keys import generate_system_params
from fairex.protocol import Protocol, SessionConfig

params = generate_system_params("toy", Rng.from_material(b"demo 04"))

header = f"{'script':20s} {'A':10s} {'B':10s} {'fair':5s} {'arbiter':8s} {'saw V_A':7s}"
print(header)
print("-" * len(header))
for name in SHIPPED_FAULT_SCRIPTS:
    protocol = Protocol.DATA_FOR_SIGNATURE if name == "a-garbage-data" else Protocol.COMMON_MESSAGE
    cfg = SessionConfig(
        protocol=protocol,
        params=params,
        payload=default_payload(protocol),
        seed=hashlib.sha256(b"demo 04 run").digest(),
    )
    result = run_session(cfg, shipped_script(name))
    report = audit(result.transcript, params, protocol, cfg.payload)
    print(
        f"{name:20s} {result.states['A'].verdict:10s} {result.states['B'].verdict:10s} "
        f"{str(report.fair):5s} {str(report.sttp_involved):8s} {str(report.sttp_saw_va):7s}"
    )
