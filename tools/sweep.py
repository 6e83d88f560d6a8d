"""Depth-2 fault sweep: every ordered pair of directives, every protocol, two timeouts.

Runs all ordered pairs of 155 directives (the test suite's 148 from
`every_directive()`, plus tick matches and directives that fire late or
repeat a role) under the three protocols at timeouts 1 and 8: 144,150
sessions on toy keys from `Rng(bytes(32))`, session seed `bytes(32)`.
It prints one line: the session count, the stalled sessions, the
sessions whose private audit disagrees with what the parties hold, and
a SHA-256 over each session's script, transcript, every party's phase,
verdict, held item and violations, its stall flag, its audit with the
private keys and its audit with the public keys only.  Two trees print
the same line when they run every one of these sessions the same way.

After the line comes the outcome table: the sessions of each protocol and
timeout in each class of `CLASSES`, by their private-key audit.  A run
of every session then compares its table with `TABLE` and exits 1 if
they differ.  It takes about 55 s on one core of a 2-CPU Xeon host.

    python3 tools/sweep.py          # every session
    python3 tools/sweep.py 32       # every 32nd: 4,505 sessions, the slice tier-1 pins
"""

import hashlib
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from fairex.arith import Rng  # noqa: E402
from fairex.harness import FaultScript, audit, default_payload, live_flags, run_session  # noqa: E402
from fairex.keys import generate_system_params  # noqa: E402
from fairex.protocol import Protocol, SessionConfig  # noqa: E402
from fairex.wire import ROLES  # noqa: E402
from test_harness import every_directive  # noqa: E402

EXTRA_DIRECTIVES = [
    "1 drop",
    "2 corrupt_field 0 bitflip",
    "3 delay 4",
    "9 force_timeout B",
    "0 force_timeout A",
    "1 force_timeout B",
    "2 force_timeout STTP",
]
TIMEOUTS = (1, 8)

# Outcome classes, keyed by (fair, arbiter involved) of a session's audit, in the table's column order.
CLASSES = {
    (True, False): "fair, idle",
    (True, True): "fair, arbiter",
    (False, True): "unfair, arbiter",
    (False, False): "unfair, no arbiter message",
}
# The outcome table of every session, by protocol and timeout.
TABLE = {
    ("common", 1): (6081, 11800, 5628, 516),
    ("common", 8): (18277, 5056, 634, 58),
    ("linked", 1): (6081, 11800, 5628, 516),
    ("linked", 8): (18277, 5056, 634, 58),
    ("data-for-sig", 1): (6081, 11800, 5628, 516),
    ("data-for-sig", 8): (18277, 5056, 634, 58),
}


def sessions() -> list[tuple[Protocol, int, str]]:
    """(protocol, timeout, script) of each session, in the order the sweep runs and hashes them."""
    directives = every_directive() + EXTRA_DIRECTIVES
    scripts = [f"{first}\n{second}\n" for first in directives for second in directives]
    return [(protocol, timeout, script) for protocol in Protocol for timeout in TIMEOUTS for script in scripts]


def sweep(step: int = 1) -> tuple[str, dict[tuple[str, int], tuple[int, ...]]]:
    """The sweep's line and outcome table over every `step`-th session of `sessions()`, from the first."""
    params = generate_system_params("toy", Rng(bytes(32)))
    public = params.public()
    configs = {
        (protocol, timeout): SessionConfig(protocol, params, default_payload(protocol), seed=bytes(32), timeout=timeout)
        for protocol in Protocol
        for timeout in TIMEOUTS
    }
    digest = hashlib.sha256()
    count = stalls = disagreements = 0
    classes = {(protocol.value, timeout): Counter() for protocol, timeout in configs}
    for protocol, timeout, script in sessions()[::step]:
        cfg = configs[protocol, timeout]
        result = run_session(cfg, FaultScript.parse(script))
        report = audit(result.transcript, params, protocol, cfg.payload)
        count += 1
        stalls += result.stalled
        disagreements += report != live_flags(result)
        classes[protocol.value, timeout][report.fair, report.sttp_involved] += 1
        digest.update(repr((protocol.value, timeout, script)).encode())
        digest.update(result.transcript.to_text().encode())
        for role in ROLES:
            state = result.states[role]
            digest.update(repr((role, state.phase, state.verdict, state.acquired, state.violations)).encode())
        digest.update(repr((result.stalled, report, audit(result.transcript, public, protocol, cfg.payload))).encode())
    line = f"sessions {count} stalls {stalls} disagreements {disagreements} digest {digest.hexdigest()}"
    return line, {row: tuple(tally[key] for key in CLASSES) for row, tally in classes.items()}


def table_text(table: dict[tuple[str, int], tuple[int, ...]]) -> str:
    """The outcome table, one row per protocol and timeout."""
    rows = [("protocol", "timeout", *CLASSES.values())]
    rows += [(protocol, str(timeout), *map(str, counts)) for (protocol, timeout), counts in table.items()]
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join("  ".join(cell.rjust(width) for cell, width in zip(row, widths)) for row in rows)


if __name__ == "__main__":
    step = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    line, table = sweep(step)
    print(line)
    print(table_text(table))
    if step == 1:
        print("outcome table:", "as committed" if table == TABLE else "DIFFERS from the committed one")
        sys.exit(table != TABLE)
