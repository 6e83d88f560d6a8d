"""Command-line interface.

    fairex keygen  --profile {paper,toy} --seed HEX --out FILE [--public-out FILE]
    fairex run     [--protocol {common,linked,data-for-sig}] [PAYLOAD] --keys FILE
                   --seed HEX [--fault NAME_OR_FILE] [--transcript OUT] [--timeout TICKS]
    fairex audit   [--protocol {common,linked,data-for-sig}] [PAYLOAD] --keys FILE
                   --transcript FILE
    fairex vectors --out DIR

PAYLOAD is --message TEXT (common), --file-a FILE --file-b FILE (linked)
or --data TEXT (data-for-sig); without it the protocol's built-in payload
is used.  A payload flag of another protocol is a usage error.  `audit`
judges the items against the protocol and payload it is given, so it
needs the same --protocol and payload flags as the `run` that wrote the
transcript; --protocol defaults to common for both.

Exit codes: 0 success / fair outcome, 1 unfair outcome detected,
2 usage error or unreadable input.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from .errors import FairexError
from .harness import (
    SHIPPED_FAULT_SCRIPTS,
    FaultScript,
    audit,
    default_payload,
    run_session,
    shipped_script,
)
from .keys import PROFILES, generate_system_params, load_params, save_params
from .arith import Rng
from .protocol import Protocol, SessionConfig
from .vectors import generate_vectors
from .wire import Transcript

_PROTOCOLS = {p.value: p for p in Protocol}
_PAYLOAD_FLAGS = {
    "message": Protocol.COMMON_MESSAGE,
    "file_a": Protocol.LINKED_FILES,
    "file_b": Protocol.LINKED_FILES,
    "data": Protocol.DATA_FOR_SIGNATURE,
}


def _parse_seed(text: str) -> bytes:
    try:
        raw = bytes.fromhex(text)
    except ValueError:
        raise FairexError(f"seed must be hex, got {text!r}") from None
    return raw if len(raw) == 32 else hashlib.sha256(raw).digest()


def _load_fault(spec: str) -> FaultScript:
    if spec in SHIPPED_FAULT_SCRIPTS:
        return shipped_script(spec)
    path = Path(spec)
    if not path.exists():
        raise FairexError(
            f"fault script {spec!r} is neither a shipped script "
            f"({', '.join(sorted(SHIPPED_FAULT_SCRIPTS))}) nor a file"
        )
    return FaultScript.load(path)


def _payload_from_args(args) -> bytes | tuple[bytes, bytes]:
    """The payload the flags give, else the protocol's default."""
    protocol = _PROTOCOLS[args.protocol]
    for flag, owner in _PAYLOAD_FLAGS.items():
        if getattr(args, flag) is not None and owner is not protocol:
            raise FairexError(
                f"--{flag.replace('_', '-')} belongs to --protocol {owner.value}, not {protocol.value}"
            )
    for flag in ("message", "data"):
        text = getattr(args, flag)
        if text is not None:
            try:
                return text.encode()
            except UnicodeEncodeError as exc:  # argv bytes that are not UTF-8
                raise FairexError(f"--{flag} is not UTF-8 text ({exc.reason})") from None
    if args.file_a or args.file_b:
        if not (args.file_a and args.file_b):
            raise FairexError("linked protocol needs both --file-a and --file-b")
        return (Path(args.file_a).read_bytes(), Path(args.file_b).read_bytes())
    return default_payload(protocol)


def _cmd_keygen(args) -> int:
    params = generate_system_params(args.profile, Rng(_parse_seed(args.seed)))
    save_params(params, args.out)
    if args.public_out:
        save_params(params.public(), args.public_out)
    print(f"wrote {args.out} (profile {args.profile})")
    return 0


def _report_lines(report) -> list[str]:
    return [
        f"fair outcome:        {'yes' if report.fair else 'NO'}",
        f"arbiter involved:    {'yes' if report.sttp_involved else 'no'}",
        f"arbiter saw V_A:     {'YES' if report.sttp_saw_va else 'no'}",
        f"A holds valid item:  {'yes' if report.a_acquired_valid else 'no'}",
        f"B holds valid item:  {'yes' if report.b_acquired_valid else 'no'}",
    ]


def _cmd_run(args) -> int:
    protocol = _PROTOCOLS[args.protocol]
    payload = _payload_from_args(args)
    params = load_params(args.keys)
    cfg = SessionConfig(
        protocol=protocol,
        params=params,
        payload=payload,
        seed=_parse_seed(args.seed),
        timeout=args.timeout,
    )
    fault = _load_fault(args.fault)
    result = run_session(cfg, fault)
    if args.transcript:
        result.transcript.save(args.transcript)
    report = audit(result.transcript, params, protocol, payload)
    verdicts = ", ".join(f"{r}={result.states[r].verdict}" for r in ("A", "B"))
    print(f"run finished ({verdicts}){' [stalled]' if result.stalled else ''}")
    for line in _report_lines(report):
        print(line)
    return 0 if report.fair else 1


def _cmd_audit(args) -> int:
    payload = _payload_from_args(args)
    params = load_params(args.keys)
    transcript = Transcript.load(args.transcript)
    report = audit(transcript, params, _PROTOCOLS[args.protocol], payload)
    for line in _report_lines(report):
        print(line)
    return 0 if report.fair else 1


def _cmd_vectors(args) -> int:
    path = generate_vectors(args.out)
    print(f"wrote {path}")
    return 0


def _add_payload_args(sub) -> None:
    sub.add_argument("--protocol", choices=sorted(_PROTOCOLS), default="common")
    sub.add_argument("--message", help="message text (common protocol)")
    sub.add_argument("--file-a", help="path to A's file (linked protocol)")
    sub.add_argument("--file-b", help="path to B's file (linked protocol)")
    sub.add_argument("--data", help="data payload text (data-for-sig protocol)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairex", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    keygen = commands.add_parser("keygen", help="generate a parameter/key file")
    keygen.add_argument("--profile", choices=sorted(PROFILES), required=True)
    keygen.add_argument("--seed", required=True, help="hex seed")
    keygen.add_argument("--out", required=True)
    keygen.add_argument("--public-out", help="also write a private-free export")
    keygen.set_defaults(func=_cmd_keygen)

    run = commands.add_parser("run", help="simulate one exchange session")
    _add_payload_args(run)
    run.add_argument("--keys", required=True)
    run.add_argument("--seed", required=True, help="hex seed")
    run.add_argument("--fault", default="none", help="shipped script name or script file")
    run.add_argument("--transcript", help="write the transcript here")
    run.add_argument("--timeout", type=int, default=8, help="ticks before a waiting party gives up")
    run.set_defaults(func=_cmd_run)

    aud = commands.add_parser("audit", help="recompute fairness flags from a transcript")
    _add_payload_args(aud)
    aud.add_argument("--transcript", required=True)
    aud.add_argument("--keys", required=True)
    aud.set_defaults(func=_cmd_audit)

    vectors = commands.add_parser("vectors", help="emit deterministic certificate vectors")
    vectors.add_argument("--out", required=True)
    vectors.set_defaults(func=_cmd_vectors)
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (FairexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())
