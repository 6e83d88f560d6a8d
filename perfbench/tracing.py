"""Layer spans for the fairex benchmark, installed from outside the package.

The tracer wraps the public functions of each fairex module, plus the
party `step` methods, the transport, the fault-script parser and the wire
codec, under every name that holds them: `protocol` and `harness` import
functions with `from .cembs import cembs_verify`, so a wrapper must also
replace the copy in the importing module's namespace.  SHA-256 calls are
counted by wrapping `hashlib.sha256`; random bytes by wrapping
`Rng.random_bytes`.  Miller-Rabin shows up as `is_probable_prime`, since
it calls the builtin `pow`, which a `mod_exp` wrapper never sees.

Spans stay in memory as (name, start, end, parent, session) and are
written out once the run ends.  A span's self time is its duration minus
the durations of its direct child spans.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("arith", "keys", "rsa", "elgamal", "cembs", "wire", "protocol", "harness")

# Integer codecs and range draws run once per field or per sample; a span
# around each would cost more than the call it measures.  The per-party
# key generators are left inside generate_system_params's own span.
SKIPPED = {
    "int_to_bytes", "int_from_bytes", "int_to_fixed_bytes", "sample_range",
    "init_client_a", "init_client_b", "init_sttp",
}

# (module, class, attribute, span name) for methods on the session path.
METHODS = (
    ("protocol", "ClientA", "step", "protocol.ClientA.step"),
    ("protocol", "ClientB", "step", "protocol.ClientB.step"),
    ("protocol", "Sttp", "step", "protocol.Sttp.step"),
    ("harness", "Transport", "send", "harness.Transport.send"),
    ("harness", "Transport", "deliver", "harness.Transport.deliver"),
    ("harness", "FaultScript", "parse", "harness.FaultScript.parse"),
    ("wire", "WireMessage", "encode", "wire.encode"),
    ("wire", "WireMessage", "decode", "wire.decode"),
    ("wire", "Transcript", "from_text", "wire.transcript_parse"),
)

SETUP = -1  # session id of spans recorded while keys are made and loaded


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1, session); None while open
        self.spans: list[tuple | None] = []
        self.counts: dict[tuple[str, int], int] = defaultdict(int)
        self.session = SETUP
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"fairex.{name}") for name in MODULES}
        holders = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "fairex"]
        for short, module in modules.items():
            for name, fn in list(vars(module).items()):
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not name.startswith("_")
                    and name not in SKIPPED
                ):
                    wrapped = self._span(f"{short}.{name}", fn)
                    for holder in holders:
                        for attr, value in list(vars(holder).items()):
                            if value is fn:
                                self._patch(holder, attr, wrapped)
        for short, cls_name, attr, span_name in METHODS:
            cls = getattr(modules[short], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._span(span_name, raw.__func__)))
            else:
                self._patch(cls, attr, self._span(span_name, raw))
        rng_cls = modules["arith"].Rng
        self._patch(rng_cls, "random_bytes", self._rng_counter(rng_cls.__dict__["random_bytes"]))
        self._patch(hashlib, "sha256", self._sha_counter(hashlib.sha256))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def _patch(self, holder, attr: str, replacement) -> None:
        self._patched.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, replacement)

    def _span(self, name: str, fn):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.session)

        traced.__name__, traced.__qualname__, traced.__doc__ = fn.__name__, fn.__qualname__, fn.__doc__
        return traced

    def _rng_counter(self, fn):
        counts, tracer = self.counts, self

        def random_bytes(rng, n):
            counts["arith.rng_bytes", tracer.session] += n
            return fn(rng, n)

        return random_bytes

    def _sha_counter(self, fn):
        counts, tracer = self.counts, self

        def sha256(*args, **kwargs):
            counts["arith.sha256.calls", tracer.session] += 1
            return fn(*args, **kwargs)

        return sha256

    # --- output -------------------------------------------------------------

    def export(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "counts": [[name, session, n] for (name, session), n in self.counts.items()],
        }

    def merge(self, exported: dict, session: int) -> None:
        """Append the spans and counts of a traced child process as one session."""
        offset = len(self.spans)
        for name, start, end, parent, _ in exported["spans"]:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1, session))
        for name, _, n in exported["counts"]:
            self.counts[name, session] += n

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("session\tname\tstart_s\tend_s\tparent\n")
            for name, start, end, parent, session in self.spans:
                out.write(f"{session}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


# --- per-layer metrics ------------------------------------------------------

PER_SESSION_CALLS = (
    "keys.validate_params",
    "arith.mod_exp",
    "arith.is_probable_prime",
    "rsa.rsa_sign",
    "rsa.rsa_verify",
    "cembs.encrypt_and_certify",
    "cembs.cembs_verify",
    "cembs.blind_commit",
    "cembs.hash_challenge",
    "elgamal.elg_encrypt",
    "elgamal.elg_decrypt",
    "elgamal.blind_half",
    "elgamal.unblind",
    "wire.encode",
    "wire.decode",
)
PER_SESSION_SELF = (
    "keys.validate_params",
    "arith.mod_exp",
    "arith.is_probable_prime",
    "rsa.rsa_sign",
    "rsa.rsa_verify",
    "cembs.encrypt_and_certify",
    "cembs.cembs_verify",
    "elgamal.elg_encrypt",
    "elgamal.elg_decrypt",
    "elgamal.blind_half",
    "elgamal.unblind",
    "wire.transcript_parse",
    "protocol.build_parties",
    "protocol.ClientA.step",
    "protocol.ClientB.step",
    "protocol.Sttp.step",
    "harness.run_session",
    "harness.Transport.send",
    "harness.Transport.deliver",
    "harness.FaultScript.parse",
    "harness.audit",
)
# Set-up functions: self time per call, counting set-up and sessions alike.
PER_CALL_SELF = ("keys.generate_system_params", "keys.load_params")
CERT_FUNCTIONS = ("cembs.encrypt_and_certify", "cembs.cembs_verify")
STEPS = ("protocol.ClientA.step", "protocol.ClientB.step", "protocol.Sttp.step")


def layer_metrics(
    tracer: Tracer, sessions: int, setups: int, messages: int, wire_bytes: int
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, as name -> (value, unit).

    Counts and self times are per session, over spans recorded inside
    sessions, except where a name says otherwise.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    all_calls: dict[str, int] = defaultdict(int)
    all_self_s: dict[str, float] = defaultdict(float)
    cert_mod_exp: dict[str, int] = defaultdict(int)
    for i, (name, start, end, parent, session) in enumerate(spans):
        own = end - start - child_time[i]
        all_calls[name] += 1
        all_self_s[name] += own
        if session == SETUP:
            continue
        calls[name] += 1
        self_s[name] += own
        if name == "arith.mod_exp":
            while parent >= 0:
                if spans[parent][0] in CERT_FUNCTIONS:
                    cert_mod_exp[spans[parent][0]] += 1
                    break
                parent = spans[parent][3]

    def count(name: str) -> int:
        return sum(n for (key, session), n in tracer.counts.items() if key == name and session != SETUP)

    n = max(sessions, 1)
    out: dict[str, tuple[float, str]] = {}
    for name in PER_SESSION_CALLS:
        out[f"{name}.calls"] = (calls[name] / n, "count")
    for name in PER_SESSION_SELF:
        out[f"{name}.self_ms"] = (self_s[name] * 1e3 / n, "ms")
    for name in PER_CALL_SELF:
        out[f"{name}.self_ms"] = (all_self_s[name] * 1e3 / max(all_calls[name], 1), "ms")
    setup_prime_s = all_self_s["arith.is_probable_prime"] - self_s["arith.is_probable_prime"]
    out["arith.is_probable_prime.setup_ms"] = (setup_prime_s * 1e3 / max(setups, 1), "ms")
    for name in CERT_FUNCTIONS:
        out[f"{name}.mod_exp_per_call"] = (cert_mod_exp[name] / max(calls[name], 1), "count")
    out["arith.sha256.calls"] = (count("arith.sha256.calls") / n, "count")
    out["arith.rng_bytes"] = (count("arith.rng_bytes") / n, "bytes")
    out["wire.bytes_per_session"] = (wire_bytes / n, "bytes")
    out["protocol.step.calls"] = (sum(calls[s] for s in STEPS) / n, "count")
    out["harness.messages_per_session"] = (messages / n, "count")
    out["harness.ticks_per_session"] = (calls["harness.Transport.deliver"] / n, "count")
    return out
