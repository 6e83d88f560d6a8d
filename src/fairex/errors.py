"""Exception hierarchy shared by all fairex modules, and their whole-file reads and writes."""

import os
import threading
from pathlib import Path


class FairexError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(FairexError):
    """An argument violates a precondition (bad range, bad size, bad shape)."""


class NotInvertibleError(FairexError):
    """Modular inverse requested for a value not coprime to the modulus."""


class DomainError(FairexError):
    """A message representative does not fit below the signer's modulus."""


class EmbeddingError(FairexError):
    """A plaintext does not embed into the ElGamal group (must be in (0, P))."""


class SetupError(FairexError):
    """Key or parameter generation failed, or generated material is invalid."""


class WireError(FairexError):
    """A wire message cannot be encoded or decoded."""


class TranscriptError(FairexError):
    """A transcript file is malformed or truncated."""


class FaultScriptError(FairexError):
    """A fault script cannot be parsed or references unknown targets."""


def read_text(path: str | Path, error: type[FairexError]) -> str:
    """The text of a file, line ends as written.

    A file that is not UTF-8 raises `error`, not UnicodeDecodeError.
    """
    try:
        return Path(path).read_bytes().decode()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not a text file ({exc.reason} at byte {exc.start})") from None


def write_whole(path: str | Path, data: bytes) -> None:
    """Write a new file beside `path` and rename it onto `path`: readers see the old bytes or the new."""
    temp = Path(f"{path}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        temp.write_bytes(data)
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)
