"""Exception types shared across the simulator."""

from __future__ import annotations

from typing import get_args, get_origin


class ConfigError(ValueError):
    """Invalid configuration value (bad scheme name, vID overflow, odd region size, ...)."""


def has_type(value, annotation) -> bool:
    """Whether a configured value has its annotated type: an int passes for a
    float, a bool passes only for a bool, and a JSON list of T for
    tuple[T, ...]."""
    if get_origin(annotation) is tuple:
        item = get_args(annotation)[0]
        return isinstance(value, (list, tuple)) and all(has_type(v, item) for v in value)
    want = (int, float) if annotation is float else annotation
    return isinstance(value, want) and (annotation is bool or not isinstance(value, bool))


class TraceFormatError(ConfigError):
    """A trace artifact on disk is malformed or internally inconsistent.

    Kept distinct from plain ConfigError because a corrupted trace is a
    verification failure of the input data, not a usage mistake."""


class AddressError(ValueError):
    """Access outside the modeled physical address space."""


class AlignmentError(ValueError):
    """Physical address violates a required alignment."""


class TamperDetected(Exception):
    """An integrity check failed; the simulated run drops the access and locks.

    Attributes:
        reason: human-readable description of the failed check.
        addr: physical address of the offending access, when known.

    `replay` records it in its result; `config.run_experiment` raises it.
    """

    def __init__(self, reason: str, addr: int | None = None):
        super().__init__(reason if addr is None else f"{reason} (addr=0x{addr:x})")
        self.reason = reason
        self.addr = addr


class SecurityInvariantFault(AssertionError):
    """A schedule check tripped: a (block, VN) pair was written twice, or an
    unwritten or stale byte was read. A broken workload schedule, not an attack."""


class VerifyMismatch(Exception):
    """A replayed load returned plaintext that differs from the expected payload."""

    def __init__(self, message: str, event_index: int | None = None):
        super().__init__(message)
        self.event_index = event_index
