"""Functional and performance simulator for off-chip memory protection.

Two protection schemes over the same untrusted-DRAM model:

* baseline: stored version numbers in counter lines, an integrity tree over
  them with an on-chip root, and per-block MACs packed into MAC lines.
* mgx: version numbers generated on chip from a handful of counters plus
  object metadata, with object-granularity MACs and no stored counters.

Traces produced by :mod:`mgxsim.workloads` replay through either scheme via
:mod:`mgxsim.replay`; :mod:`mgxsim.perf` turns the resulting access log into
bandwidth and execution-time estimates; :mod:`mgxsim.attacks` runs tamper
campaigns against live replays.
"""

from .baseline import BaselineConfig, BaselineGeometry, BaselineMee
from .crypto import (
    CIPHER_BLOCK,
    EncryptionKey,
    MacKey,
    compute_mac,
    keystream_xor,
    keystream_xor_at,
)
from .dram import BitFlip, PhysicalMemory, Relocate, Splice
from .errors import (
    AddressError,
    AlignmentError,
    ConfigError,
    SecurityInvariantFault,
    TamperDetected,
    VerifyMismatch,
)
from .mgx import MgxMee, MgxState, ObjectDescriptor

__all__ = [
    "AddressError",
    "AlignmentError",
    "BaselineConfig",
    "BaselineGeometry",
    "BaselineMee",
    "BitFlip",
    "CIPHER_BLOCK",
    "ConfigError",
    "EncryptionKey",
    "MacKey",
    "MgxMee",
    "MgxState",
    "ObjectDescriptor",
    "PhysicalMemory",
    "Relocate",
    "SecurityInvariantFault",
    "Splice",
    "TamperDetected",
    "VerifyMismatch",
    "compute_mac",
    "keystream_xor",
    "keystream_xor_at",
]

__version__ = "0.1.0"
