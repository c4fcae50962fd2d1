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

__version__ = "0.1.0"
