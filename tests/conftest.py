"""Shared fixtures: keys, preset graphs and a few small reusable traces.

Session scope is used for anything deterministic and immutable so the suite
does not rebuild identical structures hundreds of times.
"""

from __future__ import annotations

import pytest

from mgxsim.replay import derive_keys
from mgxsim.workloads import VnSource, load_preset
from mgxsim.workloads.trace import TraceBuilder


@pytest.fixture(scope="session")
def keys():
    return derive_keys(0)


@pytest.fixture(scope="session")
def enc_key(keys):
    return keys[0]


@pytest.fixture(scope="session")
def mac_key(keys):
    return keys[1]


@pytest.fixture(scope="session")
def micro_graph():
    return load_preset("micro")


@pytest.fixture(scope="session")
def lenet_graph():
    return load_preset("lenet")


@pytest.fixture(scope="session")
def rare_relocation_trace():
    """Two 64-byte objects: `a` written twice and read 300 times before `b`
    is written and `a` read once more. Only that last read has a relocation
    source, so random picks of a read rarely find one."""
    b = TraceBuilder("rare", mac_granularity=64)
    a = b.alloc("a", 64)
    other = b.alloc("b", 64)
    src = VnSource("feature", 1)
    for _ in range(2):
        b.update("update_i")
        b.new_group()
        b.write(a, src)
    b.new_group()
    for _ in range(300):
        b.read(a, src)
    b.write(other, src)
    b.read(a, src)
    return b.trace
