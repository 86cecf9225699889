"""Shared fixtures: small topologies reused across the test suite.

Also registers the Hypothesis ``ci`` profile (``pytest
--hypothesis-profile=ci``): derandomized, so a CI failure reproduces,
and with more examples for the properties that leave their example
count to the profile.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.topology import (FatTreeTopology, GHCTopology, NestGHC, NestTree,
                            TorusTopology)

settings.register_profile("ci", derandomize=True, max_examples=300,
                          deadline=None)


@pytest.fixture(scope="session")
def small_torus() -> TorusTopology:
    return TorusTopology((4, 4, 2))


@pytest.fixture(scope="session")
def small_fattree() -> FatTreeTopology:
    return FatTreeTopology((4, 4, 2))


@pytest.fixture(scope="session")
def small_ghc() -> GHCTopology:
    return GHCTopology((4, 4), ports_per_switch=4)


@pytest.fixture(scope="session")
def small_nesttree() -> NestTree:
    # 64 endpoints: 8 subtori of 2x2x2, u=2 -> 32 uplink ports
    return NestTree(64, 2, 2)


@pytest.fixture(scope="session")
def small_nestghc() -> NestGHC:
    # 64 endpoints: u=4 -> 16 ports, 4 per switch -> 4 switches
    return NestGHC(64, 2, 4, ports_per_switch=4, ghc_dims=2)


@pytest.fixture(scope="session")
def all_small_topologies(small_torus, small_fattree, small_ghc,
                         small_nesttree, small_nestghc):
    return [small_torus, small_fattree, small_ghc, small_nesttree,
            small_nestghc]
