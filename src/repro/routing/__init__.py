"""Pure routing algorithms.

Each module implements one deterministic routing rule as pure functions over
coordinates, independent of any concrete topology object, so the algorithms
can be unit-tested in isolation:

* :mod:`repro.routing.dor` — dimension-order routing on tori/meshes,
* :mod:`repro.routing.updown` — minimal UP*/DOWN* routing on generalised
  k-ary n-trees (with d-mod-k up-port selection),
* :mod:`repro.routing.ecube` — e-cube routing on generalised hypercubes,
* :mod:`repro.routing.policy` — candidate-selection policies
  (deterministic / ecmp / adaptive) applied on top of the per-topology
  candidate sets.

Each rule also exposes a candidate enumeration (``dor.paths``,
``updown.switch_paths``, ``ecube.paths``) returning *every* minimal walk
with the deterministic one first; the topologies assemble these into
:meth:`repro.topology.base.Topology.route_candidates`.
"""

from repro.routing import dor, ecube, policy, updown
from repro.routing.policy import ROUTING_POLICIES, validate_policy

__all__ = ["ROUTING_POLICIES", "dor", "ecube", "policy", "updown",
           "validate_policy"]
