"""Pure routing algorithms.

Each module implements one deterministic routing rule as pure functions over
coordinates, independent of any concrete topology object, so the algorithms
can be unit-tested in isolation:

* :mod:`repro.routing.dor` — dimension-order routing on tori/meshes,
* :mod:`repro.routing.ecube` — e-cube routing on generalised hypercubes,
* :mod:`repro.routing.policy` — candidate-selection policies
  (deterministic / ecmp / adaptive) applied on top of the per-topology
  candidate sets.

The topologies compute every minimal route of many pairs at once from
their wiring layout (:meth:`repro.topology.base.Topology.candidate_routes`):
``dor.path_links`` takes a wrap-tie direction choice per pair, and the
fabrics' ``port_links`` a climb-digit or dimension-order choice.  The tree
fabrics' minimal UP*/DOWN* rule lives with the fabric
(:class:`repro.topology.thintree.ThinTreeFabric`).
"""

from repro.routing import dor, ecube, policy
from repro.routing.policy import ROUTING_POLICIES, validate_policy

__all__ = ["ROUTING_POLICIES", "dor", "ecube", "policy", "validate_policy"]
