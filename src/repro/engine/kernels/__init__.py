"""Fill kernels of the incremental allocator.

The progressive-filling water-level loop (shared by full passes and
suffix-resumed relevels) and the residual replay are
:class:`~repro.engine.active.ActiveSet`'s allocation hot spots.  They
live in :mod:`repro.engine.kernels.numpy_fill` behind a narrow array
contract (see that module), pure NumPy.
"""

from __future__ import annotations


def default_name() -> str:
    """Name of the fill backend the engine runs (recorded by benchmarks)."""
    return "numpy"
