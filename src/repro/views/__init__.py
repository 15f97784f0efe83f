"""Materialized c-table views with incremental delta maintenance.

The query side of the system (:mod:`repro.ctalgebra`) folds queries into
representations; this package keeps those folded results **warm** under
updates.  :class:`ViewManager` registers RA expressions as materialized
views, evaluates them once through the cost-based planner, and maintains
them incrementally as the update operators of
:mod:`repro.extensions.updates` mutate the database — insert deltas
propagate through cached plan trees via the rules in
:mod:`repro.ctalgebra.delta`, deletes that purely remove rows propagate
as removal deltas, and condition-rewriting deletes (and inserts under a
difference's right side) trigger targeted recomputation of just the
affected subtree.  See :mod:`repro.views.manager` for the full contract
and ``docs/architecture.md`` for the lifecycle.

:mod:`repro.views.persist` is the sidecar registry shared by the CLI
(``repro view ...``) and the server (``repro serve``): one on-disk
format, loaded and saved through one module.  Its stored tables are
read only where their file digest matches; the server re-materializes
every stored view from its rule text.
"""

from .manager import ViewError, ViewManager
from .persist import (
    RegistryFormatError,
    load_registry,
    manager_from_registry,
    manager_to_registry,
    save_registry,
)

__all__ = [
    "ViewManager",
    "ViewError",
    "RegistryFormatError",
    "load_registry",
    "save_registry",
    "manager_to_registry",
    "manager_from_registry",
]
