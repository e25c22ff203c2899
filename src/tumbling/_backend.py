"""The branch-and-bound kernels every solver runs: ``_kernels_py``.

``kernels_for`` is the one place ``solvers`` asks for them, so a caller (a
test stub, the benchmark's tracer) can substitute its own module there.
"""

from __future__ import annotations

from . import _kernels_py as _impl


def kernels_for(n: int):
    """Kernel module for an n-vertex instance."""
    return _impl


def backend_name() -> str:
    return "python"
