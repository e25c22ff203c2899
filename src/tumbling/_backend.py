"""Kernel backend selection: compiled extension when available, else pure Python.

Set ``TB_BACKEND=python`` or ``TB_BACKEND=compiled`` to force a choice (the
benchmark uses this); by default the compiled extension is preferred and the
pure-Python kernels are the fallback.
"""

from __future__ import annotations

import logging
import os

from . import _kernels_py

_log = logging.getLogger("tumbling")

_forced = os.environ.get("TB_BACKEND", "").strip().lower()

if _forced == "python":
    _impl = _kernels_py
    BACKEND = "python"
elif _forced == "compiled":
    from . import _kernels as _impl  # ImportError here is intentional: user asked for it

    BACKEND = "compiled"
else:
    try:
        from . import _kernels as _impl

        BACKEND = "compiled"
    except ImportError:
        _impl = _kernels_py
        BACKEND = "python"


def kernels_for(n: int):
    """Kernel module able to handle an n-vertex instance."""
    if n > _impl.MAX_N:
        _log.debug("n=%d exceeds MAX_N=%d of the %s kernel; using pure Python", n, _impl.MAX_N, BACKEND)
        return _kernels_py
    return _impl


def backend_name() -> str:
    return BACKEND
