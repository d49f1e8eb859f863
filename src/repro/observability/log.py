"""The library logger: where residual ``print()`` output was routed.

REP008 bans ``print()`` in library code (``src/repro/``, CLIs exempt) —
the ``progress`` callback (:class:`~repro.api.callbacks.ProgressLogger`)
writes its lines through :func:`get_logger` instead.  The logger writes
plain messages to stdout at INFO level by default, and a host application
can reconfigure, silence or redirect the ``repro`` logger hierarchy with the
standard ``logging`` API — something ``print()`` never allowed.
"""

from __future__ import annotations

import logging
import sys
from typing import Optional

__all__ = ["get_logger"]

_CONFIGURED = False


def _configure_root() -> None:
    global _CONFIGURED
    if _CONFIGURED:
        return
    root = logging.getLogger("repro")
    if not root.handlers:
        handler = logging.StreamHandler(sys.stdout)
        handler.setFormatter(logging.Formatter("%(message)s"))
        root.addHandler(handler)
        root.setLevel(logging.INFO)
        root.propagate = False
    _CONFIGURED = True  # repro: noqa[REP102] idempotent per-process logging setup


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """A logger under the ``repro`` hierarchy (``repro.<name>``).

    First use attaches a plain-message stdout handler to the ``repro`` root
    logger unless the host application configured one already.
    """
    _configure_root()
    if not name:
        return logging.getLogger("repro")
    if name.startswith("repro"):
        return logging.getLogger(name)
    return logging.getLogger(f"repro.{name}")
