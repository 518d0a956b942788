"""Kernel-backend switch (``REPRO_KERNELS=reference|vectorized``).

The codec's hot loops (SATD/DCT/quant in :mod:`repro.codec.transform`,
candidate scoring in :mod:`repro.codec.motion`, 4x4 intra prediction in
:mod:`repro.codec.intra`, edge filtering in :mod:`repro.codec.deblock`,
run-level coding in :mod:`repro.codec.entropy`) each have two twins:

- ``reference`` — the original per-block / per-candidate Python loops,
  kept verbatim as the readable specification of each kernel and as the
  bit-identity oracle;
- ``vectorized`` — batched NumPy rewrites (whole-frame blockify, fixed
  contraction paths instead of per-call ``einsum`` path searches, bulk
  bit appends) that produce **bit-identical** outputs.

Bit-identity is a hard contract, enforced by
``tests/property/test_kernel_equivalence.py``: both backends yield the
same bitstream, reconstruction, search-point counts, and visited
positions, so sweep cache entries, golden trends, and the µarch traces
are backend-independent. The choice changes only how long a cell takes.

The active backend resolves, in order, from:

1. the innermost :func:`backend_scope` context (tests, the bench
   harness's ``reference`` side),
2. an explicit :func:`select_backend` call (`Settings.apply` routes
   here),
3. the ``REPRO_KERNELS`` environment variable (re-read on every call, so
   callers may flip it mid-process),
4. the default, ``vectorized``.

Unknown names raise ``ValueError`` eagerly, listing both backends.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "KERNEL_BACKENDS",
    "DEFAULT_BACKEND",
    "active_backend",
    "backend_scope",
    "is_vectorized",
    "select_backend",
]

#: Every backend name, ``reference`` first.
KERNEL_BACKENDS: tuple[str, ...] = ("reference", "vectorized")

DEFAULT_BACKEND = "vectorized"

_ENV_VAR = "REPRO_KERNELS"

#: Explicitly selected backend (``select_backend``); ``None`` defers to
#: the environment / default.
_forced: str | None = None
#: Stack of ``backend_scope`` overrides; the innermost wins.
_override_stack: list[str] = []


def _validate(name: str) -> str:
    if name not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r}; "
            f"expected one of {', '.join(KERNEL_BACKENDS)}"
        )
    return name


def active_backend() -> str:
    """The backend every dispatched kernel uses right now."""
    if _override_stack:
        return _override_stack[-1]
    if _forced is not None:
        return _forced
    env = os.environ.get(_ENV_VAR)
    if env:
        return _validate(env.strip().lower())
    return DEFAULT_BACKEND


def is_vectorized() -> bool:
    """Fast predicate for the hot-path dispatch sites."""
    return active_backend() == "vectorized"


def select_backend(name: str | None) -> None:
    """Select a backend process-wide (``None`` reverts to env/default).

    Unknown names raise ``ValueError`` eagerly, listing both backends.
    """
    global _forced
    _forced = None if name is None else _validate(name)


@contextmanager
def backend_scope(name: str) -> Iterator[str]:
    """Scoped backend override (nestable; the innermost context wins).

    The previous backend is restored even when the body raises.
    """
    _override_stack.append(_validate(name))
    try:
        yield name
    finally:
        _override_stack.pop()
