"""The ``reference|vectorized`` switch: selection precedence (scope >
``select_backend`` > ``REPRO_KERNELS`` > default), eager rejection of
unknown names, and scope restoration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codec import kernels, transform


@pytest.fixture(autouse=True)
def _clear_selection(monkeypatch):
    monkeypatch.delenv("REPRO_KERNELS", raising=False)
    kernels.select_backend(None)
    yield
    kernels.select_backend(None)


def test_default_backend_is_vectorized():
    assert kernels.active_backend() == "vectorized"
    assert kernels.is_vectorized()


def test_builtin_backends_registered_in_order():
    assert kernels.KERNEL_BACKENDS == ("reference", "vectorized")
    assert kernels.DEFAULT_BACKEND in kernels.KERNEL_BACKENDS


def test_available_backends_always_run():
    blocks = np.arange(2 * 16, dtype=np.int32).reshape(2, 4, 4) - 9
    coeffs = []
    for name in kernels.KERNEL_BACKENDS:
        with kernels.backend_scope(name):
            assert kernels.active_backend() == name
            coeffs.append(transform.forward_4x4(blocks))
    np.testing.assert_array_equal(coeffs[0], coeffs[1])


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "reference")
    assert kernels.active_backend() == "reference"
    assert not kernels.is_vectorized()
    monkeypatch.setenv("REPRO_KERNELS", "  Vectorized  ")
    assert kernels.active_backend() == "vectorized"
    monkeypatch.setenv("REPRO_KERNELS", "\tREFERENCE\n")
    assert kernels.active_backend() == "reference"
    monkeypatch.setenv("REPRO_KERNELS", "")
    assert kernels.active_backend() == kernels.DEFAULT_BACKEND


def test_env_var_rejects_unknown(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "simd")
    with pytest.raises(ValueError, match="unknown kernel backend"):
        kernels.active_backend()
    with pytest.raises(ValueError):
        kernels.is_vectorized()


def test_select_backend_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "vectorized")
    kernels.select_backend("reference")
    assert kernels.active_backend() == "reference"
    kernels.select_backend(None)
    assert kernels.active_backend() == "vectorized"


def test_select_backend_rejects_unknown_eagerly():
    with pytest.raises(ValueError, match="reference, vectorized"):
        kernels.select_backend("scalar")
    # The failed call must not have clobbered the selection.
    assert kernels.active_backend() == kernels.DEFAULT_BACKEND


def test_backend_scope_nesting_innermost_wins(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "reference")
    kernels.select_backend("vectorized")
    with kernels.backend_scope("reference"):
        assert kernels.active_backend() == "reference"
        with kernels.backend_scope("vectorized") as name:
            assert name == "vectorized"
            assert kernels.active_backend() == "vectorized"
        assert kernels.active_backend() == "reference"
    assert kernels.active_backend() == "vectorized"


def test_backend_scope_restores_on_error():
    with pytest.raises(RuntimeError):
        with kernels.backend_scope("reference"):
            with kernels.backend_scope("vectorized"):
                raise RuntimeError("boom")
    assert kernels.active_backend() == "vectorized"
    assert kernels._override_stack == []


def test_use_backend_restores_on_error():
    with pytest.raises(RuntimeError):
        with kernels.backend_scope("reference"):
            raise RuntimeError("boom")
    assert kernels.active_backend() == "vectorized"


def test_backend_scope_rejects_unknown():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        with kernels.backend_scope("fast"):
            pass  # pragma: no cover
    assert kernels._override_stack == []
