"""The benchmark's tracer (perfbench/tracing.py) wraps the module attributes
named in its HOOKS. A refactor that renames or deletes one of them breaks every
traced benchmark run, so the tier-1 suite checks each one here."""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_every_hooked_attribute_exists(tracing):
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in tracing.HOOKS
               if not hasattr(module, attr)]
    assert missing == []


def test_install_then_restore_leaves_the_originals(tracing):
    originals = [getattr(module, attr) for module, attr, *_ in tracing.HOOKS]
    tracer = tracing.Tracer().install()
    try:
        installed = [getattr(module, attr) for module, attr, *_ in tracing.HOOKS]
    finally:
        tracer.restore()
    assert all(wrapper is not original for wrapper, original in zip(installed, originals))
    restored = [getattr(module, attr) for module, attr, *_ in tracing.HOOKS]
    assert all(now is original for now, original in zip(restored, originals))
