"""Shared fixtures for the test suite."""

from __future__ import annotations

import io
import pickle
import signal
import sys
from pathlib import Path

import pytest

# Allow running the tests without installing the package.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import SharkContext  # noqa: E402
from repro.engine import EngineContext  # noqa: E402

#: Hang guard: an admission/cancellation deadlock in the cooperative
#: lifecycle scheduler must fail the test run fast, not hang it.  Must
#: exceed the example-subprocess timeouts in test_examples.py (240s) so
#: slow-but-progressing tests never false-positive.  CI additionally
#: installs pytest-timeout and sets job-level timeout-minutes.
_TEST_TIMEOUT_S = 300


@pytest.fixture(autouse=True)
def _hang_guard():
    if (
        not hasattr(signal, "SIGALRM")
        or signal.getsignal(signal.SIGALRM) not in
        (signal.SIG_DFL, signal.SIG_IGN, None)
    ):
        # No SIGALRM (non-POSIX) or something else owns it: skip the guard.
        yield
        return

    def _timed_out(signum, frame):
        raise TimeoutError(
            f"test exceeded the {_TEST_TIMEOUT_S}s hang guard "
            "(cooperative-scheduling deadlock?)"
        )

    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(_TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


#: Contexts built since the last test's teardown (its fixtures' too),
#: held until that teardown checks them: a wrapped __init__ adds each,
#: so src has no test hook.  A ``keeps_engine_state`` test adds none.
_BUILT: list[EngineContext] = []
_engine_init = EngineContext.__init__


def _registering_init(self, *args, **kwargs):
    _engine_init(self, *args, **kwargs)
    _BUILT.append(self)


EngineContext.__init__ = _registering_init


@pytest.fixture(autouse=True)
def _engine_invariants(request):
    """Each context a test built ends clean, unless the test is marked
    ``keeps_engine_state(reason=...)``."""
    held = request.node.get_closest_marker("keeps_engine_state")
    assert held is None or held.kwargs["reason"]
    EngineContext.__init__ = _engine_init if held else _registering_init
    yield
    EngineContext.__init__ = _registering_init
    built, _BUILT[:] = _BUILT[:], []
    for engine in built:
        assert engine.invariant_violations() == []


def stored_blocks(shark: SharkContext) -> list[str]:
    """Every block id the workers' stores hold, sorted."""
    return sorted(
        block_id
        for worker in shark.engine.cluster.workers
        for block_id in worker.blocks.block_ids()
    )


def memo_free_pickle(values) -> bytes:
    """``values``' protocol-4 pickle with no memo, as an object column
    is written: an object met twice is written twice."""
    out = io.BytesIO()
    pickler = pickle.Pickler(out, protocol=4)
    pickler.fast = True
    pickler.dump(values)
    return out.getvalue()


@pytest.fixture
def ctx() -> EngineContext:
    """A small engine context: 4 workers x 2 cores."""
    return EngineContext(num_workers=4, cores_per_worker=2)


@pytest.fixture
def shark() -> SharkContext:
    """A SharkContext over 4 virtual workers."""
    return SharkContext(num_workers=4, cores_per_worker=2)
