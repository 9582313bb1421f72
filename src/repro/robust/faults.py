"""Deterministic fault injection for resilience testing.

The degradation ladder and the budget layer exist to survive solver
failures — but real failures (an ill-conditioned chain, an exploding
product space) are hard to conjure on demand in a test.  This module
provides the built-in hook: production code calls :func:`check` at each
failure-prone stage, which is a near-free no-op unless a test has armed
a fault for that stage with :func:`inject`.

Stages wired into the pipeline:

* ``"chain_build"``    — before building a cutset's product chain,
* ``"transient_solve"`` — before the transient/first-passage solve,
* ``"lump"``           — before lumping a chain,
* ``"monte_carlo"``    — before the Monte-Carlo fallback rung,
* ``"bound"``          — before the interval-bound fallback rung,
* ``"mocus"``          — at every cutset generation: once per BDD walk,
  and inside the MOCUS expansion loop on the MOCUS path,
* ``"checkpoint"``     — before writing a checkpoint snapshot,
* ``"worker_kill"``    — inside a pool worker, before it starts solving
  (process-level faults: a ``when`` predicate may ``os.kill`` the
  worker to simulate a hard crash — see :mod:`repro.robust.chaos`),
* ``"cache_read"``     — on a persistent solve-cache hit, before the
  cached value is served (:mod:`repro.perf.cache`).

Besides raising, a fault can silently *corrupt a value*: production
code passes candidate results through :func:`corrupt`, and a test (or a
chaos campaign) arms a replacement with :func:`inject_value` — e.g.
swap a solved probability for ``NaN`` at the ``"solve_value"`` stage to
prove the verification layer catches it.  Value stages wired in:

* ``"solve_value"`` — the dynamic reachability probability of one
  cutset model, right after the transient solve (both the in-process
  path and the pool worker).
* ``"rare_event_weights"`` — the per-trajectory weighted contributions
  of one rare-event Monte-Carlo batch (:mod:`repro.ctmc.rare`), before
  they enter the running tally — a corrupted likelihood ratio.
* ``"rare_event_estimate"`` — the rare-event engine's final point
  estimate, before the interval is assembled — silent weight
  inflation, the failure mode the interval-order guard must catch.
* ``"cache_value"`` — a probability served from the persistent solve
  cache (:mod:`repro.perf.cache`), after validation — an
  on-disk entry that rotted *after* passing the read-time checks.

The persistent cache additionally refuses to **write** any entry while
any fault is armed (see :func:`any_armed`), so a chaos campaign can
never leak a corrupted value into later, un-faulted runs.

Usage in tests::

    with faults.inject("transient_solve", NumericalError("forced")):
        result = analyze(sdft, options)   # first solve fails, ladder degrades

    with faults.inject_value("solve_value", float("nan"), times=1):
        result = analyze(sdft, options)   # verify layer must catch the NaN

``times`` limits how many calls trip (default: every call while armed);
``when`` optionally gates on the call's context (e.g. only a specific
cutset).  Injection state is process-global and **not** thread-safe —
it is a test facility, not a production feature.  Armed faults are
inherited by forked pool workers, which is exactly what lets one test
fault serial and parallel runs identically.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, TypeVar, cast

from repro.errors import InjectedFaultError

_T = TypeVar("_T")

__all__ = [
    "any_armed",
    "check",
    "clear",
    "corrupt",
    "inject",
    "inject_value",
    "trip_count",
]


class _Fault:
    """One armed fault: what to raise, how often, and for which calls."""

    def __init__(
        self,
        error: BaseException | type[BaseException],
        times: int | None,
        when: Callable[..., bool] | None,
    ) -> None:
        self.error = error
        self.remaining = times
        self.when = when
        self.trips = 0

    def should_trip(self, context: dict[str, object]) -> bool:
        if self.remaining is not None and self.remaining <= 0:
            return False
        if self.when is not None and not self.when(**context):
            return False
        return True

    def trip(self) -> BaseException:
        self.trips += 1
        if self.remaining is not None:
            self.remaining -= 1
        if isinstance(self.error, BaseException):
            return self.error
        return self.error(f"injected fault (trip {self.trips})")


#: Armed faults by stage name.  Kept empty in production; the fast path
#: of :func:`check` is a single falsy-dict test.
_armed: dict[str, list[_Fault]] = {}


def check(stage: str, **context: object) -> None:
    """Raise the armed fault for ``stage``, if any.  No-op otherwise.

    ``context`` keywords (e.g. ``cutset=...``) are passed to the fault's
    ``when`` predicate so tests can target specific work items.
    """
    if not _armed:
        return
    for fault in _armed.get(stage, ()):
        if fault.should_trip(context):
            raise fault.trip()


@contextmanager
def inject(
    stage: str,
    error: BaseException | type[BaseException] = InjectedFaultError,
    times: int | None = None,
    when: Callable[..., bool] | None = None,
) -> Iterator[_Fault]:
    """Arm a fault for ``stage`` within the ``with`` block.

    ``error`` may be an exception instance (raised as-is on every trip)
    or a class (instantiated per trip).  ``times=N`` trips only the
    first ``N`` matching calls — e.g. ``times=1`` makes the exact rung
    fail once and lets the retry rung succeed.  The yielded handle
    exposes ``trips`` for assertions.
    """
    fault = _Fault(error, times, when)
    _armed.setdefault(stage, []).append(fault)
    try:
        yield fault
    finally:
        stack = _armed.get(stage, [])
        if fault in stack:
            stack.remove(fault)
        if not stack:
            _armed.pop(stage, None)


class _ValueFault:
    """One armed value corruption: the replacement, how often, for whom."""

    def __init__(
        self,
        replacement: object,
        times: int | None,
        when: Callable[..., bool] | None,
    ) -> None:
        self.replacement = replacement
        self.remaining = times
        self.when = when
        self.trips = 0

    def should_trip(self, context: dict[str, object]) -> bool:
        if self.remaining is not None and self.remaining <= 0:
            return False
        if self.when is not None and not self.when(**context):
            return False
        return True

    def trip(self, value: object) -> object:
        self.trips += 1
        if self.remaining is not None:
            self.remaining -= 1
        if callable(self.replacement):
            return self.replacement(value)
        return self.replacement


#: Armed value corruptions by stage name (same lifecycle as ``_armed``).
_armed_values: dict[str, list[_ValueFault]] = {}


def corrupt(stage: str, value: _T, **context: object) -> _T:
    """Return ``value``, or its armed replacement for ``stage``.

    The value-returning sibling of :func:`check`: production code passes
    candidate results through and receives them back unchanged unless a
    test armed a corruption with :func:`inject_value`.  The fast path is
    a single falsy-dict test.  (The replacement is *declared* to share
    the genuine value's type — arming a mistyped replacement is the
    test's own deliberate corruption.)
    """
    if not _armed_values:
        return value
    for fault in _armed_values.get(stage, ()):
        if fault.should_trip(context):
            return cast(_T, fault.trip(value))
    return value


@contextmanager
def inject_value(
    stage: str,
    replacement: object,
    times: int | None = None,
    when: Callable[..., bool] | None = None,
) -> Iterator[_ValueFault]:
    """Arm a silent value corruption for ``stage`` within the block.

    ``replacement`` may be a plain value (substituted as-is) or a
    callable receiving the genuine value (e.g. ``lambda p: p * 1e12``).
    This simulates the failure mode the verification layer exists for:
    a *silently wrong* number, with no exception anywhere near it.
    """
    fault = _ValueFault(replacement, times, when)
    _armed_values.setdefault(stage, []).append(fault)
    try:
        yield fault
    finally:
        stack = _armed_values.get(stage, [])
        if fault in stack:
            stack.remove(fault)
        if not stack:
            _armed_values.pop(stage, None)


def any_armed() -> bool:
    """Whether any fault (exception or value) is currently armed.

    Used by side-effecting layers that must not persist state produced
    under injection — notably the persistent solve cache, which treats
    an armed process as untrustworthy and skips all writes.
    """
    return bool(_armed or _armed_values)


def clear() -> None:
    """Disarm every fault (safety net for test teardown)."""
    _armed.clear()
    _armed_values.clear()


def trip_count(stage: str) -> int:
    """Total trips of the currently armed faults for ``stage``."""
    return sum(fault.trips for fault in _armed.get(stage, ())) + sum(
        fault.trips for fault in _armed_values.get(stage, ())
    )
