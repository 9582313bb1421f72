"""Worst-case failure probabilities for dynamic basic events.

The static translation ``FT̄`` (Section V-B2) needs a probability for
each basic event that used to be dynamic.  Computing the *true*
probability of a triggered event failing within the horizon would
require the whole tree's state space, so the paper substitutes the
worst case over all possible triggering environments:

``p(a) = sup over all SD trees containing a of Pr[Reach^{<=t}(Failed(a))]``

For the monotone chain families used in practice (and everywhere in the
paper's experiments) the supremum is attained by the environment that
triggers the event at time 0 and never untriggers it: being switched on
earlier only increases exposure to the (higher) active failure rates,
and untriggering only pauses degradation.  That shape is exactly
:meth:`~repro.ctmc.triggered.TriggeredCtmc.untriggered_view`, reducing
the worst case to a first-passage computation on the event's own chain.

Correctness note: the worst-case choice is conservative by construction
(``FT`` itself is in the supremum's range), so the MOCUS cutoff on
``FT̄`` never loses a cutset whose true probability is above the cutoff.
"""

from __future__ import annotations

from typing import Mapping

from repro.ctmc.chain import Ctmc
from repro.ctmc.transient import failure_probability
from repro.ctmc.triggered import TriggeredCtmc
from repro.core.sdft import SdFaultTree

__all__ = ["worst_case_probability", "worst_case_probabilities"]


def worst_case_probability(
    chain: Ctmc, horizon: float, epsilon: float = 1e-12
) -> float:
    """Worst-case probability that the event fails within the horizon.

    For an untriggered chain this is simply its first-passage
    probability to the failed states; for a triggered chain the initial
    distribution is pushed through ``switch_on`` first (triggered at
    time 0, never untriggered).
    """
    if isinstance(chain, TriggeredCtmc):
        chain = chain.untriggered_view()
    return failure_probability(chain, horizon, epsilon=epsilon)


def worst_case_probabilities(
    sdft: SdFaultTree,
    horizon: float,
    epsilon: float = 1e-12,
    known: Mapping[str, float] | None = None,
) -> dict[str, float]:
    """Worst-case probabilities for every dynamic event of the tree.

    Identical chain objects shared by several events are solved once.
    ``known`` supplies values already solved for some events' chains at
    this horizon and epsilon (a re-analysis after an edit passes the
    previous run's values for the events the edit left alone); they are
    taken as they are.
    """
    by_chain: dict[int, float] = {}
    result: dict[str, float] = {}
    for name, event in sdft.dynamic_events.items():
        if known is not None and name in known:
            result[name] = known[name]
            continue
        key = id(event.chain)
        if key not in by_chain:
            by_chain[key] = worst_case_probability(event.chain, horizon, epsilon)
        result[name] = by_chain[key]
    return result
