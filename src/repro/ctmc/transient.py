"""Transient and first-passage analysis of CTMCs.

The work-horse of the dynamic quantification: given a chain and a time
horizon ``t``, compute the transient distribution and the time-bounded
reachability probability ``Pr[Reach^{<=t}(F)]`` (paper, Section III-C2).

Two backends:

* ``"uniformization"`` (default) — the standard randomisation method,
  also used by PRISM.  The generator is scaled into a DTMC and the
  transient distribution is a Poisson mixture of its powers; the Poisson
  series is truncated adaptively so the result carries an explicit error
  bound.  Works with sparse matrices and scales to large chains.
* ``"expm"`` — dense matrix exponential via :func:`scipy.linalg.expm`,
  exact up to floating point; used as an oracle for the uniformization
  implementation and for very stiff small chains.

Reachability reduces to transient analysis by making the target states
absorbing (:meth:`repro.ctmc.chain.Ctmc.with_absorbing`).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import linalg, sparse
from scipy.special import gammaln

from repro.ctmc.chain import Ctmc
from repro.errors import NumericalError
from repro.obs.metrics import NULL_METRICS

__all__ = [
    "transient_distribution",
    "reach_probability",
    "failure_probability",
    "occupancy_integrals",
    "steady_state",
]

#: Default truncation error for the uniformization series.
DEFAULT_EPSILON = 1e-12

#: Series length guard: horizons needing more terms indicate a mis-scaled model.
_MAX_TERMS = 4_000_000

#: Always-on output guard: tolerated drift of probability mass (the
#: solver's own truncation error compounds over the series, so this is
#: looser than the truncation epsilon).
_MASS_TOLERANCE = 1e-6


def _series_cannot_converge(qt: float, epsilon: float) -> bool:
    """Whether a Poisson(``qt``) series provably outruns :data:`_MAX_TERMS`.

    The median of Poisson(λ) is at least ``λ - ln 2``, so for
    ``λ > _MAX_TERMS + 1`` the first ``_MAX_TERMS + 1`` weights sum to
    less than ½ — short of ``1 - epsilon`` for any ``epsilon < ½``.
    The series loops would sum millions of (underflowed) zero weights
    only to raise at the term limit; callers raise up front instead.
    """
    return qt > _MAX_TERMS + 1 and epsilon < 0.5


def _reject_nonfinite_rates(chain: Ctmc, what: str) -> None:
    """Fail fast on inf/NaN rates instead of solving with garbage.

    The :class:`Ctmc` constructor rejects *negative* rates but lets
    non-finite ones through (``NaN < 0`` is false), and a single inf
    poisons the uniformization constant ``q`` silently.  Raising
    :class:`~repro.errors.NumericalError` here routes the failure into
    the degradation ladder like any other solver breakdown.
    """
    for (source, destination), rate in chain.rates.items():
        if not math.isfinite(rate):
            raise NumericalError(
                f"{what}: non-finite rate {rate!r} on transition "
                f"{source!r} -> {destination!r}"
            )


def _checked_distribution(distribution: np.ndarray, what: str) -> np.ndarray:
    """Assert a solver output is a probability distribution.

    Entrywise finite and non-negative, total mass ``1 ± tol`` — the
    always-on counterpart of the opt-in verify layer
    (:mod:`repro.robust.verify`), raising
    :class:`~repro.errors.NumericalError` so existing recovery paths
    apply.  Vectorised: costs two passes over a dense vector.
    """
    if not np.isfinite(distribution).all():
        raise NumericalError(f"{what} contains non-finite entries")
    if float(distribution.min(initial=0.0)) < -_MASS_TOLERANCE:
        raise NumericalError(
            f"{what} contains negative entries "
            f"(min {float(distribution.min()):.3e})"
        )
    total = float(distribution.sum())
    if abs(total - 1.0) > _MASS_TOLERANCE:
        raise NumericalError(
            f"{what} does not conserve probability mass: sums to {total!r} "
            f"(drift {total - 1.0:.3e})"
        )
    return distribution


def transient_distribution(
    chain: Ctmc,
    horizon: float,
    method: str = "uniformization",
    epsilon: float = DEFAULT_EPSILON,
    budget=None,
    metrics=None,
) -> np.ndarray:
    """Distribution over states at time ``horizon``.

    Returns a dense vector indexed like ``chain.states``.  ``epsilon``
    bounds the truncation error of the uniformization series in total
    variation (ignored by the ``expm`` backend).  ``budget`` is an
    optional :class:`repro.robust.budget.Budget` whose wall-clock
    deadline is polled cooperatively between series terms.  ``metrics``
    is an optional :class:`repro.obs.metrics.MetricsRegistry` that
    receives the series-length histogram and early-exit counter (one
    registry call per solve — never inside the series loop).
    """
    if horizon < 0.0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    nu = chain.initial_vector()
    if horizon == 0.0 or not chain.rates:
        return nu
    _reject_nonfinite_rates(chain, "transient solve")
    what = f"transient distribution ({chain.n_states} states, t={horizon:g})"
    if method == "uniformization":
        return _checked_distribution(
            _uniformization(chain, horizon, epsilon, budget, metrics), what
        )
    if method == "expm":
        generator = chain.generator_matrix().toarray()
        return _checked_distribution(nu @ linalg.expm(generator * horizon), what)
    raise ValueError(f"unknown transient method {method!r}")


def reach_probability(
    chain: Ctmc,
    horizon: float,
    targets=None,
    method: str = "uniformization",
    epsilon: float = DEFAULT_EPSILON,
    budget=None,
    metrics=None,
) -> float:
    """``Pr[Reach^{<=t}(targets)]`` — visit a target before the horizon.

    ``targets`` defaults to the chain's failed states.  The computation
    makes the targets absorbing and reads off their transient mass.
    The transient vector is indexed through the *absorbed* chain's own
    index: today :meth:`~repro.ctmc.chain.Ctmc.with_absorbing`
    preserves state order, but reading the absorbed distribution
    through the original chain's index would silently misattribute
    probability mass the day that ever changes.  The target mass is
    summed in state-index order: iterating the target *set* would make
    the summation order, and so the last digits, follow the
    interpreter's string-hash seed.
    """
    target_set = frozenset(targets) if targets is not None else chain.failed
    if not target_set:
        return 0.0
    absorbed = chain.with_absorbing(target_set)
    distribution = transient_distribution(
        absorbed, horizon, method, epsilon, budget, metrics
    )
    indices = sorted(absorbed.index[s] for s in target_set)
    return float(min(1.0, distribution[indices].sum()))


def failure_probability(
    chain: Ctmc,
    horizon: float,
    method: str = "uniformization",
    epsilon: float = DEFAULT_EPSILON,
) -> float:
    """Probability of visiting a failed state within the horizon.

    The quantity the paper calls ``Pr[Reach^{<=t}(F)]``; alias of
    :func:`reach_probability` with the chain's own failed set.
    """
    return reach_probability(chain, horizon, None, method, epsilon)


def occupancy_integrals(
    chain: Ctmc, horizon: float, epsilon: float = 1e-10
) -> np.ndarray:
    """Expected time spent in each state within ``[0, horizon]``.

    The vector ``∫_0^t pi_u du`` by the uniformization identity

    ``∫_0^t pi_u du = (1/q) * sum_k pi_k * Pr[Poisson(q t) > k]``

    with the DTMC iterates ``pi_k``.  The entries sum to ``horizon``.
    Building block for downtime analysis and for flux attribution
    (which transition absorbed the probability mass).
    """
    if horizon < 0.0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    n = chain.n_states
    if horizon == 0.0:
        return np.zeros(n)
    _reject_nonfinite_rates(chain, "occupancy solve")
    rate_matrix = chain.rate_matrix()
    exit_rates = np.asarray(rate_matrix.sum(axis=1)).ravel()
    q = float(exit_rates.max())
    if q <= 0.0:
        return chain.initial_vector() * horizon
    q *= 1.02
    qt = q * horizon
    if _series_cannot_converge(qt, epsilon):
        raise NumericalError(
            f"occupancy series needs more than {_MAX_TERMS} terms "
            f"(chain of {n} states, horizon {horizon:g}, "
            f"q*t = {qt:.3g}); rescale the model"
        )
    dtmc = (
        rate_matrix / q
        + sparse.eye(n, format="csr")
        - sparse.diags(exit_rates / q)
    ).tocsr()
    pi = chain.initial_vector()
    total = np.zeros(n)
    cdf = 0.0
    k = 0
    log_qt = math.log(qt)
    while True:
        log_pmf = -qt + k * log_qt - float(gammaln(k + 1))
        pmf = math.exp(log_pmf)
        survival = max(0.0, 1.0 - cdf - pmf)  # Pr[Poisson > k]
        total += pi * survival
        cdf += pmf
        if cdf >= 1.0 - epsilon and survival < epsilon:
            break
        k += 1
        if k > _MAX_TERMS:
            raise NumericalError(
                f"occupancy series needs more than {_MAX_TERMS} terms "
                f"(chain of {n} states, horizon {horizon:g}, "
                f"q*t = {qt:.3g}); rescale the model"
            )
        pi = pi @ dtmc
    occupancy = total / q
    # Same always-on guard as the transient output, rescaled: the
    # occupancy entries are times, their mass is the horizon itself.
    if not np.isfinite(occupancy).all():
        raise NumericalError(
            f"occupancy vector contains non-finite entries "
            f"(chain of {n} states, horizon {horizon:g})"
        )
    mass = float(occupancy.sum())
    if (
        float(occupancy.min(initial=0.0)) < -_MASS_TOLERANCE * horizon
        or abs(mass - horizon) > _MASS_TOLERANCE * max(1.0, horizon)
    ):
        raise NumericalError(
            f"occupancy vector does not conserve time mass: sums to "
            f"{mass!r} over horizon {horizon:g}"
        )
    return occupancy


def steady_state(chain: Ctmc) -> np.ndarray:
    """Stationary distribution of an irreducible chain.

    Solves ``pi Q = 0`` with the normalisation ``sum(pi) = 1`` by a dense
    least-squares system.  Raises :class:`~repro.errors.NumericalError`
    if the chain has no unique stationary distribution (the residual
    betrays reducibility).  Used for long-run availability analyses.
    """
    n = chain.n_states
    generator = chain.generator_matrix().toarray()
    # Append the normalisation as an extra equation.
    system = np.vstack([generator.T, np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    solution, residual, rank, _ = np.linalg.lstsq(system, rhs, rcond=None)
    if rank < n:
        raise NumericalError(
            f"chain of {n} states is reducible: no unique stationary "
            f"distribution (rank {rank} < {n})"
        )
    pi = np.clip(solution, 0.0, None)
    total = pi.sum()
    if total <= 0.0:
        raise NumericalError(
            f"stationary solve produced a zero vector (chain of {n} states)"
        )
    return pi / total


# ----------------------------------------------------------------------
# Uniformization
# ----------------------------------------------------------------------


def _uniformization(
    chain: Ctmc, horizon: float, epsilon: float, budget=None, metrics=None
) -> np.ndarray:
    """Transient distribution by randomisation with adaptive truncation.

    With uniformization rate ``q >= max exit rate``, the DTMC
    ``P = I + Q/q`` satisfies ``pi_t = sum_k Poisson(k; q t) nu P^k``.
    The series is cut off once the accumulated Poisson weight exceeds
    ``1 - epsilon``; the remaining mass bounds the error in total
    variation.  Poisson weights use a log-space recurrence, so large
    ``q t`` does not underflow.  A ``budget`` deadline is polled every
    few hundred terms, so a stiff solve yields control promptly.
    """
    # Check upfront too: short series never reach the in-loop poll, and
    # an already-expired budget should not start new solves at all.
    if budget is not None:
        budget.check_deadline("transient")
    metrics = metrics if metrics is not None else NULL_METRICS
    early_exit = False
    rate_matrix = chain.rate_matrix()
    exit_rates = np.asarray(rate_matrix.sum(axis=1)).ravel()
    q = float(exit_rates.max())
    if q <= 0.0:
        return chain.initial_vector()
    # A tiny inflation of q is conventional: it keeps the diagonal of P
    # strictly positive, which makes the DTMC aperiodic.
    q *= 1.02
    qt = q * horizon

    n = chain.n_states
    # The CSR conversion and diagonal fix happen once, before the
    # series loop — every iteration is then a single sparse mat-vec.
    dtmc = (rate_matrix / q + sparse.eye(n, format="csr")).tocsr()
    dtmc = _strip_diagonal_deficit(dtmc, exit_rates / q)

    # Early-exit support: states with no outgoing rate are fixed points
    # of the DTMC, so once (almost) all probability mass sits on them
    # the iterates have converged and the remaining Poisson tail can be
    # added analytically.  This is exactly the reachability shape — the
    # targets are made absorbing — where long horizons otherwise burn
    # thousands of no-op series terms.
    mobile = exit_rates > 0.0
    watch_absorption = bool(mobile.any()) and not bool(mobile.all())
    if not watch_absorption and _series_cannot_converge(qt, epsilon):
        # Without the absorbed-mass exit only the Poisson weights can
        # end the series, and they provably cannot within the limit.
        raise NumericalError(
            f"uniformization needs more than {_MAX_TERMS} terms "
            f"(chain of {n} states, horizon {horizon:g}, "
            f"q*t = {qt:.3g}); rescale the model or use method='expm'"
        )

    # ``pi @ dtmc`` is evaluated by scipy as ``dtmc.T @ pi``, transposing
    # the matrix on every call; transposing once up front runs the very
    # same kernel on the very same data, so the iterates are unchanged.
    step = dtmc.transpose()

    log_qt = math.log(qt)
    pi = chain.initial_vector()
    result = np.zeros(n)
    accumulated = 0.0
    k = 0
    while True:
        log_weight = -qt + k * log_qt - float(gammaln(k + 1))
        weight = math.exp(log_weight)
        result += weight * pi
        accumulated += weight
        if accumulated >= 1.0 - epsilon:
            break
        if watch_absorption and float(pi[mobile].sum()) <= epsilon:
            # Mass still able to move is below the truncation tolerance:
            # all future iterates equal pi within epsilon (mobile mass is
            # non-increasing under an absorbing DTMC), so the rest of the
            # series contributes (1 - accumulated) * pi up to epsilon.
            result += (1.0 - accumulated) * pi
            accumulated = 1.0
            early_exit = True
            break
        k += 1
        if k > _MAX_TERMS:
            raise NumericalError(
                f"uniformization needs more than {_MAX_TERMS} terms "
                f"(chain of {n} states, horizon {horizon:g}, "
                f"q*t = {qt:.3g}); rescale the model or use method='expm'"
            )
        if budget is not None and not (k & 255):
            budget.check_deadline("transient")
        pi = step @ pi
    # One registry call per solve, after the series loop: the traced
    # quantities stay deterministic and the loop itself stays untouched.
    metrics.observe("transient.series_terms", k + 1)
    if early_exit:
        metrics.count("transient.early_exit")
    # Renormalise by the accumulated weight: distributes the truncated
    # tail proportionally, keeping the result a distribution.
    return result / accumulated


def _strip_diagonal_deficit(dtmc: sparse.csr_matrix, scaled_exit: np.ndarray):
    """Fix the DTMC diagonal so each row sums to exactly one.

    ``I + Q/q`` already does this analytically; the explicit correction
    guards against the tiny drift of floating-point summation, which
    would otherwise compound over thousands of powers.  Row sums are
    taken in column order (``dtmc @ 1``) and each deficit is added to
    the stored diagonal entry in place — the same floating-point
    operations as an element-wise edit, without leaving CSR.
    """
    dtmc = dtmc.tocsr(copy=True)
    dtmc.sum_duplicates()
    n = dtmc.shape[0]
    row_sums = dtmc @ np.ones(n)
    deficit = 1.0 - row_sums
    rows = np.repeat(np.arange(n), np.diff(dtmc.indptr))
    diagonal = np.flatnonzero(dtmc.indices == rows)
    # Every diagonal entry is stored: chains reject self-loops, so the
    # rate matrix has none and each diagonal entry is the identity's 1.
    assert len(diagonal) == n
    fix = deficit != 0.0
    dtmc.data[diagonal[fix]] = dtmc.data[diagonal[fix]] + deficit[fix]
    return dtmc
