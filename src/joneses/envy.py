"""Inequality measurement and the envy functional.

The envy weight that governs a period is a function of the inherited
wealth distribution.  Any admissible functional must be symmetric,
continuous, 0-homogeneous on nonzero nonnegative vectors, and strictly
increasing when the distribution becomes more unequal in the
cumulative-shares (Lorenz) sense implemented by :func:`dominates`.

The one functional shipped here, :class:`EnvySpec`, is affine in the
Gini coefficient, ``gamma(s) = base + scale * gini(s)``, which satisfies
all of the above.  Solvers accept any object with the two methods of
:class:`EnvyFunctional`; such an object is *not* checked against the
admissibility conditions (the property tests in the test suite can be
pointed at it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .core import EconomyParams, gamma_hat
from .errors import DomainError, ExistenceBoundViolated, LengthMismatch

ArrayLike = Sequence[float] | np.ndarray


def as_distribution(values: ArrayLike, n_agents: int | None = None) -> np.ndarray:
    """Validate a wealth distribution: 1-D, finite, nonnegative, positive total."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("wealth distribution must be a nonempty 1-D sequence")
    if n_agents is not None and arr.size != n_agents:
        raise LengthMismatch(
            f"expected {n_agents} bequest entries, got {arr.size}"
        )
    if not np.isfinite(arr).all():
        raise DomainError("wealth distribution contains non-finite entries")
    if (arr < 0.0).any():
        raise DomainError("bequests must be nonnegative")
    if not arr.sum() > 0.0:
        raise DomainError("total wealth must be positive")
    return arr


def gini(values: ArrayLike) -> float:
    """Gini coefficient via the sorted-rank formula.

    For ascending x_(1) <= ... <= x_(N) with total S:

        G = 2 * sum_i i * x_(i) / (N * S) - (N + 1) / N

    which equals the mean-absolute-difference form
    sum_ij |x_i - x_j| / (2 N^2 mu).  Ranges over [0, (N-1)/N];
    permutation-invariant and scale-free.  The two extreme
    distributions (all equal; a single positive holder) are detected
    and returned exactly; everything else is clipped to the
    mathematical range, which the rank formula can overshoot by an ulp.
    Ascending input skips the sort (strided input is copied: the BLAS dot
    rounds differently on it).
    """
    arr = as_distribution(values)
    x = np.ascontiguousarray(arr) if (arr[:-1] <= arr[1:]).all() else np.sort(arr)
    n = x.size
    if x[0] == x[-1]:
        return 0.0
    if x[-2] == 0.0:
        return (n - 1.0) / n
    ranks = np.arange(1, n + 1, dtype=float)
    g = 2.0 * (ranks @ x) / (n * x.sum()) - (n + 1.0) / n
    return float(min(max(g, 0.0), (n - 1.0) / n))


def lorenz_shares(values: ArrayLike) -> np.ndarray:
    """Cumulative wealth shares of the M poorest, M = 1..N, after ascending sort."""
    arr = as_distribution(values)
    x = np.sort(arr)
    return np.cumsum(x) / x.sum()


def dominates(a: ArrayLike, b: ArrayLike) -> bool:
    """True iff distribution ``a`` is strictly more unequal than ``b``.

    After ascending sort, every cumulative share of the M poorest under
    ``a`` must be <= the corresponding share under ``b``, strictly for
    at least one M.  Totals need not match: the comparison is in shares.
    Comparisons are exact (no tolerance); irreflexive by construction.
    """
    arr_a = as_distribution(a)
    arr_b = as_distribution(b)
    if arr_a.size != arr_b.size:
        raise LengthMismatch(
            f"cannot compare distributions of sizes {arr_a.size} and {arr_b.size}"
        )
    shares_a = lorenz_shares(arr_a)
    shares_b = lorenz_shares(arr_b)
    return bool(np.all(shares_a <= shares_b) and np.any(shares_a < shares_b))


class EnvyFunctional(Protocol):
    """Anything that maps a wealth distribution to an envy weight."""

    def weight(self, values: ArrayLike) -> float: ...

    def max_weight(self, n_agents: int) -> float:
        """Supremum of the weight over nonzero nonnegative distributions."""
        ...


@dataclass(frozen=True)
class EnvySpec:
    """Affine-in-Gini envy functional: weight = base + scale * gini."""

    base: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.base < np.inf:
            raise DomainError(f"envy base must be finite and >= 0, got {self.base}")
        if not 0.0 <= self.scale < np.inf:
            raise DomainError(f"envy scale must be finite and >= 0, got {self.scale}")

    def weight(self, values: ArrayLike) -> float:
        return self.base + self.scale * gini(values)

    def max_weight(self, n_agents: int) -> float:
        # Gini peaks at (N-1)/N when a single dynasty holds everything.
        return self.base + self.scale * (n_agents - 1) / n_agents


def gamma_uniform_top(spec: EnvyFunctional, n: int, n_agents: int) -> float:
    """Envy weight when n of n_agents dynasties split all wealth equally.

    Evaluated on the canonical vector (0, ..., 0, 1/n, ..., 1/n); for the
    Gini-affine functional this equals base + scale * (N - n) / N.
    Strictly decreasing in n whenever the functional is strictly
    dominance-monotone.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise DomainError(f"rich count must be an integer, got {n!r}")
    if not 1 <= n <= n_agents:
        raise DomainError(f"rich count must lie in 1..{n_agents}, got {n}")
    values = np.zeros(n_agents)
    values[n_agents - n :] = 1.0 / n
    return spec.weight(values)


def validate_envy(spec: EnvyFunctional, params: EconomyParams) -> EnvyFunctional:
    """Check the existence bound: worst-case envy weight < gamma_hat(nu_upper).

    gamma_hat is decreasing in nu, so its value at the top of the
    admissible segment is the binding ceiling over any constant policy.
    """
    ceiling = gamma_hat(params.nu_upper, params)
    worst = spec.max_weight(params.n_agents)
    if not worst < ceiling:
        raise ExistenceBoundViolated(
            f"worst-case envy weight {worst} must stay below the existence "
            f"ceiling {ceiling} at nu={params.nu_upper}",
            margin=worst - ceiling,
        )
    return spec

