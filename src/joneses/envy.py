"""Inequality measurement and the envy functional.

The envy weight that governs a period is a function of the inherited
wealth distribution.  Any admissible functional must be symmetric,
continuous, 0-homogeneous on nonzero nonnegative vectors, and strictly
increasing when the distribution becomes more unequal in the
cumulative-shares (Lorenz) sense implemented by :func:`dominates`.

The functional, :class:`EnvySpec`, is affine in the Gini coefficient,
``gamma(s) = base + scale * gini(s)``, which satisfies all of the above.
Both formulas live in one place, :func:`_gini_weights`, which works on a
block of ascending rows: :func:`gini` and :meth:`EnvySpec.weight` run it
on one row, and the lockstep period kernel runs it on its whole block,
one row per path, so each row gets the bytes it would get alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import EconomyParams, gamma_hat
from .errors import DomainError, ExistenceBoundViolated, LengthMismatch

ArrayLike = Sequence[float] | np.ndarray

_FLOAT_MAX = np.finfo(float).max


def as_distribution(values: ArrayLike, n_agents: int | None = None) -> np.ndarray:
    """Validate a wealth distribution: 1-D, finite, nonnegative, finite positive total."""
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
    with np.errstate(over="ignore"):  # an overflowing total is rejected, not warned about
        total = arr.sum()
    if not 0.0 < total < np.inf:
        raise DomainError("total wealth must be finite and positive")
    return arr


def gini(values: ArrayLike) -> float:
    """Gini coefficient via the sorted-rank formula.

    For ascending x_(1) <= ... <= x_(N) with total S:

        G = 2 * sum_i i * x_(i) / (N * S) - (N + 1) / N

    which equals the mean-absolute-difference form
    sum_ij |x_i - x_j| / (2 N^2 mu).  Ranges over [0, (N-1)/N];
    permutation-invariant and scale-free.  The two extreme
    distributions (all equal; a single positive holder) are returned
    exactly; everything else is clipped to the mathematical range, which
    the rank formula can overshoot by an ulp.
    """
    return float(_gini_weights(_ascending(values)[None], 0.0, 1.0)[0][0])


def _ascending(values: ArrayLike) -> np.ndarray:
    """Validated ``values``, ascending and contiguous (the dot rounds strided input differently)."""
    arr = as_distribution(values)
    return np.ascontiguousarray(arr) if (arr[:-1] <= arr[1:]).all() else np.sort(arr)


def _gini_weights(asc: np.ndarray, base, scale) -> tuple[np.ndarray, np.ndarray]:
    """Gini and envy weight of each ascending, C-contiguous row of ``asc``.

    ``base`` and ``scale`` are floats or one value per row.  One rank dot
    per row (a batched product rounds differently), so a row gets the
    bytes it would get alone.  All equal (N=1 included) takes precedence
    over a single positive holder.  A row whose ``n * total`` would
    overflow, which bounds its rank dot, is weighed divided by its largest
    entry, since the Gini does not depend on scale.
    """
    c, n = asc.shape
    with np.errstate(over="ignore"):  # a sorted row's total can overflow where the row's did not
        total = asc.sum(axis=1)
    huge = total > _FLOAT_MAX / n
    if huge.any():
        asc = asc.copy()
        asc[huge] /= asc[huge, -1:]
        total[huge] = asc[huge].sum(axis=1)
    ranks = np.arange(1.0, n + 1.0)
    dots = np.fromiter(map(ranks.dot, asc), float, c)
    top = (n - 1.0) / n
    g = np.minimum(np.maximum(2.0 * dots / (n * total) - (n + 1.0) / n, 0.0), top)
    g[asc[:, -min(n, 2)] == 0.0] = top
    g[asc[:, 0] == asc[:, -1]] = 0.0
    return g, base + scale * g


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
        return float(_gini_weights(_ascending(values)[None], self.base, self.scale)[1][0])

    def max_weight(self, n_agents: int) -> float:
        # Gini peaks at (N-1)/N when a single dynasty holds everything
        # (parenthesised so it rounds as that distribution's weight does).
        return self.base + self.scale * ((n_agents - 1) / n_agents)


def gamma_uniform_top(spec: EnvySpec, n: int, n_agents: int) -> float:
    """Envy weight when n of n_agents dynasties split all wealth equally.

    Bit for bit ``spec.weight`` of the canonical vector (0, ..., 0, 1/n,
    ..., 1/n), which is built ascending and valid, so it goes straight to
    :func:`_gini_weights` without a validation pass.  For the
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
    return float(_gini_weights(values[None], spec.base, spec.scale)[1][0])


def validate_envy(spec: EnvySpec, params: EconomyParams) -> EnvySpec:
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

