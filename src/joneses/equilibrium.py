"""Temporary equilibria, equilibrium paths, steady states, regime classification.

One period works as follows.  Dynasties inherit bequests ``s_prev`` with
mean ``k > 0``; the envy weight ``gamma`` is read off the inherited
distribution; factor prices and taxes are evaluated at ``k`` and the
current tilt ``nu``.  Each dynasty splits its disposable income

    I_j = (1 - tau_s) * (1 + r) * (xi/nu * k + s_prev_j)

between consumption and a bequest.  With log preferences the optimal
bequest has the closed form

    s_j = max(0, [delta*I_j - delta*z*cbar - (xi/nu_next)*k_next] / (1 + delta))

where ``z = gamma / (1 + gamma)`` and average consumption satisfies
``cbar = C - k_next`` with ``C = (1 - tau_s)(1 + r)(xi/nu + 1) k``
(everything not bequeathed is consumed).  Substituting ``cbar`` out
makes ``k_next = mean_j s_j`` the root of a piecewise-linear map whose
slopes are all below one, so the root is unique.  It is the root of the
first consistent candidate active set (the top-``a`` incomes).  Each row
first tries one guess, its number of positive inherited bequests, which
along a path is the last period's active set: the guess is certified in
O(1) beyond one prefix sum when it is consistent and its poorest active
dynasty saves by more than a bound on the rounding, which proves that no
earlier candidate is consistent in floating point.  The rows it does not
certify (a first period, a kink, NaN) are found exactly by testing every
candidate in one vectorised pass.  Either way a row gets the same bytes.
The map is the upper envelope of the candidates' lines, so its root is
also the largest candidate root; a row takes that one where rounding
leaves no set consistent (a dynasty exactly at a kink).  Richer parents
leave weakly richer heirs, so a path sorts its initial vector once and
then only checks that order, in O(N), each period.  Any sort will do:
tied entries are equal values, and a tie of -0.0 with 0.0 changes no
sum, dot or comparison, since every row holds a positive entry.  A
wealth vector is validated once, where it enters: the public functions
here take plain vectors, and nothing behind them validates the same
vector again.

There is one period kernel, which solves a (C x N) block of bequest
rows in lockstep, and one driver, ``_run_paths``, which steps it through
the periods: :func:`simulate`, :func:`solve_temporary` and the reform
planner on one row, :func:`final_capitals` (the sweep's) on a block of
cells that share the horizon and the number of dynasties, each row's
economy held as columns.  Every row is rounded exactly as it would be
alone: row-wise means, sums and cumulative sums equal the 1-D calls bit
for bit, the Gini and weight come from the function that ``gini`` runs,
and the per-row values repeat the scalar operations.  They are columns,
or in a one-row block Python floats, so a path calls numpy only for its
O(N) passes; the only per-row Python call is one power, and the Gini's
rank dots are one ``np.vecdot`` over the block.  Every tilt is priced as
a Python float.  The kernel has one float policy: numpy's warnings are
off, and typed tests alone decide each row, which NaN and inf fail.  A
row that raises is frozen with the error, and message, its own path
raises; the other rows go on.

In floating point a path does not just approach its steady state: from
some period on it sits on it exactly, ``bequests_next`` equal to
``bequests`` byte for byte.  The period solver is a pure function of the
bytes of the inherited vector and of the two tilts, so once a period
maps its state onto itself and the tilt holds, every later period would
recompute the same record.  Such a row leaves the block and rejoins it
when the schedule changes its tilt.  A block with no row left jumps to
that change, or to the horizon, so idle periods cost nothing; a path
that keeps records repeats its last one over them.  This is exact, not
a tolerance.

An economy run under a constant tilt settles, depending on whether the
initial envy weight sits below or above the threshold ``gamma_star(nu)``,
into the egalitarian steady state (everybody holds the mean bequest) or
a polarised one (the initially-richest class holds everything).  Both
are constructed in closed form here and are exact fixed points of the
period solver.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import partial
from operator import itemgetter, methodcaller
from typing import Callable, Sequence

import numpy as np

from .core import (
    EconomyParams,
    FactorPrices,
    IDENTITY_TOL,
    TaxRates,
    factor_prices,
    gamma_star,
    gross_return,
    savings_rate,
    steady_capital,
    tax_rates,
)
from .envy import EnvySpec, _gini_weights, as_distribution, gamma_uniform_top
from .errors import (
    DomainError,
    EnvyTooStrong,
    JonesesError,
    LengthMismatch,
    ModelError,
    NoPositiveRoot,
    NotSustainable,
    ScheduleTooShort,
)


@dataclass(frozen=True)
class TemporaryEquilibrium:
    """One period's market-clearing allocation and its diagnostics.

    Its one vector of its own is ``bequests_next``, which along a path is
    a row of the path's slab (see :func:`_run_paths`) and the next record's
    ``bequests``.  ``bequests`` is the inherited vector, and
    ``consumptions`` is recomputed on each read.
    """

    k: float  # inherited capital intensity
    output: float  # k**alpha
    gamma: float  # envy weight governing the period
    gini: float  # Gini of the inherited distribution
    bequests: np.ndarray  # inherited s_prev
    bequests_next: np.ndarray
    k_next: float
    avg_consumption: float
    prices: FactorPrices
    taxes: TaxRates
    m_count: int  # dynasties leaving positive bequests
    xi_k: float  # xi/nu_t * k, which each income adds to the inherited bequest
    net: float  # (1 - tau_s)(1 + r), which scales each income

    @property
    def consumptions(self) -> np.ndarray:
        """c_j = (xi/nu_t * k + s_prev_j) * net - s_j: the kernel's operations, so its bytes."""
        return (self.xi_k + self.bequests) * self.net - self.bequests_next

    @property
    def savings_realized(self) -> float:
        """Realized savings rate k_next / k**alpha."""
        return self.k_next / self.output

    @property
    def stationary(self) -> bool:
        """True when the period hands on exactly the bequests it inherited.

        Exact: ``k`` is compared first, then the bytes of the vectors.
        """
        return (
            self.k_next == self.k
            and self.bequests_next.tobytes() == self.bequests.tobytes()
        )


def _scan_active_sets(desc, z, total, delta, xnn):
    """The fixed point of every row of ``desc`` (incomes, descending).

    ``z``, ``total``, ``delta`` and ``xnn`` (xi/nu_next) are (C x 1) columns
    of per-row values, or scalars when ``desc`` has one row.  The top
    ``a`` incomes are a candidate set; its root

        kappa_a = (delta * sum_active(I) - a*delta*z*total)
                  / (N*(1+delta) - a*(delta*z - xi/nu_next))

    is accepted iff it lies in (0, total), the poorest active dynasty
    saves and the richest inactive one does not.  Every candidate of every
    row is tested at once, from one sequential cumsum per row, and a row
    takes its first consistent ``a``.

    Every head delta*I_j - delta*z*(total - kappa) - (xi/nu_next)*kappa has
    the same slope in kappa, so the sum of their positive parts is the
    largest top-``a`` sum: the fixed-point map is the upper envelope of the
    candidates' lines, each of which crosses the diagonal from above.  Its
    root is therefore the largest candidate root.  A row that rounding
    leaves with no consistent set (a dynasty exactly at a kink) takes that
    root; where it is not positive, no dynasty saves.  Returns the root of
    every row.
    """
    n = desc.shape[1]
    a, base, dz = np.arange(1.0, n + 1.0), n * (1.0 + delta), delta * z
    kappa = (delta * desc.cumsum(axis=1) - a * delta * z * total) / (base - a * (dz - xnn))
    # bequest numerator of dynasty j is delta*I_j - tail; positive iff saving
    tail = dz * (total - kappa) + xnn * kappa
    heads = delta * desc
    ok = (0.0 < kappa) & (kappa < total) & (heads > tail)
    ok[:, :-1] &= ~(heads[:, 1:] > tail[:, :-1])
    first = kappa[np.arange(len(desc)), ok.argmax(axis=1)]
    return np.where(ok.any(axis=1), first, kappa.max(axis=1))


_UNIT = np.finfo(float).eps.item() / 2.0  # unit roundoff u, a Python float


def _certify(desc, guess, z, total, delta, xnn):
    """Try the active set of size ``guess`` on each row; returns ``(kappa, certified)``.

    The arguments are those of :func:`_scan_active_sets` plus ``guess``, an
    integer in 1..N per row; the results are vectors of C entries, or
    scalars when the per-row values are (Python floats in a one-row
    block).  Candidate g = ``guess`` is computed with the scan's own IEEE
    operations in its order (its prefix sum from the same sequential
    cumsum, cut at g).  A row is certified when g passes the scan's three
    tests and the poorest active dynasty's float margin m = delta*I_g -
    tail_g exceeds E = err*(1 + 1/rho); then no a < g passes the scan's
    tests, and ``kappa`` is bit for bit the root the scan returns.  The
    proof, in exact arithmetic on the float inputs, with s = delta*z -
    xi/nu_next, the heads h_j(kappa) = delta*I_j - delta*z*total +
    s*kappa, D_a = N(1+delta) - a*s and rho = min(1, D_g/(N(1+delta))):

    * the incomes descend, so h_j is non-increasing in j; and D_a >=
      N(1+delta) - N*delta*z > 0, as z < 1 and xi/nu_next >= 0;
    * kappa_a solves N(1+delta)*kappa = sum_{j<=a} h_j(kappa), so
      kappa_g - kappa_a = sum_{j=a+1..g} h_j(kappa_g) / D_a;
    * so for a < g, h_{a+1}(kappa_a) = h_{a+1}(kappa_g) - s*(kappa_g -
      kappa_a) >= rho*h_g(kappa_g): for s > 0 the sum is at most
      (g-a)*h_{a+1}(kappa_g), and D_a - (g-a)*s = D_g;
    * for a <= g, D_a >= rho*N(1+delta) and |kappa_a| <= K = 2*total/rho.
      With P = delta*I_1 + delta*z*total + (1 + delta + delta*z +
      xi/nu_next)*K, err = 2(g+16)*u*P*(1 + (delta*z + xi/nu_next) /
      (rho*(1+delta))) bounds the float error of m and of any candidate's
      test "the richest inactive dynasty does not save", delta*I_{a+1} >
      tail_a: the recursive-summation bound (a-1)*u*S_a on the prefix sum
      S_a <= N*I_1 and a few ulps of kappa_a's other terms, carried into
      the tail by |s|, plus a few ulps of the tail's and the head's terms;
    * so m > E gives h_g(kappa_g) > m - err and h_{a+1}(kappa_a) >=
      rho*(m - err) > err: every a < g fails that test in float, and g
      is the scan's first consistent candidate.

    The proof holds for any g, so a wrong guess costs only a scan.  Under
    the kernel's float policy, warnings off, a row with NaN or inf fails
    the tests and an infinite bound certifies nothing.  Nor is a one-row
    block whose D_g rounds to 0 (delta and gamma past 2**53) certified:
    Python floats raise on a zero divisor.
    """
    c, n = desc.shape
    vectors = isinstance(z, np.ndarray)
    if vectors:  # (C x 1) columns, worked as vectors: 2-D arithmetic costs more per call
        rows, g, least = np.arange(c), guess.reshape(c), np.minimum
        z, total, delta, xnn = z[:, 0], total[:, 0], delta[:, 0], xnn[:, 0]
        csum = desc[:, : g.max()].cumsum(axis=1)[rows, g - 1]
        richest, poorest, inactive = (desc[rows, j] for j in (0, g - 1, g % n))
    else:  # one row, its values scalars: Python floats overflow to inf silently
        g, csum, least = guess, desc[:, :guess].cumsum(axis=1).item(guess - 1), min
        richest, poorest, inactive = map(desc.item, (0, g - 1, g % n))
    a = g * 1.0
    base, dz = n * (1.0 + delta), delta * z
    den = base - a * (dz - xnn)
    if not (vectors or den > 0.0):
        return 0.0, False
    kappa = (delta * csum - a * delta * z * total) / den
    tail = dz * (total - kappa) + xnn * kappa
    head = delta * poorest
    # the richest inactive, if any; a NaN there has already failed the root's tests
    ok = (0.0 < kappa) & (kappa < total) & (head > tail) & ((g == n) | (delta * inactive <= tail))
    rho = least(den / base, 1.0)
    p = delta * richest + dz * total + (1.0 + delta + dz + xnn) * (2.0 * total / rho)
    err = 2.0 * (a + 16.0) * _UNIT * p * (1.0 + (dz + xnn) / (rho * (1.0 + delta)))
    return kappa, ok & (head - tail > err + err / rho)


def _roots(desc, guess, z, total, delta, xnn):
    """The scan's root of each row, shaped like ``z``: certified from ``guess``, or else scanned."""
    kappa, certified = _certify(desc, guess, z, total, delta, xnn)
    if not isinstance(z, np.ndarray):  # one row, its values scalars
        return kappa if certified else _scan_active_sets(desc, z, total, delta, xnn).item(0)
    if not certified.all():
        rest = ~certified
        kappa[rest] = _scan_active_sets(desc[rest], z[rest], total[rest], delta[rest], xnn[rest])
    return kappa[:, None]


def solve_temporary(
    bequests: Sequence[float] | np.ndarray,
    nu_t: float,
    nu_next: float,
    params: EconomyParams,
    envy: EnvySpec,
) -> TemporaryEquilibrium:
    """Solve the unique temporary equilibrium for one period.

    ``bequests`` is the inherited vector, validated like the initial
    vector of :func:`simulate` (N entries, finite, nonnegative, positive
    total).  ``nu_t`` prices the period's taxes; ``nu_next`` is the announced
    next-period tilt entering the bequest motive.  The caller is
    responsible for having validated ``envy`` against the existence
    bound; the realized floor condition (every dynasty can consume above
    z times average consumption) is guarded regardless and raises
    :class:`EnvyTooStrong`.  It is the record of a one-period :func:`simulate`.
    """
    return simulate(bequests, (nu_t, nu_next), 1, params, envy).records[0]


class _Path:
    """One row of a lockstep block: its tilts and its outcome.

    ``pairs`` maps each period in which the path's tilt pair may change to
    that pair ``(nu_t, nu_next)`` (see :func:`_tilt_pairs`); ``nu_t`` and
    ``nu_next`` hold the pair in effect.  ``params`` and ``envy`` fill the
    path's row of block columns (``_ECONOMY``), and ``taxes`` are those of
    ``nu_t``.  ``records`` is a list only on a one-row path that keeps them.
    """

    __slots__ = ("params", "envy", "pairs", "nu_t", "nu_next", "taxes", "records", "error")

    def __init__(self, params: EconomyParams, envy: EnvySpec, pairs=None, keep=False):
        self.params, self.envy, self.pairs = params, envy, pairs
        self.records, self.error = ([] if keep else None), None


# A block's economy, one record per row: the index of its path, what holds for the whole
# path, and tau_s, xi/nu_t and xi/nu_next, priced again once ``priced`` is cleared.
_ECONOMY = np.dtype([
    ("path", np.intp), ("alpha", float), ("delta", float), ("base", float), ("scale", float),
    ("tau_s", float), ("xi_nu", float), ("xnn", float), ("priced", bool),
], align=True)  # numpy buffers arithmetic on unaligned columns


def _economy(paths) -> np.ndarray:
    """The block economy of ``paths``, its tilts not yet priced."""
    fixed = [(p.params.alpha, p.params.delta, p.envy.base, p.envy.scale) for p in paths]
    return np.array([(i, *f, 0.0, 0.0, 0.0, False) for i, f in enumerate(fixed)], dtype=_ECONOMY)


# A block's per-row values are Python scalars for one row, else (C x 1) columns.  Each pair
# reads a C-vector's per-row value and row i of a per-row value.
_ONE_ROW = (methodcaller("item", 0), lambda v, i: v)
_COLUMNS = (itemgetter((slice(None), None)), np.ndarray.item)


def _rows(mask, holds=True):
    """The rows where a per-row mask is ``holds``; a bool is the mask of one row."""
    if isinstance(mask, np.ndarray):
        return np.flatnonzero(mask if holds else ~mask)
    return (0,) if mask == holds else ()


@np.errstate(all="ignore")
def _solve_block(beq, order, econ, paths, out=None):
    """Solve one period for every row of ``beq``, a (C x N) block of bequests.

    Row i is the inherited vector of ``paths[econ["path"][i]]``, whose
    economy is ``econ[i]``; ``order[i]`` should sort it ascending.  A stale
    order is overwritten in place by a stable argsort, and a row whose
    tilts are not priced is priced in place.  Each row is rounded as the
    one-row case would round it (see the module docstring); only the power
    ``k ** (alpha - 1)`` is a scalar call per row, since numpy's
    elementwise power rounds differently.  numpy's float warnings are off
    in here, for every function it calls: typed tests decide each row (a
    finite positive mean and ascending total, the root's consistency
    tests, which NaN and inf fail, ``k_next > 0`` and the envy floor).  A
    row that fails one records the error on its path and computes finite
    filler from then on; the rest go on.

    Returns ``(bequests_next, ok, same, values)``.  ``ok`` marks the rows
    that did not raise and ``same`` those of them with ``k_next == k``;
    ``values`` is ``(k, gamma, gini, k_next, avg_consumption, xi_k, net)``.
    All are per-row values, from which :func:`_record` builds a row's
    record.  ``bequests_next`` is written into ``out``, a (C x N) array,
    when one is given, else into a new one.
    """
    c, n = beq.shape
    row, at = _ONE_ROW if c == 1 else _COLUMNS
    asc = beq.take(order if c == 1 else order + np.arange(0, c * n, n)[:, None])
    for i in _rows(row((asc[:, :-1] <= asc[:, 1:]).all(axis=1)), False):
        order[i] = np.argsort(beq[i], kind="stable")
        asc[i] = beq[i, order[i]]
    kv = beq.sum(axis=1) / n  # ndarray.mean, bit for bit, without its Python overhead
    k = row(kv)
    asc_total = row(asc.sum(axis=1))  # can overflow where the row's own total did not
    ok, rows = np.ones(c, dtype=bool), econ["path"]
    good = (0.0 < k) & (k < np.inf) & (asc_total < np.inf)
    for i in _rows(good & row(econ["priced"]), False):
        p = paths[rows[i]]
        try:
            if not at(good, i):
                as_distribution(asc[i])  # the Gini rejects a non-finite row,
                factor_prices(kv.item(i), p.params)  # the prices a mean that is not > 0
            p.taxes, xi = tax_rates(p.nu_t, p.params), p.params.xi
            if not p.nu_next > 0.0:
                raise DomainError(f"nu_next must be > 0, got {p.nu_next}")
            econ[["tau_s", "xi_nu", "xnn", "priced"]][i] = (
                p.taxes.tau_s, xi / p.nu_t, xi / p.nu_next, True
            )
        except JonesesError as exc:
            p.error, ok[i], kv[i] = exc, False, 1.0  # the mean's filler

    g, gamma = _gini_weights(asc, row(econ["base"]), row(econ["scale"]), asc_total)
    delta = row(econ["delta"])
    z = gamma / (1.0 + gamma)

    k, kl, alphas = row(kv), kv.tolist(), econ["alpha"].tolist()
    try:
        gross = np.fromiter(map(gross_return, kl, alphas), float, c)
    except ModelError:  # a power past the float range: that row raises, the others go on
        gross = np.array(alphas)  # the return at k = 1, a finite filler
        for i, (k_i, alpha) in enumerate(zip(kl, alphas)):
            try:
                gross[i] = gross_return(k_i, alpha)
            except ModelError as exc:
                paths[rows[i]].error, ok[i] = exc, False
    gross = row(gross)
    net, xi_nu, xnn = (1.0 - row(econ["tau_s"])) * gross, row(econ["xi_nu"]), row(econ["xnn"])
    xi_k = xi_nu * k
    total = net * (xi_nu + 1.0) * k  # = (1-phi) * k**alpha
    income = xi_k + beq
    income *= net
    guess = n - row((asc > 0.0).argmax(axis=1))  # positive bequests: on a path, the last active set
    # the least bequest's income, income[order[0]] bit for bit (the same two operations, and
    # addition commutes); both are monotone, so it is the least income.  A NaN income fails
    # as short before the floor test reads it.
    poorest = (row(asc[:, 0]) + xi_k) * net
    asc += xi_k  # the Gini is done with asc: it becomes the sorted incomes
    asc *= net
    kappa = _roots(asc[:, ::-1], guess, z, total, delta, xnn)

    bequests_next = np.multiply(delta, income, out=out)
    bequests_next -= delta * z * (total - kappa)
    bequests_next -= xnn * kappa
    np.maximum(0.0, bequests_next, out=bequests_next)
    bequests_next /= 1.0 + delta
    k_next = row(bequests_next.sum(axis=1)) / n
    consumptions = np.subtract(income, bequests_next, out=asc)  # records recompute theirs
    avg = row(consumptions.sum(axis=1)) / n
    floor = z * avg
    for i in _rows((k_next > 0.0) & (poorest > floor), False):
        if not ok[i]:
            continue
        # a root <= 0 leaves no head positive, a non-finite one NaN heads
        if not at(k_next, i) > 0.0:
            error = NoPositiveRoot("next-period capital intensity is not positive")
        else:
            error = EnvyTooStrong(
                f"envy weight {at(gamma, i)} leaves a dynasty with income "
                f"{income[i].min()} at or below the consumption floor {at(floor, i)}"
            )
        paths[rows[i]].error, ok[i] = error, False

    ok = row(ok)
    values = (k, gamma, g, k_next, avg, xi_k, net)
    return bequests_next, ok, ok & (k_next == k), values


def _record(path, beq, bequests_next, values) -> TemporaryEquilibrium:
    """The record of a period that ``path`` solved from ``beq``; ``values`` as one row's floats."""
    k, gamma, gini, k_next, avg, xi_k, net = values
    return TemporaryEquilibrium(
        k=k, output=k ** path.params.alpha, gamma=gamma, gini=gini, bequests=beq,
        bequests_next=bequests_next, k_next=k_next, avg_consumption=avg,
        prices=factor_prices(k, path.params), taxes=path.taxes,
        m_count=int(np.count_nonzero(bequests_next > 0.0)), xi_k=xi_k, net=net,
    )


@dataclass(frozen=True)
class Trajectory:
    """Ordered sequence of temporary equilibria along one policy path.

    ``records`` may hold the same object several times in a row: the
    periods of a path that sits at its exact fixed point share one record.
    """

    records: tuple[TemporaryEquilibrium, ...]

    @property
    def horizon(self) -> int:
        return len(self.records)

    @property
    def gamma_path(self) -> np.ndarray:
        return np.array([r.gamma for r in self.records])

    @property
    def m_counts(self) -> np.ndarray:
        return np.array([r.m_count for r in self.records])

    @property
    def final_bequests(self) -> np.ndarray:
        return self.records[-1].bequests_next

    @property
    def final_k(self) -> float:
        return self.records[-1].k_next


def _tilt_pairs(schedule, horizon: int) -> dict:
    """The tilt pairs ``(nu_t, nu_{t+1})`` of periods 0..horizon-1, keyed where they may change.

    ``schedule`` is a FiscalSchedule or an explicit per-period sequence.
    A new run of periods starts wherever the tilt's float value changes.
    The keys, ascending, are the first and last periods of each run below
    ``horizon``; the tilts are Python floats.
    """
    integral = isinstance(horizon, numbers.Integral) and not isinstance(horizon, bool)
    if not (integral and horizon >= 1):
        raise DomainError(f"horizon must be an integer >= 1, got {horizon!r}")
    if hasattr(schedule, "segments"):
        periods = [(start, nu) for start, nu in schedule.segments if start <= horizon]
    else:
        seq = list(schedule)
        if len(seq) < horizon + 1:
            raise ScheduleTooShort(
                f"need nu for periods 0..{horizon} (one period ahead), "
                f"got {len(seq)} values"
            )
        periods = enumerate(seq[: horizon + 1])
    pairs, start, nu = {}, 0, None
    for t, nu_t in periods:  # t = 0 comes first
        nu_t = float(nu_t)  # the kernel's float: NumPy compares a narrower scalar in its type
        if not t:
            nu = nu_t
        elif nu_t != nu:
            if start < t - 1:
                pairs[start] = (nu, nu)
            pairs[t - 1], start, nu = (nu, nu_t), t, nu_t
    if start < horizon:  # the last run holds its tilt through period horizon
        pairs[start] = (nu, nu)
    return pairs


# The least size of a kept path's slab.  numpy asks for huge pages for any block of 4 MiB or
# more, so a fresh slab faults about once per 2 MiB, not once per 4 KiB page.  And glibc,
# once it has freed one block this large, serves the next from its heap and keeps it there
# when it is freed; a path's 128 KiB vectors (N = 16384) it trims from the heap top, so each
# path used to fault all of its vectors in again.
_SLAB_BYTES = 8 << 20


def _run_paths(beq, paths, horizon: int):
    """Advance row i of ``beq`` (C x N) along ``paths[i]`` for ``horizon`` periods.

    The one loop over periods.  The rows that need solving in a period
    are solved as one block.  A row whose solved period is stationary
    leaves the block until the next period in which its tilt pair
    (nu_t, nu_{t+1}) may change, a key of its ``pairs``; a row that
    raises is frozen with its error for good.  With no row left, the
    driver jumps to the next such period, or ends.  After each period in
    which it solved a block it yields ``(bequests, order)``: the (C x N)
    block the paths hand on, and the orders that sort the block they
    inherited.  The last block yielded holds the final bequests.

    Only a one-row path keeps records (``simulate``): each period it
    solves writes its ``bequests_next`` into the next page of a slab, one
    array of at least ``_SLAB_BYTES`` and at most as many pages as periods
    are left, which its record keeps alive.  Over a jump it repeats its
    last record.
    """
    c, path = len(paths), paths[0]
    keep = path.records is not None  # a one-row path
    order = np.argsort(beq, axis=1)
    econ = _economy(paths)
    changes = {}
    for i, p in enumerate(paths):
        for t in p.pairs:
            changes.setdefault(t, []).append(i)
    stops = [*sorted(changes), horizon]
    live, n_live = np.ones(c, dtype=bool), c
    slab, used, page, t, s = (), 0, None, 0, 0
    while t < horizon:
        if t == stops[s]:
            for i in changes[t]:
                p = paths[i]
                p.nu_t, p.nu_next = p.pairs[t]
                econ["priced"][i] = False
                if not live[i] and p.error is None:
                    live[i], n_live = True, n_live + 1
            s += 1
        if not n_live:  # nothing changes before the next stop
            if keep and path.error is None:
                path.records += path.records[-1:] * (stops[s] - t)
            t = stops[s]
            continue
        whole = n_live == c
        idx = range(c) if whole else np.flatnonzero(live)
        # take and put: indexing a structured array with idx is ~5x slower
        b, o, e = (beq, order, econ) if whole else (beq[idx], order[idx], econ.take(idx))
        if keep:
            if used == len(slab):
                pages = min(-(-_SLAB_BYTES // beq.nbytes), horizon - t)
                slab, used = np.empty((pages, *beq.shape)), 0
            page, used = slab[used], used + 1
        nxt, ok, same, values = _solve_block(b, o, e, paths, page)
        if keep and ok:
            path.records.append(_record(path, beq[0], nxt[0], values))
        if not whole:
            order[idx] = o
            np.put(econ, idx, e)
        for j in _rows(same):
            if nxt[j].tobytes() == b[j].tobytes():
                live[idx[j]], n_live = False, n_live - 1
        for j in _rows(ok, False):
            live[idx[j]], n_live = False, n_live - 1
        if whole:
            beq = nxt
        else:
            beq[idx] = nxt
        t += 1
        yield beq, order


def simulate(
    initial: Sequence[float] | np.ndarray,
    schedule,
    horizon: int,
    params: EconomyParams,
    envy: EnvySpec,
) -> Trajectory:
    """Iterate the period solver from an initial bequest vector.

    ``schedule`` is either a FiscalSchedule or an explicit sequence of
    per-period tilt values covering periods 0..horizon (the solver for
    period t needs the period t+1 announcement).  The path is the
    one-row case of the lockstep kernel.

    A stationary record (``k_next == k`` and ``bequests_next`` byte-equal
    to ``bequests``) is repeated, the same object, until the tilt changes,
    without stepping through the periods; tilts are equal when their float
    values are.
    """
    pairs = _tilt_pairs(schedule, horizon)
    beq = as_distribution(initial, params.n_agents).copy()  # the first record reads it again
    path = _Path(params, envy, pairs, keep=True)
    for _ in _run_paths(beq[None], [path], horizon):
        pass
    if path.error is not None:
        raise path.error
    return Trajectory(records=tuple(path.records))


def final_capitals(
    initials: Sequence[np.ndarray],
    schedules: Sequence,
    horizon: int,
    params: Sequence[EconomyParams],
    envys: Sequence[EnvySpec],
) -> list[float | JonesesError]:
    """``simulate(...).final_k`` for many paths of one length, in lockstep.

    Path i starts from ``initials[i]`` under ``schedules[i]``,
    ``params[i]`` and ``envys[i]``; all paths share ``horizon`` and the
    number of dynasties, and advance together as one block.  Entry i is
    the final capital intensity, bit for bit what :func:`simulate` gives,
    or the :class:`JonesesError` that stopped path i.  No records are
    built.  The starts come validated: only their count and sizes are checked.
    """
    counts = (len(initials), len(schedules), len(params), len(envys))
    sizes = sorted({len(beq) for beq in initials})
    if len(set(counts)) > 1 or len(sizes) > 1:
        raise LengthMismatch(f"paths disagree: counts {counts}, start sizes {sizes}")
    if not sizes:
        raise DomainError("final_capitals needs at least one path")
    paths = [_Path(p, e, _tilt_pairs(s, horizon)) for s, p, e in zip(schedules, params, envys)]
    for beq, _ in _run_paths(np.stack(initials), paths, horizon):
        pass
    k_final = beq.mean(axis=1).tolist()
    return [k if p.error is None else p.error for p, k in zip(paths, k_final)]


@dataclass(frozen=True)
class SteadyState:
    """Stationary allocation: either egalitarian or a rich/poor split."""

    kind: str  # "egalitarian" | "polarised"
    rich_count: int
    k: float
    savings_rate: float
    gamma: float
    bequests: np.ndarray  # rich dynasties listed first
    consumptions: np.ndarray


def egalitarian_steady(
    params: EconomyParams, nu: float, envy: EnvySpec
) -> SteadyState:
    """Steady state where every dynasty bequeaths the capital intensity k.

    k solves k = s(G_N, 1, nu) k**alpha with G_N the envy weight of the
    equal distribution; consumption is (1 - phi) k**alpha - k.  With m = 1
    the rate is s = (1 - phi) delta / (L + delta), L = (1 + xi/nu)(1 + G_N),
    so consumption is (1 - phi) k**alpha L / (L + delta): computed so, it
    keeps its digits at a large delta, where 1 - phi and s all but cancel.
    """
    n = params.n_agents
    gamma_eq = gamma_uniform_top(envy, n, n)
    rate = savings_rate(gamma_eq, 1.0, nu, params)
    k = rate ** (1.0 / (1.0 - params.alpha))
    spent = (1.0 + params.xi / nu) * (1.0 + gamma_eq)  # L
    consumption = (1.0 - params.phi) * k**params.alpha * (spent / (spent + params.delta))
    if not consumption > 0.0:
        raise ModelError(
            f"egalitarian consumption {consumption} is not positive; "
            "steady-state construction is inconsistent"
        )
    return SteadyState(
        kind="egalitarian",
        rich_count=n,
        k=k,
        savings_rate=rate,
        gamma=gamma_eq,
        bequests=np.full(n, k),
        consumptions=np.full(n, consumption),
    )


def polarised_steady(
    params: EconomyParams, nu: float, envy: EnvySpec, rich_count: int
) -> SteadyState:
    """Steady state where ``rich_count`` dynasties hold all wealth.

    Sustainable only when the envy weight of that split, G_J, exceeds
    the threshold gamma_star(nu) (otherwise the poor would resume
    saving).  The rich each bequeath (N/J) k; their consumption follows
    from the household budget
    c = (1 - tau_s)(1 + r)(xi/nu * k + s) - s, and the poor consume
    their net wage.
    """
    n = params.n_agents
    if not isinstance(rich_count, int) or isinstance(rich_count, bool):
        raise DomainError(f"rich_count must be an integer, got {rich_count!r}")
    if not 1 <= rich_count <= n - 1:
        raise DomainError(f"rich_count must lie in 1..{n - 1}, got {rich_count}")
    gamma_pol = gamma_uniform_top(envy, rich_count, n)
    threshold = gamma_star(nu, params)
    if not gamma_pol > threshold:
        raise NotSustainable(
            f"envy weight {gamma_pol} of a {rich_count}-rich split does not "
            f"exceed the threshold {threshold}; the poor would keep saving"
        )
    m = rich_count / n
    rate = savings_rate(gamma_pol, m, nu, params)
    k = rate ** (1.0 / (1.0 - params.alpha))
    taxes = tax_rates(nu, params)
    prices = factor_prices(k, params)
    s_rich = (n / rich_count) * k
    net_return = (1.0 - taxes.tau_s) * prices.gross_return
    c_rich = net_return * (params.xi / nu * k + s_rich) - s_rich
    c_poor = (1.0 - params.alpha) * (1.0 - taxes.tau_w) * k**params.alpha
    if not c_rich > 0.0:
        raise ModelError(
            f"rich consumption {c_rich} is not positive; steady-state "
            "construction is inconsistent"
        )
    bequests = np.zeros(n)
    bequests[:rich_count] = s_rich
    consumptions = np.full(n, c_poor)
    consumptions[:rich_count] = c_rich
    return SteadyState(
        kind="polarised",
        rich_count=rich_count,
        k=k,
        savings_rate=rate,
        gamma=gamma_pol,
        bequests=bequests,
        consumptions=consumptions,
    )


@dataclass(frozen=True)
class Regime:
    """Long-run classification of a starting distribution under constant policy."""

    kind: str  # "egalitarian" | "polarised" | "boundary"
    limit_k: float | None
    rich_count: int | None
    gamma0: float
    gamma_threshold: float


def classify(
    initial: Sequence[float] | np.ndarray,
    nu: float,
    params: EconomyParams,
    envy: EnvySpec,
) -> Regime:
    """Compare the initial envy weight with the threshold gamma_star(nu).

    Below: convergence to the egalitarian steady state.  Above: the
    dynasties tied at the highest initial bequest (counted by exact
    value equality) end up holding everything.  Within 1e-12 of the
    threshold the long-run limit is not claimed ("boundary").
    ``gamma0`` is bit for bit ``envy.weight(initial)``.  A start whose
    mean period 0 cannot price raises what its path raises there.
    """
    beq = as_distribution(initial, params.n_agents)
    weight = partial(gamma_uniform_top, envy, n_agents=params.n_agents)
    return _regime(*_start_facts(beq, params, envy), nu, params, weight)


def _start_facts(beq: np.ndarray, params: EconomyParams, envy: EnvySpec) -> tuple[float, int]:
    """Weight and top count of a validated start, priced first as period 0 of its path is."""
    factor_prices(beq.sum().item() / params.n_agents, params)
    return _start_weight(beq, envy), _rich_count(beq)


def _start_weight(beq: np.ndarray, envy: EnvySpec) -> float:
    """``envy.weight(beq)`` of a validated start, without validating it a second time."""
    return float(_gini_weights(np.sort(beq)[None], envy.base, envy.scale)[1])


def _rich_count(beq: np.ndarray) -> int:
    """How many dynasties tie at the start's highest bequest (exact value equality)."""
    return int(np.count_nonzero(beq == beq.max()))


def _regime(
    gamma0: float, rich: int, nu: float, params: EconomyParams, weight: Callable[[int], float]
) -> Regime:
    """:func:`classify` of a start of weight ``gamma0`` with ``rich`` dynasties at its top.

    ``weight(top)`` is :func:`gamma_uniform_top` of the functional at ``top``.
    """
    threshold = gamma_star(nu, params)
    n = params.n_agents
    if abs(gamma0 - threshold) < IDENTITY_TOL:
        kind, limit, top = "boundary", None, None
    elif gamma0 < threshold:
        kind, top = "egalitarian", None
        limit = steady_capital(weight(n), 1.0, nu, params)
    else:
        kind, top = "polarised", rich
        limit = steady_capital(weight(top), top / n, nu, params)
    return Regime(
        kind=kind, limit_k=limit, rich_count=top, gamma0=gamma0, gamma_threshold=threshold
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """First period from whose start the path no longer moves beyond tol."""

    period: int
    k: float  # terminal capital intensity of the trajectory
    bequests: np.ndarray  # terminal bequest vector
    reentered: bool  # True if step deltas dipped below tol and rose again


def detect_convergence(traj: Trajectory, tol: float) -> ConvergenceReport | None:
    """Scan step deltas max(|k_next - k|, max_j |s_next_j - s_j|) against tol.

    Returns the first period T such that every delta from T-1 onwards is
    below tol (entering period T the state is stationary to tol), or
    None if the final delta still exceeds tol.  ``reentered`` flags the
    anomaly of deltas dropping below tol and later rising above it,
    which this model's dynamics should never produce.  ``tol`` must be
    finite and > 0.
    """
    if not traj.records:
        raise DomainError("trajectory is empty")
    if not 0.0 < tol < float("inf"):
        raise DomainError(f"tol must be finite and > 0, got {tol}")
    deltas = np.empty(len(traj.records))
    last = None
    for t, r in enumerate(traj.records):
        if r is not last:  # a repeated record has the delta it had the period before
            d = abs(r.k_next - r.k)
            if not d >= tol:  # else the step is not below tol, whatever the vector's part
                d = max(d, float(np.abs(r.bequests_next - r.bequests).max()))
            last = r
        deltas[t] = d
    below = deltas < tol
    if not below[-1]:
        return None
    violations = np.nonzero(~below)[0]
    first_stable = 0 if violations.size == 0 else int(violations[-1]) + 1
    first_below = int(np.nonzero(below)[0][0])
    return ConvergenceReport(
        period=first_stable + 1,
        k=traj.final_k,
        bequests=traj.final_bequests,
        reentered=first_below < first_stable,
    )
