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
earlier candidate is consistent in floating point.  A one-row period
retries once, with the incomes that save at the failed guess's root (a
first period guesses N).  The rows left (a kink, NaN, a block's failed
guess) are found exactly by testing every candidate in one vectorised
pass.  Either way a row gets the same bytes.
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

There is one driver, ``_run_paths``, which steps a (C x N) block of
bequest rows through the periods in lockstep, and a period has two
shapes: a block's per-row values are (C x 1) columns (``_solve_block``),
one row's are Python floats (``_solve_row``), so a row alone calls numpy
only for its O(N) passes.  :func:`simulate`, :func:`solve_temporary` and
the reform planner run one row, :func:`final_capitals` (the sweep's) a
block of cells that share the horizon and the number of dynasties.  The
rows still being solved stay one contiguous block, taken again only
where a row leaves or rejoins it, and their per-row constants are priced
once per tilt.  Every row is rounded exactly as it would be alone:
row-wise means, sums and cumulative sums equal the 1-D calls bit for
bit, the Gini and weight come from the function that ``gini`` runs, and
both shapes repeat the same IEEE operations; a block's only per-row
Python call is one power, and its rank dots are one ``np.vecdot``.  A
row that the one-row shape declines (a stale order, a root neither guess
certifies, an error) is solved as a one-row column block.  Every tilt is
priced as a Python float.  The kernel has one float policy: numpy's
warnings are off, and typed tests alone decide each row, which NaN and
inf fail.  A row that raises is frozen with the error, and message, its
own path raises; the other rows go on.  Each period counts its positive
bequests once, and a row's count and mean are the next period's guess
and mean.

In the polarised regime the poor hold exact zeros from the first solved
period on.  One row whose zeros its path's last period wrote takes the
zero-prefix form: they come first under the order, all earn one income
and, while their heirs' bequest numerator stays negative, leave 0.0, so
the incomes, the root and the bequests are computed for the positive top
alone, with the dense form's operations in its order.  It keeps an O(N)
pass only where the bytes depend on every entry's place: numpy's
pairwise sums and BLAS's dot group entries by position, so the Gini's
rank dot runs over a sorted buffer whose zero prefix persists between
periods, and the sorted total over the subtree of numpy's summation tree
that holds the top; the next vector is a full page summed for
``k_next``, and the consumptions are summed in dynasty order.  A rich
dynasty that drops to zero keeps the form, by the retry.  Rows with no
zeros and first periods take the dense form, and poor heirs that would
save go to the columns; so :func:`solve_temporary`, a first period, is
the zero-prefix form's oracle.

In floating point a path does not just approach its limit: from some
period on it repeats exactly, handing on the state (the mean, then the
bytes of the vector) it inherited p periods before: p = 1 at a steady
state, and 2 to 4 on the cycles that rounding leaves, as the equal start
of ``equal_start.json`` from period 30.  The period solver is a pure
function of those bytes and of the two tilts, so while the tilt pair
holds every later period would recompute the cycle's records.  A row
compares each state it hands on with its last ``_CYCLE`` states; on a
match it leaves the block, and rejoins it, in the cycle's phase, where
the schedule next changes its tilt.  A block with no row left jumps to
that change, or to the horizon, so repeated periods cost nothing; a path
that keeps records repeats its last p over them.  This is exact, not a
tolerance.  At seed 0 the benchmark's sweep solves 17,343 of its 24,840
row-periods, in 105 block periods of 120, its cells ending on cycles of
length 1 (166 cells), 2 (14), 3 (24) and 4 (3).

An economy run under a constant tilt settles, depending on whether the
initial envy weight sits below or above the threshold ``gamma_star(nu)``,
into the egalitarian steady state (everybody holds the mean bequest) or
a polarised one (the initially-richest class holds everything).  Both
are constructed in closed form here and are exact fixed points of the
period solver.
"""

from __future__ import annotations

import numbers
from collections import deque
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import cycle, islice
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
    _step = None  # max |bequests_next - bequests| from the zero-prefix form; not a field

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


# The kernel's counters of a path: its one-row periods that took the zero-prefix form and that
# _solve_row declined, its roots certified at the first guess, on the retry, and scanned, and
# the periods it covered by repeating a cycle instead of solving them.
_COUNTS = ("route", "declined", "first", "retry", "scan", "repeat")
_ROUTE, _DECLINED, _FIRST, _RETRY, _SCAN, _REPEAT = range(len(_COUNTS))


def _certify(desc, guess, z, total, delta, xnn, n=None):
    """Try the active set of size ``guess`` on each row; returns ``(kappa, certified)``.

    The arguments are those of :func:`_scan_active_sets` plus ``guess``, an
    integer in 1..N per row; the results are vectors of C entries, or
    scalars when the per-row values are (Python floats, as
    :func:`_solve_row` passes them).  A one-row ``desc`` may hold only the
    row's top ``guess + 1`` incomes, when ``n`` gives its length N.
    Candidate g = ``guess`` is computed with the scan's own IEEE operations
    in its order (its prefix sum from the same sequential cumsum, cut at
    g).  A row is certified when g passes the scan's three tests and the
    poorest active dynasty's float margin m = delta*I_g - tail_g exceeds
    E = err*(1 + 1/rho); then no a < g passes the scan's tests, and
    ``kappa`` is bit for bit the root the scan returns.  The proof, in
    exact arithmetic on the float inputs, with s = delta*z -
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
    the tests and an infinite bound certifies nothing.  Nor is a row in
    Python floats whose D_g rounds to 0 (delta and gamma past 2**53)
    certified: Python floats raise on a zero divisor.
    """
    c, n = len(desc), n or desc.shape[1]
    vectors = isinstance(z, np.ndarray)
    if vectors:  # (C x 1) columns, worked as vectors: 2-D arithmetic costs more per call
        rows, g, least = np.arange(c), guess.reshape(c), np.minimum
        z, total, delta, xnn = z[:, 0], total[:, 0], delta[:, 0], xnn[:, 0]
        last = g - 1
        csum = desc[:, : g.max()].cumsum(axis=1)[rows, last]
        richest, poorest, inactive = desc[:, 0], desc[rows, last], desc[rows, g % n]
    else:  # one row, its values scalars: Python floats overflow to inf silently
        g, csum, least = guess, desc[:, :guess].cumsum(axis=1).item(guess - 1), min
        richest, poorest, inactive = map(desc.item, (0, g - 1, g % n))
    a = g * 1.0
    d1, dz = 1.0 + delta, delta * z
    base = n * d1
    den = base - a * (dz - xnn)
    if not (vectors or den > 0.0):
        return 0.0, False
    kappa = (delta * csum - a * delta * z * total) / den
    tail = dz * (total - kappa) + xnn * kappa
    head = delta * poorest
    # the richest inactive, if any; a NaN there has already failed the root's tests
    ok = (0.0 < kappa) & (kappa < total) & (head > tail) & ((g == n) | (delta * inactive <= tail))
    rho = least(den / base, 1.0)
    p = delta * richest + dz * total + (d1 + dz + xnn) * (2.0 * total / rho)
    err = 2.0 * (a + 16.0) * _UNIT * p * (1.0 + (dz + xnn) / (rho * d1))
    return kappa, ok & (head - tail > err + err / rho)


def _certify_row(desc, guess, z, total, delta, xnn, n=None):
    """A one-row :func:`_certify` of ``guess`` g, then of a' where g fails: ``(kappa, how)``.

    a' counts the incomes whose head is positive at kappa_g, by one binary
    search; the proof holds for any guess.  A ``desc`` cut short of its
    length ``n`` cannot try a' = all it holds.  ``how`` is ``_FIRST``,
    ``_RETRY`` or None.
    """
    kappa, certified = _certify(desc, guess, z, total, delta, xnn, n)
    if certified:
        return kappa, _FIRST
    held = desc.shape[1]
    tail = delta * z * (total - kappa) + xnn * kappa
    retry = held - np.searchsorted(desc[0, ::-1], tail / delta, side="right").item()
    if 1 <= retry != guess and (retry < held or n in (None, held)):
        kappa, certified = _certify(desc, retry, z, total, delta, xnn, n)
        if certified:
            return kappa, _RETRY
    return kappa, None


def _roots(desc, guess, z, total, delta, xnn, tally):
    """The scan's root of each row, a (C x 1) column: certified, or else scanned.

    Each row's outcome is counted in ``tally``, the block's (C x len(_COUNTS))
    counters.
    """
    kappa, certified = _certify(desc, guess, z, total, delta, xnn)
    tally[:, _FIRST] += certified
    if not certified.all():
        rest = ~certified
        kappa[rest] = _scan_active_sets(desc[rest], z[rest], total[rest], delta[rest], xnn[rest])
        tally[rest, _SCAN] += 1
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
    path's constants in a block (:class:`_Block`), and ``taxes`` are those
    of ``nu_t``.  ``records`` is a list only on a one-row path that keeps
    them; ``final`` is the mean of the path's vector at the horizon.
    ``asc`` and ``cons`` are a one-row path's buffers for the zero-prefix
    form (see :func:`_solve_row`), made once a solved period has left
    zeros; the first ``zeros`` entries of ``asc`` are zeros.
    ``tally`` holds the kernel's counters of the path, read by :func:`_tally`.
    """

    __slots__ = (
        "params", "envy", "pairs", "nu_t", "nu_next", "taxes", "records", "error", "final",
        "asc", "cons", "zeros", "tally",
    )

    def __init__(self, params: EconomyParams, envy: EnvySpec, pairs=None, keep=False):
        self.params, self.envy, self.pairs = params, envy, pairs
        self.records, self.error, self.final = ([] if keep else None), None, None
        self.asc = self.cons = self.tally = None
        self.zeros = 0


def _tally(path: _Path) -> dict:
    """The kernel's counters of ``path`` since its driver started, by name."""
    return dict(zip(_COUNTS, path.tally.tolist()))


# A row's constants in a block, each the float of the expression it names: alpha, delta and
# 1 + delta, the envy base and scale, and those a tilt pair prices, 1 - tau_s, xi/nu_t,
# xi/nu_t + 1 and xi/nu_next.
_CONSTANTS = ("alpha", "delta", "delta1", "base", "scale", "one_tau", "xi_nu", "xi1", "xnn")
_TILT = slice(_CONSTANTS.index("one_tau"), None)
_ROWS = ("paths", "rows", "beq", "order", "k", "count", "hk")  # a block's arrays, a row per row
_CYCLE = 8  # the longest cycle a row repeats, and so the states it keeps to compare


class _Block:
    """The live rows of a lockstep block, contiguous (see :func:`_run_paths`).

    Row j is ``paths[j]``, row ``rows[j]`` of the driver's block; ``where``
    maps a row of the driver's block to its row here, or -1.  ``beq`` holds
    the vectors the rows inherit and ``order`` sorts each; ``k`` (C x 1)
    and ``count`` are each vector's mean and positive entries, which each
    period writes for the next.  ``cols`` holds the rows' ``_CONSTANTS``,
    a contiguous row each, viewed as (C x 1) attributes of the same names;
    the rows in ``unpriced`` price their tilt's again.  ``tally`` counts
    until the driver adds it to the paths'.  ``hb`` holds the last
    ``_CYCLE`` inherited blocks, newest first, each with its ``where``, and
    ``hk`` their means: a ring whose column ``head`` is the newest, NaN
    before a row's last tilt change.
    """

    __slots__ = (
        *_ROWS, *_CONSTANTS, "where", "cols", "powers", "unpriced", "tally", "hb", "head",
        "offsets",
    )

    def __init__(self, arrays, cols, size, head=0, hb=()):
        for name, array in zip(_ROWS, arrays):
            setattr(self, name, array)
        c, n = self.beq.shape
        self.where = np.full(size, -1)
        self.where[self.rows] = np.arange(c)
        self.cols, self.head = cols, head
        for name, col in zip(_CONSTANTS, cols[:, :, None]):
            setattr(self, name, col)
        self.powers = [alpha - 1.0 for alpha in cols[0].tolist()]  # gross_return's exponents
        self.hb = deque(hb, _CYCLE)
        self.hb.appendleft((self.beq, self.where))
        self.unpriced, self.tally = [], np.zeros((c, len(_COUNTS)), np.intp)
        self.offsets = np.arange(0, c * n, n)[:, None]  # row i's entries in the flat block


@np.errstate(all="ignore")  # a row that is not finite raises in the kernel
def _block(paths, beq, order, rows=None, size=None, head=0) -> _Block:
    """The block of ``paths`` from their vectors ``beq``, which ``order`` sorts.

    They are rows ``rows`` (0 to C-1) of a driver's block of ``size`` (C)
    rows.  Every tilt is unpriced, and each row's history starts at its
    vector, in column ``head`` of the ring.
    """
    c, n = beq.shape
    k = beq.sum(axis=1)[:, None] / n  # ndarray.mean, bit for bit
    count = np.maximum((beq > 0.0).sum(axis=1), 1)  # a row with none raises; 1 guesses
    hk = np.full((c, _CYCLE), np.nan)
    hk[:, head] = k[:, 0]
    objects = np.empty(c, dtype=object)  # which one take regroups
    objects[:] = paths
    fixed = [
        (p.params.alpha, p.params.delta, 1.0 + p.params.delta, p.envy.base, p.envy.scale)
        for p in paths
    ]
    cols = np.zeros((len(_CONSTANTS), c))
    cols[: _TILT.start] = np.array(fixed).reshape(c, _TILT.start).T
    rows = np.arange(c) if rows is None else rows
    blk = _Block((objects, rows, beq, order, k, count, hk), cols, c if size is None else size, head)
    blk.unpriced = list(range(c))
    return blk


def _regroup(blk, leave, back) -> _Block:
    """``blk`` without its rows at ``leave``, then the rows of the block ``back``, if any.

    The rows that stay keep their history and their priced tilts.
    """
    stay = np.ones(len(blk.rows), dtype=bool)
    stay[leave] = False
    stay = np.flatnonzero(stay)
    arrays = [getattr(blk, name).take(stay, axis=0) for name in _ROWS]
    cols = blk.cols.take(stay, axis=1)
    if back is not None:
        arrays = [np.concatenate((a, getattr(back, name))) for a, name in zip(arrays, _ROWS)]
        cols = np.concatenate((cols, back.cols), axis=1)
    new = _Block(arrays, cols, len(blk.where), blk.head, list(blk.hb)[1:])
    new.unpriced = list(range(len(stay), len(new.rows)))
    return new


def _price(blk, j) -> None:
    """Price row j's tilt pair into ``blk``: its path's taxes, and the tilt's constants."""
    path = blk.paths[j]
    path.taxes, xi = tax_rates(path.nu_t, path.params), path.params.xi
    if not path.nu_next > 0.0:
        raise DomainError(f"nu_next must be > 0, got {path.nu_next}")
    xi_nu = xi / path.nu_t
    blk.cols[_TILT, j] = (1.0 - path.taxes.tau_s, xi_nu, xi_nu + 1.0, xi / path.nu_next)


def _rows(mask, holds=True):
    """The rows where a per-row mask is ``holds``; a bool is the mask of one row."""
    if not isinstance(mask, np.ndarray):
        return [0] if mask == holds else []
    if not holds and mask.all():
        return []
    return np.flatnonzero(mask if holds else ~mask).tolist()


@np.errstate(all="ignore")
def _solve_block(blk, out=None):
    """Solve one period for every row of ``blk``, a :class:`_Block` of C rows.

    Row i is the inherited vector ``blk.beq[i]`` of ``blk.paths[i]``, whose
    mean, count of positive entries and constants ``blk`` holds;
    ``blk.order[i]`` should sort it ascending.  A stale order is
    overwritten in place by a stable argsort, a row whose tilts are not
    priced is priced in place, and each row's ``k`` and ``count`` are
    overwritten with those of the vector it hands on.  The per-row values
    are (C x 1) columns, and each row is rounded as it would be alone (see
    the module docstring); only the power ``k ** (alpha - 1)`` is a scalar
    call per row, since numpy's elementwise power rounds differently.
    numpy's float warnings are off in here, for every function it calls:
    typed tests decide each row (a finite positive mean and ascending
    total, the root's consistency tests, which NaN and inf fail, ``k_next
    > 0`` and the envy floor), each checked once for the whole block and
    row by row only where it fails.  A row that fails one records the
    error on its path and computes finite filler from then on; the rest go
    on.

    A one-row block is handed to :func:`_solve_row`; where that declines,
    the row is solved here as a one-row column block.

    Returns ``(bequests_next, ok, values)``.  ``ok`` marks the rows that
    did not raise; ``values`` is ``(k, gamma, gini, k_next,
    avg_consumption, xi_k, net, count)``, ``count`` the positive entries of
    ``bequests_next``, from which :func:`_record` builds a row's record.
    For a one-row block ``ok`` and ``values`` are Python scalars, else
    per-row columns.  ``bequests_next`` is written into ``out``, a (C x N)
    array, when one is given, else into a new one.
    """
    beq, order, paths = blk.beq, blk.order, blk.paths
    c, n = beq.shape
    if c == 1:
        solved = _solve_row(blk, out)
        if solved is not None:
            return solved
        blk.tally[0, _DECLINED] += 1
    flat = order + blk.offsets  # each row's order into the flat block
    asc = beq.take(flat)
    if not (asc[:, :-1] <= asc[:, 1:]).all():
        for i in _rows((asc[:, :-1] <= asc[:, 1:]).all(axis=1), False):
            order[i] = np.argsort(beq[i], kind="stable")
            asc[i] = beq[i, order[i]]
        flat = order + blk.offsets
    k = blk.k
    asc_total = asc.sum(axis=1)[:, None]  # can overflow where the row's own total did not
    ok = np.ones(c, dtype=bool)
    if blk.unpriced or not (k.min() > 0.0 and (k + asc_total).max() < np.inf):
        good, k = (0.0 < k) & (k < np.inf) & (asc_total < np.inf), k.copy()
        for i in sorted({*_rows(good[:, 0], False), *blk.unpriced}):
            p = paths[i]
            try:
                if not good.item(i):
                    as_distribution(asc[i])  # the Gini rejects a non-finite row,
                    factor_prices(k.item(i), p.params)  # the prices a mean that is not > 0
                _price(blk, i)
            except JonesesError as exc:
                p.error, ok[i], k[i] = exc, False, 1.0  # the mean's filler
        blk.unpriced = []

    g, gamma = _gini_weights(asc, blk.base, blk.scale, asc_total)
    delta = blk.delta
    z = gamma / (1.0 + gamma)

    kl = k[:, 0].tolist()
    try:  # gross_return's operations: alpha * k ** (alpha - 1), the power a Python call
        gross = blk.alpha * np.fromiter(map(pow, kl, blk.powers), float, c)[:, None]
    except OverflowError:  # a power past the float range: that row raises, the others go on
        gross = blk.alpha.copy()  # the return at k = 1, a finite filler
        for i, (k_i, alpha) in enumerate(zip(kl, blk.cols[0].tolist())):
            try:
                gross[i] = gross_return(k_i, alpha)
            except ModelError as exc:
                paths[i].error, ok[i] = exc, False
    net = blk.one_tau * gross
    xi_k = blk.xi_nu * k
    total = net * blk.xi1 * k  # = (1-phi) * k**alpha
    income = xi_k + beq
    income *= net
    np.take(income, flat, out=asc)  # the Gini is done with asc: it becomes the sorted incomes
    # the least bequest's income, so the least income, as the map is monotone.  A NaN income
    # fails as short before the floor test reads it.
    poorest = asc[:, :1].copy()
    # the guess is each row's positive bequests: on a path, the last active set
    kappa = _roots(asc[:, ::-1], blk.count, z, total, delta, blk.xnn, blk.tally)

    bequests_next = np.multiply(delta, income, out=out)
    bequests_next -= delta * z * (total - kappa)
    bequests_next -= blk.xnn * kappa
    np.maximum(0.0, bequests_next, out=bequests_next)
    bequests_next /= blk.delta1
    k_next = bequests_next.sum(axis=1)[:, None] / n
    consumptions = np.subtract(income, bequests_next, out=asc)  # records recompute theirs
    avg = consumptions.sum(axis=1)[:, None] / n
    floor = z * avg
    held = (k_next > 0.0) & (poorest > floor)
    if not held.all():
        for i in _rows(held[:, 0] | ~ok, False):  # a row that raised before keeps its error
            # a root <= 0 leaves no head positive, a non-finite one NaN heads
            if not k_next.item(i) > 0.0:
                error = NoPositiveRoot("next-period capital intensity is not positive")
            else:
                error = EnvyTooStrong(
                    f"envy weight {gamma.item(i)} leaves a dynasty with income "
                    f"{income[i].min()} at or below the consumption floor {floor.item(i)}"
                )
            paths[i].error, ok[i] = error, False

    count = (bequests_next > 0.0).sum(axis=1)
    blk.k, blk.count = k_next, count
    values = (k, gamma, g, k_next, avg, xi_k, net, count)
    if c == 1:  # a row that _solve_row declined: its record reads Python scalars
        return bequests_next, ok.item(), tuple(np.asarray(v).item() for v in values)
    return bequests_next, ok, values


@lru_cache(maxsize=64)
def _spine_start(n: int, zeros: int) -> int:
    """Where the least right-spine subtree of numpy's sum of N entries holding ``zeros:`` starts.

    numpy sums float64 as a fixed tree: a leaf of 8 accumulators up to 128
    entries, else a split at half the length rounded down to a multiple of
    8.  A left subtree of zeros adds a zero to a positive sum, so a row of
    ``zeros`` zeros, then positives, sums as that subtree, bit for bit.
    """
    start = 0
    while n > 128:
        half = n // 2 - n // 2 % 8
        if zeros < start + half:
            break
        start, n = start + half, n - half
    return start


def _solve_row(blk, out):
    """The period of a one-row block ``blk`` in Python floats, or None.

    Its per-row values are Python floats, with the block's IEEE operations
    in its order, so it calls numpy only for its O(N) passes.  Where the
    path's last solved period left ``N - count`` zeros (the path has its
    buffers ``asc`` and ``cons``), it takes the zero-prefix form: those
    zeros are exact, and the first ``N - count`` entries under ``order``.
    Every zero has the same income ``I0 = (xi_k + 0.0) * net`` and, while
    its heirs' numerator ``delta*I0 - ...`` stays negative, the bequest
    0.0.  So the incomes, the certificate's root and the bequests are
    computed for the positive top alone, and the zeros as one scalar; it
    keeps the O(N) passes that the module docstring names.  Any other row
    takes the dense form, over every entry in dynasty order.  Either form
    certifies its root at ``count`` or on the retry (:func:`_certify_row`).

    Returns what :func:`_solve_block` returns, the zero-prefix form adding
    its step's sup-norm to ``values``, or None where the block's columns
    must run: a stale order, a non-finite mean or total, a tilt that does
    not price, a power past the float range, a root neither guess
    certifies (the scan), poor heirs that would save, and either error of
    the period.  What it leaves then, a priced tilt and the buffers, the
    columns compute alike or do not read.
    """
    path, beq, order = blk.paths[0], blk.beq, blk.order
    n = beq.shape[1]
    count = blk.count.item(0)
    zeros = n - count if path.asc is not None else 0
    if zeros:
        asc, cons = path.asc, path.cons
        # asc[:, :lo] are zeros of any ascending order of this vector: a vector's zeros come first
        lo = min(path.zeros, zeros)
        np.take(beq, order[:, lo:], out=asc[:, lo:], mode="clip")  # "clip" writes out unbuffered
        top = asc[:, zeros:]
        sorts = top.item(0) > 0.0 and (top[:, :-1] <= top[:, 1:]).all()
        path.zeros = zeros if sorts else lo
    else:
        asc = beq.take(order)
        sorts = (asc[:, :-1] <= asc[:, 1:]).all()
    if not sorts:
        return None  # the order is stale: the columns sort again
    asc_total = asc[:, _spine_start(n, zeros):].sum(axis=1).item(0)  # asc.sum(axis=1), bit for bit
    k = blk.k.item(0)
    if not (0.0 < k < np.inf and asc_total < np.inf):
        return None
    try:
        if blk.unpriced:
            _price(blk, 0)
            blk.unpriced = []
        alpha, delta, delta1, base, scale, one_tau, xi_nu, xi1, xnn = blk.cols[:, 0].tolist()
        gross = gross_return(k, alpha)
    except JonesesError:
        return None
    g, gamma = _gini_weights(asc, base, scale, asc_total)
    z = gamma / (1.0 + gamma)
    net = one_tau * gross
    xi_k = xi_nu * k
    total = net * xi1 * k
    # the sorted incomes: one zero's and then the top's in cons, which is free until the
    # consumptions, or every entry's in asc, which the Gini is done with
    first, into = (zeros - 1, cons) if zeros else (0, asc)
    income = np.add(asc[:, first:], xi_k, out=into[:, first:])
    income *= net
    poorest = income.item(0)
    kappa, how = _certify_row(income[:, ::-1], count, z, total, delta, xnn, n)
    if how is None:
        return None
    drop, lift = delta * z * (total - kappa), xnn * kappa
    if zeros:
        if not delta * poorest - drop - lift < 0.0:
            return None  # the poor would save: past the certificate's inactive test, by rounding
        income = income[:, 1:]
    else:
        income = xi_k + beq
        income *= net
    kept = np.multiply(delta, income, out=None if zeros else out)
    kept -= drop
    kept -= lift
    np.maximum(0.0, kept, out=kept)
    kept /= delta1
    count_next = int(np.count_nonzero(kept > 0.0))
    if zeros:
        spent = income - kept
        step = abs(kept - top).max().item()  # the vectors differ only where the old one is positive
        heirs = order[:, zeros:]
        bequests_next = np.empty((1, n)) if out is None else out
        bequests_next.fill(0.0)  # max(0, negative) / (1 + delta)
        np.put(bequests_next, heirs, kept)
        cons.fill(poorest)  # I0 - 0.0
        np.put(cons, heirs, spent)
    else:
        bequests_next, cons = kept, np.subtract(income, kept, out=asc)
    k_next = bequests_next.sum(axis=1).item(0) / n
    avg = cons.sum(axis=1).item(0) / n
    if not (k_next > 0.0 and poorest > z * avg):
        return None
    blk.k[0, 0], blk.count[0] = k_next, count_next
    blk.tally[0, how] += 1
    values = (k, gamma, g, k_next, avg, xi_k, net, count_next)
    if zeros:
        blk.tally[0, _ROUTE] += 1
        values += (step,)
    elif count_next < n and path.asc is None:  # the zero-prefix buffers: the next zeros are ours
        path.asc, path.cons = np.empty((1, n)), np.empty((1, n))
    return bequests_next, True, values


def _record(path, beq, bequests_next, values) -> TemporaryEquilibrium:
    """The record of a period that ``path`` solved from ``beq``; ``values`` as one row's floats."""
    k, gamma, gini, k_next, avg, xi_k, net, count, *step = values
    record = TemporaryEquilibrium(
        k=k, output=k ** path.params.alpha, gamma=gamma, gini=gini, bequests=beq,
        bequests_next=bequests_next, k_next=k_next, avg_consumption=avg,
        prices=factor_prices(k, path.params), taxes=path.taxes, m_count=count, xi_k=xi_k, net=net,
    )
    if step:
        object.__setattr__(record, "_step", step[0])
    return record


@dataclass(frozen=True)
class Trajectory:
    """Ordered sequence of temporary equilibria along one policy path.

    ``records`` may hold the same object several times: the periods of a
    path that repeats an exact cycle share its records, p periods apart.
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

    The one loop over periods.  The rows that need solving in a period are
    solved as one block, the live :class:`_Block`, which stays contiguous
    while its rows hold and is taken again only where a row leaves or
    rejoins it.  A row whose solved period hands on the state it inherited
    p <= ``_CYCLE`` periods before (its mean first, then its bytes), all
    under one tilt pair (nu_t, nu_{t+1}), is on an exact cycle: it leaves
    the block until the next period in which its pair may change, a key of
    its ``pairs``, and rejoins there with the cycle's state of that period.
    A row that raises is frozen with its error for good.  With no row
    left, the driver jumps to the next such period, or ends.  After each
    period in which it solved a block it yields ``(bequests, order)``: the
    block the live rows hand on, and the orders that sort it.  Each path's
    ``final`` is the mean of its vector at the horizon, written once.

    Only a one-row path keeps records (``simulate``): each period it
    solves writes its ``bequests_next`` into the next page of a slab, one
    array of at least ``_SLAB_BYTES`` and at most as many pages as periods
    are left, which its record keeps alive.  Over a cycle's stretch it
    repeats its last p records.
    """
    c, n = beq.shape
    path = paths[0]
    keep = path.records is not None  # a one-row path
    counts = np.zeros((c, len(_COUNTS)), np.intp)
    changes = {}
    for i, p in enumerate(paths):
        p.tally = counts[i]
        keys = list(p.pairs)
        for t, until in zip(keys, keys[1:] + [horizon]):
            changes.setdefault(t, []).append((i, until))
    stops = [*sorted(changes), horizon]
    until = [0] * c  # each row's next stop
    blk = _block(paths, beq, np.argsort(beq, axis=1))
    leave, back, parked = [], {}, {}
    slab, used, page, t, s = (), 0, None, 0, 0
    try:
        while t < horizon:
            retilt = []
            if t == stops[s]:
                for i, stop in changes[t]:
                    p, until[i] = paths[i], stop
                    p.nu_t, p.nu_next = p.pairs[t]
                    if i in parked:
                        back[i] = parked.pop(i)
                    elif t:  # at 0 the block is new: every tilt unpriced, no older state
                        retilt.append(i)
                s += 1
            if len(leave) == len(blk.rows) and not back and stops[s] == horizon:
                return  # every row has left, and none comes back
            if leave or back:
                counts[blk.rows] += blk.tally
                joined = None
                if back:
                    vectors, orders = (np.array(part) for part in zip(*back.values()))
                    members = [paths[i] for i in back]
                    joined = _block(members, vectors, orders, np.array(list(back)), c, blk.head)
                blk = _regroup(blk, leave, joined)
                leave, back = [], {}
            if retilt:  # a live row's older states were solved under another pair
                moved = blk.where[retilt]
                moved = moved[moved >= 0]  # not a row frozen by its error
                blk.unpriced += moved.tolist()
                newest = blk.hk[moved, blk.head]
                blk.hk[moved] = np.nan
                blk.hk[moved, blk.head] = newest
            if not len(blk.rows):  # nothing changes before the next stop
                t = stops[s]
                continue
            if keep:
                if used == len(slab):
                    pages = min(-(-_SLAB_BYTES // blk.beq.nbytes), horizon - t)
                    slab, used = np.empty((pages, 1, n)), 0
                page, used = slab[used], used + 1
            nxt, ok, values = _solve_block(blk, page)
            if keep and ok:
                path.records.append(_record(path, blk.beq[0], nxt[0], values))
            leave, k_next = _rows(ok, False), values[3]
            # a mean seen before: the bytes decide.  A lone row's mean is a float, its ring a list
            lone = isinstance(k_next, float)
            if k_next in blk.hk[0].tolist() if lone else np.count_nonzero(blk.hk == k_next):
                found, (rows, cols) = set(leave), np.nonzero(blk.hk == k_next)
                # each row takes its least lag, ago + 1 periods
                for j, ago in sorted(zip(rows.tolist(), ((blk.head - cols) % _CYCLE).tolist())):
                    if j in found or nxt[j].tobytes() != _state(blk, j, ago).tobytes():
                        continue
                    found.add(j)
                    stop = until[blk.rows.item(j)]
                    if stop > t + 1:
                        store = None if stop == horizon else parked
                        _park(blk, j, ago + 1, stop - t - 1, nxt, store)
                        leave.append(j)
            blk.head = (blk.head + 1) % _CYCLE  # the oldest state gives way to the newest
            if lone:
                blk.hk[0, blk.head] = k_next
            else:
                blk.hk[:, blk.head] = k_next[:, 0]
            blk.hb.appendleft((nxt, blk.where))
            blk.beq = nxt
            t += 1
            yield nxt, blk.order
        for p, k in zip(blk.paths, blk.k[:, 0].tolist()):
            p.final = k
    finally:
        counts[blk.rows] += blk.tally


def _state(blk, j, back):
    """The vector that row j of ``blk`` inherited ``back`` periods before its last."""
    block, where = blk.hb[back]
    return block[where[blk.rows.item(j)]]


def _park(blk, j, lag, stretch, nxt, parked) -> None:
    """Take row j of ``blk`` off the block for the ``stretch`` periods its ``lag``-cycle repeats.

    The state after the stretch is the cycle's, ``-stretch % lag`` periods
    before ``nxt[j]``: its mean is the path's ``final`` where ``parked`` is
    None (the horizon), else ``parked`` keeps it, with its order, for the
    rejoin.  A path that keeps records repeats its last ``lag``.
    """
    path, back = blk.paths[j], -stretch % lag
    blk.tally[j, _REPEAT] += stretch
    if path.records is not None:
        path.records += islice(cycle(path.records[-lag:]), stretch)
    if parked is None:
        path.final = blk.k.item(j) if not back else blk.hk.item(j, (blk.head - back + 1) % _CYCLE)
    else:
        vector = nxt[j] if not back else _state(blk, j, back - 1)
        parked[blk.rows.item(j)] = (vector.copy(), blk.order[j].copy())


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

    A path that hands on the state it inherited p <= 8 periods before (its
    ``k`` first, then the bytes of ``bequests``) repeats its last p
    records, the same objects, until the tilt changes, without stepping
    through the periods; tilts are equal when their float values are.
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
    built.  The starts come validated: only their count and sizes are
    checked, each size against its path's ``n_agents``.
    """
    counts = (len(initials), len(schedules), len(params), len(envys))
    sizes = sorted({len(beq) for beq in initials})
    if len(set(counts)) > 1 or len(sizes) > 1:
        raise LengthMismatch(f"paths disagree: counts {counts}, start sizes {sizes}")
    if not sizes:
        raise DomainError("final_capitals needs at least one path")
    for i, p in enumerate(params):
        if p.n_agents != sizes[0]:
            raise LengthMismatch(
                f"path {i}: expected {p.n_agents} bequest entries, got {sizes[0]}"
            )
    paths = [_Path(p, e, _tilt_pairs(s, horizon)) for s, p, e in zip(schedules, params, envys)]
    for _ in _run_paths(np.stack(initials), paths, horizon):
        pass
    return [p.final if p.error is None else p.error for p in paths]


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
    A tilt outside the admissible segment raises :class:`NuOutOfBounds`.
    """
    tax_rates(nu, params)  # the tilt's bounds, which the savings rate does not check
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
    their net wage.  A tilt outside the admissible segment raises
    :class:`NuOutOfBounds` before any warning.
    """
    taxes = tax_rates(nu, params)
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
    ``gamma0`` is bit for bit ``envy.weight(initial)``.  A tilt outside
    the admissible segment, or a start whose mean period 0 cannot price,
    raises what its path raises there.
    """
    tax_rates(nu, params)  # a path at this tilt raises NuOutOfBounds: it has no regime
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


def _once(work):
    """``work`` computed once per distinct record, keyed by identity.

    A path's repeats are the same record objects, in a run or, on a cycle,
    ``p`` apart, so the results of the last ``_CYCLE`` distinct records are
    kept.
    """
    memo = {}

    def once(r):
        done = memo.get(id(r))
        if done is None:
            done = memo[id(r)] = work(r)
            if len(memo) > _CYCLE:
                del memo[next(iter(memo))]
        return done

    return once


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

    def delta(r):
        d = abs(r.k_next - r.k)
        if not d >= tol:  # else the step is not below tol, whatever the vector's part
            step = r._step  # the zero-prefix form's, else a pass over every entry
            if step is None:
                step = float(np.abs(r.bequests_next - r.bequests).max())
            d = max(d, step)
        return d

    once, last, deltas = _once(delta), None, np.empty(len(traj.records))
    for t, r in enumerate(traj.records):
        if r is not last:  # a repeated record has the delta it had the period before
            d, last = once(r), r
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
