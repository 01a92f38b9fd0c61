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
certify (a first period, a kink, NaN) are found exactly by scanning the
candidates in vectorised blocks.  Either way a row gets the same bytes.
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

There is one period kernel, and it solves a (C x N) block of bequest
rows in lockstep.  :func:`simulate`, :func:`solve_temporary` and the
reform planner run it on one row; :func:`final_capitals`, which the
sweep uses, runs a block of cells that share the horizon and the number
of dynasties, each row's economy held as columns.  Every row is rounded
exactly as it would be alone: row-wise means, sums and cumulative sums
equal the 1-D calls bit for bit, the Gini and weight come from the
function that ``gini`` runs, and the per-row values repeat the scalar
operations.  They are columns, or in a one-row block numpy scalars, so a
path pays numpy's per-call overhead only where it does O(N) work; the
only per-row Python work is one power, and the Gini's rank dots are one
``np.vecdot`` over the block.  Every tilt is priced as a Python float.  A
row that raises is frozen with the error, and message, its own path
raises; the other rows go on.

In floating point a path does not just approach its steady state: from
some period on it sits on it exactly, ``bequests_next`` equal to
``bequests`` byte for byte.  The period solver is a pure function of the
bytes of the inherited vector and of the two tilts, so once a period
maps its state onto itself and the tilt holds, every later period would
recompute the same record.  Such a row leaves the block, its record
repeating, and rejoins it when the schedule changes its tilt.  This is
exact, not a tolerance.

An economy run under a constant tilt settles, depending on whether the
initial envy weight sits below or above the threshold ``gamma_star(nu)``,
into the egalitarian steady state (everybody holds the mean bequest) or
a polarised one (the initially-richest class holds everything).  Both
are constructed in closed form here and are exact fixed points of the
period solver.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
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
    of per-row values, or numpy scalars when ``desc`` has one row.  The top
    ``a`` incomes are a candidate set; its root

        kappa_a = (delta * sum_active(I) - a*delta*z*total)
                  / (N*(1+delta) - a*(delta*z - xi/nu_next))

    is accepted iff it lies in (0, total), the poorest active dynasty
    saves and the richest inactive one does not.  Candidates are scanned
    in column blocks of 16, 128, 1024, ... incomes, each row extending its
    own running sum; a row leaves the scan at its first consistent ``a``.

    Every head delta*I_j - delta*z*(total - kappa) - (xi/nu_next)*kappa has
    the same slope in kappa, so the sum of their positive parts is the
    largest top-``a`` sum: the fixed-point map is the upper envelope of the
    candidates' lines, each of which crosses the diagonal from above.  Its
    root is therefore the largest candidate root.  A row that rounding
    leaves with no consistent set (a dynasty exactly at a kink) takes that
    root, carried as a running maximum; where it is not positive, no
    dynasty saves.  Returns the root of every row.
    """
    c, n = desc.shape
    kappa = np.zeros(c)
    rows, run, best = np.arange(c), np.zeros(c), np.full(c, -np.inf)
    base, dz = n * (1.0 + delta), delta * z
    lo, size = 0, 16
    while lo < n:
        hi = min(lo + size, n)
        # continue the running sum: a block-local cumsum plus offset rounds differently
        csum = desc[:, lo:hi].copy()
        csum[:, 0] += run
        np.cumsum(csum, axis=1, out=csum)
        a = np.arange(lo + 1.0, hi + 1.0)
        kap = (delta * csum - a * delta * z * total) / (base - a * (dz - xnn))
        # bequest numerator of dynasty j is delta*I_j - tail; positive iff saving
        tail = dz * (total - kap) + xnn * kap
        heads = delta * desc[:, lo : hi + 1]
        ok = (0.0 < kap) & (kap < total) & (heads[:, : hi - lo] > tail)
        w = heads.shape[1]
        ok[:, : w - 1] &= ~(heads[:, 1:] > tail[:, : w - 1])
        hit = ok.any(axis=1)
        kappa[rows] = kap[np.arange(rows.size), ok.argmax(axis=1)]  # kept where hit
        if hit.all():
            return kappa
        best = np.maximum(best, kap.max(axis=1))
        if hit.any():
            miss = ~hit
            rows, desc, z, total, delta, xnn, base, dz, csum, best = (
                v[miss] for v in (rows, desc, z, total, delta, xnn, base, dz, csum, best)
            )
        run, lo, size = csum[:, -1], hi, 8 * size
    kappa[rows] = best
    return kappa


_UNIT = np.finfo(float).eps / 2.0  # unit roundoff u


def _certify(desc, guess, z, total, delta, xnn):
    """Try the active set of size ``guess`` on each row; returns ``(kappa, certified)``.

    The arguments are those of :func:`_scan_active_sets` plus ``guess``, an
    integer in 1..N per row; the results are vectors of C entries, or
    scalars when the per-row values are.  Candidate g = ``guess`` is
    computed with the scan's own IEEE operations in its order (its prefix
    sum from one sequential cumsum, which the scan's block-continued
    running sum equals).  A row is certified when g passes the scan's three
    tests and the poorest active dynasty's float margin m = delta*I_g -
    tail_g exceeds E = err*(1 + 1/rho); then no a < g passes the scan's
    tests, and ``kappa`` is bit for bit the root the scan returns.  The proof, in
    exact arithmetic on the float inputs, with s = delta*z - xi/nu_next,
    the heads h_j(kappa) = delta*I_j - delta*z*total + s*kappa, D_a =
    N(1+delta) - a*s and rho = min(1, D_g/(N(1+delta))):

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

    The proof holds for any g, so a wrong guess costs only a scan.  A row
    with NaN or inf fails the tests and is not certified.
    """
    c, n = desc.shape
    if z.ndim:  # (C x 1) columns, worked as vectors: 2-D arithmetic costs more per call
        rows, g = np.arange(c), guess.reshape(c)
        z, total, delta, xnn = z[:, 0], total[:, 0], delta[:, 0], xnn[:, 0]
        top = g.max()
    else:  # one row, its values numpy scalars
        rows, g, top = 0, guess, guess
    a = g.astype(float)
    csum = desc[:, :top].cumsum(axis=1)[rows, g - 1]
    base, dz = n * (1.0 + delta), delta * z
    den = base - a * (dz - xnn)
    kappa = (delta * csum - a * delta * z * total) / den
    tail = dz * (total - kappa) + xnn * kappa
    head = delta * desc[rows, g - 1]
    ok = (0.0 < kappa) & (kappa < total) & (head > tail)
    ok &= (g == n) | ~(delta * desc[rows, g % n] > tail)  # the richest inactive, if any
    rho = np.minimum(1.0, den / base)
    with np.errstate(over="ignore"):  # near the largest delta: an infinite bound certifies nothing
        p = delta * desc[rows, 0] + dz * total + (1.0 + delta + dz + xnn) * (2.0 * total / rho)
        err = 2.0 * (a + 16.0) * _UNIT * p * (1.0 + (dz + xnn) / (rho * (1.0 + delta)))
    return kappa, ok & (head - tail > err + err / rho)


def _roots(desc, guess, z, total, delta, xnn):
    """The scan's root of each row, shaped like ``z``: certified from ``guess``, or else scanned."""
    kappa, certified = _certify(desc, guess, z, total, delta, xnn)
    if not z.ndim:  # one row, its values scalars
        return kappa if certified else _scan_active_sets(desc, z, total, delta, xnn)[0]
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

    ``bequests`` is the inherited vector, validated here like the initial
    vector of :func:`simulate` (N entries, finite, nonnegative, positive
    total).  ``nu_t`` prices the period's taxes; ``nu_next`` is the announced
    next-period tilt entering the bequest motive.  The caller is
    responsible for having validated ``envy`` against the existence
    bound; the realized floor condition (every dynasty can consume above
    z times average consumption) is guarded here regardless and raises
    :class:`EnvyTooStrong` when violated.
    """
    beq = as_distribution(bequests, params.n_agents).copy()  # the record reads it again
    return _solve_one(beq, np.argsort(beq), nu_t, nu_next, params, envy)


class _Path:
    """One row of a lockstep block: its tilts and its outcome.

    ``runs`` holds the path's tilts as ``(start, nu)`` runs.  ``params``
    and ``envy`` fill the path's row of block columns (``_ECONOMY``), and
    ``taxes`` are those of ``nu_t``.  ``repeat`` is set while the path sits
    at its exact fixed point: its stationary record, or True when no
    records are kept.
    """

    __slots__ = (
        "params", "envy", "starts", "nus", "nu_t", "nu_next", "taxes", "records", "repeat", "error",
    )

    def __init__(self, params: EconomyParams, envy: EnvySpec, runs=(), keep=False):
        self.params, self.envy = params, envy
        self.starts = [start for start, _ in runs]
        self.nus = [nu for _, nu in runs]
        self.records = [] if keep else None
        self.repeat = self.error = None

    def set_tilts(self, nu_t, nu_next) -> None:
        self.nu_t, self.nu_next = float(nu_t), float(nu_next)

    def tilt(self, t: int):
        return self.nus[bisect.bisect_right(self.starts, t) - 1]

    def changes(self, horizon: int):
        """Periods at which the pair (nu_t, nu_{t+1}) may change."""
        yield 0
        for start in self.starts[1:]:
            yield start - 1
            if start < horizon:
                yield start


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


def _rows(mask):
    """The rows where a per-row mask holds; a numpy bool is the mask of one row."""
    return np.flatnonzero(mask) if mask.ndim else (0,) if mask else ()


def _solve_block(beq, order, econ, paths, keep=False, out=None):
    """Solve one period for every row of ``beq``, a (C x N) block of bequests.

    Row i is the inherited vector of ``paths[econ["path"][i]]``, whose
    economy is ``econ[i]``; ``order[i]`` should sort it ascending.  A stale
    order is overwritten in place by a stable argsort, and a row whose
    tilts are not priced is priced in place.  Each row is rounded as the
    one-row case would round it: row-wise means, sums and cumulative sums
    equal the 1-D calls, the Gini and weight come from ``_gini_weights``
    (one ``np.vecdot``), and the per-row values, (C x 1) columns or for
    C = 1 numpy scalars, repeat the scalar IEEE operations in order.  Only
    the power ``k ** (alpha - 1)`` is a scalar call per row, since numpy's
    elementwise power rounds differently.  A row that raises records the
    error on its path and computes finite filler from then on; the rest go on.

    Returns ``(bequests_next, k, k_next, ok, records)``, the middle three
    with C entries: ``ok`` marks the rows that did not raise, and
    ``records`` (only with ``keep``) holds their :class:`TemporaryEquilibrium`.
    ``bequests_next`` is written into ``out``, a (C x N) array, when one is
    given, else into a new one; each record keeps its row of it.
    """
    c, n = beq.shape
    one = c == 1  # then each per-row value is a numpy scalar, not a (1 x 1) column
    row = itemgetter(0) if one else itemgetter((slice(None), None))
    asc = beq.take(order if one else order + np.arange(0, c * n, n)[:, None])
    for i in _rows(row(~(asc[:, :-1] <= asc[:, 1:]).all(axis=1))):
        order[i] = np.argsort(beq[i], kind="stable")
        asc[i] = beq[i, order[i]]
    kv = beq.sum(axis=1) / n  # ndarray.mean, bit for bit, without its Python overhead
    k = row(kv)
    with np.errstate(over="ignore"):  # a sorted row's total can overflow where its own did not
        asc_total = asc.sum(axis=1)
    ok, rows = np.ones(c, dtype=bool), econ["path"]
    bad = ~((0.0 < k) & (k < np.inf) & (row(asc_total) < np.inf))
    for i in _rows(bad | ~row(econ["priced"])):
        p = paths[rows[i]]
        try:
            if bad.item(i):
                as_distribution(asc[i])  # the Gini rejects a non-finite row,
                factor_prices(kv.item(i), p.params)  # the prices a mean that is not > 0
            p.taxes, xi = tax_rates(p.nu_t, p.params), p.params.xi
            if not p.nu_next > 0.0:
                raise DomainError(f"nu_next must be > 0, got {p.nu_next}")
            econ[["tau_s", "xi_nu", "xnn", "priced"]][i] = (
                p.taxes.tau_s, xi / p.nu_t, xi / p.nu_next, True
            )
        except JonesesError as exc:
            p.error, ok[i] = exc, False

    g, gamma = _gini_weights(asc, econ["base"], econ["scale"], asc_total)
    gamma, delta = row(gamma), row(econ["delta"])
    z = gamma / (1.0 + gamma)

    if not ok.all():
        kv = np.where(ok, kv, 1.0)  # filler for the rows that raised
        k = row(kv)
    kl = kv.tolist()
    gross = row(np.fromiter(map(gross_return, kl, econ["alpha"].tolist()), float, c))
    net, xi_nu, xnn = (1.0 - row(econ["tau_s"])) * gross, row(econ["xi_nu"]), row(econ["xnn"])
    xi_k = xi_nu * k
    total = net * (xi_nu + 1.0) * k  # = (1-phi) * k**alpha
    income = xi_k + beq
    income *= net
    guess = row(n - (asc > 0.0).argmax(axis=1))  # positive bequests: on a path, the last active set
    asc += xi_k  # the Gini is done with asc: it becomes the sorted incomes
    asc *= net
    kappa = _roots(asc[:, ::-1], guess, z, total, delta, xnn)

    bequests_next = np.multiply(delta, income, out=out)
    bequests_next -= delta * z * (total - kappa)
    bequests_next -= xnn * kappa
    np.maximum(0.0, bequests_next, out=bequests_next)
    bequests_next /= 1.0 + delta
    k_next = bequests_next.sum(axis=1) / n
    consumptions = np.subtract(income, bequests_next, out=asc)  # records recompute theirs
    avg = row(consumptions.sum(axis=1)) / n
    floor = z * avg
    short = ~(row(k_next) > 0.0)  # a root <= 0 leaves no head positive, a non-finite one NaN heads
    for i in _rows(row(ok) & (short | ~row((income > floor).all(axis=1)))):
        if short.item(i):
            error = NoPositiveRoot("next-period capital intensity is not positive")
        else:
            error = EnvyTooStrong(
                f"envy weight {gamma.item(i)} leaves a dynasty with income "
                f"{income[i].min()} at or below the consumption floor {floor.item(i)}"
            )
        paths[rows[i]].error, ok[i] = error, False

    records = None
    if keep:
        m = (bequests_next > 0.0).sum(axis=1)
        records = [None] * c
        for i in _rows(row(ok)):
            p = paths[rows[i]]
            records[i] = TemporaryEquilibrium(
                k=kl[i],
                output=kl[i] ** p.params.alpha,
                gamma=gamma.item(i),
                gini=g.item(i),
                bequests=beq[i],
                bequests_next=bequests_next[i],
                k_next=k_next.item(i),
                avg_consumption=avg.item(i),
                prices=factor_prices(kl[i], p.params),
                taxes=p.taxes,
                m_count=m.item(i),
                xi_k=xi_k.item(i),
                net=net.item(i),
            )
    return bequests_next, kv, k_next, ok, records


def _solve_one(beq, order, nu_t, nu_next, params, envy) -> TemporaryEquilibrium:
    """The kernel on one row: a validated ``beq`` that ``order`` should sort
    ascending.  A stale order is repaired in place, so a caller carrying it
    from period to period stays valid.
    """
    path = _Path(params, envy)
    path.set_tilts(nu_t, nu_next)
    *_, records = _solve_block(beq[None], order[None], _economy([path]), [path], keep=True)
    if path.error is not None:
        raise path.error
    return records[0]


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


def _tilt_runs(schedule, horizon: int) -> list:
    """The tilts of periods 0..horizon as ``(start, nu)`` runs.

    ``schedule`` is a FiscalSchedule or an explicit per-period sequence.
    A new run starts wherever the tilt's float value changes.
    """
    if horizon < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    if hasattr(schedule, "segments"):
        pairs = [(start, nu) for start, nu in schedule.segments if start <= horizon]
    else:
        seq = list(schedule)
        if len(seq) < horizon + 1:
            raise ScheduleTooShort(
                f"need nu for periods 0..{horizon} (one period ahead), "
                f"got {len(seq)} values"
            )
        pairs = enumerate(seq[: horizon + 1])
    runs = []
    for start, nu in pairs:
        # compare the floats the kernel prices: NumPy compares a narrower scalar in its type
        if not runs or not float(nu) == float(runs[-1][1]):
            runs.append((start, nu))
    return runs


# The least size of a kept path's slab.  numpy asks for huge pages for any block of 4 MiB or
# more, so a fresh slab faults about once per 2 MiB, not once per 4 KiB page.  And glibc,
# once it has freed one block this large, serves the next from its heap and keeps it there
# when it is freed; a path's 128 KiB vectors (N = 16384) it trims from the heap top, so each
# path used to fault all of its vectors in again.
_SLAB_BYTES = 8 << 20


def _run_paths(beq, paths, horizon: int) -> np.ndarray:
    """Advance row i of ``beq`` (C x N) along ``paths[i]`` for ``horizon`` periods.

    The rows that need solving in a period are solved as one block.  A
    row whose solved period is stationary leaves the block, its record
    repeating, until the next period in which its tilt pair (nu_t,
    nu_{t+1}) changes; a row that raises is frozen with its error.  A
    period that announces a new tilt is such a change, and so is the one
    after it, so a row leaves only while its tilt holds.  Tilts are
    looked up only in those periods.  Returns the last block of bequests:
    row i's mean is the final capital intensity of path i.

    When the paths keep records, each solved period writes its
    ``bequests_next`` into the next (C x N) page of a slab, one array of
    at least ``_SLAB_BYTES`` and at most as many pages as periods are
    left, and its records keep rows of that page.  A record's vector thus
    keeps its slab alive.
    """
    c = len(paths)
    keep = paths[0].records is not None
    order = np.argsort(beq, axis=1)
    econ = _economy(paths)
    changes = {}
    for i, p in enumerate(paths):
        for t in p.changes(horizon):
            changes.setdefault(t, set()).add(i)
    live, n_live = np.ones(c, dtype=bool), c
    slab, used, page = (), 0, None
    for t in range(horizon):
        for i in changes.get(t, ()):
            p = paths[i]
            p.set_tilts(p.tilt(t), p.tilt(t + 1))
            econ["priced"][i] = False
            if p.repeat is not None:
                p.repeat, live[i], n_live = None, True, n_live + 1
        if keep and n_live < c:
            for p in paths:
                if p.repeat is not None:
                    p.records.append(p.repeat)
        if not n_live:
            continue
        idx = np.flatnonzero(live)
        whole = idx.size == c
        # take and put: indexing a structured array with idx is ~5x slower
        b, o, e = (beq, order, econ) if whole else (beq[idx], order[idx], econ.take(idx))
        if keep:
            if used == len(slab):
                pages = min(-(-_SLAB_BYTES // beq.nbytes), horizon - t)
                slab, used = np.empty((pages, *beq.shape)), 0
            page, used = slab[used, : idx.size], used + 1
        nxt, k, k_next, ok, records = _solve_block(b, o, e, paths, keep, page)
        if not whole:
            order[idx] = o
            np.put(econ, idx, e)
        if keep:
            for i, r in zip(idx, records):
                if r is not None:
                    paths[i].records.append(r)
        for j in np.flatnonzero(ok & (k_next == k)):
            if nxt[j].tobytes() == b[j].tobytes():
                paths[idx[j]].repeat = records[j] if keep else True
                live[idx[j]] = False
        live[idx[~ok]] = False
        n_live = int(np.count_nonzero(live))
        if whole:
            beq = nxt
        else:
            if keep:
                beq = beq.copy()  # records hold rows of the old block
            beq[idx] = nxt
    return beq


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

    A solved period whose tilt equals the announced one and whose record
    is stationary (``k_next == k`` and ``bequests_next`` byte-equal to
    ``bequests``) is repeated, the same object, for as long as the tilt
    stays unchanged: the next period would get byte-identical inputs and
    so return an identical record.  The scalar ``k_next == k`` is compared
    first, so a path that is still moving pays one float comparison per
    period for it.  Tilts are equal when their float values are.
    """
    runs = _tilt_runs(schedule, horizon)
    beq = as_distribution(initial, params.n_agents).copy()  # the first record reads it again
    path = _Path(params, envy, runs, keep=True)
    _run_paths(beq[None], [path], horizon)
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
    built.  Invalid inputs raise before any path starts.
    """
    paths = [_Path(p, e, _tilt_runs(s, horizon)) for s, p, e in zip(schedules, params, envys)]
    beq = np.stack([as_distribution(x, p.n_agents) for x, p in zip(initials, params)])
    k_final = _run_paths(beq, paths, horizon).mean(axis=1).tolist()
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
    equal distribution; consumption is (1 - phi) k**alpha - k.
    """
    n = params.n_agents
    gamma_eq = gamma_uniform_top(envy, n, n)
    rate = savings_rate(gamma_eq, 1.0, nu, params)
    k = rate ** (1.0 / (1.0 - params.alpha))
    consumption = (1.0 - params.phi) * k**params.alpha - k
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
    ``gamma0`` is bit for bit ``envy.weight(initial)``.
    """
    beq = as_distribution(initial, params.n_agents)
    weight = partial(gamma_uniform_top, envy, n_agents=params.n_agents)
    return _regime(_start_weight(beq, envy), _rich_count(beq), nu, params, weight)


def _start_weight(beq: np.ndarray, envy: EnvySpec) -> float:
    """``envy.weight(beq)`` of a validated start, without validating it a second time."""
    return float(_gini_weights(np.sort(beq)[None], envy.base, envy.scale)[1][0])


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
