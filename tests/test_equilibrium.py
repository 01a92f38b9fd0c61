"""Period solver, path iteration, steady states and regime classification."""

import contextlib
import dataclasses
import math
import re
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from joneses import (
    EnvySpec,
    Trajectory,
    as_distribution,
    build_schedule,
    classify,
    constant_schedule,
    detect_convergence,
    egalitarian_steady,
    gamma_hat,
    gamma_star,
    gamma_uniform_top,
    gini,
    plan_reform,
    polarised_steady,
    savings_rate,
    simulate,
    solve_temporary,
    steady_capital,
    validate_params,
)
from joneses import equilibrium
from joneses.equilibrium import (
    _Path,
    _certify,
    _economy,
    _record,
    _roots,
    _run_paths,
    _scan_active_sets,
    _solve_block,
    _tilt_pairs,
    final_capitals,
)
from joneses.errors import (
    AltruismOverflow,
    DomainError,
    EnvyTooStrong,
    JonesesError,
    LengthMismatch,
    NoPositiveRoot,
    NotSustainable,
    NuOutOfBounds,
    ScheduleTooShort,
)
from support import (
    BASELINE,
    ONLY_ORACLES_WARN,
    TOL_LIMIT,
    TOL_SOLVER,
    UNIT_ENVY,
    active_set_oracle,
    candidate_roots,
    chained_oracle,
    check_path_invariants,
    convergence_oracle,
    exact_root,
    fixed_point_bisection,
    gini_vectors,
    grid_search_best_utility,
    period_inputs,
    period_oracle,
    random_envy,
    random_initial,
    random_nu,
    random_params,
    scan_row,
    solver_utility,
)


def _solver_inputs(beq, nu_t, params, envy):
    """Recompute the period solver's fixed-point inputs from raw quantities."""
    beq = np.asarray(beq, dtype=float)
    k = beq.mean()
    gamma = envy.weight(beq)
    z = gamma / (1.0 + gamma)
    gross = params.alpha * k ** (params.alpha - 1.0)
    tau_s = 1.0 - nu_t * (1.0 - params.phi) / (params.alpha * nu_t + 1.0 - params.alpha)
    net = (1.0 - tau_s) * gross
    income = net * (params.xi / nu_t * k + beq)
    total = net * (params.xi / nu_t + 1.0) * k
    return income, z, total


class TestSolveTemporary:
    def test_equal_start_matches_closed_form(self):
        eq = solve_temporary([0.1] * 4, 1.0, 1.0, BASELINE, UNIT_ENVY)
        k1 = 0.225 * 0.1 ** (1 / 3)
        assert eq.gamma == 0.0
        assert eq.k_next == pytest.approx(k1, abs=TOL_SOLVER)
        assert eq.avg_consumption == pytest.approx(0.675 * 0.1 ** (1 / 3), abs=TOL_SOLVER)
        assert eq.m_count == 4
        np.testing.assert_allclose(eq.bequests_next, k1, atol=TOL_SOLVER)

    def test_equal_inputs_give_identical_allocations(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            p = random_params(rng)
            nu = random_nu(rng, p)
            level = rng.uniform(0.02, 2.0)
            eq = solve_temporary(
                [level] * p.n_agents, nu, nu, p, random_envy(rng, p)
            )
            assert np.unique(eq.bequests_next).size == 1
            assert np.unique(eq.consumptions).size == 1

    def test_polarised_start_satisfies_every_invariant(self):
        eq = solve_temporary(
            [0.4, 0, 0, 0], 1.0, 1.0, BASELINE, UNIT_ENVY
        )
        assert eq.gamma == pytest.approx(0.75)
        assert eq.gamma > gamma_star(1.0, BASELINE)
        income, z, total = _solver_inputs([0.4, 0, 0, 0], 1.0, BASELINE, UNIT_ENVY)
        np.testing.assert_allclose(
            eq.consumptions + eq.bequests_next, income, atol=TOL_SOLVER
        )
        assert eq.avg_consumption + eq.k_next == pytest.approx(
            (1 - BASELINE.phi) * 0.1 ** BASELINE.alpha, abs=TOL_SOLVER
        )
        assert eq.k_next == pytest.approx(eq.bequests_next.mean(), abs=TOL_SOLVER)
        assert np.all(eq.consumptions > z * eq.avg_consumption)

    def test_polarised_start_agents_are_optimal_by_grid_search(self):
        eq = solve_temporary(
            [0.4, 0, 0, 0], 1.0, 1.0, BASELINE, UNIT_ENVY
        )
        income, _, _ = _solver_inputs([0.4, 0, 0, 0], 1.0, BASELINE, UNIT_ENVY)
        for j in range(4):
            best = grid_search_best_utility(
                income[j],
                eq.gamma,
                eq.avg_consumption,
                BASELINE.delta,
                BASELINE.xi / 1.0,
                eq.k_next,
            )
            mine = solver_utility(eq, j, BASELINE, 1.0, 1.0)
            assert best <= mine + 1e-9

    def test_full_participation_capital_law_with_bisection_cross_check(self):
        # with every dynasty saving, next capital is the closed-form savings
        # rate times output; the bisection root agrees independently
        eq = solve_temporary([0.1] * 4, 1.0, 1.0, BASELINE, UNIT_ENVY)
        expected = savings_rate(0.0, 1.0, 1.0, BASELINE) * 0.1 ** BASELINE.alpha
        assert eq.k_next == pytest.approx(expected, abs=TOL_SOLVER)
        income, z, total = _solver_inputs([0.1] * 4, 1.0, BASELINE, UNIT_ENVY)
        root = fixed_point_bisection(income, z, total, BASELINE.delta, BASELINE.xi)
        assert root == pytest.approx(eq.k_next, abs=TOL_SOLVER)

    def test_active_set_and_bisection_agree_on_random_instances(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            p = random_params(rng)
            envy = random_envy(rng, p)
            nu_t, nu_next = random_nu(rng, p), random_nu(rng, p)
            income, z, total = _solver_inputs(
                random_initial(rng, p), nu_t, p, envy
            )
            xnn = p.xi / nu_next
            exact = scan_row(income, z, total, p.delta, xnn)
            assert 0.0 < exact < total
            approx = fixed_point_bisection(income, z, total, p.delta, xnn)
            assert abs(exact - approx) < TOL_SOLVER * max(1.0, exact)

    def test_envy_beyond_ceiling_raises(self):
        with pytest.raises(EnvyTooStrong):
            solve_temporary(
                [0.4, 0, 0, 0], 1.0, 1.0, BASELINE, EnvySpec(0.0, 6.0)
            )

    @pytest.mark.parametrize("nu_next", [0.0, float("nan")])
    def test_a_next_tilt_that_is_not_positive_is_named(self, nu_next):
        with pytest.raises(DomainError, match=re.escape(f"nu_next must be > 0, got {nu_next}")):
            solve_temporary([0.1] * 4, 1.0, nu_next, BASELINE, UNIT_ENVY)

    def test_no_positive_root_guard(self):
        # synthetic inputs where nobody saves even at zero next capital: the scan's
        # root is not positive, and the bisection oracle refuses them
        args = (np.array([0.1, 0.1]), 0.9, 1.0, 1.0, 2.0)
        assert scan_row(*args) < 0.0
        with pytest.raises(NoPositiveRoot):
            fixed_point_bisection(*args)

    def test_state_validation(self):
        # the inherited vector is validated where it enters the solver
        eq = solve_temporary([0.1, 0.3, 0.0, 0.2], 1.0, 1.0, BASELINE, UNIT_ENVY)
        assert eq.bequests.tobytes() == np.array([0.1, 0.3, 0.0, 0.2]).tobytes()
        with pytest.raises(LengthMismatch):
            solve_temporary([0.1, 0.3, 0.2], 1.0, 1.0, BASELINE, UNIT_ENVY)
        bad = (
            [0.0] * 4,
            [0.2, -0.1, 0.1, 0.1],
            [0.1, np.nan, 0.1, 0.1],
            [0.1, np.inf, 0.1, 0.1],
            [1e308, 1e308, 0.0, 0.0],  # finite entries, overflowing total
        )
        for beq in bad:
            with pytest.raises(DomainError):
                solve_temporary(beq, 1.0, 1.0, BASELINE, UNIT_ENVY)


def _active_count(income, z, total, delta, xnn, kappa):
    heads = delta * income - delta * z * (total - kappa) - xnn * kappa
    return int(np.count_nonzero(heads > 0.0))


@st.composite
def fixed_point_instances(draw, max_n=4096, n=None):
    """Income vectors with ties, zeros and any order, plus solver coefficients."""
    if n is None:
        n = draw(st.one_of(st.integers(2, min(40, max_n)), st.integers(2, max_n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    income = rng.lognormal(sigma=draw(st.floats(0.0, 3.0)), size=n)
    levels = draw(st.integers(0, 6))
    if levels:  # ties: snap the incomes onto a few values
        income = np.sort(income)[rng.integers(0, n, size=levels)][rng.integers(0, levels, size=n)]
    income[rng.random(n) < draw(st.floats(0.0, 1.0))] = 0.0
    order = draw(st.sampled_from(["unsorted", "ascending", "descending"]))
    if order != "unsorted":
        income = np.sort(income)
        if order == "descending":
            income = income[::-1]
    total = float(income.mean()) * draw(st.sampled_from([1.0, 0.5, 1.5]))
    z = draw(st.floats(0.0, 0.95))
    delta = draw(st.floats(0.2, 3.0))
    xnn = draw(st.floats(0.05, 4.0))
    return income, z, total, delta, xnn


@st.composite
def kink_instances(draw, n=None):
    """Incomes with one or two tied dynasties exactly at a kink of the fixed-point map.

    The top ``a`` incomes and the coefficients are drawn, and the candidate
    root kappa of those ``a`` is computed.  The next one or two incomes are
    the income whose head is zero at kappa, I = z*(total - kappa) +
    (xi/nu_next)*kappa/delta, and the rest lie below it.  Rounding then
    often leaves no candidate set consistent.
    """
    if n is None:
        n = draw(st.integers(3, 8))
    tied = draw(st.integers(1, 2))
    return _kink_row(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, tied)


def _kink_row(rng, n, tied):
    """One row of ``kink_instances``: N = ``n``, ``tied`` dynasties at the kink."""
    while True:
        a = int(rng.integers(1, n - tied + 1))
        z, delta, xnn = rng.uniform(0.0, 0.95), rng.uniform(0.2, 3.0), rng.uniform(0.05, 4.0)
        top = rng.lognormal(size=a)
        total = float(top.mean()) * rng.uniform(0.2, 1.5)
        denom = n * (1.0 + delta) - a * (delta * z - xnn)
        kappa = (delta * top.sum() - a * delta * z * total) / denom
        kink = z * (total - kappa) + xnn * kappa / delta
        if 0.0 < kappa < total and 0.0 <= kink <= top.min():
            break
    income = np.concatenate([top, [kink] * tied, rng.uniform(0.0, 1.0, n - a - tied) * kink])
    return rng.permutation(income), z, total, delta, xnn


def _stuck_kink_row(rng, n):
    """A ``_kink_row`` redrawn until rounding leaves every candidate set inconsistent."""
    row = _kink_row(rng, n, int(rng.integers(1, 3)))
    while any(consistent for _, consistent in candidate_roots(*row)):
        row = _kink_row(rng, n, int(rng.integers(1, 3)))
    return row


@st.composite
def stuck_kink_instances(draw):
    """``kink_instances`` on which no set is consistent: only ~2% of its draws are."""
    n = draw(st.integers(3, 8))
    return _stuck_kink_row(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)


def _root_scale(income, z, total, delta, xnn):
    """Size of the terms whose difference makes the largest candidate root.

    The root is (delta*sum_active(I) - a*delta*z*total) / denominator; this
    is the same ratio with the terms added.  It equals the root where
    z*total = 0 and exceeds it by the cancellation in the numerator.
    """
    desc = np.sort(income)[::-1]
    a = np.arange(1.0, desc.size + 1.0)
    csum = np.cumsum(desc)
    denom = desc.size * (1.0 + delta) - a * (delta * z - xnn)
    kappa = (delta * csum - a * delta * z * total) / denom
    return ((delta * csum + a * delta * z * total) / denom)[np.argmax(kappa)]


@given(instance=st.one_of(fixed_point_instances(), kink_instances(), stuck_kink_instances()))
@settings(max_examples=300, deadline=None)
def test_block_scan_equals_scalar_oracle(instance):
    income, z, total, delta, xnn = instance
    assert scan_row(income, z, total, delta, xnn) == active_set_oracle(income, z, total, delta, xnn)


@given(instance=st.one_of(fixed_point_instances(max_n=40), kink_instances()))
@settings(max_examples=300, deadline=None)
def test_scan_root_is_the_exact_root_to_rounding(instance):
    # exact_root is the largest candidate root in Fractions, its residual asserted 0.
    # The bound is relative to the root's terms, which is the root itself unless the
    # numerator cancels; at N in the thousands the scan's sequential cumsum rounds further.
    exact = exact_root(*instance)
    assert abs(scan_row(*instance) - exact) <= 1e-14 * _root_scale(*instance)


BLOCK_EDGES = [1, 15, 16, 17, 143, 144, 145, 1167, 1168, 1169]


@pytest.mark.parametrize("m", BLOCK_EDGES)
def test_block_scan_on_block_edges(m):
    # one row per edge: r rich dynasties, the rest hold nothing, so the row's active
    # set is exactly r and the rows find their sets at different columns, up to 1,169;
    # the block is rotated to lead with r = m, so those columns shift in position
    lead = BLOCK_EDGES.index(m)
    counts = BLOCK_EDGES[lead:] + BLOCK_EDGES[:lead]
    rng = np.random.default_rng(m)
    desc = np.zeros((len(counts), max(counts) + 7))
    for row, r in zip(desc, counts):
        row[:r] = np.sort(1.0 + 0.2 * rng.random(r))[::-1]
    total = desc.mean(axis=1)
    before = desc.copy()
    z, delta, xnn = (np.full((len(counts), 1), v) for v in (0.5, 1.0, 0.5))
    kappa = _scan_active_sets(desc, z, total[:, None], delta, xnn)
    np.testing.assert_array_equal(desc, before)
    for row, r, t, got in zip(desc, counts, total, kappa):
        assert any(consistent for _, consistent in candidate_roots(row, 0.5, t, 1.0, 0.5))
        assert got == active_set_oracle(row, 0.5, t, 1.0, 0.5)
        assert _active_count(row, 0.5, t, 1.0, 0.5, got) == r


@st.composite
def mixed_blocks(draw):
    """Rows of one N for one block: fixed-point rows, and kink rows where no set is consistent.

    The kink rows are ``_stuck_kink_row``s, so each block holds rows that
    take their first consistent set and rows that take the largest
    candidate root, in any order.
    """
    n = draw(st.one_of(st.integers(3, 40), st.integers(3, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stuck = [_stuck_kink_row(rng, n) for _ in range(draw(st.integers(1, 4)))]
    rows = stuck + draw(st.lists(fixed_point_instances(n=n), min_size=1, max_size=6))
    return draw(st.permutations(rows))


@given(rows=mixed_blocks())
@settings(max_examples=100, deadline=None)
def test_mixed_block_rows_equal_the_scalar_oracle(rows):
    # rows that find a consistent set beside rows that find none, scanned as one block
    desc = np.stack([np.sort(income)[::-1] for income, *_ in rows])
    columns = (np.array([[row[i]] for row in rows], dtype=float) for i in range(1, 5))
    kappa = _scan_active_sets(desc, *columns)
    assert kappa.tobytes() == np.array([active_set_oracle(*row) for row in rows]).tobytes()


def _assert_same_records(a, b):
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            np.testing.assert_array_equal(x, y, err_msg=field.name)
        else:
            assert x == y, field.name


class TestKink:
    """Valid inputs on which no active set is consistent: a dynasty at a kink.

    At the root one dynasty sits exactly at a kink of the fixed-point map.
    Rounding then rejects both candidate sets that meet there: the set
    without that dynasty finds it saving, and the set with it finds it not.
    The scan then takes the largest candidate root, which is the root.
    """

    # one period of solve_temporary([0.0600..., 0.0597..., 0.0382..., 0.0], nu=1.0,
    # nu_next=0.7164648121528091) on BASELINE with UNIT_ENVY
    INCOME = np.array(
        [0.35953047493850576, 0.35896626030278234, 0.3033339720468496, 0.20436614145762758]
    )
    Z, TOTAL, DELTA, XNN = 0.2417032166616897, 0.3065492121864413, 1.0, 2.791483916691552
    BEQUESTS = [0.06000480590980038, 0.05978661408086293, 0.03827261931010785, 0.0]
    NU_NEXT = 0.7164648121528091

    def test_no_set_is_consistent_and_the_scan_takes_the_exact_root(self):
        args = (self.INCOME, self.Z, self.TOTAL, self.DELTA, self.XNN)
        assert not any(consistent for _, consistent in candidate_roots(*args))
        kappa = scan_row(*args)
        assert kappa == active_set_oracle(*args)
        assert 0.0 < kappa < self.TOTAL
        assert abs(kappa - exact_root(*args)) <= 1e-14 * kappa
        heads = self.DELTA * (self.INCOME - self.Z * (self.TOTAL - kappa)) - self.XNN * kappa
        residual = np.maximum(0.0, heads).sum() / ((1.0 + self.DELTA) * self.INCOME.size) - kappa
        assert abs(residual) < 1e-12
        assert abs(heads[-1]) < 1e-12  # the poorest dynasty sits at its kink
        assert abs(fixed_point_bisection(*args) - kappa) < 1e-12  # the independent route

    def test_kernel_takes_the_kink_root_and_matches_the_oracle(self):
        # The Gini's BLAS dot may round differently on another host, which moves
        # the kink by an ulp or so: search the announced tilt ulp by ulp.
        beq = np.array(self.BEQUESTS)
        order = np.argsort(beq, kind="stable")
        nu_next = up = down = self.NU_NEXT
        for step in range(2000):
            _, args = period_inputs(beq, order, 1.0, nu_next, BASELINE, UNIT_ENVY)
            if not any(consistent for _, consistent in candidate_roots(*args)):
                break
            if step % 2:
                nu_next = down = np.nextafter(down, 0.0)
            else:
                nu_next = up = np.nextafter(up, 2.0)
        else:
            pytest.fail("no announced tilt near the kink left every candidate inconsistent")
        record = solve_temporary(beq, 1.0, nu_next, BASELINE, UNIT_ENVY)
        want = period_oracle(beq, order, 1.0, nu_next, BASELINE, UNIT_ENVY)
        _assert_same_records(record, want)
        assert record.bequests_next.tobytes() == want.bequests_next.tobytes()
        assert abs(record.k_next - exact_root(*args)) <= 1e-14 * record.k_next


@st.composite
def block_edge_instances(draw):
    """A row like those of ``test_block_scan_on_block_edges``: m rich dynasties, the rest at 0."""
    m = draw(st.sampled_from(BLOCK_EDGES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    income = np.zeros(m + draw(st.integers(0, 7)))
    income[:m] = 1.0 + 0.2 * rng.random(m)
    return income, 0.5, float(income.mean()), 1.0, 0.5


def _one_row(income, z, total, delta, xnn):
    """``income`` descending as a one-row block, and the coefficients as (1 x 1) columns."""
    columns = (np.array([[v]], dtype=float) for v in (z, total, delta, xnn))
    return np.sort(income)[::-1][None], *columns


def _one_row_scalars(income, z, total, delta, xnn):
    """The same one-row block with Python-float coefficients, as the kernel passes one row."""
    return np.sort(income)[::-1][None], *(float(v) for v in (z, total, delta, xnn))


@given(
    instance=st.one_of(
        fixed_point_instances(), kink_instances(), stuck_kink_instances(), block_edge_instances()
    ),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_certified_root_is_the_oracle_root(instance, data):
    # any guess in 1..N: the oracle's own active set half the time, so rows get certified
    want = active_set_oracle(*instance)
    n = instance[0].size
    active = min(max(_active_count(*instance, want), 1), n)
    guess = np.array([data.draw(st.one_of(st.just(active), st.integers(1, n)), label="guess")])
    row = _one_row(*instance)
    kappa, certified = _certify(row[0], guess, *row[1:])
    if certified[0]:
        assert kappa[0] == want
    assert _roots(row[0], guess, *row[1:])[0] == want
    # the one-row form: the same row with its guess a Python int and its coefficients
    # Python floats, the types _solve_block hands a one-row block's _certify
    row = _one_row_scalars(*instance)
    kappa_s, certified_s = _certify(row[0], int(guess[0]), *row[1:])
    assert np.ndim(kappa_s) == np.ndim(certified_s) == 0
    assert certified_s == certified[0]
    if certified_s:
        assert kappa_s == want
    assert _roots(row[0], int(guess[0]), *row[1:]) == want


@pytest.mark.parametrize("m", BLOCK_EDGES)
def test_block_edge_rows_are_certified_at_their_active_set(m):
    income = np.zeros(m + 7)
    income[:m] = 1.0 + 0.2 * np.random.default_rng(m).random(m)
    row = _one_row(income, 0.5, float(income.mean()), 1.0, 0.5)
    kappa, certified = _certify(row[0], np.array([m]), *row[1:])
    assert certified[0]
    assert kappa[0] == active_set_oracle(income, 0.5, float(income.mean()), 1.0, 0.5)


def test_kink_row_is_not_certified_at_any_guess():
    row = _one_row(TestKink.INCOME, TestKink.Z, TestKink.TOTAL, TestKink.DELTA, TestKink.XNN)
    for g in range(1, TestKink.INCOME.size + 1):  # the kernel guesses 3, its positive bequests
        assert not _certify(row[0], np.array([g]), *row[1:])[1][0]


def test_a_denominator_rounding_to_zero_leaves_a_row_uncertified():
    # z = 1 and delta past 2**53: D_N = N(1 + delta) - N*delta rounds to 0, which Python
    # floats do not divide by; the columns route divides and certifies nothing either
    desc, args = np.array([[3.0, 2.0, 1.0, 0.5]]), (1.0, 6.5, 2.0**60, 0.0)
    assert not _certify(desc, 4, *args)[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        assert not _certify(desc, np.array([4]), *(np.array([[v]]) for v in args))[1][0]


def test_a_consistent_guess_after_an_earlier_consistent_set_is_not_certified():
    # a dynasty at a kink: rounding leaves both a = 2 and a = 3 consistent, and the
    # root is the first one's, so a guess of 3 passes the scan's tests but not the margin
    args = (
        np.array([7.101161175001415, 6.059545939908129, 3.1139907879377042, 2.4510168787211186]),
        0.37203805050175315, 8.438891454327369, 2.6927681856134185, 0.94727249445685,
    )
    assert [a for a, (_, ok) in enumerate(candidate_roots(*args), 1) if ok] == [2, 3]
    row = _one_row(*args)
    kappa, certified = _certify(row[0], np.array([3]), *row[1:])
    assert not certified[0] and kappa[0] != active_set_oracle(*args)
    assert _roots(row[0], np.array([3]), *row[1:])[0] == active_set_oracle(*args)


def test_a_saving_path_is_certified_in_every_period(monkeypatch):
    # every dynasty of a uniform start keeps saving, so each period's guess, the
    # active set it inherits, is certified and no row reaches the scan
    p = validate_params(alpha=1 / 3, delta=1.0, phi=0.1, n_agents=4096)
    initial = np.random.default_rng(4096).random(p.n_agents)
    scanned = []

    def spy(desc, *columns):
        scanned.append(desc.shape[0])
        return _scan_active_sets(desc, *columns)

    monkeypatch.setattr("joneses.equilibrium._scan_active_sets", spy)
    traj = simulate(initial, constant_schedule(1.0, p), 20, p, UNIT_ENVY)
    assert sum(scanned) == 0
    assert np.all(traj.m_counts == p.n_agents)
    # with nothing certified, every row is scanned and the path keeps its bytes
    monkeypatch.setattr(
        "joneses.equilibrium._certify", lambda desc, *_: (np.zeros(len(desc)), np.zeros(len(desc), bool))
    )
    scanned_path = simulate(initial, constant_schedule(1.0, p), 20, p, UNIT_ENVY)
    assert sum(scanned) == 20
    for a, b in zip(traj.records, scanned_path.records):
        _assert_same_records(a, b)


def test_a_start_whose_ascending_total_overflows_raises_as_the_oracle_does():
    # the unsorted total is finite and the ascending one is not: the oracle's Gini rejects it
    start = np.full(4, 0.5 * np.finfo(float).max / 3)
    start[0] = 0.5 * np.finfo(float).max
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the oracle's overflowing sums
        records, error = chained_oracle(start, [1.0] * 3, 2, BASELINE, UNIT_ENVY)
    assert not records and str(error) == "total wealth must be finite and positive"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the kernel takes the ascending total once, silently
        with pytest.raises(DomainError) as exc:
            simulate(start, [1.0] * 3, 2, BASELINE, UNIT_ENVY)
    assert str(exc.value) == str(error)


def test_delta_is_bounded_by_the_solver_denominator():
    # the largest delta admitted at N dynasties is the largest with N*(1 + delta) finite,
    # and a path there runs without an overflow warning
    for n in (2, 4, 16384):
        delta = math.nextafter(sys.float_info.max / n, math.inf)
        while not n * (1.0 + delta) < math.inf:
            delta = math.nextafter(delta, 0.0)
        params = validate_params(alpha=1 / 3, delta=delta, phi=0.1, n_agents=n)
        with pytest.raises(AltruismOverflow, match=r"n_agents \* \(1 \+ delta\)"):
            validate_params(alpha=1 / 3, delta=math.nextafter(delta, math.inf), phi=0.1, n_agents=n)
        start = np.zeros(n)
        start[: n // 2] = 0.2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulate(start, [1.0] * 31, 30, params, EnvySpec(0.0, 1.0))


def _largest_delta(n):
    """The largest delta admitted at n dynasties: n * (1 + delta) just below overflow."""
    delta = math.nextafter(sys.float_info.max / n, math.inf)
    while not n * (1.0 + delta) < math.inf:
        delta = math.nextafter(delta, 0.0)
    return delta


# A rich start at the largest admitted delta: the scan's root overflows, and the root's
# tests, not a float warning, reject the row
LARGEST_DELTA_RICH = (
    [1e300, 0.0, 0.0, 0.0], [1.0] * 6,
    validate_params(alpha=1 / 3, delta=4.49e307, phi=0.1, n_agents=4), EnvySpec(0.0, 1.0),
)


def _edge_paths():
    """One-row paths where Python floats could part from numpy scalars, with the error
    each ends in (None: a trajectory)."""
    cases = []
    for n in (2, 3, 4):
        edge = validate_params(alpha=1 / 3, delta=_largest_delta(n), phi=0.1, n_agents=n)
        rich, tiny = np.zeros(n), np.zeros(n)
        rich[0], tiny[0] = 0.4, 1e-320
        for start in (rich, np.full(n, 0.1), np.random.default_rng(n).random(n), tiny):
            cases.append((f"largest_delta_n{n}", start, [1.0] * 41, edge, UNIT_ENVY, None))
        cases.append((f"subnormal_n{n}", np.full(n, 1e-310), [1.0] * 41, edge, UNIT_ENVY, None))
        # the certificate's bound overflows: silently, once no numpy scalar enters it
        huge_envy = (tiny, [1.0] * 41, edge, EnvySpec(0.0, 1e10), EnvyTooStrong if n == 3 else None)
        cases.append((f"huge_envy_n{n}", *huge_envy))
    for start, error in (([5e-324, 0.0, 0.0, 0.0], DomainError), ([1e-320, 0.0, 0.0, 0.0], None)):
        cases.append(("tiny_total", np.array(start), [1.0] * 41, BASELINE, UNIT_ENVY, error))
    # rows that raise mid-path, after their filler is computed: the floor breaks in period 6,
    # and a tilt outside the segment is announced in period 39
    strong = EnvySpec(0.0, 6.0)
    floor = (np.array([0.2, 0.1, 0.1, 0.1]), [1.0] * 61, BASELINE, strong, EnvyTooStrong)
    outside = (np.array([0.4, 0.0, 0.0, 0.0]), [1.0] * 40 + [5.0] * 21, BASELINE, UNIT_ENVY, NuOutOfBounds)
    cases += [("raises", *floor), ("raises", *outside)]
    cases.append(("root_overflows", *LARGEST_DELTA_RICH, NoPositiveRoot))
    return [pytest.param(*case[1:], id=f"{case[0]}-{i}") for i, case in enumerate(cases)]


@pytest.mark.parametrize("start, nus, params, envy, error", _edge_paths())
def test_one_row_paths_at_the_edges_end_typed_and_warning_free(start, nus, params, envy, error):
    # a one-row block works in Python floats under the kernel's float policy: no
    # ZeroDivisionError, complex power, OverflowError or float warning may escape
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            traj = simulate(start, nus, len(nus) - 1, params, envy)
        except JonesesError as exc:
            assert type(exc) is error
            return
    assert error is None
    for r in _distinct(traj.records):
        for name in ("k", "output", "gamma", "gini", "k_next", "avg_consumption", "xi_k", "net"):
            value = getattr(r, name)
            assert type(value) is float and math.isfinite(value), name
        assert type(r.m_count) is int and r.m_count >= 1
    assert traj.final_k > 0.0


# (alpha, phi) pairs: the baseline's, a tiny alpha whose gross return can overflow, a large one
EXTREME_ECONOMIES = ((1 / 3, 0.1), (0.01, 0.0), (0.9, 0.05))


@st.composite
def extreme_rows(draw, horizon=5):
    """Two valid but extreme paths of one N: a delta up to the largest admitted, a start of
    zeros and magnitudes from 1e-300 to 1e300, an envy scale up to the existence ceiling,
    and, in most, a tilt of 1e-300 announced in some period."""
    n = draw(st.sampled_from([2, 3, 4, 5, 64]))
    largest = _largest_delta(n)
    magnitudes = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
    rows = []
    for _ in range(2):
        alpha, phi = draw(st.sampled_from(EXTREME_ECONOMIES))
        delta = min(2.0 ** draw(st.floats(-10.0, math.log2(largest))), largest)
        params = validate_params(alpha=alpha, delta=delta, phi=phi, n_agents=n)
        ceiling = gamma_hat(params.nu_upper, params) * (n / (n - 1))
        envy = EnvySpec(0.0, draw(st.floats(0.0, 1.0)) * min(ceiling, sys.float_info.max))
        start = draw(st.lists(st.just(0.0) | magnitudes, min_size=n, max_size=n))
        nus = [1.0] * (horizon + 1)
        tiny = draw(st.integers(0, horizon + 1))
        if tiny <= horizon:
            nus[tiny] = 1e-300
        rows.append((start, nus, params, envy))
    return rows


@example(rows=[LARGEST_DELTA_RICH] * 2)
@given(rows=extreme_rows())
@settings(max_examples=150, deadline=None)
def test_extreme_valid_inputs_end_typed_and_warning_free(rows):
    # the kernel's typed tests decide every row: no float warning escapes it, and a
    # two-row block ends each row as its own path does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcomes = []
        for start, nus, params, envy in rows:
            try:
                outcomes.append(simulate(start, nus, len(nus) - 1, params, envy).final_k)
            except JonesesError as exc:
                outcomes.append(exc)
        try:
            starts = [as_distribution(start) for start, *_ in rows]
        except JonesesError:
            return
        _, nus, params, envys = zip(*rows)
        finals = final_capitals(starts, nus, len(nus[0]) - 1, params, envys)
    for want, got in zip(outcomes, finals):
        if isinstance(want, JonesesError):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            assert got == want


def _row_values(values, i):
    """Row i's per-row values of a block: one-row blocks hand them on as floats already."""
    return values if isinstance(values[0], float) else [v.item(i) for v in values]


def _block_records(beq, order, paths):
    """One period of the block ``beq`` solved by the kernel: each row's record, or None."""
    nxt, ok, _, values = _solve_block(beq, order, _economy(paths), paths)
    ok = np.reshape(ok, -1)
    return [
        _record(paths[i], beq[i], nxt[i], _row_values(values, i)) if ok[i] else None
        for i in range(len(paths))
    ]


def _solve_alone_and_in_a_block(params, envy, start, tilts):
    """The row's record (or error) solved as a one-row block, and as the middle row of three."""
    rng = np.random.default_rng(start.size)
    other = validate_params(alpha=0.3, delta=1.4, phi=0.08, n_agents=start.size)
    others = [(other, UNIT_ENVY, rng.random(start.size)), (params, EnvySpec(0.1, 0.5), rng.random(start.size))]
    outcomes = []
    for rows in ([(params, envy, start)], [others[0], (params, envy, start), others[1]]):
        paths = [_Path(p, e) for p, e, _ in rows]
        for path in paths:
            path.nu_t, path.nu_next = tilts
        beq = np.stack([x for *_, x in rows])
        i = len(rows) // 2
        record = _block_records(beq, np.argsort(beq, axis=1), paths)[i]
        outcomes.append((record, paths[i].error))
    return outcomes


_PARTING_ROWS = {
    # the rank formula rounds below 0 on an unequal row, and above (N-1)/N off a single holder
    "gini_clamped_at_zero": ([float.fromhex("0x1.007b74d20ea49p+1"), float.fromhex("0x1.007b74d20ea4ap+1")], 0.0),
    "gini_clamped_at_top": (
        [0.0] * 5 + [float.fromhex("0x1.106cc309762c6p+9"), float.fromhex("0x1.7ee482db99080p+88")], 6 / 7
    ),
    "single_holder": ([0.0, 0.0, 0.0, 0.4], 0.75),
    "kink": (TestKink.BEQUESTS, None),
    "rescaled_gini": ([1e308, 5e307, 0.0, 0.0], None),  # its n * total overflows
    "largest_delta": ([0.4, 0.0, 0.0, 0.0], 0.75),
}


@pytest.mark.parametrize("name", sorted(_PARTING_ROWS))
def test_a_one_row_block_rounds_as_a_row_of_a_larger_block(name):
    values, want_gini = _PARTING_ROWS[name]
    start = np.array(values)
    n = start.size
    delta = _largest_delta(n) if name == "largest_delta" else 1.0
    params = validate_params(alpha=1 / 3, delta=delta, phi=0.1, n_agents=n)
    tilts = (1.0, TestKink.NU_NEXT if name == "kink" else 1.0)
    (alone, error), (inner, inner_error) = _solve_alone_and_in_a_block(params, UNIT_ENVY, start, tilts)
    assert type(error) is type(inner_error) and str(error) == str(inner_error)
    assert error is None
    if want_gini is not None:
        assert alone.gini == want_gini
    for field in ("k", "k_next", "gamma", "gini", "avg_consumption", "xi_k", "net"):
        assert getattr(alone, field).hex() == getattr(inner, field).hex(), field
    assert alone.m_count == inner.m_count
    assert alone.bequests_next.tobytes() == inner.bequests_next.tobytes()


def test_a_path_keeps_one_vector_per_solved_period():
    # a record keeps its bequests_next; its consumptions are recomputed on each read
    p = validate_params(alpha=1 / 3, delta=1.0, phi=0.1, n_agents=4096)
    initial = np.random.default_rng(4096).random(p.n_agents)
    schedule = constant_schedule(1.0, p)
    simulate(initial, schedule, 2, p, UNIT_ENVY)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = simulate(initial, schedule, 20, p, UNIT_ENVY)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len({id(r) for r in traj.records}) == 20  # every period solved
    assert kept <= 20 * 1.2 * 8 * p.n_agents


def _distinct(records):
    """The records of a path in order, each repeated record once."""
    return [r for t, r in enumerate(records) if not t or r is not records[t - 1]]


def _assert_slab_records(records, horizon):
    """Each record's vector is its own row of a slab that fits the periods left."""
    distinct = _distinct(records)
    for i, r in enumerate(distinct):
        assert not any(np.shares_memory(r.bequests_next, s.bequests_next) for s in distinct[:i])
    first = {}
    for t, r in enumerate(records):
        first.setdefault(id(r.bequests_next.base), (t, r.bequests_next.base))
    for t, slab in first.values():
        assert slab.ndim == 3 and slab.flags.c_contiguous
        assert slab.shape[0] <= horizon - t


def test_a_path_writes_its_vectors_into_slabs():
    p = validate_params(alpha=1 / 3, delta=1.0, phi=0.1, n_agents=4096)
    initial = np.random.default_rng(4096).random(p.n_agents)
    for horizon in (1, 20, 300):  # one slab of 1 or 20 pages, or slabs of 256 and 44
        traj = simulate(initial, constant_schedule(1.0, p), horizon, p, UNIT_ENVY)
        _assert_slab_records(traj.records, horizon)
        slabs = {id(r.bequests_next.base): r.bequests_next.base for r in traj.records}
        assert sorted(s.shape[0] for s in slabs.values()) == {1: [1], 20: [20], 300: [44, 256]}[horizon]
        # each record inherits the record before's vector, not a copy of it
        distinct = _distinct(traj.records)
        for prev, r in zip(distinct, distinct[1:]):
            assert np.shares_memory(r.bequests, prev.bequests_next)
            assert r.bequests.tobytes() == prev.bequests_next.tobytes()


@pytest.mark.parametrize("pages", [1, 2, 3, 5])
def test_a_path_across_several_slabs_equals_a_chain_of_solves(monkeypatch, pages):
    # [0.4, 0, 0, 0] sits at its exact fixed point from period `fixed` on (34); a new tilt
    # is announced in period fixed + 5, which the path solves on the page after its last
    initial = [0.4, 0.0, 0.0, 0.0]
    monkeypatch.setattr("joneses.equilibrium._SLAB_BYTES", pages * 8 * 4)
    fixed = _first_repeat(simulate(initial, [1.0] * 201, 200, BASELINE, UNIT_ENVY))
    horizon = fixed + 40
    nus = [1.0] * (fixed + 6) + [0.9] * (horizon - fixed - 5)
    traj = simulate(initial, nus, horizon, BASELINE, UNIT_ENVY)
    _assert_bitwise_paths(traj, _chain_of_solves(initial, nus, horizon, BASELINE, UNIT_ENVY))
    _assert_slab_records(traj.records, horizon)
    last = traj.records[fixed - 1]
    assert all(r is last for r in traj.records[fixed : fixed + 5])  # the stationary stretch
    resumed = traj.records[fixed + 5].bequests_next
    assert (resumed.base is last.bequests_next.base) == (fixed % pages != 0)  # mid-slab, unless full
    assert len({id(r.bequests_next.base) for r in traj.records}) > 1


@ONLY_ORACLES_WARN
@pytest.mark.parametrize("pages", [1, 3, 64])
def test_block_rows_across_slabs_equal_their_chained_oracle(monkeypatch, pages):
    # only a one-row path keeps records, a page of its slab each; the rows of a block
    # solve the same periods to the same records
    rng = np.random.default_rng(89)
    horizon, rows = 60, 5
    cases = [_block_row(rng, 4, horizon) for _ in range(rows)]
    monkeypatch.setattr("joneses.equilibrium._SLAB_BYTES", pages * 8 * 4)
    with _block_spy() as solved:
        paths = [_Path(p, envy, _tilt_pairs(nus, horizon)) for p, envy, _, nus in cases]
        for _ in _run_paths(np.stack([initial for _, _, initial, _ in cases]), paths, horizon):
            pass
    for own, *_ in _assert_block_rows_match_own_paths(solved, [p.error for p in paths], cases, horizon):
        _assert_slab_records(own.records, horizon)
        for r in own.records:
            assert r.bequests_next.base.shape[1:] == (1, 4)


def test_consumptions_read_twice_give_the_same_bytes():
    beq = np.array([0.4, 0.1, 0.0, 0.25])
    record = solve_temporary(beq, 1.0, 1.1, BASELINE, UNIT_ENVY)
    first, second = record.consumptions, record.consumptions
    assert first is not second and first.tobytes() == second.tobytes()
    want = period_oracle(beq, np.argsort(beq, kind="stable"), 1.0, 1.1, BASELINE, UNIT_ENVY)
    assert first.tobytes() == want.consumptions.tobytes()
    # records read their inherited vector again, so they keep their own copy of the caller's
    traj = simulate(beq, [1.0, 1.1], 1, BASELINE, UNIT_ENVY)
    beq[:] = 9.0
    for r in (record, traj.records[0]):
        assert r.bequests[0] == 0.4 and r.consumptions.tobytes() == first.tobytes()


def _tied_start(rng, n, kind):
    """A start full of ties: -0.0 next to 0.0, a few repeated values, or one value throughout."""
    if kind == "tied":
        return np.full(n, 0.25)
    start = rng.choice([0.0, -0.0, 0.1, 0.3] if kind == "repeats" else [0.0, -0.0], n)
    if kind == "signed zeros":
        rich = rng.random(n) < 0.5
        start[rich] = rng.random(np.count_nonzero(rich))
    start[0] = 0.3  # a positive total
    return start


@pytest.mark.parametrize("n", [2, 4, 64, 4096])
@pytest.mark.parametrize("kind", ["signed zeros", "repeats", "tied"])
def test_a_start_with_ties_gives_the_stably_sorted_oracle_bytes(n, kind):
    # a path takes its first order from the default argsort, the oracle from a stable one:
    # tied entries are equal values, and a -0.0/0.0 tie changes no sum, dot or comparison
    p = validate_params(alpha=1 / 3, delta=1.0, phi=0.1, n_agents=n)
    envy = EnvySpec(0.0, 0.5)
    start = _tied_start(np.random.default_rng(n), n, kind)
    horizon = 8 if n > 64 else 40
    nus = [0.7] * (horizon + 1)
    records, error = chained_oracle(start, nus, horizon, p, envy)
    assert error is None
    _assert_bitwise_paths(simulate(start, nus, horizon, p, envy), Trajectory(tuple(records)))
    first = solve_temporary(start, 0.7, 0.7, p, envy)
    _assert_bitwise_paths(Trajectory((first,)), Trajectory(tuple(records[:1])))
    # the reform planner: the trigger is where the oracle's weight first falls below
    # the target, here set at the weight of period 2 (or near 0 for the tied start)
    margin = gamma_star(1.1, p) - max(records[2].gamma, 1e-3)
    target = gamma_star(1.1, p) - margin
    trigger = next(t for t, r in enumerate(records) if r.gamma < target)
    plan = plan_reform(start, p, envy, 0.7, 1.1, margin, max_horizon=horizon)
    assert (plan.trigger_period, plan.gamma_at_trigger) == (trigger, records[trigger].gamma)


def _chain_of_solves(initial, nus, horizon, params, envy):
    """The path as public solve_temporary calls, every period solved afresh."""
    records, beq = [], initial
    for t in range(horizon):
        records.append(solve_temporary(beq, nus[t], nus[t + 1], params, envy))
        beq = records[-1].bequests_next
    return Trajectory(records=tuple(records))


class TestCarriedOrder:
    @pytest.mark.parametrize("stale", ["reversed", "random", "identity"])
    def test_stale_order_is_repaired(self, stale):
        rng = np.random.default_rng(61)
        p = BASELINE
        for _ in range(20):
            beq = random_initial(rng, p)
            fresh = solve_temporary(beq, 1.0, 1.1, p, UNIT_ENVY)
            order = {
                "reversed": np.argsort(beq, kind="stable")[::-1].copy(),
                "random": rng.permutation(p.n_agents),
                "identity": np.arange(p.n_agents),
            }[stale]
            path = _Path(p, UNIT_ENVY)
            path.nu_t, path.nu_next = 1.0, 1.1
            (record,) = _block_records(beq[None], order[None], [path])
            _assert_same_records(record, fresh)
            assert np.all(np.diff(beq[order]) >= 0.0)

    def test_simulate_equals_chain_of_public_solves(self):
        rng = np.random.default_rng(67)
        p = validate_params(alpha=0.3, delta=1.4, phi=0.08, n_agents=1024)
        envy = random_envy(rng, p)
        for initial in (random_initial(rng, p), rng.random(p.n_agents)):
            nus = [random_nu(rng, p) for _ in range(31)]
            traj = simulate(initial, nus, 30, p, envy)
            chain = _chain_of_solves(initial, nus, 30, p, envy)
            for record, eq in zip(traj.records, chain.records, strict=True):
                _assert_same_records(record, eq)
                # means over agent order, Gini as for unsorted input: bit for bit
                assert record.k == float(np.mean(record.bequests))
                assert record.k_next == float(np.mean(record.bequests_next))
                assert record.gini == gini(record.bequests)


def _assert_bitwise_paths(traj, chain):
    assert traj.horizon == chain.horizon
    for a, b in zip(traj.records, chain.records):
        _assert_same_records(a, b)
        assert a.bequests_next.tobytes() == b.bequests_next.tobytes()
        assert a.consumptions.tobytes() == b.consumptions.tobytes()


def _assert_same_convergence(traj):
    for tol in (1e-8, 1e-14):
        got, want = detect_convergence(traj, tol), convergence_oracle(traj, tol)
        if want is None:
            assert got is None
            continue
        assert (got.period, got.k, got.reentered) == (want.period, want.k, want.reentered)
        assert got.bequests.tobytes() == want.bequests.tobytes()


def _first_repeat(traj):
    """First period that repeats the record of the period before, or None."""
    records = traj.records
    return next((t for t in range(1, len(records)) if records[t] is records[t - 1]), None)


@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 4, 64]))
@settings(max_examples=30, deadline=None)
def test_repeated_records_equal_a_chain_of_solves(seed, n):
    rng = np.random.default_rng(seed)
    drawn = random_params(rng)
    p = validate_params(alpha=drawn.alpha, delta=drawn.delta, phi=drawn.phi, n_agents=n)
    envy = random_envy(rng, p)
    nu1, nu2 = random_nu(rng, p), random_nu(rng, p)
    initial = random_initial(rng, p)
    horizon = 400  # most drawn paths reach their exact fixed point by period 300
    nus = [nu1] * (horizon + 1)
    traj = simulate(initial, nus, horizon, p, envy)
    _assert_bitwise_paths(traj, _chain_of_solves(initial, nus, horizon, p, envy))
    _assert_same_convergence(traj)
    fixed = _first_repeat(traj)
    if fixed is None:
        return
    assert all(r.stationary for r in traj.records[fixed:])
    # the tilt changes two periods after the fixed point, then changes back
    horizon = fixed + 60
    nus = [nu1] * (fixed + 2) + [nu2] * 20 + [nu1] * 39
    traj = simulate(initial, nus, horizon, p, envy)
    _assert_bitwise_paths(traj, _chain_of_solves(initial, nus, horizon, p, envy))
    _assert_same_convergence(traj)


class TestStationaryRepeat:
    def test_polarised_path_holds_few_distinct_records(self):
        # 97% of the wealth on 16 of 1024 dynasties: the path sits at its exact
        # fixed point from period 32 on
        p = validate_params(alpha=1 / 3, delta=1.0, phi=0.1, n_agents=1024)
        rng = np.random.default_rng(71)
        initial = rng.random(p.n_agents)
        rich = rng.choice(p.n_agents, 16, replace=False)
        initial[rich] = 0.0
        initial *= 0.03 * p.n_agents / initial.sum()
        initial[rich] = 0.97 * p.n_agents / 16
        traj = simulate(initial, constant_schedule(1.0, p), 400, p, UNIT_ENVY)
        assert len({id(r) for r in traj.records}) <= 40
        chain = _chain_of_solves(initial, [1.0] * 401, 400, p, UNIT_ENVY)
        assert traj.final_bequests.tobytes() == chain.final_bequests.tobytes()

    def test_float32_tilt_is_priced_as_its_float_value(self):
        # np.float32(1.0) is the running tilt, so the stationary record keeps repeating;
        # np.float32(0.9) is a new tilt, solved as float(np.float32(0.9))
        initial = [0.4, 0.0, 0.0, 0.0]
        fixed = _first_repeat(simulate(initial, [1.0] * 201, 200, BASELINE, UNIT_ENVY))
        assert fixed is not None

        def run(tail):
            return simulate(initial, [1.0] * (fixed + 2) + tail, fixed + 11, BASELINE, UNIT_ENVY)

        for nu2 in (1.0, 0.9):
            _assert_bitwise_paths(run([np.float32(nu2)] * 10), run([float(np.float32(nu2))] * 10))
        nus = [1.0] * (fixed + 2) + [np.float32(1.0)] * 10
        traj = simulate(initial, nus, fixed + 11, BASELINE, UNIT_ENVY)
        _assert_bitwise_paths(traj, _chain_of_solves(initial, nus, fixed + 11, BASELINE, UNIT_ENVY))
        assert all(r is traj.records[fixed - 1] for r in traj.records[fixed:])

    def test_a_settled_path_fills_its_idle_periods_at_once(self):
        # [0.4, 0, 0, 0] settles by period 34: the other 999,966 periods repeat its record
        schedule = constant_schedule(1.0, BASELINE)
        traj = simulate([0.4, 0.0, 0.0, 0.0], schedule, 10**6, BASELINE, UNIT_ENVY)
        short = simulate([0.4, 0.0, 0.0, 0.0], schedule, 200, BASELINE, UNIT_ENVY)
        assert traj.horizon == 10**6
        assert len({id(r) for r in traj.records}) <= 40
        assert traj.final_bequests.tobytes() == short.final_bequests.tobytes()

    def test_a_settled_block_jumps_to_its_horizon(self):
        # both rows settle by period 96; an equal start would end on a cycle, solved each period
        starts = [np.array([0.4, 0.0, 0.0, 0.0]), np.array([0.4, 0.4, 0.0, 0.0])]

        def finals(horizon):
            schedules = [constant_schedule(1.0, BASELINE)] * 2
            return final_capitals(starts, schedules, horizon, [BASELINE] * 2, [UNIT_ENVY] * 2)

        short = finals(200)
        began = time.perf_counter()
        far = finals(10**9)
        assert time.perf_counter() - began < 1.0
        assert [k.hex() for k in far] == [k.hex() for k in short]

    def test_a_row_frozen_by_an_error_stays_frozen_when_a_valid_tilt_follows(self, monkeypatch):
        # period 3 prices nu = 5.0, outside [nu_lower, nu_upper]; period 4 starts the
        # valid tilt 0.9, a change at which a frozen row must not rejoin the block
        nus = [1.0] * 3 + [5.0] + [0.9] * 8
        horizon, start = len(nus) - 1, np.array([0.1, 0.2, 0.3, 0.4])
        solve, solved = equilibrium._solve_block, []

        def spy(beq, order, econ, paths, out=None):
            solved.append(econ["path"].tolist())
            return solve(beq, order, econ, paths, out)

        monkeypatch.setattr(equilibrium, "_solve_block", spy)
        with pytest.raises(NuOutOfBounds, match="nu=5.0") as first:
            simulate(start, nus, horizon, BASELINE, UNIT_ENVY)
        assert solved == [[0]] * 4
        solved.clear()
        steady = [1.0] * (horizon + 1)
        finals = final_capitals([start, start], [nus, steady], horizon, [BASELINE] * 2, [UNIT_ENVY] * 2)
        assert type(finals[0]) is NuOutOfBounds and str(finals[0]) == str(first.value)
        assert solved[:4] == [[0, 1]] * 4 and all(rows == [1] for rows in solved[4:])
        assert finals[1] == simulate(start, steady, horizon, BASELINE, UNIT_ENVY).final_k


_TILTS = [0.7, 0.9, 1.1, np.float32(0.9), np.float32(1.1), float(np.float32(0.9))]


@given(nus=st.lists(st.sampled_from(_TILTS), min_size=2, max_size=14))
@settings(max_examples=300, deadline=None)
def test_tilt_pairs_give_the_pair_of_every_period(nus):
    # runs of length 1 and float32 tilts equal to their floats among them
    horizon = len(nus) - 1
    pairs = _tilt_pairs(nus, horizon)
    assert list(pairs) == sorted(pairs) and set(pairs) <= set(range(horizon))
    pair = None
    for t in range(horizon):
        pair = pairs.get(t, pair)
        assert pair == (float(nus[t]), float(nus[t + 1]))
        assert all(type(nu) is float for nu in pair)


@pytest.mark.parametrize("horizon", [1, 4, 5, 6, 7, 20])
def test_tilt_pairs_of_a_schedule_follow_its_segments(horizon):
    # one-period segments, and a segment that starts at the horizon (5 or 6) or past it
    schedule = build_schedule(0.1, [(0, 1.0), (5, 0.9), (6, 1.1), (8, np.float32(1.1))], BASELINE)
    pairs = _tilt_pairs(schedule, horizon)
    assert set(pairs) <= set(range(horizon))
    pair = None
    for t in range(horizon):
        pair = pairs.get(t, pair)
        assert pair == (schedule.nu_at(t), schedule.nu_at(t + 1))


def _block_row(rng, n, horizon):
    """One row of a lockstep block: economy, envy, start and per-period tilts.

    Rows differ in alpha, delta, phi, base and scale.  Some starts have
    ties, some rows carry envy far above the existence ceiling (they may
    raise EnvyTooStrong partway), some change the tilt in mid-path (to a
    float or a float32), and some announce a tilt so small that xi/nu
    overflows, which raises NoPositiveRoot in that period.
    """
    drawn = random_params(rng)
    p = validate_params(alpha=drawn.alpha, delta=drawn.delta, phi=drawn.phi, n_agents=n)
    role = rng.integers(4)
    envy = random_envy(rng, p)
    if role == 1:
        envy = EnvySpec(base=0.0, scale=rng.uniform(1.0, 6.0) * gamma_hat(p.nu_upper, p))
    initial = random_initial(rng, p)
    ties = rng.integers(3)
    if ties == 1:
        initial[rng.random(n) < 0.5] = initial.max()
    elif ties == 2:
        initial = np.round(initial, 1)
        initial[0] += 0.1  # keeps the total positive
    nu1, nu2 = random_nu(rng, p), random_nu(rng, p)
    nus = [nu1] * (horizon + 1)
    if role == 2:
        start = int(rng.integers(1, horizon))
        length = int(rng.integers(1, horizon))
        nus[start : start + length] = [np.float32(nu2) if rng.random() < 0.5 else nu2] * length
        nus = nus[: horizon + 1]
    if role == 3:
        nus[int(rng.integers(1, horizon + 1))] = 1e-310
    return p, envy, initial, nus


def _assert_row_matches_oracle(path_records, path_error, case, horizon):
    p, envy, initial, nus = case
    records, error = chained_oracle(initial, nus, horizon, p, envy)
    assert len(path_records) == len(records)
    for got, want in zip(path_records, records):
        _assert_same_records(got, want)
        assert got.bequests_next.tobytes() == want.bequests_next.tobytes()
        assert got.consumptions.tobytes() == want.consumptions.tobytes()
    if error is None:
        assert path_error is None
    else:
        assert type(path_error) is type(error) and str(path_error) == str(error)
    return records, error


def _own_path(case, horizon):
    """Block row ``case`` run alone: a one-row path that keeps its records."""
    p, envy, initial, nus = case
    path = _Path(p, envy, _tilt_pairs(nus, horizon), keep=True)
    for _ in _run_paths(initial[None], [path], horizon):
        pass
    return path


@contextlib.contextmanager
def _block_spy():
    """Spy on the kernel: per path index, the record of every row it solves, in order."""
    solved, solve = {}, equilibrium._solve_block

    def spy(beq, order, econ, paths, out=None):
        nxt, ok, same, values = solve(beq, order, econ, paths, out)
        rows_ok = np.reshape(ok, -1)
        for i, j in enumerate(econ["path"].tolist()):
            if rows_ok[i]:
                record = _record(paths[j], beq[i].copy(), nxt[i].copy(), _row_values(values, i))
                solved.setdefault(j, []).append(record)
        return nxt, ok, same, values

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(equilibrium, "_solve_block", spy)
        yield solved


def _assert_block_rows_match_own_paths(solved, block_errors, cases, horizon):
    """Each block row solves the periods of its own one-row path, to the same records, and
    ends in its error; that path matches the chained oracle.  Returns, per row, the path,
    the oracle's records and its error."""
    rows = []
    for i, (block_error, case) in enumerate(zip(block_errors, cases)):
        own = _own_path(case, horizon)
        records, error = _assert_row_matches_oracle(own.records, own.error, case, horizon)
        got, want = solved.get(i, []), _distinct(own.records)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            _assert_same_records(a, b)
            assert a.bequests_next.tobytes() == b.bequests_next.tobytes()
            assert a.consumptions.tobytes() == b.consumptions.tobytes()
        assert type(block_error) is type(own.error) and str(block_error) == str(own.error)
        rows.append((own, records, error))
    return rows


@ONLY_ORACLES_WARN
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([2, 3, 4, 64, 20000]),
    rows=st.integers(1, 6),
)
@settings(max_examples=40, deadline=None)
def test_block_rows_equal_their_chained_oracle(seed, n, rows):
    rng = np.random.default_rng(seed)
    horizon = 12 if n > 64 else 150
    cases = [_block_row(rng, n, horizon) for _ in range(rows)]
    with _block_spy() as solved:
        finals = final_capitals(
            [initial for _, _, initial, _ in cases],
            [nus for *_, nus in cases],
            horizon,
            [p for p, *_ in cases],
            [envy for _, envy, *_ in cases],
        )
    errors = [f if isinstance(f, JonesesError) else None for f in finals]
    rows = _assert_block_rows_match_own_paths(solved, errors, cases, horizon)
    for (_, records, error), final in zip(rows, finals):
        if error is None:
            assert final == records[-1].k_next
        else:
            assert type(final) is type(error) and str(final) == str(error)


class TestLockstepKernel:
    @pytest.mark.parametrize("stale", ["reversed", "random", "identity"])
    def test_stale_orders_are_repaired_row_by_row(self, stale):
        rng = np.random.default_rng(83)
        p = validate_params(alpha=0.3, delta=1.4, phi=0.08, n_agents=64)
        beq = np.stack([random_initial(rng, p) for _ in range(5)])
        fresh = np.argsort(beq, axis=1, kind="stable")
        order = {
            "reversed": fresh[:, ::-1].copy(),
            "random": np.stack([rng.permutation(p.n_agents) for _ in range(5)]),
            "identity": np.tile(np.arange(p.n_agents), (5, 1)),
        }[stale]
        order[0] = fresh[0]  # one row carries a valid order
        envys = [random_envy(rng, p) for _ in range(5)]
        paths = [_Path(p, envy) for envy in envys]
        for path in paths:
            path.nu_t, path.nu_next = 1.0, 1.1
        records = _block_records(beq, order, paths)
        for i, (record, envy) in enumerate(zip(records, envys)):
            want = period_oracle(beq[i], fresh[i].copy(), 1.0, 1.1, p, envy)
            _assert_same_records(record, want)
            assert record.bequests_next.tobytes() == want.bequests_next.tobytes()
            assert np.all(np.diff(beq[i][order[i]]) >= 0.0)

    @ONLY_ORACLES_WARN
    def test_rows_that_raise_are_frozen_and_the_others_go_on(self):
        p = BASELINE
        horizon = 60
        strong = EnvySpec(0.0, 6.0)  # far above the ceiling: the floor breaks in period 6
        # [0.4, 0, 0, 0] sits at its exact fixed point from period 34; rows 4 and 5
        # are announced a new tilt in period 39 while frozen there: 0.9, which is
        # valid, and 5.0, outside [nu_lower, nu_upper], which raises in period 40
        cases = [
            (p, UNIT_ENVY, np.array([0.4, 0.0, 0.0, 0.0]), [1.0] * (horizon + 1)),
            (p, strong, np.array([0.2, 0.1, 0.1, 0.1]), [1.0] * (horizon + 1)),
            (p, UNIT_ENVY, np.array([0.1, 0.2, 0.3, 0.4]), [1.0] * 7 + [1e-310] * (horizon - 6)),
            (p, UNIT_ENVY, np.array([0.1, 0.1, 0.1, 0.1]), [1.0] * (horizon + 1)),
            (p, UNIT_ENVY, np.array([0.4, 0.0, 0.0, 0.0]), [1.0] * 40 + [0.9] * (horizon - 39)),
            (p, UNIT_ENVY, np.array([0.4, 0.0, 0.0, 0.0]), [1.0] * 40 + [5.0] * (horizon - 39)),
        ]
        with _block_spy() as solved:
            paths = [_Path(q, e, _tilt_pairs(nus, horizon)) for q, e, _, nus in cases]
            for _ in _run_paths(np.stack([c[2] for c in cases]), paths, horizon):
                pass
        rows = _assert_block_rows_match_own_paths(solved, [p.error for p in paths], cases, horizon)
        kinds = [(type(error).__name__, len(records)) for _, records, error in rows]
        assert kinds[0] == kinds[3] == kinds[4] == ("NoneType", horizon)
        assert kinds[1] == ("EnvyTooStrong", 6)
        assert kinds[2] == ("NoPositiveRoot", 6)
        assert kinds[5] == ("NuOutOfBounds", 40)
        for own, *_ in rows[4:]:
            assert own.records[38] is own.records[34]  # frozen at the fixed point
            assert own.records[39] is not own.records[38]  # solved again on the announcement


class TestSimulate:
    def test_single_period_reproduces_solver(self):
        traj = simulate(
            [0.4, 0, 0, 0], constant_schedule(1.0, BASELINE), 1, BASELINE, UNIT_ENVY
        )
        eq = solve_temporary(
            [0.4, 0, 0, 0], 1.0, 1.0, BASELINE, UNIT_ENVY
        )
        assert traj.horizon == 1
        np.testing.assert_array_equal(traj.records[0].bequests_next, eq.bequests_next)
        assert traj.records[0].k_next == eq.k_next

    def test_equal_start_converges_to_egalitarian_limit(self):
        traj = simulate(
            [0.1] * 4, constant_schedule(1.0, BASELINE), 200, BASELINE, UNIT_ENVY
        )
        target = steady_capital(0.0, 1.0, 1.0, BASELINE)
        assert abs(traj.final_k - target) < TOL_LIMIT
        assert np.all(traj.m_counts == 4)
        assert np.all(traj.gamma_path == 0.0)

    def test_polarised_start_converges_with_top_holding_everything(self):
        traj = simulate(
            [0.4, 0, 0, 0], constant_schedule(1.0, BASELINE), 200, BASELINE, UNIT_ENVY
        )
        target = steady_capital(0.75, 0.25, 1.0, BASELINE)
        assert abs(traj.final_k - target) < TOL_LIMIT
        m = traj.m_counts
        assert np.all(m[:-1] >= m[1:])  # non-increasing
        assert m[-1] == 1
        last = traj.records[-1]
        assert last.bequests_next[0] / last.k_next == pytest.approx(4.0, abs=TOL_SOLVER)

    def test_explicit_nu_sequence_accepted(self):
        nus = [1.0] * 6
        traj = simulate([0.1] * 4, nus, 5, BASELINE, UNIT_ENVY)
        assert traj.horizon == 5

    def test_short_sequence_rejected(self):
        with pytest.raises(ScheduleTooShort):
            simulate([0.1] * 4, [1.0] * 5, 5, BASELINE, UNIT_ENVY)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf"), 2.5, "3", True, 0])
    def test_a_horizon_that_is_not_an_integer_at_least_one_is_named(self, horizon):
        schedule = constant_schedule(1.0, BASELINE)
        match = re.escape(f"horizon must be an integer >= 1, got {horizon!r}")
        with pytest.raises(DomainError, match=match):
            simulate([0.1] * 4, schedule, horizon, BASELINE, UNIT_ENVY)
        with pytest.raises(DomainError, match=match):
            final_capitals([np.full(4, 0.1)], [schedule], horizon, [BASELINE], [UNIT_ENVY])

    def test_a_numpy_integer_horizon_runs(self):
        schedule = constant_schedule(1.0, BASELINE)
        traj = simulate([0.1] * 4, schedule, np.int64(3), BASELINE, UNIT_ENVY)
        assert traj.horizon == 3
        finals = final_capitals([np.full(4, 0.1)], [schedule], np.int64(3), [BASELINE], [UNIT_ENVY])
        assert finals == [traj.final_k]

    @pytest.mark.parametrize(
        "starts, n_schedules, n_paths, error, message",
        [
            pytest.param([], 0, 0, DomainError, "needs at least one path", id="no-path"),
            pytest.param(
                [4, 4], 1, 2, LengthMismatch, "counts (2, 1, 2, 2), start sizes [4]", id="2-starts-1-schedule"
            ),
            pytest.param(
                [4], 2, 2, LengthMismatch, "counts (1, 2, 2, 2), start sizes [4]", id="1-start-2-schedules"
            ),
            pytest.param(
                [4, 3], 2, 2, LengthMismatch, "counts (2, 2, 2, 2), start sizes [3, 4]", id="sizes-4-and-3"
            ),
        ],
    )
    def test_paths_that_disagree_are_named_before_they_run(
        self, starts, n_schedules, n_paths, error, message
    ):
        initials = [np.full(n, 0.1) for n in starts]
        schedules = [constant_schedule(1.0, BASELINE)] * n_schedules
        with pytest.raises(error) as exc:
            final_capitals(initials, schedules, 5, [BASELINE] * n_paths, [UNIT_ENVY] * n_paths)
        assert type(exc.value) is error and str(exc.value).endswith(message)

    def test_randomized_paths_satisfy_dynamic_laws(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            p = random_params(rng, max_agents=10)
            envy = random_envy(rng, p)
            nu = random_nu(rng, p)
            initial = random_initial(rng, p)
            traj = simulate(initial, constant_schedule(nu, p), 40, p, envy)
            check_path_invariants(traj, nu, p, envy)


def _exact_savings_rate(gamma, m, nu, p):
    """``savings_rate`` in exact arithmetic on its float inputs, xi = (1 - alpha)/alpha."""
    a, d, phi, nu, gamma, m = map(Fraction, (p.alpha, p.delta, p.phi, nu, gamma, m))
    x = (1 - a) / a / nu
    prefactor = (1 - phi) / (a + (1 - a) / nu)
    return prefactor * a * d * (1 + m * x + gamma * (1 - m)) / ((1 + d + m * x) * (1 + gamma) - m * d * gamma)


class TestSteadyStates:
    def test_egalitarian_values(self):
        state = egalitarian_steady(BASELINE, 1.0, UNIT_ENVY)
        assert state.k == pytest.approx(0.225**1.5, rel=1e-13)
        assert state.savings_rate == pytest.approx(0.225, rel=1e-14)
        c = 0.9 * state.k ** (1 / 3) - state.k
        assert c == pytest.approx(0.3201806130920485, rel=1e-12)
        np.testing.assert_allclose(state.consumptions, c, rtol=1e-13)
        np.testing.assert_allclose(state.bequests, state.k, rtol=0, atol=0)

    def test_egalitarian_is_fixed_point_of_solver(self):
        rng = np.random.default_rng(59)
        for _ in range(25):
            p = random_params(rng, max_agents=8)
            envy = random_envy(rng, p)
            nu = random_nu(rng, p)
            state = egalitarian_steady(p, nu, envy)
            eq = solve_temporary(state.bequests, nu, nu, p, envy)
            np.testing.assert_allclose(
                eq.bequests_next, state.bequests, atol=TOL_SOLVER
            )
            np.testing.assert_allclose(
                eq.consumptions, state.consumptions, atol=TOL_SOLVER
            )

    def test_polarised_values(self):
        state = polarised_steady(BASELINE, 1.0, UNIT_ENVY, rich_count=1)
        k = steady_capital(0.75, 0.25, 1.0, BASELINE)
        assert state.k == pytest.approx(k, rel=1e-13)
        assert state.bequests[0] == pytest.approx(4 * k, rel=1e-13)
        assert np.all(state.bequests[1:] == 0.0)
        assert state.consumptions[1] == pytest.approx(
            (2 / 3) * 0.9 * k ** (1 / 3), rel=1e-12
        )
        # aggregate resource identity pins down the rich dynasty's consumption
        total = 4 * (1 - BASELINE.phi) * k ** BASELINE.alpha
        assert state.consumptions.sum() + 4 * k == pytest.approx(total, abs=TOL_SOLVER)

    @pytest.mark.parametrize("delta", [1e10, 3e18, 1e50, 4.4e307])
    def test_egalitarian_consumption_keeps_its_digits_at_a_large_delta(self, delta):
        # (1 - phi) k**alpha - k cancels as delta grows: seven digits lost at 1e10,
        # and not positive at all from about 3e18
        p = validate_params(alpha=1 / 3, delta=delta, phi=0.1, n_agents=4)
        state = egalitarian_steady(p, 1.0, UNIT_ENVY)
        rate = _exact_savings_rate(state.gamma, 1, 1.0, p)
        want = Fraction(state.k ** p.alpha) * (1 - Fraction(p.phi) - rate)
        assert abs(Fraction(state.consumptions[0].item()) - want) <= Fraction(1e-13) * want

    @pytest.mark.parametrize("delta", [1e10, 1e16])
    def test_polarised_rich_consumption_keeps_its_digits_at_a_large_delta(self, delta):
        # no cancellation: c_rich = k**alpha ((1 - tau_s) alpha (xi/nu + N/J) - (N/J) s).
        # From about 3e18 the window (gamma_star, gamma_hat) closes in floating point.
        p = validate_params(alpha=1 / 3, delta=delta, phi=0.1, n_agents=4)
        middle = (gamma_star(1.0, p) + gamma_hat(1.0, p)) / 2
        state = polarised_steady(p, 1.0, EnvySpec(0.0, middle / 0.75), rich_count=1)
        a, x, nj = Fraction(p.alpha), Fraction(1 - p.alpha) / Fraction(p.alpha), 4
        tau_s = 1 - Fraction(1 - p.phi) / (a + 1 - a)  # tax_rates at nu = 1
        rate = _exact_savings_rate(state.gamma, Fraction(1, 4), 1.0, p)
        want = Fraction(state.k ** p.alpha) * ((1 - tau_s) * a * (x + nj) - nj * rate)
        assert abs(Fraction(state.consumptions[0].item()) - want) <= Fraction(1e-13) * want

    def test_polarised_is_fixed_point_of_solver(self):
        state = polarised_steady(BASELINE, 1.0, UNIT_ENVY, rich_count=1)
        eq = solve_temporary(state.bequests, 1.0, 1.0, BASELINE, UNIT_ENVY)
        np.testing.assert_allclose(eq.bequests_next, state.bequests, atol=TOL_SOLVER)
        np.testing.assert_allclose(eq.consumptions, state.consumptions, atol=TOL_SOLVER)

    def test_unsustainable_split_rejected(self):
        # three rich dynasties leave envy 0.25, below the threshold at nu=0.7
        assert gamma_uniform_top(UNIT_ENVY, 3, 4) == pytest.approx(0.25)
        with pytest.raises(NotSustainable):
            polarised_steady(BASELINE, 0.7, UNIT_ENVY, rich_count=3)

    def test_rich_count_domain(self):
        with pytest.raises(DomainError):
            polarised_steady(BASELINE, 1.0, UNIT_ENVY, rich_count=0)
        with pytest.raises(DomainError):
            polarised_steady(BASELINE, 1.0, UNIT_ENVY, rich_count=4)
        with pytest.raises(DomainError, match=re.escape("rich_count must be an integer, got 1.0")):
            polarised_steady(BASELINE, 1.0, UNIT_ENVY, rich_count=1.0)

    def test_egalitarian_output_dominates_polarised(self):
        rng = np.random.default_rng(61)
        found = 0
        while found < 50:
            p = random_params(rng)
            envy = EnvySpec(base=0.0, scale=random_envy(rng, p).scale)
            nu = random_nu(rng, p)
            rich = int(rng.integers(1, p.n_agents))
            if gamma_uniform_top(envy, rich, p.n_agents) <= gamma_star(nu, p):
                continue
            pol = polarised_steady(p, nu, envy, rich)
            egal = egalitarian_steady(p, nu, envy)
            assert egal.k > pol.k
            found += 1


class TestClassify:
    def test_equal_start_is_egalitarian(self):
        regime = classify([0.1] * 4, 1.0, BASELINE, UNIT_ENVY)
        assert regime.kind == "egalitarian"
        assert regime.limit_k == pytest.approx(0.225**1.5, rel=1e-13)

    def test_concentrated_start_is_polarised(self):
        regime = classify([0.4, 0, 0, 0], 1.0, BASELINE, UNIT_ENVY)
        assert regime.kind == "polarised"
        assert regime.rich_count == 1
        assert regime.limit_k == pytest.approx(
            steady_capital(0.75, 0.25, 1.0, BASELINE), rel=1e-13
        )

    def test_two_rich_start_below_threshold(self):
        regime = classify([0.3, 0.3, 0, 0], 1.0, BASELINE, UNIT_ENVY)
        assert regime.gamma0 == pytest.approx(0.5)
        assert regime.kind == "egalitarian"

    def test_tie_count_uses_exact_equality(self):
        # after Gini(0.3, 0.3, 0.2, 0.2) = 0.125 the regime needs base lift
        envy = EnvySpec(base=0.6, scale=1.0)
        regime = classify([0.3, 0.3, 0.2, 0.2], 1.0, BASELINE, envy)
        assert regime.kind == "polarised"
        assert regime.rich_count == 2

    def test_boundary_within_identity_tolerance(self):
        envy = EnvySpec(base=gamma_star(1.0, BASELINE), scale=0.0)
        regime = classify([0.1] * 4, 1.0, BASELINE, envy)
        assert regime.kind == "boundary"
        assert regime.limit_k is None

    @pytest.mark.parametrize(
        "alpha, phi, start",
        [(0.01, 0.0, [1e-318, 0.0, 0.0, 0.0]), (1 / 3, 0.1, [5e-324, 0.0, 0.0, 0.0])],
    )
    def test_a_start_its_path_cannot_price_names_no_regime(self, alpha, phi, start):
        # the gross return overflows at the tiny mean, or the mean rounds to 0: classify
        # raises what period 0 of the path raises, where it used to promise a limit
        p = validate_params(alpha=alpha, delta=1.0, phi=phi, n_agents=4)
        with pytest.raises(JonesesError) as path_error:
            simulate(start, [1.0] * 2, 1, p, UNIT_ENVY)
        with pytest.raises(type(path_error.value), match=re.escape(str(path_error.value))):
            classify(start, 1.0, p, UNIT_ENVY)

    def test_classification_matches_long_simulation(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            p = random_params(rng, max_agents=6)
            envy = random_envy(rng, p)
            nu = random_nu(rng, p)
            initial = random_initial(rng, p)
            regime = classify(initial, nu, p, envy)
            if regime.kind == "boundary":
                continue
            traj = simulate(initial, constant_schedule(nu, p), 400, p, envy)
            assert abs(traj.final_k - regime.limit_k) < 1e-6

    @given(
        values=gini_vectors(sizes=(2, 3, 4, 64, 20000)),
        base=st.floats(0.0, 1.0),
        scale=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_gamma0_is_the_weight_of_the_start_bit_for_bit(self, values, base, scale):
        envy = EnvySpec(base=base, scale=scale)
        p = dataclasses.replace(BASELINE, n_agents=values.size)
        for x in (values, values.tolist()):
            assert classify(x, 1.0, p, envy).gamma0.hex() == envy.weight(x).hex()


def _drawn_steps_path(rng, length, steps=None):
    """A trajectory of records whose k and vector steps are drawn, not solved.

    A step is zero, NaN, or of a size between 1e-12 and 0.1, and some
    records repeat the one before; ``steps`` fixes the (k, vector) step
    of each record instead.
    """
    base = solve_temporary([0.4, 0.1, 0.0, 0.25], 1.0, 1.0, BASELINE, UNIT_ENVY)

    def drawn():
        return rng.choice([0.0, np.nan, 1.0, 1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -1.0)

    records = []
    for t in range(length):
        if steps is None and t and rng.random() < 0.2:
            records.append(records[-1])
            continue
        dk, dv = steps[t] if steps is not None else (drawn(), drawn())
        bequests = rng.random(4)
        bequests_next = bequests.copy()
        bequests_next[rng.integers(4)] -= dv
        k = rng.uniform(0.05, 0.2)
        records.append(dataclasses.replace(
            base, k=k, k_next=k + dk, bequests=bequests, bequests_next=bequests_next
        ))
    return Trajectory(records=tuple(records))


def _assert_report_equals_oracle(traj, tol):
    got, want = detect_convergence(traj, tol), convergence_oracle(traj, tol)
    if want is None:
        assert got is None
        return
    assert (got.period, got.reentered) == (want.period, want.reentered)
    assert repr(got.k) == repr(want.k)
    assert got.bequests.tobytes() == want.bequests.tobytes()


class TestDetectConvergence:
    def test_steady_trajectory_converges_at_period_one(self):
        state = egalitarian_steady(BASELINE, 1.0, UNIT_ENVY)
        traj = simulate(
            state.bequests, constant_schedule(1.0, BASELINE), 5, BASELINE, UNIT_ENVY
        )
        report = detect_convergence(traj, 1e-10)
        assert report is not None
        assert report.period == 1
        assert not report.reentered

    def test_equal_start_converges_before_horizon(self):
        traj = simulate(
            [0.1] * 4, constant_schedule(1.0, BASELINE), 200, BASELINE, UNIT_ENVY
        )
        report = detect_convergence(traj, 1e-8)
        assert report is not None
        assert report.period < 200
        assert not report.reentered
        assert report.k == traj.final_k

    def test_none_when_still_moving(self):
        traj = simulate(
            [0.1] * 4, constant_schedule(1.0, BASELINE), 3, BASELINE, UNIT_ENVY
        )
        assert detect_convergence(traj, 1e-14) is None

    @given(seed=st.integers(0, 2**32 - 1), length=st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_report_equals_the_formula_on_random_paths(self, seed, length):
        rng = np.random.default_rng(seed)
        traj = _drawn_steps_path(rng, length)
        for tol in (1e-9, 1e-6, 1e-3):
            _assert_report_equals_oracle(traj, tol)

    def test_a_reentering_path_reports_as_the_formula(self):
        # step sizes by period: below tol, above it in k alone, below, above it in the
        # vector alone, NaN in k, NaN in the vector with k above, then below
        steps = [(0.0, 1e-9), (1e-3, 0.0), (1e-9, 0.0), (0.0, 1e-3), (np.nan, 0.0),
                 (1e-3, np.nan), (1e-9, 1e-9), (1e-9, 1e-9)]
        traj = _drawn_steps_path(np.random.default_rng(5), len(steps), steps)
        report = detect_convergence(traj, 1e-6)
        assert (report.period, report.reentered) == (7, True)
        _assert_report_equals_oracle(traj, 1e-6)

    def test_an_empty_trajectory_is_rejected(self):
        with pytest.raises(DomainError, match="trajectory is empty"):
            detect_convergence(Trajectory(()), 1e-8)

    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0, -1.0])
    def test_tol_must_be_finite_and_positive(self, tol):
        # an infinite tol would report this still-moving path as settled
        traj = simulate([0.1] * 4, constant_schedule(1.0, BASELINE), 3, BASELINE, UNIT_ENVY)
        with pytest.raises(DomainError, match="tol"):
            detect_convergence(traj, tol)
