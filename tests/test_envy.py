"""Inequality machinery: Gini, dominance order, envy functionals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from joneses import (
    EnvySpec,
    as_distribution,
    classify,
    gamma_hat,
    gamma_uniform_top,
    gini,
    validate_envy,
)
from joneses.envy import _gini_weights
from support import BASELINE, dominates, gini_oracle, gini_pairwise, gini_vectors

# Integer-valued distributions keep share arithmetic exact, which lets the
# dominance and symmetry properties assert equalities without tolerance.
int_dists = st.lists(st.integers(0, 10**6), min_size=2, max_size=12).filter(
    lambda v: sum(v) > 0
)


class TestGini:
    def test_perfect_equality(self):
        assert gini([1, 1, 1, 1]) == 0.0

    def test_single_holder(self):
        assert gini([0, 0, 0, 1]) == 0.75

    def test_half_split(self):
        assert gini([0, 0, 1, 1]) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(2, 17))
            values = rng.lognormal(0.0, 1.5, size=n)
            values[rng.random(n) < 0.3] = 0.0
            if values.sum() <= 0:
                continue
            assert gini(values) == pytest.approx(gini_pairwise(values), abs=1e-13)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_bounds_attained_exactly(self, n):
        top = np.zeros(n)
        top[0] = 0.7331
        assert gini(top) == (n - 1) / n
        assert gini(np.full(n, 0.7331)) == 0.0

    def test_range_never_exceeded(self):
        rng = np.random.default_rng(37)
        for _ in range(2000):
            n = int(rng.integers(2, 17))
            values = rng.lognormal(0.0, 1.5, size=n)
            values[rng.random(n) < 0.4] = 0.0
            if values.sum() <= 0:
                continue
            g = gini(values)
            assert 0.0 <= g <= (n - 1) / n

    def test_zero_total_rejected(self):
        from joneses.errors import DomainError

        with pytest.raises(DomainError):
            gini([0.0, 0.0])

    def test_negative_entries_rejected(self):
        from joneses.errors import DomainError

        with pytest.raises(DomainError):
            gini([1.0, -0.1])


    def test_sorted_input_matches_unsorted_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for n in (2, 5, 64, 1000):
            values = rng.lognormal(size=n)
            values[rng.random(n) < 0.3] = 0.0
            values[0] = 1.0
            asc = np.sort(values)
            reversed_view = asc[::-1].copy()[::-1]  # ascending, negative stride
            assert gini(asc) == gini(values)
            assert gini(reversed_view) == gini(values)


@pytest.mark.filterwarnings("error")
def test_a_start_near_the_float_maximum_is_weighed_like_its_shape():
    # n * total overflows, so the row is weighed divided by its largest entry;
    # an ordinary row in the same block keeps the bytes it gets alone
    huge, small = [1e308, 5e307, 0.0, 0.0], [1.0, 0.5, 0.0, 0.0]
    assert np.isfinite(gini(huge))
    assert gini(huge) == pytest.approx(gini(small), rel=1e-15, abs=0.0)
    regime, want = (classify(x, 1.0, BASELINE, EnvySpec()) for x in (huge, small))
    assert np.isfinite(regime.gamma0)
    assert regime.gamma0 == pytest.approx(want.gamma0, rel=1e-15, abs=0.0)
    assert regime.kind == want.kind == "egalitarian"
    # a gini_target start at the float maximum: only its ascending total overflows
    edge = np.full(4, 0.5 * np.finfo(float).max / 3)
    edge[0] = 0.5 * np.finfo(float).max
    assert gini(edge) == pytest.approx(0.25, rel=1e-15, abs=0.0)
    with np.errstate(over="ignore"):  # the oracle sums the ascending row unguarded
        assert gini(huge) == gini_oracle(huge) and gini(edge) == gini_oracle(edge)
    ordinary = np.sort(np.random.default_rng(7).lognormal(size=4))
    g, _ = _gini_weights(np.stack([np.sort(huge), ordinary]), 0.0, 1.0)
    assert g[1] == gini(ordinary) and g[0] == gini(huge)


@given(
    values=gini_vectors(sizes=(1, 2, 3, 4, 64, 20000)),
    base=st.floats(0.0, 2.0),
    scale=st.floats(0.0, 5.0),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_gini_and_weight_equal_the_scalar_oracle_bit_for_bit(values, base, scale, data):
    spec = EnvySpec(base=base, scale=scale)
    for x in (values, np.sort(values)):
        g = gini_oracle(x)
        assert gini(x).hex() == g.hex()
        assert spec.weight(x).hex() == (base + scale * g).hex()
    # a stacked block, as the period kernel weighs it: each row with its own (base, scale)
    block = [(np.sort(values), base, scale)]
    for _ in range(data.draw(st.integers(1, 4))):
        row = np.sort(data.draw(gini_vectors(sizes=(values.size,))))
        block.append((row, data.draw(st.floats(0.0, 2.0)), data.draw(st.floats(0.0, 5.0))))
    rows, bases, scales = zip(*block)
    g, weights = _gini_weights(np.stack(rows), np.array(bases), np.array(scales))
    for i, (row, b, s) in enumerate(block):
        want = gini_oracle(row)
        assert float(g[i]).hex() == want.hex()
        assert float(weights[i]).hex() == (b + s * want).hex()


def _oracle_block(rng, n, rows):
    """``rows`` ascending rows of length n: lognormal, ties, zeros, single holders and,
    where n > 1, one whose ``n * total`` overflows."""
    block = []
    for i in range(rows):
        values = rng.lognormal(sigma=rng.uniform(0.0, 3.0), size=n)
        kind = i % 5
        if kind == 1:
            values = values[rng.integers(0, min(3, n), size=n)]
        elif kind == 2:
            values[rng.random(n) < 0.6] = 0.0
            values[rng.integers(0, n)] = 1.5
        elif kind == 3:
            values = np.zeros(n)
            values[-1] = rng.uniform(1e-300, 1e300)
        elif kind == 4:
            values *= 10.0 ** rng.integers(-300, 290)
        block.append(np.sort(values))
    if n > 1:
        huge = np.sort(rng.lognormal(size=n))
        block[-1] = huge * (1.5 / n * (np.finfo(float).max / huge.sum()))
    return np.stack(block)


@pytest.mark.parametrize("n, rows", [*((n, 256) for n in (1, 2, 3, 4, 5, 8, 17, 64)), (16384, 3)])
def test_large_blocks_equal_the_scalar_oracle_row_by_row(n, rows):
    # sweep blocks hold hundreds of rows; each must round as the 1-D oracle's own dot
    rng = np.random.default_rng(n)
    block = _oracle_block(rng, n, rows)
    bases, scales = rng.uniform(0.0, 2.0, rows), rng.uniform(0.0, 5.0, rows)
    assert n == 1 or block[-1].sum() > np.finfo(float).max / n
    g, weights = _gini_weights(block, bases, scales)
    for row, b, s, got, weight in zip(block, bases, scales, g, weights):
        want = gini_oracle(row)
        assert float(got).hex() == want.hex()
        assert float(weight).hex() == (b + s * want).hex()


@pytest.mark.parametrize("n", [3, 5, 17])
def test_a_row_weighs_the_same_at_any_offset_in_a_block(n):
    # the rows of an odd-N block alternate between 16-byte aligned and not; a BLAS core
    # may round a dot on an unaligned view differently, and no weight may depend on it
    rng = np.random.default_rng(n)
    block = np.sort(rng.lognormal(size=(32, n)), axis=1)
    assert len({row.ctypes.data % 16 for row in block}) == 2
    g, weights = _gini_weights(block, 0.5, 2.0)
    for i, row in enumerate(block):
        fresh = row.copy()
        assert gini(row).hex() == gini(fresh).hex() == float(g[i]).hex()
        alone = _gini_weights(block[i : i + 1], 0.5, 2.0)
        assert alone == _gini_weights(fresh[None], 0.5, 2.0)
        assert alone[1].hex() == float(weights[i]).hex()


@given(
    base=st.floats(0.0, 2.0),
    scale=st.floats(0.0, 5.0),
    n_agents=st.sampled_from([1, 2, 3, 4, 7, 64, 1000]),
)
@settings(max_examples=60, deadline=None)
def test_gamma_uniform_top_is_the_weight_of_the_canonical_vector(base, scale, n_agents):
    spec = EnvySpec(base=base, scale=scale)
    for n in range(1, n_agents + 1):
        canonical = np.zeros(n_agents)
        canonical[n_agents - n :] = 1.0 / n
        assert gamma_uniform_top(spec, n, n_agents).hex() == spec.weight(canonical).hex()


class TestDistributionValidation:
    def test_length_checked(self):
        from joneses.errors import LengthMismatch

        with pytest.raises(LengthMismatch):
            as_distribution([1.0, 2.0], n_agents=3)

    def test_a_nested_sequence_is_rejected(self):
        from joneses.errors import DomainError

        with pytest.raises(DomainError, match="nonempty 1-D sequence"):
            as_distribution([[1.0, 2.0]])

    def test_non_finite_rejected(self):
        from joneses.errors import DomainError

        # finite entries whose total overflows are rejected too
        for values in ([1.0, float("nan")], [1e308, 1e308, 0.0, 0.0]):
            for fn in (as_distribution, gini, EnvySpec().weight):
                with pytest.raises(DomainError):
                    fn(values)


@given(values=int_dists, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_gamma_permutation_invariant(values, seed):
    spec = EnvySpec(base=0.1, scale=1.3)
    arr = np.array(values, dtype=float)
    permuted = np.random.default_rng(seed).permutation(arr)
    assert spec.weight(permuted) == spec.weight(arr)


@given(values=int_dists, exponent=st.integers(-20, 20))
@settings(max_examples=200, deadline=None)
def test_gamma_scale_free_exact_for_dyadic_factors(values, exponent):
    spec = EnvySpec(base=0.0, scale=1.0)
    arr = np.array(values, dtype=float)
    assert spec.weight(arr * 2.0**exponent) == spec.weight(arr)


@given(values=int_dists)
@settings(max_examples=200, deadline=None)
def test_gamma_scale_free_for_decimal_factors(values):
    # 1e6 * integer stays exactly representable, so equality is exact there;
    # 1e-6 introduces one rounding per entry, hence the 1e-14 allowance.
    spec = EnvySpec(base=0.0, scale=1.0)
    arr = np.array(values, dtype=float)
    reference = spec.weight(arr)
    assert spec.weight(arr * 1e6) == reference
    assert spec.weight(arr * 1e-6) == pytest.approx(reference, abs=1e-14)


@st.composite
def regressive_transfer_pairs(draw):
    """A distribution and a strictly more unequal one (wealth moved upward)."""
    base = draw(
        st.lists(st.integers(0, 10**4), min_size=3, max_size=10).filter(
            lambda v: sum(x > 0 for x in v) >= 2
        )
    )
    arr = np.array(sorted(base), dtype=float)
    positive = np.nonzero(arr > 0)[0]
    src = int(positive[draw(st.integers(0, len(positive) - 2))])
    dst = draw(st.integers(src + 1, len(arr) - 1))
    amount = draw(st.integers(1, int(arr[src])))
    worse = arr.copy()
    worse[src] -= amount
    worse[dst] += amount
    return worse, arr


@given(pair=regressive_transfer_pairs())
@settings(max_examples=200, deadline=None)
def test_dominance_and_strict_monotonicity(pair):
    worse, better = pair
    assert dominates(worse, better)
    spec = EnvySpec(base=0.05, scale=0.8)
    assert spec.weight(worse) > spec.weight(better)


class TestDominates:
    def test_concentrated_dominates_equal(self):
        assert dominates([0, 0, 0, 1], [0.25, 0.25, 0.25, 0.25])

    def test_irreflexive(self):
        assert not dominates([0.25, 0.25, 0.25, 0.25], [0.25, 0.25, 0.25, 0.25])

    def test_half_split_does_not_dominate_single_holder(self):
        assert not dominates([0, 0, 1, 1], [0, 0, 0, 1])
        assert dominates([0, 0, 0, 1], [0, 0, 1, 1])

    def test_scale_irrelevant(self):
        assert dominates([0, 0, 0, 5], [300, 300, 300, 300])

    def test_length_mismatch(self):
        from joneses.errors import LengthMismatch

        with pytest.raises(LengthMismatch):
            dominates([1, 2], [1, 2, 3])

    def test_irreflexive_and_transitive_on_chains(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(3, 9))
            c = rng.integers(1, 100, size=n).astype(float)
            b = c.copy()
            b.sort()
            src = int(np.nonzero(b > 0)[0][0])
            b[src] -= 1
            b[-1] += 1
            a = b.copy()
            a.sort()
            src = int(np.nonzero(a > 0)[0][0])
            a[src] -= 1
            a[-1] += 1
            assert dominates(a, b) and dominates(b, c)
            assert dominates(a, c)
            for d in (a, b, c):
                assert not dominates(d, d)


class TestGammaUniformTop:
    def test_equal_split_leaves_base(self):
        spec = EnvySpec(base=0.0, scale=1.0)
        assert gamma_uniform_top(spec, 4, 4) == 0.0

    def test_single_holder(self):
        spec = EnvySpec(base=0.0, scale=1.0)
        assert gamma_uniform_top(spec, 1, 4) == 0.75

    def test_closed_form(self):
        spec = EnvySpec(base=0.2, scale=1.7)
        for n_agents in (2, 5, 9):
            for n in range(1, n_agents + 1):
                expected = (
                    spec.base + spec.scale * (n_agents - n) / n_agents
                )
                assert gamma_uniform_top(spec, n, n_agents) == pytest.approx(
                    expected, abs=1e-14
                )

    def test_strictly_decreasing_in_rich_count(self):
        spec = EnvySpec(base=0.1, scale=0.9)
        weights = [gamma_uniform_top(spec, n, 8) for n in range(1, 9)]
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_out_of_range_rejected(self):
        from joneses.errors import DomainError

        spec = EnvySpec()
        with pytest.raises(DomainError):
            gamma_uniform_top(spec, 0, 4)
        with pytest.raises(DomainError):
            gamma_uniform_top(spec, 5, 4)
        with pytest.raises(DomainError, match=r"rich count must be an integer, got 1\.0"):
            gamma_uniform_top(spec, 1.0, 4)


class TestGammaOf:
    def test_base_only_on_equal_distribution(self):
        assert EnvySpec(0.1, 1.0).weight([1, 1, 1, 1]) == pytest.approx(0.1)

    def test_single_holder(self):
        assert EnvySpec(0.0, 1.0).weight([0.4, 0, 0, 0]) == 0.75

    def test_zero_homogeneous(self):
        spec = EnvySpec(0.0, 1.0)
        assert spec.weight(np.array([0.4, 0, 0, 0]) * 1000) == 0.75


class TestEnvySpecValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -0.1])
    @pytest.mark.parametrize("field", ["base", "scale"])
    def test_non_finite_or_negative_rejected(self, field, bad):
        from joneses.errors import DomainError

        with pytest.raises(DomainError):
            EnvySpec(**{field: bad})


@given(base=st.floats(0.0, 2.0), scale=st.floats(0.0, 5.0), n=st.integers(1, 64))
@settings(max_examples=300, deadline=None)
def test_max_weight_is_the_weight_of_a_single_holder(base, scale, n):
    spec = EnvySpec(base=base, scale=scale)
    assert spec.max_weight(n) == gamma_uniform_top(spec, 1, n)


class TestValidateEnvy:
    def test_accepts_modest_functional(self):
        spec = validate_envy(EnvySpec(0.1, 1.0), BASELINE)
        assert spec.max_weight(4) == pytest.approx(0.85)

    def test_rejects_excessive_scale_with_margin(self):
        from joneses.errors import ExistenceBoundViolated

        with pytest.raises(ExistenceBoundViolated) as exc:
            validate_envy(EnvySpec(0.0, 3.2), BASELINE)
        ceiling = gamma_hat(BASELINE.nu_upper, BASELINE)
        assert exc.value.margin == pytest.approx(2.4 - ceiling, rel=1e-12)

    def test_no_positional_concern_always_valid(self):
        validate_envy(EnvySpec(0.0, 0.0), BASELINE)

    def test_negative_parameters_rejected(self):
        from joneses.errors import DomainError

        with pytest.raises(DomainError):
            EnvySpec(base=-0.1)
        with pytest.raises(DomainError):
            EnvySpec(scale=-1.0)
