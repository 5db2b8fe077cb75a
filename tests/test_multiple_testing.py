import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drpi.errors import DataError
from drpi.multiple_testing import bh_qvalues, mirror_rate, select


def stepup_oracle(p, alpha):
    """Classic BH step-up: largest k with p_(k)*m/k <= alpha, reject the k
    smallest.  Written without q-values as an independent route.  The
    comparison is stated in the p*m/k form so that exact-boundary cases
    round the same way under floating point as the q-value route."""
    m = len(p)
    order = np.argsort(p, kind="stable")
    k_star = 0
    for k in range(1, m + 1):
        if p[order[k - 1]] * m / k <= alpha:
            k_star = k
    rejected = np.zeros(m, dtype=bool)
    rejected[order[:k_star]] = True
    return rejected


def test_bh_hand_example():
    p = np.array([0.01, 0.02, 0.9])
    q = bh_qvalues(p)
    np.testing.assert_allclose(q, [0.03, 0.03, 0.9])


@pytest.mark.parametrize("p,message", [
    (np.full((2, 3), 0.5), "p_values must be one-dimensional"),
    ([0.1, -0.01], r"p-values must lie in \[0, 1\]"),
    ([0.1, 1.5], r"p-values must lie in \[0, 1\]"),
    ([0.1, np.nan], r"p-values must lie in \[0, 1\]"),
])
def test_bh_refuses_a_matrix_or_p_outside_the_unit_interval(p, message):
    with pytest.raises(DataError, match=message):
        bh_qvalues(p)


def test_bh_single_p():
    np.testing.assert_allclose(bh_qvalues(np.array([0.2])), [0.2])


def test_bh_all_equal():
    p = np.full(5, 0.04)
    np.testing.assert_allclose(bh_qvalues(p), 0.04)


def test_bh_cap_at_one():
    q = bh_qvalues(np.array([0.5, 0.9, 0.99]))
    assert (q <= 1.0).all()


def as_mask(indices, m):
    mask = np.zeros(m, dtype=bool)
    mask[indices] = True
    return mask


def test_selection_inclusive_boundary():
    q = np.array([0.05, 0.051])
    sel = select(q, 0.05)
    assert sel.tolist() == [0]


def test_bh_equals_stepup_rule_small_fuzz():
    rng = np.random.default_rng(0)
    for _ in range(500):
        m = rng.integers(1, 50)
        p = rng.random(m)
        if rng.random() < 0.3:
            p[: m // 2] **= 4  # inject small p-values
        alpha = rng.choice([0.01, 0.05, 0.1, 0.2])
        sel = as_mask(select(bh_qvalues(p), alpha), m)
        np.testing.assert_array_equal(sel, stepup_oracle(p, alpha))


def test_mirror_rate_basic():
    betas = np.array([1.0, -2.0, 3.0, -4.0, 5.0])
    selected = np.array([True, True, True, False, False])
    assert mirror_rate(betas, selected) == pytest.approx(0.5)


def test_mirror_rate_none_when_no_positive_selected():
    betas = np.array([-1.0, -2.0])
    selected = np.array([True, True])
    assert mirror_rate(betas, selected) is None
    assert mirror_rate(betas, np.array([False, False])) is None


def test_bh_selection_and_mirror_rate_follow_input_order():
    """The analyze flow: q-values in input order, the selected indices into
    it, and the mirror rate of the selected coefficients."""
    p = np.array([0.01, 0.02, 0.9])
    q = bh_qvalues(p)
    assert q.tolist() == pytest.approx([0.03, 0.03, 0.9])
    sel = select(q, 0.05)
    assert sel.tolist() == [0, 1]
    assert mirror_rate(np.array([1.0, -1.0, 0.1]), sel) == pytest.approx(1.0)


def test_bh_selection_and_mirror_rate_empty():
    q = bh_qvalues(np.array([]))
    sel = select(q, 0.05)
    assert sel.size == 0
    assert mirror_rate(np.array([]), sel) is None


# --------------------------------------------------------- properties


pvec = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=40
).map(np.array)


@given(pvec)
@settings(max_examples=200, deadline=None)
def test_qvalues_bounded_and_dominate_p(p):
    q = bh_qvalues(p)
    assert (q >= p - 1e-15).all()
    assert (q <= 1.0 + 1e-15).all()


@given(pvec)
@settings(max_examples=200, deadline=None)
def test_qvalues_monotone_in_p(p):
    """Sorting p sorts q the same way (q is isotonic in p)."""
    q = bh_qvalues(p)
    order = np.argsort(p, kind="stable")
    assert (np.diff(q[order]) >= -1e-15).all()


@given(pvec, st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_qvalues_permutation_equivariant(p, seed):
    perm = np.random.default_rng(seed).permutation(len(p))
    q = bh_qvalues(p)
    q_perm = bh_qvalues(p[perm])
    np.testing.assert_allclose(q_perm, q[perm], atol=1e-15)


@given(pvec, st.sampled_from([0.01, 0.05, 0.1, 0.25]))
@settings(max_examples=200, deadline=None)
def test_bh_matches_stepup_property(p, alpha):
    sel = as_mask(select(bh_qvalues(p), alpha), len(p))
    np.testing.assert_array_equal(sel, stepup_oracle(p, alpha))
