import pytest
from hypothesis import given, settings, strategies as st

from mvreins.frontier import Solution, dual_value, efficient_frontier, gamma_star


# Exponents k+/-, a vertex of either sign and a target mean above it.
SOLUTIONS = st.builds(
    lambda k_plus, k_minus, vertex, spread: Solution(
        kappa_plus=k_plus, kappa_minus=k_minus,
        gamma_star=gamma_star(vertex, vertex + spread, k_minus),
        d=vertex + spread, d0=vertex, vertex=vertex, approximation_mode="exact"),
    k_plus=st.floats(0.0, 50.0), k_minus=st.floats(1e-9, 700.0),
    vertex=st.floats(-1e6, 1e6), spread=st.floats(1e-3, 1e6))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(sol=SOLUTIONS)
def test_dual_peaks_at_gamma_star_with_the_frontier_variance(sol):
    # gamma* maximizes the dual, and the maximum is the frontier's variance at
    # d (strong duality), for any exponents and a vertex of either sign.
    peak = dual_value(sol, sol.gamma_star)
    delta = 1e-3 * max(1.0, abs(sol.gamma_star))
    assert peak >= dual_value(sol, sol.gamma_star - delta)
    assert peak >= dual_value(sol, sol.gamma_star + delta)
    variance = efficient_frontier(sol, [sol.d]).variance[0]
    assert peak == pytest.approx(variance, rel=1e-12)
