import dataclasses

import numpy as np
import pytest

import mvreins as mv
from mvreins.montecarlo import (_BLOCK, InsufficientDataError, SimConfig,
                                SimulationError, constant_strategy, estimate,
                                simulate_innovation, simulate_physical,
                                zero_strategy)

from mvreins.filtering import filter_coefficients
from mvreins.odekernel import RngStream

from conftest import make_model


def with_d(model, d):
    return dataclasses.replace(
        model, objective=dataclasses.replace(model.objective, d=d))


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def test_estimate_two_point():
    est = estimate(np.array([0.0, 2.0]))
    assert est.mean == 1.0
    assert est.variance == 2.0


def test_estimate_constant_ensemble():
    est = estimate(np.full(50, 3.25))
    assert est == mv.EstimateResult(3.25, 0.0, 0.0, 0.0)


def test_estimate_needs_two_paths():
    with pytest.raises(InsufficientDataError):
        estimate(np.array([1.0]))


def test_estimate_standard_errors_gaussian():
    rng = np.random.default_rng(0)
    x = rng.normal(5.0, 2.0, size=200_000)
    est = estimate(x)
    assert abs(est.mean - 5.0) <= 4 * est.se_mean
    assert abs(est.variance - 4.0) <= 4 * est.se_variance
    # for a Gaussian, se(s^2) ~ sqrt(2/n) sigma^2
    assert est.se_variance == pytest.approx(np.sqrt(2 / 200_000) * 4.0, rel=0.05)


# ---------------------------------------------------------------------------
# deterministic limits
# ---------------------------------------------------------------------------

def test_zero_strategy_hits_riskless_wealth(scaled_noncheap_model):
    cfg = SimConfig(n_paths=8, dt=0.001, seed=1)
    ens = simulate_physical(scaled_noncheap_model, zero_strategy, cfg)
    d_min = mv.riskless_terminal_wealth(scaled_noncheap_model)
    assert ens.terminal_wealth.max() == ens.terminal_wealth.min()  # zero variance
    # Euler integrates the riskless ODE to O(dt)
    assert ens.terminal_wealth[0] == pytest.approx(d_min, rel=1e-5)
    assert np.all(ens.int_q2 == 0.0) and np.all(ens.int_pi2 == 0.0)


def test_zero_strategy_innovation_riskless(partial_exact_model):
    model = with_d(dataclasses.replace(
        partial_exact_model,
        objective=dataclasses.replace(partial_exact_model.objective, T=5.0)),
        d=70.0)
    cfg = SimConfig(n_paths=8, dt=0.001, seed=1)
    ens = simulate_innovation(model, zero_strategy, cfg)
    assert ens.terminal_wealth.max() == ens.terminal_wealth.min()
    assert ens.terminal_wealth[0] == pytest.approx(50.0 * np.exp(0.2), rel=1e-5)


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------

def test_bitwise_reproducible_across_runs_and_workers(scaled_noncheap_model):
    sol = mv.compute_solution(scaled_noncheap_model)
    strategy = mv.full_feedback_strategy(sol, scaled_noncheap_model)
    cfg = SimConfig(n_paths=40_000, dt=0.01, seed=99)
    a = simulate_physical(scaled_noncheap_model, strategy, cfg, workers=1)
    b = simulate_physical(scaled_noncheap_model, strategy, cfg, workers=1)
    c = simulate_physical(scaled_noncheap_model, strategy, cfg, workers=4)
    assert np.array_equal(a.terminal_wealth, b.terminal_wealth)
    assert np.array_equal(a.terminal_wealth, c.terminal_wealth)
    ea, ec = estimate(a), estimate(c)
    assert (ea.mean, ea.variance) == (ec.mean, ec.variance)


@pytest.mark.parametrize("simulate, mode", [
    (simulate_physical, "physical"), (simulate_innovation, "innovation")])
def test_live_filter_reproducible_across_workers(simulate, mode):
    """Uncertain drift (l, z, n0 > 0, h != 0): the filter and, under the
    physical dynamics, the hidden drift with its third driver are updated."""
    model = make_model(theta=0.2, eta=0.2, sigma=0.5, h=-0.3, l=0.3, z=0.2,
                       m0=0.06, n0=0.05, T=1.0, d=55.0, info_mode="partial")
    strategy = mv.partial_feedback_strategy(mv.solve_partial(model), model)
    cfg = SimConfig(n_paths=_BLOCK + 1000, dt=0.1, seed=21)
    a = simulate(model, strategy, cfg, workers=1)
    b = simulate(model, strategy, cfg, workers=2)
    assert np.array_equal(a.terminal_wealth, b.terminal_wealth)
    assert np.array_equal(a.terminal_price, b.terminal_price)
    if mode == "physical":
        assert np.array_equal(a.terminal_drift_error, b.terminal_drift_error)
        assert np.all(a.terminal_drift_error != 0.0)
    else:
        assert a.terminal_drift_error is None and b.terminal_drift_error is None


def _setup(model, cfg):
    """Step count, dt, filter coefficients, r on the grid and whether the
    drift is known with h = 0, as the engine derives them."""
    dr, ob = model.drift, model.objective
    n_steps, dt = cfg.resolve_steps(ob.T)
    n_curve = mv.solve_variance(dr, model.market.sigma, ob.T,
                                steps=max(n_steps, 1000))
    coef = filter_coefficients(dr, model.market.sigma, n_curve, n_steps, dt)
    dead = dr.is_degenerate() and not coef.h.any()
    return n_steps, dt, coef, model.market.r(coef.t), dead


def plain_euler(model, strategy, cfg, physical):
    """The engine's Euler step as plain expressions, every update applied:
    the reference for its in-place form (one block of paths).  Constant
    factors come from per-step tables, the normals are used unscaled, and the
    sums of q^2 and pi^2 and the price's deterministic log drift are applied
    once at the end.  Under a known drift with h = 0 the wealth noise is one
    normal per path-step, there is no price and the strategy sees the float
    m0."""
    assert cfg.n_paths <= _BLOCK
    c, dr, ob = model.claim, model.drift, model.objective
    n_steps, dt, coef, r, dead = _setup(model, cfg)
    sdt, sig = np.sqrt(dt), coef.sigma
    growth = 1.0 + r * dt
    sig_sdt, sig2_dt, dt_sig = sig * sdt, sig * sig * dt, dt / sig
    l_sdt, z_sdt = coef.l * sdt, coef.z * sdt
    surplus_dt = (c.a * c.theta - c.a * c.eta) * dt
    a_eta_dt, b_sdt, b2_dt = c.a * c.eta * dt, c.b * sdt, c.b * c.b * dt
    rng = RngStream(cfg.seed).substream(0).generator()
    n = cfg.n_paths
    X, mu, m, log_s = (np.full(n, ob.x0), np.full(n, dr.m0), np.full(n, dr.m0),
                       np.zeros(n))
    int_q2, int_pi2 = np.zeros(n), np.zeros(n)
    if physical and dr.n0 > 0:
        mu = mu + np.sqrt(dr.n0) * rng.standard_normal(n)
    drift_noise = physical and not dr.is_degenerate()
    for k in range(n_steps):
        q, pi = strategy(k * dt, X, dr.m0 if dead else m)
        int_q2 = int_q2 + q * q
        int_pi2 = int_pi2 + pi * pi
        if dead:
            noise = (np.sqrt(q * q * b2_dt + pi * pi * sig2_dt[k])
                     * rng.standard_normal(n))
            X = (X * growth[k] + surplus_dt
                 + (q * a_eta_dt + pi * ((dr.m0 - r[k]) * dt) + noise))
            continue
        Z = rng.standard_normal((3 if drift_noise else 2, n))
        drift = mu if physical else m
        log_step = (drift - r[k]) * dt + Z[1] * sig_sdt[k]
        log_s = log_s + log_step
        X = (X * growth[k] + surplus_dt
             + ((Z[0] * b_sdt + a_eta_dt) * q + log_step * pi))
        if physical:
            innov = (mu - m) * dt_sig[k] + Z[1] * sdt
            m = m * coef.growth[k] + innov * coef.vol[k]
            mu = mu * coef.growth[k]
            if drift_noise:
                mu = mu + Z[1] * l_sdt[k] + Z[2] * z_sdt[k]
        else:
            m = m * coef.growth[k] + (Z[1] * sdt) * coef.vol[k]
    log_shift = float(np.sum((r - 0.5 * sig * sig) * dt))
    price = None if dead else np.exp(log_s + log_shift)
    return (X, price, mu - m if physical else None, int_q2 * dt,
            int_pi2 * dt)


def observed_return_euler(model, strategy, cfg, physical):
    """The same Euler scheme in its textbook form: increments sqrt(dt) Z,
    every term times dt where it arises, the filter driven by the innovation
    (obs - m dt)/sigma of the observed return obs = mu dt + sigma dW1, and
    the means stepped as m + h m dt.  Equal to :func:`plain_euler` up to
    rounding."""
    assert cfg.n_paths <= _BLOCK
    c, dr, ob = model.claim, model.drift, model.objective
    n_steps, dt, coef, r, dead = _setup(model, cfg)
    sdt = np.sqrt(dt)
    rng = RngStream(cfg.seed).substream(0).generator()
    n = cfg.n_paths
    X, mu, m, log_s = (np.full(n, ob.x0), np.full(n, dr.m0), np.full(n, dr.m0),
                       np.zeros(n))
    int_q2, int_pi2 = np.zeros(n), np.zeros(n)
    if physical and dr.n0 > 0:
        mu = mu + np.sqrt(dr.n0) * rng.standard_normal(n)
    drift_noise = physical and not dr.is_degenerate()
    for k in range(n_steps):
        r_k, sig_k, h_k = r[k], coef.sigma[k], coef.h[k]
        q, pi = strategy(k * dt, X, dr.m0 if dead else m)
        q2_dt, pi2_dt = q * q * dt, pi * pi * dt
        int_q2 = int_q2 + q2_dt
        int_pi2 = int_pi2 + pi2_dt
        drift = mu if physical else m
        incr = (c.a * c.theta - c.a * c.eta + c.a * c.eta * q + r_k * X
                + (drift - r_k) * pi) * dt
        if dead:
            vol = np.sqrt(c.b * c.b * q2_dt + sig_k * sig_k * pi2_dt)
            X = X + incr + vol * rng.standard_normal(n)
            continue
        Z = rng.standard_normal((3 if drift_noise else 2, n))
        dW0, dW1 = sdt * Z[0], sdt * Z[1]
        X = X + incr + c.b * q * dW0 + pi * sig_k * dW1
        log_s = log_s + (drift - 0.5 * sig_k * sig_k) * dt + sig_k * dW1
        if physical:
            obs = mu * dt + sig_k * dW1
            m = m + h_k * m * dt + coef.vol[k] * ((obs - m * dt) / sig_k)
            mu = mu + h_k * mu * dt
            if drift_noise:
                mu = mu + coef.l[k] * dW1 + coef.z[k] * (sdt * Z[2])
        else:
            m = m + h_k * m * dt + coef.vol[k] * dW1
    price = None if dead else np.exp(log_s)
    return X, price, mu - m if physical else None, int_q2, int_pi2


HIDDEN = dict(h=-0.3, l=0.3, z=0.2, n0=0.05)
# r and sigma jump inside T = 1, so the per-step tables change mid-run, and
# theta > eta adds the premium surplus a(theta - eta) dt to every step
PIECEWISE = dict(HIDDEN, r=[(0.0, 0.04), (0.5, 0.05)],
                 sigma=[(0.0, 0.5), (0.7, 0.6)], theta=0.3)
ENGINE_CASES = pytest.mark.parametrize("params, mode", [
    (dict(), "physical"), (dict(), "innovation"),
    (HIDDEN, "physical"), (HIDDEN, "innovation"),
    (PIECEWISE, "physical"), (PIECEWISE, "innovation")],
    ids=["known-physical", "known-innovation", "hidden-physical",
         "hidden-innovation", "piecewise-physical", "piecewise-innovation"])


def _engine_and_reference(params, mode, reference):
    model = make_model(**{**dict(theta=0.2, eta=0.2, sigma=0.5, m0=0.06, T=1.0,
                                 d=55.0, info_mode="partial"), **params})
    strategy = mv.partial_feedback_strategy(mv.solve_partial(model), model)
    cfg = SimConfig(n_paths=300, dt=0.01, seed=17)
    simulate = simulate_physical if mode == "physical" else simulate_innovation
    ens = simulate(model, strategy, cfg)
    assert ens.n_flagged == 0
    got = (ens.terminal_wealth, ens.terminal_price, ens.terminal_drift_error,
           ens.int_q2, ens.int_pi2)
    return got, reference(model, strategy, cfg, physical=mode == "physical")


@ENGINE_CASES
def test_engine_matches_plain_euler_bitwise(params, mode):
    got, ref = _engine_and_reference(params, mode, plain_euler)
    for g, e in zip(got, ref):
        assert (g is None) == (e is None)
        if e is not None:
            assert np.array_equal(g, e)
    assert (got[2] is None) == (mode == "innovation")


@ENGINE_CASES
def test_engine_matches_observed_return_euler(params, mode):
    """The folded tables, the unscaled normals and the deferred dt change
    only rounding: the textbook step gives the same ensemble to 1e-11."""
    got, ref = _engine_and_reference(params, mode, observed_return_euler)
    for g, e in zip(got, ref):
        assert (g is None) == (e is None)
        if e is not None:
            np.testing.assert_allclose(g, e, rtol=1e-11, atol=0.0)


def test_strategy_may_return_a_view_of_wealth(scaled_cheap_model):
    """pi aliased to the engine's wealth array gives the same ensemble as a
    copy of it: every term is formed before the wealth is updated."""
    cfg = SimConfig(n_paths=2000, dt=0.01, seed=3)
    aliased = simulate_physical(scaled_cheap_model,
                                lambda t, x, m: (0.0 * x, x), cfg)
    copied = simulate_physical(scaled_cheap_model,
                               lambda t, x, m: (0.0 * x, x.copy()), cfg)
    for field in ("terminal_wealth", "int_pi2"):
        assert np.array_equal(getattr(aliased, field), getattr(copied, field))
    assert aliased.int_pi2.min() > 0.0
    assert aliased.terminal_price is None  # known drift: no price simulated


@pytest.mark.parametrize("h", [0.0, 0.1])
@pytest.mark.parametrize("simulate, mode", [
    (simulate_physical, "physical"), (simulate_innovation, "innovation")])
def test_degenerate_drift_filter_mean(simulate, mode, h):
    """A known drift has zero gain, so m follows dm = h m dt exactly as the
    hidden drift does; with h = 0 the strategy is handed the float m0 at
    every step, in place of an array of it."""
    model = make_model(theta=0.2, eta=0.2, h=h, m0=0.07, T=1.0, d=55.0,
                       info_mode="partial")
    seen = []

    def strategy(t, x, m):
        seen.append(m if type(m) is float else m.copy())
        return 0.5 * np.ones_like(x), 10.0 * np.ones_like(x)

    ens = simulate(model, strategy,
                   SimConfig(n_paths=500, dt=0.01, seed=4))
    assert len(seen) == 100
    if h == 0.0:
        assert all(type(m) is float and m == 0.07 for m in seen)
    else:
        m = np.array(seen)
        assert m.shape == (100, 500) and np.all(m == m[:, :1])
        expected = 0.07 * (1.0 + h * 0.01) ** np.arange(100)
        np.testing.assert_allclose(m[:, 0], expected, rtol=1e-12)
    if mode == "physical":
        assert np.all(ens.terminal_drift_error == 0.0)


def test_different_seeds_differ(scaled_noncheap_model):
    cfg1 = SimConfig(n_paths=1000, dt=0.01, seed=1)
    cfg2 = SimConfig(n_paths=1000, dt=0.01, seed=2)
    sol = mv.compute_solution(scaled_noncheap_model)
    strategy = mv.full_feedback_strategy(sol, scaled_noncheap_model)
    a = simulate_physical(scaled_noncheap_model, strategy, cfg1)
    b = simulate_physical(scaled_noncheap_model, strategy, cfg2)
    assert not np.array_equal(a.terminal_wealth, b.terminal_wealth)


# ---------------------------------------------------------------------------
# distributional cross-checks
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tame_partial_model():
    return make_model(theta=0.2, eta=0.2, sigma=0.5, l=0.3, z=0.2, m0=0.06,
                      T=1.0, d=55.0, info_mode="partial")


def test_price_moments_agree_between_representations(tame_partial_model):
    """Terminal price mean/variance must agree between the physical and the
    innovation representations (the observation filtration carries the same
    price law)."""
    n = 40_000
    phys = simulate_physical(tame_partial_model, zero_strategy,
                             SimConfig(n_paths=n, dt=0.001, seed=5))
    innov = simulate_innovation(tame_partial_model, zero_strategy,
                                SimConfig(n_paths=n, dt=0.001, seed=6))
    ep, ei = estimate(phys.terminal_price), estimate(innov.terminal_price)
    se_mean = np.hypot(ep.se_mean, ei.se_mean)
    se_var = np.hypot(ep.se_variance, ei.se_variance)
    assert abs(ep.mean - ei.mean) <= 3 * se_mean
    assert abs(ep.variance - ei.variance) <= 3 * se_var


def test_innovation_filter_mean_growth():
    model = make_model(theta=0.2, eta=0.2, sigma=0.5, l=0.3, z=0.2, m0=0.06,
                       h=0.1, T=1.0, d=55.0, info_mode="partial")
    # E[m(T)] = m0 e^{int h}: the mean SDE is driftless noise around it
    n = 40_000
    target = 0.06 * np.exp(0.1)

    means = []

    def recording_strategy(t, x, m):
        if t >= 1.0 - 0.0015:
            means.append(np.array(m))
        zeros = np.zeros_like(x)
        return zeros, zeros

    simulate_innovation(model, recording_strategy,
                        SimConfig(n_paths=n, dt=0.001, seed=7))
    m_T = np.concatenate(means)
    se = m_T.std(ddof=1) / np.sqrt(m_T.size)
    assert abs(m_T.mean() - target) <= 3 * se + 1e-4  # 1e-4 Euler drift slack


def test_filter_consistency_physical(tame_partial_model):
    """E[(mu(t) - m(t))^2] matches the Riccati variance n(t) within MC error,
    checked at t = T/4, T/2 and T (by running horizons of those lengths)."""
    n = 30_000
    n_curve = mv.solve_variance(tame_partial_model.drift,
                                tame_partial_model.market.sigma, 1.0)
    for horizon in (0.25, 0.5, 1.0):
        model = dataclasses.replace(
            tame_partial_model,
            objective=dataclasses.replace(tame_partial_model.objective,
                                          T=horizon))
        ens = simulate_physical(model, zero_strategy,
                                SimConfig(n_paths=n, dt=0.0005, seed=9))
        err2 = ens.terminal_drift_error ** 2
        se = err2.std(ddof=1) / np.sqrt(err2.size)
        assert abs(err2.mean() - n_curve(horizon)) <= 3 * se
        # unbiasedness of the filter mean
        se_mean = ens.terminal_drift_error.std(ddof=1) / np.sqrt(n)
        assert abs(ens.terminal_drift_error.mean()) <= 3 * se_mean


def test_optimal_strategy_hits_target_mean(scaled_noncheap_model):
    sol = mv.compute_solution(scaled_noncheap_model)
    strategy = mv.full_feedback_strategy(sol, scaled_noncheap_model)
    cfg = SimConfig(n_paths=30_000, dt=0.002, seed=12)
    est = estimate(simulate_physical(scaled_noncheap_model, strategy, cfg))
    d = scaled_noncheap_model.objective.d
    assert abs(est.mean - d) <= 3.5 * est.se_mean


def test_partial_feedback_innovation_mode(partial_exact_model):
    """Realized moments under the filtered-information feedback on a short
    horizon match the analytic frontier point."""
    model = with_d(dataclasses.replace(
        partial_exact_model,
        objective=dataclasses.replace(partial_exact_model.objective, T=5.0)),
        d=1.15 * 50.0 * np.exp(0.2))
    sol = mv.solve_partial(model)
    strategy = mv.partial_feedback_strategy(sol, model)
    cfg = SimConfig(n_paths=30_000, dt=0.002, seed=13)
    ens = simulate_innovation(model, strategy, cfg)
    est = estimate(ens)
    frontier = mv.efficient_frontier(sol, [model.objective.d])
    assert abs(est.mean - model.objective.d) <= 3.5 * est.se_mean
    assert abs(est.variance - frontier.variance[0]) <= \
        0.05 * frontier.variance[0]


@pytest.mark.parametrize("simulate", [simulate_physical, simulate_innovation],
                         ids=["physical", "innovation"])
def test_partial_feedback_with_premium_surplus(partial_premium_model, simulate):
    """theta != eta, with r and sigma jumping inside T: the gap X - S(t)
    carries the premium surplus, and the realized moments meet the target
    mean and the frontier variance under both dynamics."""
    model = partial_premium_model
    sol = mv.solve_partial(model)
    strategy = mv.partial_feedback_strategy(sol, model)
    est = estimate(simulate(model, strategy,
                            SimConfig(n_paths=40_000, dt=0.01, seed=14)))
    variance = mv.efficient_frontier(sol, [model.objective.d]).variance[0]
    assert abs(est.mean - model.objective.d) <= 4.0 * est.se_mean
    assert abs(est.variance - variance) <= 0.05 * variance


@pytest.fixture(scope="module")
def unit_free_model():
    """Full-information model with b and sigma away from 1, so that a wrong
    power of either shows in the wealth noise."""
    base = make_model(theta=0.3, eta=0.2, b=1.5, sigma=0.6, m0=0.12, T=5.0,
                      d=100.0)
    return with_d(base, 1.2 * mv.riskless_terminal_wealth(base))


def test_one_driver_step_matches_exact_discrete_law(unit_free_model):
    """Known drift, constant control: the Euler chain is
    X_{k+1} = (1 + r dt) X_k + c dt + s sqrt(dt) Z with c = a(theta-eta)
    + a eta q + (m0 - r) pi and s^2 = b^2 q^2 + sigma^2 pi^2, so its terminal
    mean and variance are geometric sums."""
    model = unit_free_model
    c, ob, m0 = model.claim, model.objective, model.drift.m0
    r, sigma = model.market.r.values[0], model.market.sigma.values[0]
    q_bar, pi_bar, dt = 0.7, 1.5, 0.05
    n = round(ob.T / dt)
    rho = 1.0 + r * dt
    drift = c.a * (c.theta - c.eta) + c.a * c.eta * q_bar + (m0 - r) * pi_bar
    s2 = c.b ** 2 * q_bar ** 2 + sigma ** 2 * pi_bar ** 2
    mean = rho ** n * ob.x0 + drift * dt * (rho ** n - 1.0) / (rho - 1.0)
    var = s2 * dt * (rho ** (2 * n) - 1.0) / (rho ** 2 - 1.0)
    ens = simulate_physical(model, constant_strategy(q_bar, pi_bar),
                            SimConfig(n_paths=60_000, dt=dt, seed=31))
    est = estimate(ens)
    assert abs(est.mean - mean) <= 4 * est.se_mean
    assert abs(est.variance - var) <= 4 * est.se_variance
    np.testing.assert_allclose(ens.int_q2, q_bar ** 2 * ob.T, rtol=1e-12)
    np.testing.assert_allclose(ens.int_pi2, pi_bar ** 2 * ob.T, rtol=1e-12)


def two_driver_euler(model, strategy, n, dt, seed):
    """Full-information Euler step with the claims and stock noises drawn as
    two independent normals: the reference law for the one-driver step."""
    c, ob, m0 = model.claim, model.objective, model.drift.m0
    r, sigma = model.market.r.values[0], model.market.sigma.values[0]
    rng = np.random.default_rng(seed)
    sdt = np.sqrt(dt)
    X, int_q2, int_pi2 = np.full(n, ob.x0), np.zeros(n), np.zeros(n)
    m = np.full(n, m0)
    for k in range(round(ob.T / dt)):
        q, pi = strategy(k * dt, X, m)
        int_q2 = int_q2 + q * q * dt
        int_pi2 = int_pi2 + pi * pi * dt
        dW0, dW1 = sdt * rng.standard_normal((2, n))
        X = X + (c.a * (c.theta - c.eta) + c.a * c.eta * q + r * X
                 + (m0 - r) * pi) * dt + c.b * q * dW0 + sigma * pi * dW1
    return X, int_q2, int_pi2


def test_one_driver_step_matches_two_driver_reference(unit_free_model):
    """Under the full-information feedback, terminal wealth and both
    admissibility integrals have the same moments as with two drivers."""
    model = unit_free_model
    strategy = mv.full_feedback_strategy(mv.compute_solution(model), model)
    n, dt = 30_000, 0.02
    ens = simulate_physical(model, strategy, SimConfig(n_paths=n, dt=dt, seed=32))
    assert ens.n_flagged == 0
    reference = two_driver_euler(model, strategy, n, dt, seed=33)
    for got, ref in zip((ens.terminal_wealth, ens.int_q2, ens.int_pi2), reference):
        eg, er = estimate(got), estimate(ref)
        assert abs(eg.mean - er.mean) <= 4 * np.hypot(eg.se_mean, er.se_mean)
        assert abs(eg.variance - er.variance) <= \
            4 * np.hypot(eg.se_variance, er.se_variance)


@pytest.mark.parametrize("params, mode, per_step", [
    (dict(), "physical", 1), (dict(), "innovation", 1),
    (dict(h=-0.3, l=0.3, z=0.2), "physical", 3),
    (dict(h=-0.3, l=0.3, z=0.2), "innovation", 2)],
    ids=["known-physical", "known-innovation", "hidden-physical",
         "hidden-innovation"])
def test_normals_per_path_step(monkeypatch, params, mode, per_step):
    """One normal per path-step under a known drift, two under the innovation
    dynamics and three under the physical dynamics of a live filter."""
    drawn = []
    generator = RngStream.generator

    class Counting:
        def __init__(self, gen):
            self._gen = gen

        def standard_normal(self, size):
            drawn.append(int(np.prod(size)))
            return self._gen.standard_normal(size)

    monkeypatch.setattr(RngStream, "generator",
                        lambda self: Counting(generator(self)))
    model = make_model(**{**dict(theta=0.2, eta=0.2, sigma=0.5, m0=0.06, T=1.0,
                                 d=55.0, info_mode="partial"), **params})
    cfg = SimConfig(n_paths=_BLOCK + 100, dt=0.05, seed=8)
    simulate = simulate_physical if mode == "physical" else simulate_innovation
    simulate(model, zero_strategy, cfg)
    n_steps, _ = cfg.resolve_steps(model.objective.T)
    assert sum(drawn) == per_step * cfg.n_paths * n_steps


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

def test_weak_convergence_order_one(scaled_cheap_model):
    """Euler bias in the mean shrinks linearly in dt.

    Measured with a constant control so the continuous-time mean is available
    in closed form and additive noise keeps the estimator exactly unbiased for
    the discrete system (feedback strategies bury the O(dt) bias below Monte
    Carlo noise at any feasible path count).
    """
    model = scaled_cheap_model
    q_bar, pi_bar = 1.0, 1.0
    # dE = [a eta q + r E + (mu - r) pi] dt with eta = theta
    c_bar = 0.2 * q_bar + 0.02 * pi_bar
    exact = 50.0 * np.exp(0.2) + c_bar * (np.exp(0.2) - 1.0) / 0.04
    errors = []
    for dt, seed in ((0.5, 3), (0.25, 4), (0.125, 5)):
        cfg = SimConfig(n_paths=200_000, dt=dt, seed=seed)
        est = estimate(simulate_physical(model, constant_strategy(q_bar, pi_bar),
                                         cfg))
        assert abs(est.mean - exact) > 3 * est.se_mean  # bias dominates noise
        errors.append(abs(est.mean - exact))
    assert 1.5 <= errors[0] / errors[1] <= 2.7
    assert 1.5 <= errors[1] / errors[2] <= 2.7


# ---------------------------------------------------------------------------
# config, flags, diagnostics
# ---------------------------------------------------------------------------

def test_dt_must_divide_horizon(scaled_cheap_model):
    cfg = SimConfig(n_paths=4, dt=0.3, seed=0)
    with pytest.raises(SimulationError):
        simulate_physical(scaled_cheap_model, zero_strategy, cfg)


def test_mode_mismatch_rejected(scaled_cheap_model):
    """The innovation dynamics need a partial-information model."""
    cfg = SimConfig(n_paths=4, dt=0.01, seed=0)
    with pytest.raises(ValueError):
        simulate_innovation(scaled_cheap_model, zero_strategy, cfg)  # full mode


def test_diverging_paths_flagged(scaled_cheap_model):
    cfg = SimConfig(n_paths=64, dt=0.01, seed=0)
    with pytest.raises(SimulationError):
        simulate_physical(scaled_cheap_model, constant_strategy(1e200, 1e200),
                          cfg)


def test_admissibility_diagnostics_finite(scaled_noncheap_model):
    sol = mv.compute_solution(scaled_noncheap_model)
    strategy = mv.full_feedback_strategy(sol, scaled_noncheap_model)
    ens = simulate_physical(scaled_noncheap_model, strategy,
                            SimConfig(n_paths=2000, dt=0.005, seed=2))
    assert np.all(np.isfinite(ens.int_q2))
    assert np.all(np.isfinite(ens.int_pi2))
    assert ens.n_flagged == 0


def test_store_paths(scaled_cheap_model):
    cfg = SimConfig(n_paths=16, dt=0.05, seed=0, store_paths=True)
    ens = simulate_physical(scaled_cheap_model, zero_strategy, cfg)
    assert ens.trajectories.shape == (16, 101)
    assert ens.times.shape == (101,)
    np.testing.assert_array_equal(ens.trajectories[:, 0], 50.0)
    np.testing.assert_array_equal(ens.trajectories[:, -1], ens.terminal_wealth)


def test_store_paths_size_guard(scaled_cheap_model):
    cfg = SimConfig(n_paths=200_000, dt=0.001, seed=0, store_paths=True)
    with pytest.raises(SimulationError):
        simulate_physical(scaled_cheap_model, zero_strategy, cfg)
