"""Monte Carlo simulation of drift, prices, claims, filter, and controlled wealth.

Two representations of the same system, run by one Euler block loop; the
public function called picks its drivers:

* ``simulate_physical`` drives three independent Brownian motions (claims,
  price, idiosyncratic drift), evolves the hidden expected return, and runs
  the filter alongside on observed returns.  Strategies see only (t, wealth,
  filtered mean) -- the information actually available.
* ``simulate_innovation`` works directly under the observation filtration with
  two drivers (claims and the innovation process); the filtered mean follows
  its own SDE.  Partial information only.  Terminal price moments must agree
  with the physical representation within Monte Carlo error.

Wealth and price read the hidden mu or the filtered m as drift.  The filter
mean moves by ``filtering.FilterCoefficients.advance``, driven by the
innovation of the observed return (physical) or by dW1 (innovation).

Paths are partitioned into fixed-size blocks; block b draws from substream b
of the configured seed and results are reduced in block order, so output is
bitwise identical for any worker count.  Euler-Maruyama stepping throughout:
the dynamics are linear in the state, so higher-order schemes buy nothing at
the tested tolerances.

Every constant factor of a step is folded once per call into per-step
tables that all blocks read: 1 + r dt, sigma sqrt(dt), dt/sigma, l sqrt(dt),
z sqrt(dt) and the filter's 1 + h dt, next to the scalars a(theta-eta) dt,
a eta dt, b sqrt(dt) and b^2 dt.  The normals Z are used unscaled and the
step reads

    X  <- X (1 + r dt) + a(theta-eta) dt
          + q (a eta dt + b sqrt(dt) Z0) + pi ((drift - r) dt + sigma sqrt(dt) Z1)
    m  <- m (1 + h dt) + (l + n/sigma) dWbar,  dWbar = (mu - m) dt/sigma + sqrt(dt) Z1
    mu <- mu (1 + h dt) + l sqrt(dt) Z1 + z sqrt(dt) Z2

with dWbar the observed return's (obs - m dt)/sigma expanded, or sqrt(dt) Z1
under the innovation dynamics.  The factor of pi is also the step of the log
price less (r - sigma^2/2) dt, whose sum over the steps is added once; the
sums of q^2 and pi^2 are scaled by dt once, at the end of the block.  Any
Euler form with the same increments is the same scheme (Glasserman 2003,
sec. 6.1): this one differs from the textbook dX = [...] dt + sqrt(dt) Z
form only by rounding.

Each block keeps its state arrays and updates them in place.  Every
temporary of a step goes into three buffers the block allocates once, so a
step allocates only its normals and the strategy's outputs.  The arrays
handed to a strategy are therefore valid only during the call: read them,
or return views of them, but copy what must outlive it.  Worker threads
call one strategy at the same time, so a strategy allocates its outputs on
every call and keeps nothing between calls but pure functions of t (a
per-t table of coefficients).

Under a degenerate drift with h = 0 (the paper's full-information case) the
filter's vol, h and l vanish and mu = m = m0 at every step, so those updates
are skipped and the float m0 is both the wealth drift and the m handed to
the strategy.  The strategy is then a feedback in (t, X) alone, so given X
the step's noise b q dW0 + sigma pi dW1 is exactly
N(0, (b^2 q^2 + sigma^2 pi^2) dt): wealth is driven by one normal
per path-step, sqrt(b^2 dt q^2 + sigma^2 dt pi^2) Z in place of the two
noise terms above, which leaves the law of the Euler chain and of its integrals
of q^2 and pi^2 unchanged (a weak scheme needs only the law of the increment;
Glasserman 2003, sec. 6.1).  The price, coupled to wealth only through W1 and
read by nothing there, is not simulated: ``terminal_price`` is None.  A
known drift with h != 0 (``configs/knowndrift.cfg``) keeps the array branch.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import MvreinsError
from .filtering import filter_coefficients, solve_variance
from .model import INFO_PARTIAL, ModelParams
from .odekernel import RngStream

_BLOCK = 16384            # paths per RNG substream; fixed so results never
                          # depend on how blocks are spread over workers
_MAX_STORED = 5_000_000   # trajectory elements allowed with store_paths
_FLAG_LIMIT = 1e-3        # tolerated fraction of non-finite paths


class SimulationError(MvreinsError):
    """Too many paths diverged, or the configuration is unusable."""


class InsufficientDataError(ValueError):
    """Estimation requires at least two paths."""


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    dt: float
    seed: int
    store_paths: bool = False

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    def resolve_steps(self, T: float) -> tuple[int, float]:
        """Step count and effective dt; T/dt must be integral within rounding."""
        n = int(round(T / self.dt))
        if n < 1 or abs(n * self.dt - T) > 1e-9 * max(1.0, T):
            raise SimulationError(f"T={T} is not an integral multiple of dt={self.dt}")
        return n, T / n


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Per-path terminal data plus admissibility diagnostics.

    ``terminal_drift_error`` holds mu(T) - m(T) for physical simulations (the
    filter-consistency statistic) and is None under the innovation dynamics.
    ``terminal_price`` is None under a known drift with h = 0, where wealth
    has one driver and no price is simulated.
    Non-finite paths are dropped from all arrays; their count is reported.
    """

    terminal_wealth: np.ndarray
    terminal_price: np.ndarray | None
    terminal_drift_error: np.ndarray | None
    int_q2: np.ndarray
    int_pi2: np.ndarray
    n_flagged: int
    times: np.ndarray | None
    trajectories: np.ndarray | None


@dataclass(frozen=True)
class EstimateResult:
    mean: float
    variance: float
    se_mean: float
    se_variance: float


def estimate(ensemble) -> EstimateResult:
    """Unbiased sample mean/variance of terminal wealth with standard errors.

    The variance standard error uses the fourth central moment:
    Var(s^2) ~ [m4 - (n-3)/(n-1) s^4] / n.
    """
    x = ensemble if isinstance(ensemble, np.ndarray) else ensemble.terminal_wealth
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 2:
        raise InsufficientDataError("need at least two paths to estimate variance")
    mean = float(x.mean())
    var = float(x.var(ddof=1))
    centered = x - mean
    m4 = float(np.mean(centered ** 4))
    se_var_sq = (m4 - (n - 3.0) / (n - 1.0) * var * var) / n
    return EstimateResult(
        mean=mean,
        variance=var,
        se_mean=float(np.sqrt(var / n)),
        se_variance=float(np.sqrt(max(se_var_sq, 0.0))),
    )


def _run_blocks(n_paths: int, workers: int, block_fn):
    """Process path blocks 0..B-1, serially or on a thread pool.

    Each block writes into disjoint slices of preallocated output, and the
    block decomposition is fixed, so the schedule cannot affect results.
    """
    n_blocks = (n_paths + _BLOCK - 1) // _BLOCK
    if workers <= 1:
        for b in range(n_blocks):
            block_fn(b)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(block_fn, range(n_blocks)))


def _finalize(cfg: SimConfig, X, price, drift_err, int_q2, int_pi2,
              times, traj) -> PathEnsemble:
    ok = np.isfinite(X) & np.isfinite(int_q2) & np.isfinite(int_pi2)
    for extra in (price, drift_err):
        if extra is not None:
            ok &= np.isfinite(extra)
    n_flagged = int((~ok).sum())
    if n_flagged > _FLAG_LIMIT * cfg.n_paths:
        raise SimulationError(
            f"{n_flagged} of {cfg.n_paths} paths diverged (> {_FLAG_LIMIT:.1%})"
        )
    return PathEnsemble(
        terminal_wealth=X[ok],
        terminal_price=None if price is None else price[ok],
        terminal_drift_error=None if drift_err is None else drift_err[ok],
        int_q2=int_q2[ok],
        int_pi2=int_pi2[ok],
        n_flagged=n_flagged,
        times=times,
        trajectories=None if traj is None else traj[ok],
    )


def _alloc_trajectories(cfg: SimConfig, n_steps: int):
    if not cfg.store_paths:
        return None
    if cfg.n_paths * (n_steps + 1) > _MAX_STORED:
        raise SimulationError(
            "store_paths would retain more than "
            f"{_MAX_STORED} wealth samples; reduce paths or increase dt"
        )
    return np.empty((cfg.n_paths, n_steps + 1))


def _simulate(model: ModelParams, strategy, cfg: SimConfig, workers: int,
              physical: bool) -> PathEnsemble:
    """Euler block loop under the physical or the innovation dynamics; the
    variance curve and the per-step tables are shared by all paths.
    Innovation paths use the filter mean m as drift and drive it by dW1.
    """
    c, dr, ob = model.claim, model.drift, model.objective
    n_steps, dt = cfg.resolve_steps(ob.T)
    sdt = np.sqrt(dt)
    n_curve = solve_variance(dr, model.market.sigma, ob.T, steps=max(n_steps, 1000))
    coef = filter_coefficients(dr, model.market.sigma, n_curve, n_steps, dt)
    r, sig = model.market.r(coef.t), coef.sigma
    # Under a degenerate drift with h = 0 the vol, h and l are all zero, so
    # mu and m stay exactly m0: their updates are skipped, the float m0 is
    # the drift and the strategy's m, wealth takes one normal per step and
    # no price is simulated.
    dead = dr.is_degenerate() and not coef.h.any()
    drift_noise = physical and not dr.is_degenerate()
    n_normals = 3 if drift_noise else 2
    # every constant factor of a step, folded once and read by all blocks
    growth = 1.0 + r * dt
    sig_sdt, sig2_dt, dt_sig = sig * sdt, sig * sig * dt, dt / sig
    l_sdt, z_sdt = coef.l * sdt, coef.z * sdt
    surplus_dt = (c.a * c.theta - c.a * c.eta) * dt
    a_eta_dt, b_sdt, b2_dt = c.a * c.eta * dt, c.b * sdt, c.b * c.b * dt
    # the price's deterministic log drift sum (r - sigma^2/2) dt, added once
    log_shift = float(np.sum((r - 0.5 * sig * sig) * dt))

    X_out = np.empty(cfg.n_paths)
    price_out = None if dead else np.empty(cfg.n_paths)
    err_out = np.empty(cfg.n_paths) if physical else None
    q2_out = np.empty(cfg.n_paths)
    pi2_out = np.empty(cfg.n_paths)
    traj = _alloc_trajectories(cfg, n_steps)
    base = RngStream(cfg.seed)

    def run_block(bidx: int):
        lo = bidx * _BLOCK
        hi = min(lo + _BLOCK, cfg.n_paths)
        nb = hi - lo
        rng = base.substream(bidx).generator()
        X = np.full(nb, ob.x0)
        m = dr.m0 if dead else np.full(nb, dr.m0)
        if physical and not dead:
            mu = np.full(nb, dr.m0)
            if dr.n0 > 0:
                mu += np.sqrt(dr.n0) * rng.standard_normal(nb)
        int_q2 = np.zeros(nb)          # sums of q^2 and pi^2; times dt at the end
        int_pi2 = np.zeros(nb)
        incr, noise, tmp = np.empty(nb), np.empty(nb), np.empty(nb)
        if not dead:
            log_s = np.zeros(nb)
        if traj is not None:
            traj[lo:hi, 0] = X
        # overflow on a diverging path propagates to its terminal flag
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(n_steps):
                q, pi = strategy(k * dt, X, m)
                # every term that reads q or pi is formed before the state
                # changes, so q and pi may be views of X or m
                np.multiply(q, q, out=tmp)
                int_q2 += tmp
                if dead:
                    # given X, b q dW0 + sigma pi dW1 is exactly
                    # N(0, (b^2 q^2 + sigma^2 pi^2) dt): one normal suffices
                    np.multiply(tmp, b2_dt, out=noise)
                np.multiply(pi, pi, out=tmp)
                int_pi2 += tmp
                if dead:
                    tmp *= sig2_dt[k]
                    noise += tmp
                    np.sqrt(noise, out=noise)
                    noise *= rng.standard_normal(nb)
                    # incr = a eta dt q + (m0 - r) dt pi + noise
                    np.multiply(q, a_eta_dt, out=incr)
                    np.multiply(pi, (dr.m0 - r[k]) * dt, out=tmp)
                    incr += tmp
                    incr += noise
                else:
                    Z = rng.standard_normal((n_normals, nb))
                    Z0, Z1 = Z[0], Z[1]
                    drift = mu if physical else m
                    # incr = q (a eta dt + b sqrt(dt) Z0)
                    #      + pi ((drift - r) dt + sigma sqrt(dt) Z1),
                    # the second factor being the log price's random step
                    np.multiply(Z0, b_sdt, out=incr)
                    incr += a_eta_dt
                    incr *= q
                    np.subtract(drift, r[k], out=tmp)
                    tmp *= dt
                    np.multiply(Z1, sig_sdt[k], out=noise)
                    tmp += noise
                    log_s += tmp
                    tmp *= pi
                    incr += tmp
                X *= growth[k]
                X += surplus_dt
                X += incr
                if physical and not dead:
                    # innovation dWbar = (mu - m) dt/sigma + sqrt(dt) Z1, the
                    # observed return's (obs - m dt)/sigma; incr is free now
                    np.subtract(mu, m, out=incr)
                    incr *= dt_sig[k]
                    np.multiply(Z1, sdt, out=tmp)
                    incr += tmp
                    coef.advance(k, m, incr, tmp)
                    mu *= coef.growth[k]
                    if drift_noise:
                        np.multiply(Z1, l_sdt[k], out=tmp)
                        mu += tmp
                        Z2 = Z[2]
                        Z2 *= z_sdt[k]
                        mu += Z2
                elif not dead:
                    Z1 *= sdt                    # the innovation dWbar
                    coef.advance(k, m, Z1, tmp)
                if traj is not None:
                    traj[lo:hi, k + 1] = X
        X_out[lo:hi] = X
        if not dead:
            log_s += log_shift
            price_out[lo:hi] = np.exp(log_s)
        if physical:
            err_out[lo:hi] = 0.0 if dead else mu - m
        int_q2 *= dt
        int_pi2 *= dt
        q2_out[lo:hi] = int_q2
        pi2_out[lo:hi] = int_pi2

    _run_blocks(cfg.n_paths, workers, run_block)
    times = dt * np.arange(n_steps + 1) if traj is not None else None
    return _finalize(cfg, X_out, price_out, err_out, q2_out, pi2_out, times, traj)


def simulate_physical(model: ModelParams, strategy, cfg: SimConfig,
                      workers: int = 1) -> PathEnsemble:
    """Simulate under the physical dynamics with the filter run alongside.

    ``strategy`` maps (t, wealth array, filtered mean) to (q, pi) arrays; it
    never sees the hidden drift.  The filtered mean is an array, or the float
    m0 under a known drift with h = 0.  The wealth step is

        dX = [a(theta-eta) + a eta q + r X + (mu - r) pi] dt + b q dW0 + pi sigma dW1

    with the hidden drift mu driven by (W1, W2) and the filter mean updated
    from the observed return mu dt + sigma dW1.  Under a known drift with
    h = 0 (the paper's full-information case) mu = m = m0, the two noise terms
    are drawn as one normal of variance (b^2 q^2 + sigma^2 pi^2) dt, and the
    ensemble carries no price.
    """
    return _simulate(model, strategy, cfg, workers, physical=True)


def simulate_innovation(model: ModelParams, strategy, cfg: SimConfig,
                        workers: int = 1) -> PathEnsemble:
    """Simulate directly under the observation filtration (partial mode only).

    Two drivers: claims noise and the innovation Brownian motion.  The wealth
    step is the physical one, premium surplus a(theta - eta) included, with
    the filtered mean m as drift, and the filter mean follows
    dm = h m dt + (l + n/sigma) dWbar.
    """
    if model.info_mode != INFO_PARTIAL:
        raise ValueError("innovation dynamics require a partial-information model")
    return _simulate(model, strategy, cfg, workers, physical=False)


def zero_strategy(t, x, m):
    """No reinsurance retention, no risky investment."""
    zeros = np.zeros_like(np.asarray(x, dtype=float))
    return zeros, zeros


def constant_strategy(q: float, pi: float):
    """Constant admissible control, mainly for discretization tests."""
    def strategy(t, x, m):
        ones = np.ones_like(np.asarray(x, dtype=float))
        return q * ones, pi * ones
    return strategy
