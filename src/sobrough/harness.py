"""Experiment driver: path families, a classical ODE oracle, and the
verification studies (norm equivalence, variation embedding, a-priori
solution bound, Euler convergence order, and the solution-map Lipschitz
sweep).

Every study takes a config dict, consumes randomness only through seeded
generators, and returns a JSON-serialisable report dict in which each
numeric entry is tagged as computed or fitted via the report provenance
section assembled by the CLI layer.  Fitted constants are calibrated on
the even-seed half of a family (with a fixed safety margin) and checked
for violations on the odd-seed half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import PolyVectorField
from .paths import (IntervalFunction, SampledRoughPath, control_check, mixed_dist,
                    inhom_sobolev_dist, sobolev_norm_dyadic, sobolev_norm_integral, VectorPath,
                    _dist_levels, _floor_bracket, _integral_control, _interval_table,
                    _level_diffs, _mixed_variation)
from .rde import (NonConvergenceError, BlowUpError, RdeSolution, solve_euler,
                  solve_picard_level2)

#: safety margin applied to calibration-split maxima before freezing a constant
FIT_MARGIN = 1.5

#: offset delta in gamma = N + 1 - delta used for Lip-surrogate exponents
GAMMA_DELTA = 0.01

#: ball radius on which all Lip surrogates are evaluated
LIP_RADIUS = 2.0


# ------------------------------------------------------------------- drivers

@dataclass
class SmoothDriver:
    """Analytic driver t -> R^d with derivative, for oracles and lifts."""
    d: int
    x: Callable[[np.ndarray], np.ndarray]      # (m,) -> (m, d)
    xdot: Callable[[np.ndarray], np.ndarray]   # (m,) -> (m, d)

    def samples(self, depth: int) -> np.ndarray:
        t = np.linspace(0.0, 1.0, (1 << depth) + 1)
        return self.x(t)


def make_trig_driver(seed, d: int, modes: int = 3, amp: float = 0.6) -> SmoothDriver:
    """Random trigonometric driver: sums of sin modes with O(1) sup norm."""
    rng = np.random.default_rng(seed)
    a = amp * rng.uniform(0.3, 1.0, (d, modes)) / np.arange(1, modes + 1)
    phase = rng.uniform(0.0, 2.0 * np.pi, (d, modes))
    freq = 2.0 * np.pi * np.arange(1, modes + 1)

    def x(t):
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        return np.stack(
            [np.sum(a[i] * np.sin(np.outer(t, freq) + phase[i]), axis=1) -
             np.sum(a[i] * np.sin(phase[i])) for i in range(d)], axis=1)

    def xdot(t):
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        return np.stack(
            [np.sum(a[i] * freq * np.cos(np.outer(t, freq) + phase[i]), axis=1)
             for i in range(d)], axis=1)

    return SmoothDriver(d, x, xdot)


def make_walk_samples(seed, d: int, base_depth: int, roughness: float,
                      depth: int) -> np.ndarray:
    """Piecewise-linear random walk with breakpoints at base_depth and
    increment scale 2^(-base_depth * roughness), supersampled to `depth`."""
    if depth < base_depth:
        raise ValueError("cannot sample below the breakpoint depth")
    rng = np.random.default_rng(seed)
    steps = rng.choice([-1.0, 1.0], size=(1 << base_depth, d))
    steps *= 2.0 ** (-base_depth * roughness)
    knots = np.vstack([np.zeros(d), np.cumsum(steps, axis=0)])
    factor = 1 << (depth - base_depth)
    # linear interpolation between knots lands back on the walk segments
    frac = (np.arange(factor) / factor)[:, None]
    segs = knots[:-1, None] + frac * np.diff(knots, axis=0)[:, None]
    return np.vstack([segs.reshape(-1, d), knots[-1:]])


def lift_smooth(samples, level: int, depth: int, alpha: float, p: float) -> SampledRoughPath:
    """Step-N lift of sampled path values on the depth-J grid."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape[0] != (1 << depth) + 1:
        raise ValueError(f"expected {(1 << depth) + 1} samples for depth {depth}")
    return SampledRoughPath.from_samples(samples, level, alpha, p, depth=depth)


# ---------------------------------------------------------------- ODE oracle

@dataclass
class OracleResult:
    values: np.ndarray          # (2^J + 1, e) on the rough grid
    richardson_error: float     # step-halving error estimate for the terminal value


def ode_oracle(y0, V: PolyVectorField, driver: SmoothDriver, depth: int,
               refinement: int = 64) -> OracleResult:
    """Classical RK4 for dy/dt = V(y) xdot(t), `refinement` substeps per grid
    step; the error estimate compares against half the refinement.

    `driver.xdot` is called on arrays, (m,) -> (m, d): once per integration
    at each of the three stage offsets of every substep.  The stages run on
    Python floats, through `PolyMap.point_evaluator`, in the operation order
    of the array form y + hs * k / 2.  When d = 1, V(y) xdot is one multiply
    per row, added to +0.0 as `@` does.  When d > 1 it stays `@` on the
    small array: a left-to-right Python sum can differ from NumPy's in the
    last bit."""
    y0 = np.asarray(y0, dtype=np.float64)
    field = V.fmap.point_evaluator()
    e, d = V.e, V.d

    if d == 1:
        def rhs(y: list, x: float) -> list:
            return [0.0 + v * x for v in field(y)]
    else:
        def rhs(y: list, x: np.ndarray) -> list:
            return (np.array(field(y)).reshape(e, d) @ x).tolist()

    def integrate(nsub: int) -> np.ndarray:
        n = (1 << depth)
        hs = 1.0 / (n * nsub)
        # substep start times t + s * hs with t = i / n, row-major in (i, s)
        ts = (np.arange(n)[:, None] / n + np.arange(nsub)[None, :] * hs).ravel()
        x_stages = [driver.xdot(ts), driver.xdot(ts + hs / 2), driver.xdot(ts + hs)]
        vals = np.empty((n + 1, e))
        vals[0] = y0
        y = y0.tolist()
        m = 0
        for i in range(n):
            rows = [x[i * nsub:(i + 1) * nsub] for x in x_stages]
            x_start, x_mid, x_end = [r[:, 0].tolist() for r in rows] if d == 1 else rows
            for s in range(nsub):
                k1 = rhs(y, x_start[s])
                k2 = rhs([a + hs * b / 2 for a, b in zip(y, k1)], x_mid[s])
                k3 = rhs([a + hs * b / 2 for a, b in zip(y, k2)], x_mid[s])
                k4 = rhs([a + hs * b for a, b in zip(y, k3)], x_end[s])
                y = [a + hs * (b1 + 2 * b2 + 2 * b3 + b4) / 6.0
                     for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
                if not all(map(math.isfinite, y)):
                    raise BlowUpError(m)
                m += 1
            vals[i + 1] = y
        return vals

    fine = integrate(refinement)
    half = integrate(max(refinement // 2, 1))
    rich = float(np.max(np.abs(fine[-1] - half[-1]))) / (2**4 - 1)
    return OracleResult(fine, rich)


# ------------------------------------------------------------------- studies

def _seed_stream(seed, *stream) -> np.random.Generator:
    return np.random.default_rng([int(seed), *[int(s) for s in stream]])


def equivalence_study(cfg: dict) -> dict:
    """Ratio of integral to dyadic Sobolev norm across a path family and
    depths; the theory makes it bounded above and below by constants
    depending only on (alpha, p)."""
    alpha = cfg.get("alpha", 0.4)
    p = cfg.get("p", 4.0)
    level = cfg.get("level", 2)
    depths = list(cfg.get("depths", (8, 10)))
    n_paths = cfg.get("n_paths", 50)
    seed = cfg.get("seed", 0)
    base_depth = min(depths)
    roughs = cfg.get("roughness_grid", (0.55, 0.65, 0.75, 0.85))

    records = []
    for i in range(n_paths):
        roughness = roughs[i % len(roughs)]
        ratios = {}
        for J in depths:
            samples = make_walk_samples([seed, i], cfg.get("d", 2), base_depth,
                                        roughness, J)
            X = lift_smooth(samples, level, J, alpha, p)
            vi = sobolev_norm_integral(X, alpha, p)
            vd = sobolev_norm_dyadic(X, alpha, p)
            ratios[str(J)] = vi / vd.value if vd.value > 0 else math.nan
        rec = {"path": i, "roughness": roughness, "ratio_by_depth": ratios}
        vals = list(ratios.values())
        rec["max_rel_movement"] = max(abs(b / a - 1.0) for a, b in zip(vals, vals[1:])) \
            if len(vals) > 1 else 0.0
        records.append(rec)

    all_ratios = [r for rec in records for r in rec["ratio_by_depth"].values()]
    c1, c2 = min(all_ratios), max(all_ratios)

    # closed-form cross-check on the linear path f(t) = t at level 1
    Jlin = max(depths)
    tlin = np.linspace(0, 1, (1 << Jlin) + 1)[:, None]
    Xlin = SampledRoughPath.from_samples(tlin, 1, alpha, p)
    lin_ratio = (sobolev_norm_integral(Xlin, alpha, p)
                 / sobolev_norm_dyadic(Xlin, alpha, p).value)
    exact_int = (2.0 / (p * (1 - alpha) * (p * (1 - alpha) + 1))) ** (1.0 / p)
    series = sum(2.0 ** (-j * p * (1 - alpha)) for j in range(Jlin + 1))
    exact_ratio = exact_int / series ** (1.0 / p)

    return {
        "kind": "equivalence_study",
        "alpha": alpha, "p": p, "level": level, "depths": depths,
        "n_paths": n_paths, "seed": seed,
        "records": records,
        "ratio_interval": [c1, c2],
        "interval_spread": c2 / c1,
        "max_rel_movement": max(r["max_rel_movement"] for r in records),
        "linear_path_check": {
            "measured_ratio": lin_ratio,
            "closed_form_ratio": exact_ratio,
            "rel_error": abs(lin_ratio / exact_ratio - 1.0),
        },
    }


def _dyadic_windows(depth: int):
    for j in range(depth):
        step = 1 << (depth - j)
        for i in range(1 << j):
            yield j, i * step, (i + 1) * step


def embedding_study(cfg: dict) -> dict:
    """Variation-Sobolev embedding on dyadic intervals:

        qvar(1/alpha; [s,t])^{1/alpha} <= K * integral_norm[s,t]^{1/alpha} * |t-s|^{1 - 1/(alpha p)}

    K is fitted (max ratio times margin) on even-seed paths and the odd-seed
    half is scanned for violations."""
    alpha = cfg.get("alpha", 0.4)
    p = cfg.get("p", 4.0)
    level = cfg.get("level", 2)
    J = cfg.get("depth", 7)
    n_paths = cfg.get("n_paths", 40)
    seed = cfg.get("seed", 0)
    d = cfg.get("d", 2)
    q = 1.0 / alpha
    time_expo = 1.0 - 1.0 / (alpha * p)

    def interval_ratios(i):
        samples = make_walk_samples([seed, i], d, J, cfg.get("roughness", 0.6), J)
        X = lift_smooth(samples, level, J, alpha, p)
        dist_block, control = _integral_control(X, alpha, p)  # the blocks feed both
        # table[a, b] = qvar(1/alpha; [t_a, t_b])^{1/alpha}
        table = _interval_table(lambda *span: dist_block(*span) ** q, X.n_nodes)
        omega = control()
        out = []
        for j, a, b in _dyadic_windows(J):
            lhs = float(table[a, b])
            norm_p = float(omega.dyadic_level(j)[a >> (J - j)])
            rhs = norm_p ** (q / p) * ((b - a) * X.h) ** time_expo
            if rhs > 0:
                out.append(lhs / rhs)
        return out

    cal, held = [], []
    for i in range(n_paths):
        (cal if i % 2 == 0 else held).extend(interval_ratios(i))
    K = max(cal) * FIT_MARGIN
    violations = sum(1 for r in held if r > K)
    return {
        "kind": "embedding_study",
        "alpha": alpha, "p": p, "level": level, "depth": J,
        "n_paths": n_paths, "seed": seed, "margin": FIT_MARGIN,
        "fitted_constant": K,
        "calibration_max_ratio": max(cal),
        "heldout_max_ratio": max(held),
        "n_calibration": len(cal),
        "n_heldout": len(held),
        "heldout_violations": violations,
    }


def apriori_study(cfg: dict) -> dict:
    """A-priori solution bound: ||Y|| <= f(M) (L ||X|| + (L ||X||)^gamma) with
    f(M) = max(1, M^[1/alpha]), L the Lip surrogate of the field, M the sup of
    the driver's homogeneous norms; constant fitted on even seeds."""
    alpha = cfg.get("alpha", 0.4)
    p = cfg.get("p", 4.0)
    level = cfg.get("level", 2)
    J = cfg.get("depth", 7)
    n_paths = cfg.get("n_paths", 40)
    seed = cfg.get("seed", 0)
    d = cfg.get("d", 2)
    e = cfg.get("e", 2)
    gamma = level + 1 - GAMMA_DELTA
    bracket = _floor_bracket(1.0 / alpha)

    def one_ratio(i):
        rng = _seed_stream(seed, 200, i)
        driver = make_trig_driver([seed, 300, i], d, amp=0.4)
        X = lift_smooth(driver.samples(J), level, J, alpha, p)
        A = 0.25 * rng.uniform(-1.0, 1.0, (e, d, e))
        b = 0.4 * rng.uniform(-1.0, 1.0, (e, d))
        V = PolyVectorField.linear(A, b)
        y0 = 0.3 * rng.uniform(-1.0, 1.0, e)
        sol = solve_euler(y0, V, X)
        if float(np.max(np.abs(sol.values))) > LIP_RADIUS:
            raise RuntimeError("trajectory left the surrogate ball; rescale the family")
        lhs = sobolev_norm_dyadic(VectorPath(sol.values), alpha, p).value
        L = V.lip_surrogate(gamma - 1.0, LIP_RADIUS).value
        M = max(float(np.max(X.dist_block(0, 1, 0, X.n_nodes))), 0.0)
        fM = max(1.0, M**bracket)
        xn = sobolev_norm_integral(X, alpha, p)
        rhs = fM * (L * xn + (L * xn) ** gamma)
        return lhs / rhs if rhs > 0 else math.nan

    cal = [one_ratio(i) for i in range(0, n_paths, 2)]
    held = [one_ratio(i) for i in range(1, n_paths, 2)]
    K = max(cal) * FIT_MARGIN
    violations = sum(1 for r in held if r > K)
    return {
        "kind": "apriori_study",
        "alpha": alpha, "p": p, "level": level, "depth": J,
        "gamma": gamma, "n_paths": n_paths, "seed": seed, "margin": FIT_MARGIN,
        "fitted_constant": K,
        "calibration_max_ratio": max(cal),
        "heldout_max_ratio": max(held),
        "heldout_violations": violations,
    }


def convergence_study(cfg: dict) -> dict:
    """Log-log fit of Euler error against step depth on smooth drivers,
    with an N=1 vs N=2 comparison on the same problems."""
    alpha = cfg.get("alpha", 0.4)
    p = cfg.get("p", 4.0)
    depths = list(cfg.get("depths", (4, 5, 6, 7, 8, 9, 10)))
    seed = cfg.get("seed", 0)
    refinement = cfg.get("refinement", 64)
    J = max(depths)

    problems = [
        {"name": "exponential", "field": PolyVectorField.scalar([0.0, 1.0]),
         "driver": SmoothDriver(1, lambda t: np.atleast_1d(t)[:, None],
                                lambda t: np.ones((np.size(t), 1))),
         "y0": np.array([1.0])},
        {"name": "affine-trig", "field": PolyVectorField.scalar([0.5, 0.4]),
         "driver": make_trig_driver([seed, 1], 1), "y0": np.array([0.2])},
        {"name": "quadratic-trig", "field": PolyVectorField.scalar([0.3, 0.2, -0.15]),
         "driver": make_trig_driver([seed, 2], 1), "y0": np.array([0.1])},
    ]

    out = []
    for prob in problems:
        oracle = ode_oracle(prob["y0"], prob["field"], prob["driver"], J,
                            refinement=refinement)
        rec = {"name": prob["name"], "oracle_richardson_error": oracle.richardson_error,
               "orders": {}, "errors": {}}
        for level in (1, 2):
            X = lift_smooth(prob["driver"].samples(J), level, J, alpha, p)
            errs = []
            for j in depths:
                sol = solve_euler(prob["y0"], prob["field"], X, step_depth=j)
                stride = 1 << (J - j)
                ref = oracle.values[::stride]
                errs.append(float(np.max(np.abs(sol.values - ref))))
            fit = np.polyfit(depths, np.log2(np.maximum(errs, 1e-300)), 1)
            rec["errors"][f"N{level}"] = errs
            rec["orders"][f"N{level}"] = -float(fit[0])
        out.append(rec)

    return {
        "kind": "convergence_study",
        "alpha": alpha, "p": p, "depths": depths, "seed": seed,
        "refinement": refinement,
        "problems": out,
        "min_order_n2": min(r["orders"]["N2"] for r in out),
        "order_gap_n2_vs_n1": min(r["orders"]["N2"] - r["orders"]["N1"] for r in out),
    }


# ------------------------------------------------------------ Lipschitz sweep

def _sweep_problem(seed, pair_idx: int, d: int, e: int):
    rng = _seed_stream(seed, 400, pair_idx)
    driver = make_trig_driver([seed, 500, pair_idx], d, amp=0.5)
    A = 0.25 * rng.uniform(-1.0, 1.0, (e, d, e))
    b = 0.4 * rng.uniform(-1.0, 1.0, (e, d))
    V = PolyVectorField.linear(A, b)
    y0 = 0.3 * rng.uniform(-1.0, 1.0, e)
    # fixed-direction perturbations, unit scale
    dA = rng.uniform(-1.0, 1.0, (e, d, e))
    dA *= 0.2 / max(float(np.max(np.abs(dA))), 1e-12)
    db = rng.uniform(-1.0, 1.0, (e, d))
    db *= 0.2 / max(float(np.max(np.abs(db))), 1e-12)
    dV = PolyVectorField.linear(dA, db)
    eta = make_trig_driver([seed, 600, pair_idx], d, amp=0.4)
    du = rng.uniform(-1.0, 1.0, e)
    du /= float(np.linalg.norm(du))
    return driver, V, y0, dV, eta, du


def _perturbed_inputs(channel: str, eps: float, base):
    driver, V, y0, dV, eta, du = base
    drv2, V2, y02 = driver, V, y0
    if channel in ("init", "mixed"):
        y02 = y0 + eps * du
    if channel in ("field", "mixed"):
        V2 = V.add_scaled(dV, eps)
    if channel in ("driver", "mixed"):
        drv2 = SmoothDriver(driver.d,
                            lambda t, a=driver.x, b=eta.x: a(t) + eps * b(t),
                            lambda t, a=driver.xdot, b=eta.xdot: a(t) + eps * b(t))
    return drv2, V2, y02


@dataclass
class _BaseSide:
    """The unperturbed half of every pair built on one base problem: the
    problem, its lift, its Picard solution (or the error that stopped it),
    its driver norm and its field's Lip surrogate.  All channel×eps cells
    share it."""
    base: tuple
    X: SampledRoughPath
    solution: RdeSolution | None
    error: str | None
    b_norm: float | None
    l_norm: float | None


def _base_side(base, cfg) -> _BaseSide:
    alpha, p, level, J = cfg["alpha"], cfg["p"], cfg["level"], cfg["depth"]
    driver, V, y0 = base[0], base[1], base[2]
    X1 = lift_smooth(driver.samples(J), level, J, alpha, p)
    try:
        s1 = solve_picard_level2(y0, V, X1, tol=cfg["tol"], max_iter=cfg["max_iter"])
    except (NonConvergenceError, BlowUpError) as exc:
        return _BaseSide(base, X1, None, str(exc), None, None)
    return _BaseSide(base, X1, s1, None, sobolev_norm_integral(X1, alpha, p),
                     V.lip_surrogate(level + 1 - GAMMA_DELTA, LIP_RADIUS).value)


def _solve_pair_record(channel, eps, pair_idx, side: _BaseSide, cfg):
    alpha, p, level, J = cfg["alpha"], cfg["p"], cfg["level"], cfg["depth"]
    gamma = level + 1 - GAMMA_DELTA
    V, y0 = side.base[1], side.base[2]
    rec = {"channel": channel, "eps": eps, "pair": pair_idx}
    if side.error is not None:
        rec["error"] = side.error
        return rec, None, None
    drv2, V2, y02 = _perturbed_inputs(channel, eps, side.base)
    X1, s1 = side.X, side.solution
    X2 = lift_smooth(drv2.samples(J), level, J, alpha, p)
    try:
        s2 = solve_picard_level2(y02, V2, X2, tol=cfg["tol"], max_iter=cfg["max_iter"])
    except (NonConvergenceError, BlowUpError) as exc:
        rec["error"] = str(exc)
        return rec, None, None
    rho_hat = inhom_sobolev_dist(X1, X2, alpha, p)
    rho_mix = mixed_dist(X1, X2, alpha, p)
    dy0 = float(np.linalg.norm(np.asarray(y02) - np.asarray(y0)))
    dV_gap = V.sub(V2).lip_surrogate(gamma - 1.0, LIP_RADIUS).value
    gap_path = s1.values - s2.values
    gap = float(np.linalg.norm(gap_path[0])) + \
        sobolev_norm_dyadic(VectorPath(gap_path), alpha, p).value
    denom = dV_gap + dy0 + rho_hat.total + rho_mix.value
    rec.update({
        "rho_hat_levels": list(rho_hat.levels),
        "rho_hat": rho_hat.total,
        "rho_mixed": rho_mix.value,
        "dy0": dy0,
        "dV_lip_gap": dV_gap,
        "solution_gap": gap,
        "denominator": denom,
        "ratio": (gap / denom) if denom > 0 else None,
        "picard_iterations": [s1.meta["iterations"], s2.meta["iterations"]],
    })
    b_norm = max(side.b_norm, sobolev_norm_integral(X2, alpha, p))
    l_norm = max(side.l_norm, V2.lip_surrogate(gamma, LIP_RADIUS).value)
    return rec, b_norm, l_norm


def lipschitz_sweep(cfg: dict | None = None) -> dict:
    """Solution-map stability sweep over perturbation channels and scales.

    For each channel (initial value, vector field, driver, mixed) and each
    eps the two RDEs are solved and the ratio of the solution gap to the sum
    of input distances is recorded; acceptance logic elsewhere flags ratio
    growth as eps shrinks.  Includes exact trivial rows: an identical-input
    pair and zero-field pairs whose ratio must be exactly 1."""
    cfg = dict(cfg or {})
    cfg.setdefault("alpha", 0.4)
    cfg.setdefault("p", 4.0)
    cfg.setdefault("level", 2)
    cfg.setdefault("depth", 7)
    cfg.setdefault("seed", 0)
    cfg.setdefault("d", 2)
    cfg.setdefault("e", 2)
    cfg.setdefault("eps_grid", (1e-1, 1e-2, 1e-3))
    cfg.setdefault("pairs_per_cell", 5)
    cfg.setdefault("tol", 1e-9)
    cfg.setdefault("max_iter", 60)
    channels = ("init", "field", "driver", "mixed")

    # base problem k (k = 0 also for the identical row) is lifted and solved once
    sides = [_base_side(_sweep_problem(cfg["seed"], k, cfg["d"], cfg["e"]), cfg)
             for k in range(max(cfg["pairs_per_cell"], 1))]

    records = []
    b_max, l_max = 0.0, 0.0
    for channel in channels:
        for eps in cfg["eps_grid"]:
            for k in range(cfg["pairs_per_cell"]):
                rec, b, l = _solve_pair_record(channel, eps, k, sides[k], cfg)
                records.append(rec)
                if b is not None:
                    b_max, l_max = max(b_max, b), max(l_max, l)

    # trivial row: identical inputs, both sides exactly zero
    rec, _, _ = _solve_pair_record("init", 0.0, 0, sides[0], cfg)
    rec["channel"] = "identical"
    rec["ratio"] = None
    records.append(rec)

    # trivial rows: zero field, initial-value channel; ratio is exactly 1
    driver = make_trig_driver([cfg["seed"], 500, 0], cfg["d"], amp=0.5)
    zeroV = PolyVectorField.zero(cfg["e"], cfg["d"])
    rng = _seed_stream(cfg["seed"], 400, 0)
    y0 = 0.3 * rng.uniform(-1.0, 1.0, cfg["e"])
    du = np.zeros(cfg["e"])
    du[0] = 1.0
    side0 = _base_side((driver, zeroV, y0, zeroV, driver, du), cfg)
    for eps in cfg["eps_grid"]:
        rec, _, _ = _solve_pair_record("init", eps, 0, side0, cfg)
        rec["channel"] = "zero-field"
        records.append(rec)

    per_channel = {}
    for channel in channels:
        per_channel[channel] = {}
        for eps in cfg["eps_grid"]:
            ratios = [r["ratio"] for r in records
                      if r["channel"] == channel and r["eps"] == eps
                      and r.get("ratio") is not None]
            per_channel[channel][f"{eps:g}"] = {
                "max_ratio": max(ratios) if ratios else None,
                "median_ratio": float(np.median(ratios)) if ratios else None,
                "n": len(ratios),
            }
    stability = {}
    for channel in channels:
        lo = per_channel[channel][f"{min(cfg['eps_grid']):g}"]["max_ratio"]
        hi = per_channel[channel][f"{max(cfg['eps_grid']):g}"]["max_ratio"]
        stability[channel] = (lo / hi) if (lo and hi) else None

    ratios = [r["ratio"] for r in records if r.get("ratio")]
    return {
        "kind": "lipschitz_sweep",
        "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in cfg.items()},
        "hypothesis": {"driver_norm_bound_b": b_max, "field_lip_bound_l": l_max,
                       "gamma": cfg["level"] + 1 - GAMMA_DELTA,
                       "lip_ball_radius": LIP_RADIUS},
        "n_pairs": len(records),
        "records": records,
        "per_channel": per_channel,
        "stability_factor": stability,
        "fitted_constant": max(ratios) if ratios else None,
    }


# ----------------------------------------------- Lipschitz-proof control pair

def stability_controls(X1: SampledRoughPath, X2: SampledRoughPath,
                       alpha: float, p: float) -> dict:
    """The two interval functions from the solution-map continuity proof:

      omega  = ||X1||^{1/a}_{1/a-var} + ||X2||^{1/a}_{1/a-var}
               + sum_k (rho_k,1/a-var / rho_k,mixed)^{1/(a k)}      (a control)
      omega' = ||X1_{s,t}||^{1/a} + ||X2_{s,t}||^{1/a}
               + sum_k (|pi_k Delta| / rho_hat_k)^{1/(a k)}         (not a control)

    evaluated on the dyadic interval family, with the pointwise comparison
    omega' <= omega and the superadditivity check for omega."""
    n = X1.n_nodes
    rho_hat = inhom_sobolev_dist(X1, X2, alpha, p)
    intervals = [(np.arange(0, n - 1, 1 << i), np.arange(1 << i, n, 1 << i))
                 for i in range(X1.depth, -1, -1)]

    def dyadic(block, power):
        """The interval table of block(...) ** power, its entries at the
        dyadic pairs and the block values there, one array per level."""
        raw = [np.empty(lo.size) for lo, _ in intervals]

        def weights(r0, r1, c0, c1):
            vals = block(r0, r1, c0, c1)
            for (lo, hi), out in zip(intervals, raw):  # the dyadic pairs in these rows
                mine = (lo >= r0) & (lo < r1)
                out[mine] = vals[lo[mine] - r0, hi[mine] - c0]
            return vals ** power

        table = _interval_table(weights, n)
        return table, [table[lo, hi] for lo, hi in intervals], raw

    # each table is dropped before the next is built
    (t1, d1), (t2, d2) = [dyadic(X.dist_block, 1.0 / alpha)[1:] for X in (X1, X2)]
    levels = []
    for k in _dist_levels(alpha, X1.alg.level):
        table, tab, dif = dyadic(lambda *span: _level_diffs(X1, X2, k, *span), 1.0 / (alpha * k))
        levels.append((k, _mixed_variation(table, alpha, p) ** (k / p), tab, dif))
        del table

    omega_levels, omega_prime_levels = [], []
    for j in range(len(intervals)):
        om = t1[j] + t2[j]
        omp = d1[j] ** (1.0 / alpha) + d2[j] ** (1.0 / alpha)
        for (k, rho_mix_k, tab, dif), rho_hat_k in zip(levels, rho_hat.levels):
            if rho_mix_k > 0:
                om = om + tab[j] / rho_mix_k ** (1.0 / (alpha * k))
            if rho_hat_k > 0:
                omp = omp + (dif[j] / rho_hat_k) ** (1.0 / (alpha * k))
        omega_levels.append(om)
        omega_prime_levels.append(omp)

    omega = IntervalFunction.from_dyadic(omega_levels)
    omega_prime = IntervalFunction.from_dyadic(omega_prime_levels)
    worst_gap = max(float(np.max(b - a)) for a, b in zip(omega_levels, omega_prime_levels))
    ctrl = control_check(omega)
    return {
        "omega": omega,
        "omega_prime": omega_prime,
        "omega_prime_le_omega": worst_gap <= 1e-12,
        "worst_gap": worst_gap,
        "omega_superadditive": ctrl.ok,
        "omega_superadditivity_violation": ctrl.worst,
    }
