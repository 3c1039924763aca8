"""Acceptance suite: one test per criterion, each printing a pass line
with its measured numbers (run with `pytest -s` to see them inline).

Tolerances are pinned here, not configurable.
"""

import json
import math
import time

import jsonschema
import numpy as np
import pytest

from sobrough import algebra as A
from sobrough import harness as H
from sobrough import paths as P
from sobrough import rde
from sobrough.cli import main as cli_main
from sobrough.controlled import (ControlledPath, compose_smooth,
                                 coordinate_controlled, remainder_norm_tildeV,
                                 rough_integral)
from sobrough.fields import PolyMap, PolyVectorField
from sobrough.report import load_schema

import oracles

ALPHA, PP = 0.4, 4.0


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status}  criterion {num}: {detail}")
    assert ok, detail


def test_criterion_1_algebra_suite():
    t0 = time.perf_counter()
    cells = [(1, 1), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)]
    worst = 0.0
    for i in range(1000):
        d, N = cells[i % len(cells)]
        rng = np.random.default_rng(1000 + i)
        alg = A.TensorAlgebra(d, N)

        a = A.TruncatedTensor(alg, rng.standard_normal(alg.length))
        b = A.TruncatedTensor(alg, rng.standard_normal(alg.length))
        c = A.TruncatedTensor(alg, rng.standard_normal(alg.length))
        assoc = (A.tensor_mul(A.tensor_mul(a, b), c)
                 - A.tensor_mul(a, A.tensor_mul(b, c))).max_abs()

        g = A.random_group_element(alg, rng)
        inv = (A.tensor_mul(g, A.group_inverse(g)) - A.identity(alg)).max_abs()

        ell_data = 0.6 * rng.standard_normal(alg.length)
        ell_data[0] = 0.0
        ell = A.TruncatedTensor(alg, ell_data)
        rt = (A.log(A.exp(ell)) - ell).max_abs()

        pts = 0.8 * rng.standard_normal((3, d))
        sig = A.signature_path(pts, N)
        chen = A.rho_metric(
            A.tensor_mul(A.increment(sig[0], sig[1]), A.increment(sig[1], sig[2])),
            A.increment(sig[0], sig[2]))

        worst = max(worst, assoc, inv, rt, chen)
    elapsed = time.perf_counter() - t0
    _report(1, worst < 1e-10 and elapsed < 10.0,
            f"algebra suite worst violation {worst:.2e} over 1000 instances "
            f"in {elapsed:.1f}s (<10s)")


def test_criterion_2_closed_form_norms():
    t0 = time.perf_counter()
    J = 12
    ts = np.linspace(0.0, 1.0, (1 << J) + 1)[:, None]
    X = P.SampledRoughPath.from_samples(ts, 1, ALPHA, PP)
    vi = P.sobolev_norm_integral(X, ALPHA, PP)
    vd = P.sobolev_norm_dyadic(X, ALPHA, PP).value
    exact_int = (2.0 / (PP * (1 - ALPHA) * (PP * (1 - ALPHA) + 1))) ** (1 / PP)
    exact_dy = (1.0 / (1.0 - 2.0 ** (-PP * (1 - ALPHA)))) ** (1 / PP)
    ei = abs(vi - exact_int) / exact_int
    ed = abs(vd - exact_dy) / exact_dy
    elapsed = time.perf_counter() - t0
    _report(2, ei < 0.01 and ed < 0.01 and elapsed < 5.0,
            f"integral {vi:.4f} (target {exact_int:.4f}, rel {ei:.1e}), "
            f"dyadic {vd:.4f} (target {exact_dy:.4f}, rel {ed:.1e}) "
            f"at J=12 in {elapsed:.1f}s (<5s)")


def test_criterion_3_norm_equivalence():
    rep = H.equivalence_study({"n_paths": 200, "depths": [8, 10], "seed": 42})
    c1, c2 = rep["ratio_interval"]
    spread = rep["interval_spread"]
    move = rep["max_rel_movement"]
    _report(3, spread <= 20.0 and move < 0.05,
            f"ratio interval [{c1:.3f}, {c2:.3f}], spread {spread:.2f} (<=20), "
            f"max per-path movement J=8->10 {move:.3%} (<5%)")


def test_criterion_4_small_instance_oracles():
    mismatches = 0
    # q-variation on 6-point vector paths
    for seed in range(100):
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal((6, 2))
        q = 1.0 + 2.5 * rng.random()
        dist = P.VectorPath(vals).dist_matrix(0, 6)
        if P.qvar_norm(vals, q) != oracles.enum_qvar(dist, q):
            mismatches += 1
    # inhomogeneous variation and mixed distances on 5-point level-2 lifts
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        pts1 = np.vstack([np.zeros(2), np.cumsum(0.5 * rng.standard_normal((4, 2)), axis=0)])
        pts2 = np.vstack([np.zeros(2), np.cumsum(0.5 * rng.standard_normal((4, 2)), axis=0)])
        X1 = P.SampledRoughPath.from_samples(pts1, 2, ALPHA, PP)
        X2 = P.SampledRoughPath.from_samples(pts2, 2, ALPHA, PP)
        qv = P.inhom_qvar_dist(X1, X2, ALPHA)
        mx = P.mixed_dist(X1, X2, ALPHA, PP)
        for k in (1, 2):
            diff = oracles.pair_level_diff_matrix(X1, X2, k, 0, 5)
            if qv[k - 1] != oracles.enum_inhom_qvar_level(diff, ALPHA, k):
                mismatches += 1
            if mx.levels[k - 1] != oracles.enum_mixed_level(diff, ALPHA, PP, k):
                mismatches += 1
    # remainder mixed-variation norm on 5-point magnitude matrices
    for seed in range(100):
        rng = np.random.default_rng(20_000 + seed)
        pair = np.triu(rng.random((5, 5)), k=1)[:, :, None]
        R = P.IntervalFunction.from_pair_matrix(pair)
        if remainder_norm_tildeV(R, ALPHA, PP) != \
                oracles.enum_tildeV(R.pair_norms(), ALPHA, PP):
            mismatches += 1
    _report(4, mismatches == 0,
            f"{mismatches} mismatches vs exhaustive partition enumeration "
            "(qvar, inhom qvar, mixed, remainder tildeV; 100 instances each)")


def test_criterion_5_rough_integral():
    J = 10
    ts = np.linspace(0.0, 1.0, (1 << J) + 1)
    X = P.SampledRoughPath.from_samples(ts[:, None], 2, ALPHA, PP)
    cp = ControlledPath(X, ts[:, None, None], np.ones((X.n_nodes, 1, 1, 1)))
    tel_err = abs(rough_integral(cp).values[-1, 0] - 0.5)

    drv = H.make_trig_driver(11, 1)
    F = PolyVectorField(PolyMap(1, (1, 1), {(1,): np.array([[1.0]]),
                                            (2,): np.array([[0.4]])}))
    errs = []
    depths = (6, 7, 8, 9, 10)
    for j in depths:
        Xj = H.lift_smooth(drv.samples(j), 2, j, ALPHA, PP)
        cpj = compose_smooth(F, coordinate_controlled(Xj))
        val = rough_integral(cpj).values[-1, 0]
        fine = drv.samples(j + 6)
        oracle = oracles.trapezoid_stieltjes(F.eval_batch(fine), fine)[0]
        errs.append(abs(val - oracle))
    order = -np.polyfit(depths, np.log2(errs), 1)[0]
    _report(5, tel_err <= 1e-14 and order >= 3 * ALPHA - 1 - 0.1,
            f"telescoping error {tel_err:.1e} (<=1e-14), smooth-lift refinement "
            f"order {order:.2f} (>= {3 * ALPHA - 1 - 0.1:.2f}) over J=6..10")


def test_criterion_6_rde_solvers():
    t0 = time.perf_counter()
    V = PolyVectorField.scalar([0.0, 1.0])
    J = 10
    ts = np.linspace(0.0, 1.0, (1 << J) + 1)[:, None]
    X = P.SampledRoughPath.from_samples(ts, 2, ALPHA, PP)
    errs = [abs(rde.solve_euler(np.array([1.0]), V, X, step_depth=j).terminal[0] - np.e)
            for j in range(4, 11)]
    monotone = all(b < a for a, b in zip(errs, errs[1:]))

    pic = rde.solve_picard_level2(np.array([1.0]), V, X)
    eul = rde.solve_euler(np.array([1.0]), V, X)
    agree = float(np.max(np.abs(pic.values - eul.values)))

    study = H.convergence_study({"depths": [4, 5, 6, 7, 8, 9, 10],
                                 "seed": 0, "refinement": 64})
    elapsed = time.perf_counter() - t0
    ok = (monotone and errs[-1] < 1e-6 and agree < 1e-6
          and study["min_order_n2"] >= 1.9 and elapsed < 60.0)
    _report(6, ok,
            f"e^t error at J=10 {errs[-1]:.1e} (monotone {monotone}), "
            f"Euler-Picard gap {agree:.1e} (<1e-6), min N=2 order "
            f"{study['min_order_n2']:.2f} (>=1.9), total {elapsed:.0f}s (<60s)")


def test_criterion_7_fitted_bounds_zero_violations():
    emb = H.embedding_study({"n_paths": 200, "depth": 7, "seed": 7})
    apr = H.apriori_study({"n_paths": 200, "depth": 7, "seed": 7})
    ok = (emb["heldout_violations"] == 0 and apr["heldout_violations"] == 0
          and emb["n_heldout"] >= 100)
    _report(7, ok,
            f"embedding violations {emb['heldout_violations']}/{emb['n_heldout']} "
            f"intervals on 100 held-out paths, a-priori violations "
            f"{apr['heldout_violations']}/100 (both must be zero)")


def test_criterion_8_lipschitz_sweep():
    t0 = time.perf_counter()
    rep = H.lipschitz_sweep({"seed": 0})
    elapsed = time.perf_counter() - t0
    ok = rep["n_pairs"] == 64 and elapsed < 300.0
    for channel, factor in rep["stability_factor"].items():
        ok = ok and factor is not None and factor <= 2.0
    trivial = [r for r in rep["records"] if r["channel"] == "identical"][0]
    ok = ok and trivial["solution_gap"] == 0.0 and trivial["rho_hat"] == 0.0 \
        and trivial["rho_mixed"] == 0.0 and trivial["ratio"] is None
    for r in rep["records"]:
        if r["channel"] == "zero-field":
            ok = ok and r["ratio"] == 1.0 and r["solution_gap"] == r["dy0"]
    factors = {c: round(f, 3) for c, f in rep["stability_factor"].items()}
    _report(8, ok,
            f"64 pairs in {elapsed:.0f}s (<300s), per-channel ratio stability "
            f"factors {factors} (all <=2), trivial rows exact")


def test_criterion_9_cli_contract(tmp_path, capsys):
    schema = load_schema()
    f = tmp_path / "p.csv"
    ts = [float(t) for t in np.linspace(0.0, 1.0, 33)]
    rows = ["t,x1,x2"] + [f"{t!r},{math.sin(t)!r},{t * t!r}" for t in ts]
    f.write_text("\n".join(rows) + "\n")
    g = tmp_path / "q.csv"
    rows = ["t,x1,x2"] + [f"{t!r},{math.sin(t) + 0.05 * t!r},{t * t!r}" for t in ts]
    g.write_text("\n".join(rows) + "\n")
    solve_cfg = tmp_path / "solve.json"
    solve_cfg.write_text(json.dumps({
        "field": {"kind": "linear", "A": np.zeros((1, 2, 1)).tolist(), "b": [[1.0, 0.5]]},
        "y0": [0.0], "scheme": "picard"}))
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps({"sweep": {"pairs_per_cell": 1, "depth": 4}}))
    study_cfg = tmp_path / "study.json"
    study_cfg.write_text(json.dumps({"study": {"n_paths": 4, "depths": [5]}}))

    runs = [
        ["lift", "--csv", str(f), "--depth", "5"],
        ["norm", "--csv", str(f), "--depth", "5"],
        ["dist", "--csv", str(f), "--csv2", str(g), "--depth", "5"],
        ["integrate", "--csv", str(f), "--depth", "5"],
        ["solve", "--csv", str(f), "--depth", "5", "--config", str(solve_cfg)],
        ["sweep", "--depth", "4", "--seed", "3", "--config", str(sweep_cfg)],
        ["study", "--name", "equivalence", "--config", str(study_cfg)],
    ]
    n_valid = 0
    for args in runs:
        code = cli_main(args)
        out, err = capsys.readouterr()
        assert code == 0, (args, err)
        jsonschema.validate(json.loads(out), schema)
        n_valid += 1

    # determinism: same seed, identical bytes
    args = ["sweep", "--depth", "4", "--seed", "3", "--config", str(sweep_cfg)]
    cli_main(args)
    out1, _ = capsys.readouterr()
    cli_main(args)
    out2, _ = capsys.readouterr()
    deterministic = out1 == out2

    # fault injection: exit 1 on bad input, 2 on numeric failure
    bad = tmp_path / "bad.csv"
    bad.write_text("t,x1\n0,0\n0.5,1\n0.4,2\n")
    code_bad = cli_main(["norm", "--csv", str(bad)])
    capsys.readouterr()
    code_usage = cli_main(["frobnicate"])
    capsys.readouterr()
    div_cfg = tmp_path / "div.json"
    div_cfg.write_text(json.dumps({"field": {"kind": "scalar", "coeffs": [0.0, 5.0]},
                                   "y0": [1.0], "scheme": "picard", "max_iter": 2}))
    lin = tmp_path / "lin.csv"
    lin.write_text("t,x1\n0,0\n1,1\n")
    code_numeric = cli_main(["solve", "--csv", str(lin), "--depth", "5",
                             "--config", str(div_cfg)])
    capsys.readouterr()

    ok = (n_valid == len(runs) and deterministic
          and code_bad == 1 and code_usage == 1 and code_numeric == 2)
    with capsys.disabled():
        _report(9, ok,
                f"{n_valid}/{len(runs)} subcommands schema-valid, deterministic bytes "
                f"{deterministic}, exit codes (input {code_bad}, usage {code_usage}, "
                f"numeric {code_numeric}) = (1, 1, 2)")
