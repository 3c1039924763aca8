"""Batch front end: CSV path ingestion, config handling, subcommand
dispatch and JSON report emission.

Exit codes: 0 success, 1 input/usage error, 2 numeric failure
(solver blow-up or non-convergence).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import click
import numpy as np

from . import harness
from .algebra import AlgebraError
from .controlled import (compose_smooth, coordinate_controlled, remainder_norm_hatW,
                         remainder_norm_tildeV, rough_integral)
from .fields import FieldError, PolyVectorField
from .paths import (PathError, SampledRoughPath, holder_norm, inhom_sobolev_dist,
                    mixed_dist, pair_norms, sobolev_norm_dyadic, _check_admissible,
                    _floor_bracket)
from .rde import BlowUpError, NonConvergenceError, solve_euler, solve_picard_level2, windowed_solve
from .report import build_report, write_report


class InputError(ValueError):
    pass


class CsvError(InputError):
    def __init__(self, msg: str, line: int):
        super().__init__(f"line {line}: {msg}")
        self.line = line


@dataclass
class RunConfig:
    alpha: float = 0.4
    p: float = 4.0
    level: int = 2
    depth: int = 8
    seed: int = 0
    blocks: dict = field(default_factory=dict)

    @classmethod
    def assemble(cls, alpha, p, level, depth, seed, config_path) -> "RunConfig":
        """Merge flags with an optional JSON config file (file wins)."""
        blocks = {}
        if config_path is not None:
            try:
                with open(config_path) as fh:
                    blocks = json.load(fh)
            except OSError as exc:
                raise InputError(f"cannot read config file: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise InputError(f"config file is not valid JSON: {exc}") from exc
            if not isinstance(blocks, dict):
                raise InputError("config file must hold a JSON object")
        alpha = _number("alpha", blocks.pop("alpha", alpha))
        p = _number("p", blocks.pop("p", p))
        level = blocks.pop("level", level)
        depth = _integer("depth", blocks.pop("depth", depth))
        seed = _integer("seed", blocks.pop("seed", seed))
        if depth < 0:
            raise InputError(f"depth={depth} is negative")
        try:
            _check_admissible(alpha, p)
        except PathError as exc:
            raise InputError(str(exc)) from None
        bracket = _floor_bracket(1.0 / alpha)
        level = bracket if level is None else _integer("level", level)
        if level != bracket:
            click.echo(f"warning: level {level} overrides [1/alpha] = {bracket}", err=True)
        return cls(alpha, p, level, depth, seed, blocks)

    def block(self, name: str, *keys: str) -> dict:
        """A copy of config block `name`, with the run's value of each unset key."""
        block = self.blocks.get(name, {})
        return {**block, **{key: getattr(self, key) for key in keys if key not in block}}

    def echo(self, subcommand: str, **extra) -> dict:
        cfg = {
            "subcommand": subcommand,
            "alpha": self.alpha,
            "p": "inf" if self.p == math.inf else self.p,
            "level": self.level,
            "depth": self.depth,
            "seed": self.seed,
            **extra,
        }
        if self.blocks:
            cfg["blocks"] = self.blocks
        return cfg


def _number(key: str, value) -> float:
    """A config value as a float: a number, or a string such as '4' or 'inf'."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise InputError(f"{key}={value!r} is not a number")


def _integer(key: str, value) -> int:
    """A config value as an int: an integer, or a float with an integer value."""
    if isinstance(value, bool) or not (isinstance(value, int)
                                       or isinstance(value, float) and value.is_integer()):
        raise InputError(f"{key}={value!r} is not an integer")
    return int(value)


def ingest_csv(path: str, depth: int):
    """Read a `t,x1,...,xd` CSV, resample onto the depth-J dyadic grid by
    linear interpolation, and report the largest displacement the
    resampling introduced at the original sample times."""
    try:
        with open(path, newline="") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise CsvError("empty file", 1)
    header = [h.strip() for h in lines[0].split(",")]
    if len(header) < 2 or header[0] != "t" or \
            header[1:] != [f"x{i}" for i in range(1, len(header))]:
        raise CsvError(f"header must be t,x1,...,xd; got {lines[0]!r}", 1)
    d = len(header) - 1
    ts, xs = [], []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) != d + 1:
            raise CsvError(f"expected {d + 1} cells, got {len(cells)}", lineno)
        try:
            vals = [float(c) for c in cells]
        except ValueError:
            raise CsvError(f"non-numeric cell in {raw!r}", lineno) from None
        if not all(math.isfinite(v) for v in vals):
            raise CsvError("non-finite value", lineno)
        if ts and vals[0] <= ts[-1]:
            raise CsvError(f"t must be strictly increasing; t={vals[0]} after {ts[-1]}", lineno)
        ts.append(vals[0])
        xs.append(vals[1:])
    if len(ts) < 2:
        raise CsvError("need at least two data rows", len(lines))
    ts = np.asarray(ts)
    xs = np.asarray(xs)
    t0, t1 = ts[0], ts[-1]
    rescaled = not (t0 == 0.0 and t1 == 1.0)
    tt = (ts - t0) / (t1 - t0)
    grid = np.linspace(0.0, 1.0, (1 << depth) + 1)
    samples = np.stack([np.interp(grid, tt, xs[:, i]) for i in range(d)], axis=1)
    back = np.stack([np.interp(tt, grid, samples[:, i]) for i in range(d)], axis=1)
    displacement = float(np.max(np.linalg.norm(back - xs, axis=1)))
    info = {
        "rows": int(len(ts)),
        "dim": d,
        "time_rescaled": rescaled,
        "time_range": [float(t0), float(t1)],
        "max_resample_displacement": displacement,
    }
    return samples, info


def _load_path(cfg: RunConfig, csv: str | None) -> tuple[SampledRoughPath, dict]:
    if csv is not None:
        samples, info = ingest_csv(csv, cfg.depth)
        info["source"] = "csv"
    elif "family" in cfg.blocks:
        fam = cfg.blocks["family"]
        kind = fam.get("kind", "trig")
        d = int(fam.get("d", 1))
        if kind == "trig":
            drv = harness.make_trig_driver([cfg.seed, 500, int(fam.get("index", 0))], d,
                                           amp=float(fam.get("amp", 0.5)))
            samples = drv.samples(cfg.depth)
        elif kind == "walk":
            samples = harness.make_walk_samples(
                [cfg.seed, int(fam.get("index", 0))], d,
                int(fam.get("base_depth", cfg.depth)), float(fam.get("roughness", 0.6)),
                cfg.depth)
        elif kind == "linear":
            samples = np.linspace(0.0, 1.0, (1 << cfg.depth) + 1)[:, None] \
                * np.asarray(fam.get("direction", [1.0] * d))
        else:
            raise InputError(f"unknown family kind {kind!r}")
        info = {"source": f"family:{kind}", "dim": samples.shape[1]}
    else:
        raise InputError("no input path: pass --csv or a 'family' config block")
    X = SampledRoughPath.from_samples(samples, cfg.level, cfg.alpha, cfg.p,
                                      depth=cfg.depth)
    return X, info


# ------------------------------------------------------------------ commands

@click.group(name="sobrough")
def cli():
    """Rough-path numerics: norms, distances, integration, RDE solving
    and verification studies, reported as JSON."""


def _common(fn):
    fn = click.option("--alpha", type=float, default=0.4, show_default=True,
                      help="Sobolev regularity exponent")(fn)
    fn = click.option("--p", "p_", default="4", show_default=True,
                      help="integrability exponent (number or 'inf')")(fn)
    fn = click.option("--level", type=int, default=None,
                      help="tensor truncation level (default [1/alpha])")(fn)
    fn = click.option("--depth", type=int, default=8, show_default=True,
                      help="dyadic grid depth J")(fn)
    fn = click.option("--seed", type=int, default=0, show_default=True)(fn)
    fn = click.option("--config", "config_path", type=str, default=None,
                      help="JSON config file; overrides flags")(fn)
    fn = click.option("--out", type=str, default=None,
                      help="report file (default stdout)")(fn)
    return fn


@cli.command()
@_common
@click.option("--csv", type=str, required=True, help="input path CSV")
def lift(alpha, p_, level, depth, seed, config_path, out, csv):
    """Resample a CSV path onto the dyadic grid and lift it to level N."""
    cfg = RunConfig.assemble(alpha, p_, level, depth, seed, config_path)
    samples, info = ingest_csv(csv, cfg.depth)
    X = SampledRoughPath.from_samples(samples, cfg.level, cfg.alpha, cfg.p,
                                      depth=cfg.depth)
    results = {
        "ingest": info,
        "grid_times": X.times,
        "values": samples,
        "terminal_signature": [X.nodes[-1, X.alg.slice(k)].tolist()
                               for k in range(cfg.level + 1)],
    }
    prov = {"results.ingest": "computed", "results.values": "computed",
            "results.terminal_signature": "computed"}
    write_report(build_report(cfg.echo("lift", csv=csv), results, prov), out)


@cli.command()
@_common
@click.option("--csv", type=str, default=None, help="input path CSV")
def norm(alpha, p_, level, depth, seed, config_path, out, csv):
    """All norms of one path: integral/dyadic Sobolev, Hoelder, q-variation."""
    cfg = RunConfig.assemble(alpha, p_, level, depth, seed, config_path)
    X, info = _load_path(cfg, csv)
    results = {"input": info}
    if cfg.p == math.inf:
        results["holder"] = holder_norm(X, cfg.alpha)
    else:
        dy = sobolev_norm_dyadic(X, cfg.alpha, cfg.p)
        pn = pair_norms(X, qvar=1.0 / cfg.alpha, holder=cfg.alpha, integral=(cfg.alpha, cfg.p))
        results["sobolev_integral"] = pn.integral
        results["sobolev_dyadic"] = dy.value
        results["sobolev_dyadic_tail"] = dy.tail
        results["holder"] = pn.holder
        results["qvar"] = pn.qvar
    prov = {f"results.{k}": "computed" for k in results if k != "input"}
    write_report(build_report(cfg.echo("norm", csv=csv), results, prov), out)


@cli.command()
@_common
@click.option("--csv", type=str, required=True, help="first path CSV")
@click.option("--csv2", type=str, required=True, help="second path CSV")
def dist(alpha, p_, level, depth, seed, config_path, out, csv, csv2):
    """Inhomogeneous distances between two paths on a shared grid."""
    cfg = RunConfig.assemble(alpha, p_, level, depth, seed, config_path)
    if cfg.p == math.inf:
        raise InputError("distances require finite p")
    X1, info1 = _load_path(cfg, csv)
    X2, info2 = _load_path(cfg, csv2)
    rho = inhom_sobolev_dist(X1, X2, cfg.alpha, cfg.p)
    mix = mixed_dist(X1, X2, cfg.alpha, cfg.p)
    results = {
        "input1": info1, "input2": info2,
        "inhom_sobolev_levels": list(rho.levels),
        "inhom_sobolev": rho.total,
        "mixed_levels": list(mix.levels),
        "mixed": mix.value,
        "inhom_qvar_levels": list(mix.qvar_levels),
    }
    prov = {f"results.{k}": "computed" for k in results if not k.startswith("input")}
    write_report(build_report(cfg.echo("dist", csv=csv, csv2=csv2), results, prov), out)


@cli.command()
@_common
@click.option("--csv", type=str, default=None, help="driver path CSV")
def integrate(alpha, p_, level, depth, seed, config_path, out, csv):
    """Rough integral of F(X) against X for a polynomial integrand map F."""
    cfg = RunConfig.assemble(alpha, p_, level, depth, seed, config_path)
    if cfg.level != 2:
        raise InputError("rough integration requires level 2")
    X, info = _load_path(cfg, csv)
    base = coordinate_controlled(X)
    integrand_cfg = cfg.blocks.get("integrand")
    if integrand_cfg is not None:
        integrand = compose_smooth(PolyVectorField.from_config(integrand_cfg), base)
    else:
        integrand = compose_smooth(
            PolyVectorField.linear(_diag_embedding(X.alg.dim)), base)
    res = rough_integral(integrand)
    results = {
        "input": info,
        "values": res.values,
        "terminal": res.values[-1],
        "refinement_values": res.refinement,
        "refinement_order": res.refinement_order,
        "remainder_tildeV": remainder_norm_tildeV(res.remainder, cfg.alpha, cfg.p),
        "remainder_hatW": remainder_norm_hatW(res.remainder, cfg.alpha, cfg.p),
    }
    prov = {f"results.{k}": "computed" for k in results if k != "input"}
    write_report(build_report(cfg.echo("integrate", csv=csv), results, prov), out)


def _diag_embedding(d: int) -> np.ndarray:
    A = np.zeros((d, d, d))
    for i in range(d):
        A[i, i, i] = 1.0
    return A


@cli.command()
@_common
@click.option("--csv", type=str, default=None, help="driver path CSV")
def solve(alpha, p_, level, depth, seed, config_path, out, csv):
    """Solve dY = V(Y) dX by the Euler or Picard scheme."""
    cfg = RunConfig.assemble(alpha, p_, level, depth, seed, config_path)
    X, info = _load_path(cfg, csv)
    field_cfg = cfg.blocks.get("field")
    if field_cfg is None:
        raise InputError("no vector field: add a 'field' block to the config")
    V = PolyVectorField.from_config(field_cfg)
    if V.d != X.alg.dim:
        raise InputError(f"field drives {V.d} directions, path has {X.alg.dim}")
    y0 = np.asarray(cfg.blocks.get("y0", [0.0] * V.e), dtype=float)
    scheme = cfg.blocks.get("scheme", "euler")
    if scheme == "euler":
        sol = solve_euler(y0, V, X, step_depth=cfg.blocks.get("step_depth"))
    elif scheme == "picard":
        sol = solve_picard_level2(y0, V, X, tol=cfg.blocks.get("tol", 1e-9),
                                  max_iter=cfg.blocks.get("max_iter", 100))
    elif scheme == "windowed":
        sol = windowed_solve(y0, V, X, splits=cfg.blocks.get("splits", ()),
                             tol=cfg.blocks.get("tol", 1e-9),
                             max_iter=cfg.blocks.get("max_iter", 100))
    else:
        raise InputError(f"unknown scheme {scheme!r}")
    results = {
        "input": info,
        "scheme": sol.scheme,
        "step_depth": sol.step_depth,
        "values": sol.values,
        "terminal": sol.terminal,
        "meta": {k: v for k, v in sol.meta.items() if k != "step_increment_norms"},
    }
    prov = {"results.values": "computed", "results.terminal": "computed"}
    write_report(build_report(cfg.echo("solve", csv=csv), results, prov), out)


@cli.command()
@_common
def sweep(alpha, p_, level, depth, seed, config_path, out):
    """Solution-map Lipschitz sweep across perturbation channels."""
    cfg = RunConfig.assemble(alpha, p_, level, depth, seed, config_path)
    sweep_cfg = cfg.block("sweep", "alpha", "p", "level", "depth", "seed")
    rep = harness.lipschitz_sweep(sweep_cfg)
    prov = {"results.records": "computed", "results.per_channel": "computed",
            "results.stability_factor": "computed", "results.fitted_constant": "fitted"}
    write_report(build_report(cfg.echo("sweep"), rep, prov), out)


_STUDIES = {
    "equivalence": harness.equivalence_study,
    "embedding": harness.embedding_study,
    "convergence": harness.convergence_study,
    "apriori": harness.apriori_study,
}


@cli.command()
@_common
@click.option("--name", type=click.Choice(sorted(_STUDIES)), required=True)
def study(alpha, p_, level, depth, seed, config_path, out, name):
    """Run a verification study (equivalence, embedding, convergence, apriori)."""
    cfg = RunConfig.assemble(alpha, p_, level, depth, seed, config_path)
    study_cfg = cfg.block("study", "alpha", "p", "level", "seed")
    if name in ("embedding", "apriori"):
        study_cfg.setdefault("depth", min(cfg.depth, 7))
    rep = _STUDIES[name](study_cfg)
    prov = {"results.records": "computed"}
    for key in ("fitted_constant", "calibration_max_ratio"):
        if key in rep:
            prov[f"results.{key}"] = "fitted"
    write_report(build_report(cfg.echo("study", study=name), rep, prov), out)


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.UsageError as exc:
        if exc.ctx is not None and not isinstance(exc, click.exceptions.NoSuchOption):
            click.echo(exc.ctx.get_usage(), err=True)
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        return 1
    except (InputError, PathError, AlgebraError, FieldError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except (BlowUpError, NonConvergenceError, FloatingPointError, ArithmeticError) as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
