import json
import math
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

import sobrough
from sobrough import cli
from sobrough import paths as P
from sobrough.cli import CsvError, InputError, RunConfig, ingest_csv, main
from sobrough.report import load_schema


@pytest.fixture
def schema():
    return load_schema()


def write_csv(path, ts, xs):
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    d = xs.shape[1]
    header = "t," + ",".join(f"x{i}" for i in range(1, d + 1))
    rows = [header]
    for t, row in zip(ts, xs):
        rows.append(",".join([repr(float(t))] + [repr(float(v)) for v in row]))
    path.write_text("\n".join(rows) + "\n")


def run_cli(args, capsys):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


class TestIngest:
    def test_two_row_linear(self, tmp_path):
        f = tmp_path / "p.csv"
        write_csv(f, [0.0, 1.0], [[0.0], [1.0]])
        samples, info = ingest_csv(str(f), 4)
        assert np.allclose(samples[:, 0], np.linspace(0, 1, 17), atol=1e-15)
        assert info["max_resample_displacement"] == 0.0
        assert not info["time_rescaled"]

    def test_decreasing_time_names_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("t,x1\n0,0\n0.5,1\n0.4,2\n")
        with pytest.raises(CsvError) as exc:
            ingest_csv(str(f), 3)
        assert exc.value.line == 4

    def test_ragged_and_nonnumeric(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("t,x1\n0,0\n0.5,1,9\n")
        with pytest.raises(CsvError) as exc:
            ingest_csv(str(f), 3)
        assert exc.value.line == 3
        f.write_text("t,x1\n0,0\n0.5,zzz\n")
        with pytest.raises(CsvError):
            ingest_csv(str(f), 3)

    def test_header_validated(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("time,x1\n0,0\n1,1\n")
        with pytest.raises(CsvError) as exc:
            ingest_csv(str(f), 3)
        assert exc.value.line == 1

    def test_smooth_resampling_displacement(self, tmp_path):
        ts = np.linspace(0, 1, 101)
        xs = np.sin(2 * np.pi * ts)[:, None]
        f = tmp_path / "smooth.csv"
        write_csv(f, ts, xs)
        samples, info = ingest_csv(str(f), 6)
        # displacement bounded by the interpolation error of the coarser grid
        assert info["max_resample_displacement"] < (2 * np.pi / 64) ** 2

    def test_round_trip_identical_grid_values(self, tmp_path):
        rng = np.random.default_rng(0)
        ts = np.linspace(0, 1, 33)
        xs = rng.standard_normal((33, 2))
        f = tmp_path / "p.csv"
        write_csv(f, ts, xs)
        samples, _ = ingest_csv(str(f), 5)
        f2 = tmp_path / "q.csv"
        write_csv(f2, np.linspace(0, 1, 33), samples)
        samples2, _ = ingest_csv(str(f2), 5)
        assert np.array_equal(samples, samples2)


class TestRunConfig:
    def test_inadmissible_rejected(self):
        with pytest.raises(InputError):
            RunConfig.assemble(0.2, "4", None, 8, 0, None)

    def test_level_default_is_bracket(self):
        cfg = RunConfig.assemble(0.4, "4", None, 8, 0, None)
        assert cfg.level == 2
        cfg = RunConfig.assemble(0.3, "5", None, 8, 0, None)
        assert cfg.level == 3

    def test_config_file_overrides_flags(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"alpha": 0.45, "depth": 5, "family": {"kind": "trig"}}))
        cfg = RunConfig.assemble(0.4, "4", None, 8, 0, str(f))
        assert cfg.alpha == 0.45
        assert cfg.depth == 5
        assert "family" in cfg.blocks

    def test_p_inf_parsing(self):
        cfg = RunConfig.assemble(0.4, "inf", 2, 8, 0, None)
        assert cfg.p == float("inf")

    def test_admissibility_is_the_library_rule(self):
        # alpha * p rounds to 1.0 while alpha > 1/p: the paths accept this
        # pair, so the CLI does too
        alpha, p = 0.3435917406596088, "2.9104308447003246"
        assert alpha * float(p) <= 1.0 and alpha > 1.0 / float(p)
        P.SampledRoughPath.from_samples(np.linspace(0.0, 1.0, 5)[:, None], 1, alpha, float(p))
        cfg = RunConfig.assemble(alpha, p, None, 8, 0, None)
        assert (cfg.alpha, cfg.p) == (alpha, float(p))
        for alpha, p in ((0.4, "1.0"), (1.0, "4"), (0.4, "nan"), (0.25, "4")):
            with pytest.raises(InputError, match="inadmissible"):
                RunConfig.assemble(alpha, p, None, 8, 0, None)

    @pytest.fixture
    def csv(self, tmp_path):
        f = tmp_path / "p.csv"
        write_csv(f, np.linspace(0.0, 1.0, 17), np.linspace(0.0, 1.0, 17)[:, None])
        return str(f)

    @pytest.mark.parametrize("block", [
        {"alpha": "abc"}, {"alpha": None}, {"alpha": True}, {"p": "four"}, {"p": [4]},
        {"level": "two"}, {"level": 2.5}, {"depth": "x"}, {"depth": 2.5}, {"depth": -2},
        {"seed": [1]}, {"seed": 0.5}], ids=json.dumps)
    def test_bad_config_value_exits_1_naming_its_key(self, tmp_path, capsys, csv, block):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(block))
        code, _, err = run_cli(["norm", "--csv", csv, "--config", str(cfg)], capsys)
        (key,) = block
        assert code == 1
        assert err.startswith(f"error: {key}=") and err.count("\n") == 1

    def test_negative_depth_flag_exits_1(self, capsys, csv):
        code, _, err = run_cli(["norm", "--csv", csv, "--depth", "-1"], capsys)
        assert (code, err) == (1, "error: depth=-1 is negative\n")

    def test_integral_floats_and_numeric_strings_accepted(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"alpha": "0.45", "p": "inf", "level": 2.0, "depth": 5.0,
                                   "seed": 3.0}))
        got = RunConfig.assemble(0.4, "4", None, 8, 0, str(cfg))
        assert (got.alpha, got.p, got.level, got.depth, got.seed) == (0.45, math.inf, 2, 5, 3)
        assert all(type(v) is int for v in (got.level, got.depth, got.seed))

    def test_p_inf_accepted_by_norm(self, tmp_path):
        f = tmp_path / "p.csv"
        write_csv(f, np.linspace(0.0, 1.0, 17), np.linspace(0.0, 1.0, 17)[:, None])
        out = tmp_path / "report.json"
        assert main(["norm", "--csv", str(f), "--depth", "4", "--p", "inf",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["p"] == "inf"


class TestSubcommands:
    def test_every_subcommand_schema_valid(self, tmp_path, capsys, schema):
        f = tmp_path / "p.csv"
        ts = np.linspace(0, 1, 33)
        write_csv(f, ts, np.stack([np.sin(ts), ts**2], axis=1))
        g = tmp_path / "q.csv"
        write_csv(g, ts, np.stack([np.sin(ts) + 0.1 * ts, ts**2], axis=1))
        solve_cfg = tmp_path / "solve.json"
        solve_cfg.write_text(json.dumps({
            "field": {"kind": "linear",
                      "A": np.zeros((1, 2, 1)).tolist(),
                      "b": [[1.0, 0.5]]},
            "y0": [0.0], "scheme": "picard"}))
        study_cfg = tmp_path / "study.json"
        study_cfg.write_text(json.dumps({"study": {"n_paths": 4, "depths": [5]}}))
        sweep_cfg = tmp_path / "sweep.json"
        sweep_cfg.write_text(json.dumps({"sweep": {"pairs_per_cell": 1, "depth": 4}}))

        runs = [
            ["lift", "--csv", str(f), "--depth", "5"],
            ["norm", "--csv", str(f), "--depth", "5"],
            ["norm", "--csv", str(f), "--depth", "5", "--p", "inf"],
            ["dist", "--csv", str(f), "--csv2", str(g), "--depth", "5"],
            ["integrate", "--csv", str(f), "--depth", "5"],
            ["solve", "--csv", str(f), "--depth", "5", "--config", str(solve_cfg)],
            ["sweep", "--depth", "4", "--config", str(sweep_cfg)],
            ["study", "--name", "equivalence", "--config", str(study_cfg)],
        ]
        for args in runs:
            code, out, err = run_cli(args, capsys)
            assert code == 0, (args, err)
            rep = json.loads(out)
            jsonschema.validate(rep, schema)
            assert rep["config"]["subcommand"] == args[0]

    def test_determinism_identical_bytes(self, capsys, tmp_path):
        sweep_cfg = tmp_path / "sweep.json"
        sweep_cfg.write_text(json.dumps({"sweep": {"pairs_per_cell": 1, "depth": 4}}))
        args = ["sweep", "--seed", "7", "--config", str(sweep_cfg)]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_determinism_across_processes(self, tmp_path):
        import subprocess
        import sys
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps({"study": {"n_paths": 3, "depths": [5]}}))
        cmd = [sys.executable, "-m", "sobrough.cli", "study", "--name", "equivalence",
               "--seed", "11", "--config", str(cfg)]
        runs = [subprocess.run(cmd, capture_output=True, check=True).stdout
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_out_file_written_atomically(self, tmp_path, capsys):
        f = tmp_path / "p.csv"
        write_csv(f, [0.0, 1.0], [[0.0], [1.0]])
        out = tmp_path / "report.json"
        code, _, _ = run_cli(["norm", "--csv", str(f), "--depth", "4",
                              "--out", str(out)], capsys)
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["results"]["sobolev_integral"] > 0
        assert not list(tmp_path.glob("*.tmp"))

    def test_norm_closed_forms_via_cli(self, tmp_path, capsys):
        f = tmp_path / "lin.csv"
        write_csv(f, [0.0, 1.0], [[0.0], [1.0]])
        code, out, err = run_cli(
            ["norm", "--csv", str(f), "--depth", "10", "--level", "1",
             "--alpha", "0.4", "--p", "4"], capsys)
        assert code == 0
        assert "overrides" in err  # level-1 override warning
        rep = json.loads(out)
        exact_int = (2.0 / (4 * 0.6 * (4 * 0.6 + 1))) ** 0.25
        assert abs(rep["results"]["sobolev_integral"] - exact_int) / exact_int < 0.01

    def test_solve_zero_field_constant_report(self, tmp_path, capsys):
        f = tmp_path / "p.csv"
        write_csv(f, [0.0, 0.5, 1.0], [[0.0], [0.25], [1.0]])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"field": {"kind": "zero", "e": 1, "d": 1},
                                   "y0": [2.5], "scheme": "picard"}))
        code, out, _ = run_cli(["solve", "--csv", str(f), "--depth", "4",
                                "--config", str(cfg)], capsys)
        assert code == 0
        rep = json.loads(out)
        assert all(v == [2.5] for v in rep["results"]["values"])


class TestExitCodes:
    def test_unknown_subcommand_usage_exit1(self, capsys):
        code, out, err = run_cli(["frobnicate"], capsys)
        assert code == 1
        assert "Usage" in err or "usage" in err

    def test_missing_csv_exit1(self, capsys, tmp_path):
        code, _, err = run_cli(["norm", "--csv", str(tmp_path / "nope.csv")], capsys)
        assert code == 1

    def test_bad_rows_exit1(self, tmp_path, capsys):
        f = tmp_path / "bad.csv"
        f.write_text("t,x1\n0,0\n0.5,1\n0.4,2\n")
        code, _, err = run_cli(["norm", "--csv", str(f)], capsys)
        assert code == 1
        assert "line 4" in err

    def test_nonconvergence_exit2(self, tmp_path, capsys):
        f = tmp_path / "p.csv"
        write_csv(f, [0.0, 1.0], [[0.0], [1.0]])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"field": {"kind": "scalar", "coeffs": [0.0, 5.0]},
                                   "y0": [1.0], "scheme": "picard", "max_iter": 2}))
        code, _, err = run_cli(["solve", "--csv", str(f), "--depth", "5",
                                "--config", str(cfg)], capsys)
        assert code == 2

    def test_blowup_exit2(self, tmp_path, capsys):
        f = tmp_path / "p.csv"
        write_csv(f, [0.0, 1.0], [[0.0], [20.0]])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"field": {"kind": "scalar", "coeffs": [0.0, 0.0, 1.0]},
                                   "y0": [1.0], "scheme": "euler"}))
        code, _, err = run_cli(["solve", "--csv", str(f), "--depth", "6",
                                "--config", str(cfg)], capsys)
        assert code == 2

    def test_inadmissible_params_exit1(self, tmp_path, capsys):
        f = tmp_path / "p.csv"
        write_csv(f, [0.0, 1.0], [[0.0], [1.0]])
        code, _, _ = run_cli(["norm", "--csv", str(f), "--alpha", "0.2", "--p", "4"],
                             capsys)
        assert code == 1


class TestIntegrate:
    def test_pair_remainder_and_its_norms(self, monkeypatch, tmp_path):
        results = []
        original = cli.rough_integral

        def spy(*args, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "rough_integral", spy)
        rng = np.random.default_rng(3)
        f, out = tmp_path / "walk.csv", tmp_path / "report.json"
        write_csv(f, np.linspace(0.0, 1.0, 129),
                  np.vstack([np.zeros(2), np.cumsum(0.1 * rng.standard_normal((128, 2)), axis=0)]))
        assert main(["integrate", "--csv", str(f), "--depth", "7", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        # the norms of the (n, n, w) pair remainder, as first reported
        assert rep["results"]["remainder_tildeV"] == 2.439870641355982
        assert rep["results"]["remainder_hatW"] == 2.5572752477633967
        (res,) = results
        assert res.remainder.pair.shape == (129, 129, 2)


class TestNorm:
    def test_pinned_norms(self, tmp_path):
        rng = np.random.default_rng(3)
        f, out = tmp_path / "walk.csv", tmp_path / "report.json"
        write_csv(f, np.linspace(0.0, 1.0, 129),
                  np.vstack([np.zeros(2), np.cumsum(0.1 * rng.standard_normal((128, 2)), axis=0)]))
        assert main(["norm", "--csv", str(f), "--depth", "7", "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        # as first reported, when each dyadic norm wrote out its own sum
        assert res["sobolev_dyadic"] == 4.057972729903647
        assert res["sobolev_dyadic_tail"] == 2.0533174463499977
        assert res["sobolev_integral"] == 4.183335988406545
        assert res["holder"] == 5.2333460691640115
        assert res["qvar"] == 3.7492894043141205

    def test_overflowing_norms_reported_as_null(self, tmp_path):
        f, out = tmp_path / "big.csv", tmp_path / "report.json"
        ts = np.linspace(0.0, 1.0, 33)
        write_csv(f, ts, ts[:, None] * 1.7e308 ** 0.25)
        with np.errstate(over="ignore"):
            code = main(["norm", "--csv", str(f), "--depth", "5", "--level", "1",
                         "--out", str(out)])
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert res["sobolev_dyadic"] is None and res["sobolev_integral"] is None
        assert all(math.isfinite(res[k]) for k in ("sobolev_dyadic_tail", "holder", "qvar"))

    def test_large_finite_norms_write_nothing_to_stderr(self, tmp_path):
        f, out = tmp_path / "big.csv", tmp_path / "report.json"
        ts = np.linspace(0.0, 1.0, 257)
        # finite norms, though the discarded pairs of the integral norm used to
        # overflow (alpha 0.6 keeps level 1 without an override warning)
        write_csv(f, ts, ts[:, None] * 5e75)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sobrough.__file__)))
        proc = subprocess.run([sys.executable, "-m", "sobrough", "norm", "--csv", str(f),
                               "--depth", "8", "--alpha", "0.6", "--out", str(out)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        res = json.loads(out.read_text())["results"]
        assert all(math.isfinite(res[k]) for k in ("sobolev_integral", "sobolev_dyadic",
                                                   "holder", "qvar"))


class TestDist:
    @pytest.fixture
    def walks(self, tmp_path):
        files = []
        for seed in (3, 4):
            rng = np.random.default_rng(seed)
            f = tmp_path / f"walk{seed}.csv"
            write_csv(f, np.linspace(0.0, 1.0, 129),
                      np.vstack([np.zeros(2), np.cumsum(0.1 * rng.standard_normal((128, 2)),
                                                        axis=0)]))
            files.append(str(f))
        return files

    def test_pinned_distances(self, walks, tmp_path):
        out = tmp_path / "report.json"
        assert main(["dist", "--csv", walks[0], "--csv2", walks[1], "--depth", "7",
                     "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        # as first reported, when each distance built its own tables and sums
        assert res["inhom_sobolev_levels"] == [2.841005116260182, 4.376057987502953]
        assert res["inhom_sobolev"] == 7.2170631037631345
        assert res["mixed_levels"] == [2.9064718769432574, 3.2141741954198784]
        assert res["mixed"] == 3.2141741954198784
        assert res["inhom_qvar_levels"] == [2.736935147433875, 3.1819286230333876]

    def test_level_tables_built_once(self, walks, tmp_path, kernel_calls):
        calls = kernel_calls("level_diff_block", "interval_push_rows", "partition_push_rows",
                             "interval_dp_table", "partition_dp_max")
        assert main(["dist", "--csv", walks[0], "--csv2", walks[1], "--depth", "7",
                     "--out", str(tmp_path / "report.json")]) == 0
        # two distance levels; 129 nodes make the row blocks [0, 128) and
        # [128, 129), each over the columns [r0, 129): (level, r0, rows) once each
        blocks = [(args[6], 129 - args[1].shape[0], args[0].shape[0])
                  for args in calls["level_diff_block"]]
        assert blocks == [(1, 0, 128), (1, 128, 1), (2, 0, 128), (2, 128, 1)]
        # each block pushed once into its level's table, and each table's
        # outer weights once into the mixed variation
        assert [args[1] for args in calls["interval_push_rows"]] == [0, 128, 0, 128]
        assert [args[1] for args in calls["partition_push_rows"]] == [0, 128, 0, 128]
        assert not calls["interval_dp_table"] and not calls["partition_dp_max"]


class TestStudy:
    def test_embedding_pushes_each_row_block_once(self, tmp_path, kernel_calls):
        calls = kernel_calls("hom_dist_block", "interval_push_rows", "interval_dp_table",
                             "partition_dp_max", "hom_dist_matrix")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"study": {"n_paths": 2}}))
        assert main(["study", "--name", "embedding", "--depth", "7", "--config", str(cfg),
                     "--out", str(tmp_path / "report.json")]) == 0
        assert not (calls["interval_dp_table"] or calls["partition_dp_max"]
                    or calls["hom_dist_matrix"])
        # per path, 129 nodes: the upper row blocks [0, 128) and [128, 129)
        # over the columns [r0, 129), each computed once and pushed into both
        # the variation table and the integral control
        assert [(a[0].shape[0], a[1].shape[0]) for a in calls["hom_dist_block"]] == \
            [(128, 129), (1, 1)] * 2
        assert [(a[1], a[2].shape[0]) for a in calls["interval_push_rows"]] == \
            [(0, 128), (128, 1)] * 2
