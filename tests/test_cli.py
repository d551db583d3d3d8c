"""End-to-end checks of the command line front end.

Every subcommand is driven in-process through ``main`` so exit codes,
stdout, and the run manifest can be inspected without spawning a shell.
"""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import momentxray
from momentxray import cli
from momentxray.cli import main
from momentxray.decomposition import combined_decompose, dyadic_decompose
from momentxray.field import SampledField, grid_from_box, read_field, write_field
from momentxray.paraball import partition
from momentxray.search import SearchConfig, run_search
from momentxray.symmetry import normalize_symmetry

UNIT_BALL = "0,0,0,0,1,1"


@pytest.fixture(autouse=True)
def _workdir(tmp_path, monkeypatch):
    # every run drops a manifest in the cwd; keep that out of the repo
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def line_value(out, key):
    for token in out.split():
        if token.startswith(key + "="):
            return token.split("=", 1)[1]
    raise AssertionError(f"no {key}= field in {out!r}")


def write_cube(path, side="source", n=8, value=1.0):
    grid = grid_from_box(3, side, -1.0, 1.0, n)
    field = SampledField(grid, np.full(grid.shape, value))
    write_field(field, str(path))
    return field


def write_bump(path, side="source", n=10):
    grid = grid_from_box(3, side, -1.0, 1.0, n)
    pts = grid.nodes()
    vals = np.exp(-np.sum(((pts - np.array([0.3, -0.2, 0.1])) / 0.8) ** 2,
                          axis=-1))
    field = SampledField(grid, vals)
    write_field(field, str(path))
    return field


class TestDispatch:
    def test_no_arguments_prints_usage(self, capsys):
        code, out, err = run(capsys, [])
        assert code == 64
        assert out == ""
        assert "usage: momentxray" in err

    def test_unknown_command_prints_usage(self, capsys):
        code, out, err = run(capsys, ["frobnicate"])
        assert code == 64
        assert "usage: momentxray" in err

    def test_help_goes_to_stdout(self, capsys):
        code, out, err = run(capsys, ["--help"])
        assert code == 0
        assert "usage: momentxray" in out

    def test_decimal_theta_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["exponents", "--d", "3", "--theta", "0.8"])
        assert exc.value.code == 2
        assert "decimal" in capsys.readouterr().err


class TestExponents:
    def test_critical_triple(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["exponents", "--d", "3", "--theta", "5/6"])
        assert code == 0
        assert out.splitlines()[0] == "p=3/2 q=2 r=2"
        doc = json.loads((tmp_path / "momentxray_run.json").read_text())
        assert doc["command"][0] == "exponents"
        assert doc["config"]["d"] == 3
        assert doc["config"]["theta"] == "5/6"
        assert "manifest" not in doc["config"]
        assert doc["outputs"] == {}

    def test_constants_block(self, capsys):
        code, out, _ = run(capsys, ["exponents", "--d", "3",
                                    "--theta", "11/12", "--constants"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p=30/19 q=20/11 r=20/9"
        assert "a0=-5" in lines
        assert "b=-120/49" in lines
        assert "theta0=5/6" in lines

    def test_infinite_theta_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["exponents", "--d", "3", "--theta", "inf"])
        assert exc.value.code == 2

    def test_custom_manifest_path(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["exponents", "--d", "3", "--theta", "1",
                                  "--manifest", "custom.json"])
        assert code == 0
        assert (tmp_path / "custom.json").exists()
        assert not (tmp_path / "momentxray_run.json").exists()


class TestNorm:
    def test_lp_of_unit_cube(self, capsys, tmp_path):
        write_cube(tmp_path / "cube.field")
        code, out, _ = run(capsys, ["norm", "--field", "cube.field",
                                    "--p", "2"])
        assert code == 0
        got = float(line_value(out, "lp"))
        assert got == pytest.approx(math.sqrt(8.0), rel=1e-10)

    def test_mixed_norm_of_target_cube(self, capsys, tmp_path):
        write_cube(tmp_path / "tcube.field", side="target")
        code, out, _ = run(capsys, ["norm", "--field", "tcube.field",
                                    "--q", "2", "--r", "2"])
        assert code == 0
        got = float(line_value(out, "mixed"))
        assert got == pytest.approx(math.sqrt(8.0), rel=1e-10)

    def test_lorentz_flag_switches_norm(self, capsys, tmp_path):
        write_bump(tmp_path / "bump.field")
        code, out, _ = run(capsys, ["norm", "--field", "bump.field",
                                    "--p", "3/2", "--s", "2"])
        assert code == 0
        assert float(line_value(out, "lorentz")) > 0

    def test_source_field_needs_p(self, capsys, tmp_path):
        write_cube(tmp_path / "cube.field")
        with pytest.raises(SystemExit) as exc:
            main(["norm", "--field", "cube.field"])
        assert exc.value.code == 2
        assert "--p" in capsys.readouterr().err


class TestTransform:
    def test_forward_writes_target_field(self, capsys, tmp_path):
        write_cube(tmp_path / "cube.field")
        code, out, _ = run(capsys, ["transform", "--field", "cube.field",
                                    "--out", "xf.field"])
        assert code == 0
        assert "wrote xf.field" in out
        img = read_field(str(tmp_path / "xf.field"))
        assert img.side == "target"
        assert img.grid.counts == (8, 8, 8)
        assert np.all(img.values >= 0) and img.values.max() > 0

    def test_forward_is_deterministic(self, capsys, tmp_path):
        write_cube(tmp_path / "cube.field")
        run(capsys, ["transform", "--field", "cube.field", "--out", "a.field"])
        run(capsys, ["transform", "--field", "cube.field", "--out", "b.field"])
        assert (tmp_path / "a.field").read_bytes() == \
            (tmp_path / "b.field").read_bytes()

    def test_manifest_hashes_the_output(self, capsys, tmp_path):
        write_cube(tmp_path / "cube.field")
        run(capsys, ["transform", "--field", "cube.field", "--out", "xf.field"])
        doc = json.loads((tmp_path / "momentxray_run.json").read_text())
        digest = hashlib.sha256((tmp_path / "xf.field").read_bytes())
        assert doc["outputs"]["xf.field"] == "sha256:" + digest.hexdigest()

    def test_negative_counts_rejected_before_output(self, capsys, tmp_path):
        write_cube(tmp_path / "cube.field")
        with pytest.raises(SystemExit) as exc:
            main(["transform", "--field", "cube.field", "--out", "xf.field",
                  "--counts", "-5"])
        assert exc.value.code == 2
        assert "--counts must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "xf.field").exists()
        assert not (tmp_path / "momentxray_run.json").exists()

    def test_adjoint_needs_target_side(self, capsys, tmp_path):
        write_cube(tmp_path / "cube.field")
        with pytest.raises(SystemExit) as exc:
            main(["transform", "--field", "cube.field", "--out", "o.field",
                  "--direction", "adjoint"])
        assert exc.value.code == 2


class TestSymmetry:
    def test_translate_pullback_preserves_lp(self, capsys, tmp_path):
        f = write_bump(tmp_path / "bump.field")
        code, out, _ = run(capsys, ["symmetry", "--field", "bump.field",
                                    "--step", "translate:0.2,-0.1",
                                    "--p", "3/2", "--out", "moved.field"])
        assert code == 0
        moved = read_field(str(tmp_path / "moved.field"))
        before = float(np.sum(np.abs(f.values) ** 1.5))
        after = float(np.sum(np.abs(moved.values) ** 1.5))
        assert after == pytest.approx(before, rel=1e-10)

    def test_normalize_prints_step_list(self, capsys, tmp_path):
        write_bump(tmp_path / "bump.field")
        code, out, _ = run(capsys, ["symmetry", "--field", "bump.field",
                                    "--p", "3/2", "--normalize"])
        assert code == 0
        steps = json.loads(out)
        assert isinstance(steps, list) and len(steps) >= 2
        assert any("Translate" in s for s in steps)
        assert any("Scale" in s for s in steps)

    def test_normalize_prints_plain_floats(self, capsys, tmp_path):
        # the step list once printed numpy scalars, as np.float64(...)
        f = write_bump(tmp_path / "bump.field")
        code, out, _ = run(capsys, ["symmetry", "--field", "bump.field",
                                    "--p", "3/2", "--normalize"])
        assert code == 0
        steps = json.loads(out)
        assert not any("np." in step for step in steps)

        def plain(value):
            if isinstance(value, tuple):
                return tuple(float(v) for v in value)
            return float(value)

        want = normalize_symmetry(f, Fraction(3, 2)).steps
        assert steps == [
            f"{type(st).__name__}(" + ", ".join(
                f"{k.name}={plain(getattr(st, k.name))!r}"
                for k in dataclasses.fields(st)) + ")" for st in want]

    def test_steps_require_out_path(self, capsys, tmp_path):
        write_bump(tmp_path / "bump.field")
        with pytest.raises(SystemExit) as exc:
            main(["symmetry", "--field", "bump.field",
                  "--step", "scale:2,1", "--p", "3/2"])
        assert exc.value.code == 2

    def test_bad_step_spec_rejected(self, capsys, tmp_path):
        write_bump(tmp_path / "bump.field")
        with pytest.raises(SystemExit) as exc:
            main(["symmetry", "--field", "bump.field",
                  "--step", "twist:1,2", "--p", "3/2", "--out", "o.field"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("step", ["scale:1,1e200"])
    def test_pullback_past_the_float_range_is_one_error_line(
            self, capsys, tmp_path, step):
        # the preimage box's x_2 extent, 2e-400, underflows to 0
        write_cube(tmp_path / "cube.field")
        code, out, err = run(capsys, ["symmetry", "--field", "cube.field",
                                      "--step", step, "--p", "2",
                                      "--out", "moved.field"])
        assert code == 65
        assert err.startswith("momentxray symmetry: error: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "moved.field").exists()

    def test_jacobian_past_the_float_range_keeps_its_power(
            self, capsys, tmp_path):
        # J = 1e600 is no float, but J^(1/2) = 1e300 is
        write_cube(tmp_path / "cube.field")
        code, out, err = run(capsys, ["symmetry", "--field", "cube.field",
                                      "--step", "scale:1e200,1", "--p", "2",
                                      "--out", "moved.field"])
        assert (code, err) == (0, "")
        moved = read_field(str(tmp_path / "moved.field"))
        assert np.allclose(moved.values, 1e300, rtol=1e-12, atol=0.0)


class TestParaball:
    def test_unit_ball_summary(self, capsys):
        code, out, _ = run(capsys, ["paraball", "--ball", UNIT_BALL,
                                    "--theta", "5/6", "--point", "0,0,0"])
        assert code == 0
        assert line_value(out, "volume") == "8"
        dual = float(line_value(out, "dualNorm"))
        assert dual == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-10)
        assert line_value(out, "member") == "true"

    def test_outside_point(self, capsys):
        code, out, _ = run(capsys, ["paraball", "--ball", UNIT_BALL,
                                    "--point", "2,0,0"])
        assert code == 0
        assert line_value(out, "member") == "false"

    def test_past_the_float_range_is_inf(self, capsys):
        code, out, err = run(capsys, ["paraball", "--ball",
                                      "0,0,0,0,1,1e200", "--theta", "5/6"])
        assert code == 0 and err == ""
        assert line_value(out, "volume") == "inf"
        assert line_value(out, "dualNorm") == "inf"

    def test_past_the_float_range_as_a_process(self, tmp_path):
        # its own process, so that a traceback or warning shows on stderr
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(
                       momentxray.__file__)))
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "momentxray.cli", "paraball", "--ball",
             "0,0,0,0,1,1e200", "--theta", "5/6"],
            capture_output=True, text=True, env=env, cwd=tmp_path,
            timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "volume=inf\ndualNorm=inf\n"

    def test_raster_output(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["paraball", "--ball", UNIT_BALL,
                                    "--raster", "ind.field",
                                    "--counts", "12"])
        assert code == 0
        ras = read_field(str(tmp_path / "ind.field"))
        assert ras.side == "source"
        assert set(np.unique(ras.values)) <= {0.0, 1.0}
        assert ras.values.sum() > 0


class TestPartition:
    ARGS = ["partition", "--ball", UNIT_BALL, "--delta", "1/4",
            "--theta", "5/6"]

    def test_member_counts_and_scales(self, capsys):
        code, out, _ = run(capsys, self.ARGS)
        assert code == 0
        assert out.splitlines()[0] == "members=1450 s=1 t=5 y=290"
        # eta2 = delta^(2/3) and eta1 = delta^(1/3) / eta2 at these exponents
        assert float(line_value(out, "eta2").split()[0]) == \
            pytest.approx(0.25 ** (2.0 / 3.0), rel=1e-9)
        assert float(line_value(out, "eta1").split()[0]) == \
            pytest.approx(0.25 ** (-1.0 / 3.0), rel=1e-9)

    def test_containment_check(self, capsys):
        code, out, _ = run(capsys, self.ARGS + ["--check", "200",
                                                "--seed", "7"])
        assert code == 0
        assert line_value(out, "containmentMisses") == "0"

    def test_check_requires_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + ["--check", "100"])
        assert exc.value.code == 2

    def test_negative_check_rejected_before_output(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + ["--check", "-5", "--seed", "1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--check must be >= 0" in err

    def test_csv_matches_reported_count(self, capsys, tmp_path):
        code, out, _ = run(capsys, self.ARGS + ["--out", "members.csv"])
        assert code == 0
        lines = (tmp_path / "members.csv").read_text().splitlines()
        assert lines[0] == "index,s0,t0,y1,y2,alpha,beta"
        assert len(lines) - 1 == 1450

    def test_csv_rows_equal_members(self, capsys, tmp_path):
        ball = "0.2,-0.1,0.3,0.1,1.1,0.9"
        argv = ["partition", "--ball", ball, "--delta", "1/4",
                "--theta", "5/6", "--out", "members.csv"]
        code, _, _ = run(capsys, argv)
        assert code == 0
        rows = (tmp_path / "members.csv").read_text().splitlines()[1:]
        cover = partition(cli.ball_spec(ball), 0.25, Fraction(5, 6))
        assert len(rows) == len(cover.members)
        for i, (row, m) in enumerate(zip(rows, cover.members)):
            cells = [i, m.s0, m.t0, *m.ybar, m.alpha, m.beta]
            assert row == ",".join(cli._fmt(v) if isinstance(v, float)
                                   else str(v) for v in cells)


class TestMockdist:
    def test_self_distance_prints_five(self, capsys):
        code, out, _ = run(capsys, ["mockdist", "--ball-a", UNIT_BALL,
                                    "--ball-b", UNIT_BALL])
        assert code == 0
        assert out.strip() == "5"

    def test_width_doubling_pair(self, capsys):
        code, out, _ = run(capsys, ["mockdist", "--ball-a", UNIT_BALL,
                                    "--ball-b", "0,0,0,0,2,1"])
        assert code == 0
        assert out.strip() == "8.5"


class TestDecompose:
    def test_dyadic_table(self, capsys, tmp_path):
        write_cube(tmp_path / "cube.field")
        code, out, _ = run(capsys, ["decompose", "--field", "cube.field",
                                    "--mode", "dyadic", "--out", "dy.csv"])
        assert code == 0
        assert line_value(out, "pieces") == "1"
        lines = (tmp_path / "dy.csv").read_text().splitlines()
        assert lines[0] == "j,cells,measure"
        assert lines[1] == "0,512,8"

    def test_slab_table(self, capsys, tmp_path):
        write_cube(tmp_path / "tcube.field", side="target")
        code, out, _ = run(capsys, ["decompose", "--field", "tcube.field",
                                    "--mode", "slab", "--r", "2",
                                    "--out", "sl.csv"])
        assert code == 0
        assert line_value(out, "pieces") == "1"
        lines = (tmp_path / "sl.csv").read_text().splitlines()
        assert lines[0] == "l,slices"
        # each t-slab of the ones field carries mass 4, hence level 2
        assert lines[1] == "2,8"

    def test_combined_needs_r(self, capsys, tmp_path):
        write_cube(tmp_path / "tcube.field", side="target")
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--field", "tcube.field", "--mode", "combined"])
        assert exc.value.code == 2

    def test_combined_table(self, capsys, tmp_path):
        write_cube(tmp_path / "tcube.field", side="target")
        code, out, _ = run(capsys, ["decompose", "--field", "tcube.field",
                                    "--mode", "combined", "--r", "2",
                                    "--out", "co.csv"])
        assert code == 0
        assert line_value(out, "pieces") == "1"
        header = (tmp_path / "co.csv").read_text().splitlines()[0]
        assert header == "k,l,m,cells,measure"

    @pytest.mark.parametrize("mode", ["dyadic", "combined"])
    def test_cell_counts_are_mask_sums(self, capsys, tmp_path, mode):
        # the tables read the pieces' cell counts; they match the masks
        field = write_bump(tmp_path / "b.field", side="target")
        code, _, _ = run(capsys, ["decompose", "--field", "b.field",
                                  "--mode", mode, "--r", "2",
                                  "--out", "t.csv"])
        assert code == 0
        vol = field.grid.cell_volume
        if mode == "dyadic":
            pieces = dyadic_decompose(field)
            rows = [(pc.j, int(pc.mask.sum()), pc.measure) for pc in pieces]
            header = ["j", "cells", "measure"]
        else:
            pieces = combined_decompose(field, None, 2)
            rows = [(pc.k, pc.l, pc.m, int(pc.mask.sum()),
                     int(pc.mask.sum()) * vol) for pc in pieces]
            header = ["k", "l", "m", "cells", "measure"]
        assert len(pieces) > 2
        cli._write_csv(str(tmp_path / "want.csv"), header, rows)
        assert ((tmp_path / "t.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())

    def test_trim_writes_minorant(self, capsys, tmp_path):
        write_cube(tmp_path / "cube.field")
        code, out, _ = run(capsys, ["decompose", "--field", "cube.field",
                                    "--mode", "trim", "--window", "1",
                                    "--p", "2", "--out", "tr.field"])
        assert code == 0
        assert line_value(out, "j0") == "0"
        trimmed = read_field(str(tmp_path / "tr.field"))
        assert np.all(trimmed.values == 1.0)


class TestSearch:
    def test_seed_and_out_are_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search"])
        assert exc.value.code == 2

    def test_converged_run(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, out, _ = run(capsys, ["search", "--counts", "12", "--seed", "3",
                                    "--out", str(out_dir)])
        assert code == 0
        assert line_value(out, "converged") == "true"
        assert line_value(out, "iters") == "11"
        assert line_value(out, "bestPhi") == "1.78411719336"
        doc = json.loads((out_dir / "report.json").read_text())
        assert doc["converged"] is True
        assert doc["iters"] == 11
        assert doc["bestPhi"] == pytest.approx(
            float(line_value(out, "bestPhi")), rel=1e-10)
        # report paths stay relative so the directory can be moved
        assert doc["fieldPath"] == "extremizer.field"
        assert doc["logPath"] == "search_log.jsonl"
        assert (out_dir / "extremizer.field").exists()
        assert (out_dir / "search_log.jsonl").exists()
        manifest = json.loads((tmp_path / "momentxray_run.json").read_text())
        assert manifest["seed"] == 3

    def test_library_run_writes_the_cli_directory(self, capsys, tmp_path):
        # run_search is the one writer of the search directory
        code, _, _ = run(capsys, ["search", "--counts", "8", "--seed", "4",
                                  "--max-iters", "3", "--out", "cli"])
        assert code == 2
        run_search(SearchConfig(counts=8, seed=4, max_iters=3,
                                out_dir=str(tmp_path / "lib")))
        for name in ("report.json", "extremizer.field", "search_log.jsonl"):
            assert ((tmp_path / "lib" / name).read_bytes()
                    == (tmp_path / "cli" / name).read_bytes())

    def test_overflowing_box_exits_65_without_a_warning(self, tmp_path):
        # run as its own process, so that a RuntimeWarning, which this
        # suite turns into an error, would show on stderr instead
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(
                       momentxray.__file__)))
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "momentxray.cli", "search", "--seed", "1",
             "--out", "run", "--box-half", "1e308"],
            capture_output=True, text=True, env=env, cwd=tmp_path,
            timeout=120)
        assert proc.returncode == 65
        assert proc.stderr.splitlines() == [
            "momentxray search: error: box extent hi - lo must be finite"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("box_half", ["-1", "0"])
    def test_box_half_not_positive_exits_65(self, capsys, box_half):
        code, _, err = run(capsys, ["search", "--seed", "1", "--out", "run",
                                    "--box-half", box_half])
        assert code == 65
        assert "box_half must be finite and > 0" in err

    def test_number_too_large_for_a_float_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--seed", "1", "--out", "run",
                  "--box-half", "1e309"])
        assert exc.value.code == 2
        assert "bad number '1e309'" in capsys.readouterr().err

    def test_unconverged_run_exits_two(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["search", "--counts", "8", "--seed", "1",
                                    "--max-iters", "0",
                                    "--out", str(tmp_path / "run0")])
        assert code == 2
        assert line_value(out, "converged") == "false"
        assert line_value(out, "iters") == "0"

    def test_stalled_run_exits_three(self, capsys, tmp_path, monkeypatch):
        # X* g with no positive part stalls the first ascent step
        def no_positive_part(g, plan):
            grid = plan.source_grid
            return SampledField(grid, np.zeros(grid.shape))

        monkeypatch.setattr("momentxray.search.apply_X_star", no_positive_part)
        out_dir = tmp_path / "stall"
        code, out, _ = run(capsys, ["search", "--counts", "8", "--seed", "1",
                                    "--out", str(out_dir)])
        assert code == 3
        assert line_value(out, "converged") == "false"
        assert line_value(out, "stop_reason") == "stalled"
        assert line_value(out, "iters") == "1"
        doc = json.loads((out_dir / "report.json").read_text())
        assert doc["stopReason"] == "stalled"
        assert doc["converged"] is False

    @pytest.mark.parametrize("extra,reason,code", [
        ([], "converged", 0),
        (["--max-iters", "2"], "max_iters", 2),
    ], ids=["converged", "max-iters"])
    def test_stop_reason_in_report(self, capsys, tmp_path, extra, reason,
                                   code):
        out_dir = tmp_path / "run"
        got, out, _ = run(capsys, ["search", "--counts", "12", "--seed", "3",
                                   "--out", str(out_dir)] + extra)
        assert got == code
        assert line_value(out, "stop_reason") == reason
        doc = json.loads((out_dir / "report.json").read_text())
        assert doc["stopReason"] == reason

    @pytest.mark.parametrize("bad", [["--tol=-1e-4"], ["--max-iters", "-1"],
                                     ["--jitter=-0.05"],
                                     ["--renorm-every", "-5"]],
                             ids=["tol", "max-iters", "jitter",
                                  "renorm-every"])
    def test_bad_config_exits_65(self, capsys, tmp_path, bad):
        code, out, err = run(capsys, ["search", "--counts", "8", "--seed",
                                      "1", "--out", str(tmp_path / "run")]
                             + bad)
        assert code == 65
        assert out == ""
        assert err.startswith("momentxray search: error: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "run").exists()
        assert not (tmp_path / "momentxray_run.json").exists()


class TestDiagnose:
    def test_battery_passes(self, capsys):
        code, out, _ = run(capsys, ["diagnose"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert all(line.endswith(": PASS") for line in lines)
        names = {line.split(":")[0] for line in lines}
        assert names == {"endpoint_exponents", "adjointness", "dual_pairing",
                         "mockdist_self", "normal_form_roundtrip"}


# one valid run per subcommand: argv, the files it must hash, its seed
MANIFEST_RUNS = [
    (["exponents", "--d", "3", "--theta", "5/6"], [], None),
    (["norm", "--field", "cube.field", "--p", "2"], [], None),
    (["transform", "--field", "cube.field", "--out", "xf.field"],
     ["xf.field"], None),
    (["symmetry", "--field", "cube.field", "--step", "translate:0.2,-0.1",
      "--p", "3/2", "--out", "moved.field"], ["moved.field"], None),
    (["paraball", "--ball", UNIT_BALL, "--raster", "ind.field",
      "--counts", "12"], ["ind.field"], None),
    (["partition", "--ball", UNIT_BALL, "--delta", "1/2", "--theta", "5/6",
      "--check", "100", "--seed", "7", "--out", "m.csv"], ["m.csv"], 7),
    (["mockdist", "--ball-a", UNIT_BALL, "--ball-b", UNIT_BALL], [], None),
    (["decompose", "--field", "cube.field", "--out", "dy.csv"],
     ["dy.csv"], None),
    (["search", "--counts", "8", "--seed", "3", "--max-iters", "3",
      "--out", "run"],
     ["run/report.json", "run/extremizer.field", "run/search_log.jsonl"], 3),
    (["diagnose", "--counts", "8"], [], None),
]


class TestManifestContract:
    @pytest.mark.parametrize("argv,outputs,seed", MANIFEST_RUNS,
                             ids=[r[0][0] for r in MANIFEST_RUNS])
    def test_one_manifest_per_run(self, capsys, tmp_path, monkeypatch,
                                  argv, outputs, seed):
        write_cube(tmp_path / "cube.field")
        calls = []
        real = cli.write_manifest

        def counting(*a, **kw):
            calls.append(a[0])
            real(*a, **kw)

        monkeypatch.setattr(cli, "write_manifest", counting)
        argv = argv + ["--manifest", "run.json"]
        code, _, _ = run(capsys, argv)
        assert code in (0, 2)
        assert calls == ["run.json"]
        assert not (tmp_path / "momentxray_run.json").exists()
        doc = json.loads((tmp_path / "run.json").read_text())
        assert doc["command"] == argv
        assert doc["seed"] == seed
        want = {}
        for out in outputs:
            digest = hashlib.sha256((tmp_path / out).read_bytes())
            want[out] = "sha256:" + digest.hexdigest()
        assert doc["outputs"] == want


class TestErrorContract:
    def test_missing_field_exits_66(self, capsys, tmp_path):
        code, out, err = run(capsys, ["norm", "--field", "missing.field",
                                      "--p", "2"])
        assert code == 66
        assert out == ""
        assert err.startswith("momentxray norm: error: ")
        assert "missing.field" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "momentxray_run.json").exists()

    def test_slab_with_infinite_r_exits_65(self, capsys, tmp_path):
        g = grid_from_box(3, "target", -1, 1, 4)
        write_field(SampledField(g, np.full((4, 4, 4), 2.0)),
                    tmp_path / "g.field")
        code, out, err = run(capsys, ["decompose", "--field", "g.field",
                                      "--mode", "slab", "--r", "inf"])
        assert code == 65
        assert out == ""
        assert err.startswith("momentxray decompose: error: ")
        assert "r = inf" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "momentxray_run.json").exists()

    @pytest.mark.parametrize("argv, name", [
        (["symmetry", "--step", "scale:2,1", "--p", "0", "--out", "o.field"],
         "p"),
        (["symmetry", "--step", "scale:2,1", "--p", "1/2",
          "--out", "o.field"], "p"),
        (["symmetry", "--normalize", "--p", "-1"], "p"),
        (["decompose", "--mode", "trim", "--p", "-3", "--out", "o.field"],
         "p"),
    ], ids=["pullback-p-zero", "pullback-p-half", "normalize-p-negative",
            "trim-p-negative"])
    def test_exponent_below_one_exits_65(self, capsys, tmp_path, argv, name):
        # --p 0 once escaped as a ZeroDivisionError traceback with exit 1,
        # and the others ran to exit 0
        write_bump(tmp_path / "bump.field")
        code, out, err = run(capsys, argv[:1] + ["--field", "bump.field"]
                             + argv[1:])
        assert code == 65
        assert out == ""
        assert err.startswith(f"momentxray {argv[0]}: error: {name} must be"
                              " >= 1 or inf, got ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "momentxray_run.json").exists()
        assert not (tmp_path / "o.field").exists()

    def test_exponent_error_is_one_line_from_a_process(self, tmp_path):
        write_bump(tmp_path / "bump.field")
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(
                       momentxray.__file__)))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "momentxray.cli", "symmetry", "--field", "bump.field", "--step",
             "scale:2,1", "--p", "0", "--out", "o.field"],
            capture_output=True, text=True, env=env, cwd=tmp_path,
            timeout=120)
        assert proc.returncode == 65
        assert proc.stdout == ""
        assert proc.stderr == ("momentxray symmetry: error: p must be >= 1"
                               " or inf, got 0\n")
        assert not (tmp_path / "momentxray_run.json").exists()

    def test_malformed_header_exits_65(self, capsys, tmp_path):
        header = {"d": 3, "side": "source", "spacing": [1, 1, 1],
                  "counts": [2, 2, 2]}
        (tmp_path / "bad.field").write_bytes(
            json.dumps(header).encode() + b"\n" + bytes(64))
        code, out, err = run(capsys, ["transform", "--field", "bad.field",
                                      "--out", "xf.field"])
        assert code == 65
        assert out == ""
        assert err.startswith("momentxray transform: error: ")
        assert "bad.field" in err and "origin" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "momentxray_run.json").exists()
        assert not (tmp_path / "xf.field").exists()

    def test_header_number_past_the_float_range_exits_65(self, capsys,
                                                          tmp_path):
        # a 400-digit origin once escaped as an OverflowError traceback
        header = {"d": 3, "side": "source", "origin": [10 ** 400, 0, 0],
                  "spacing": [1, 1, 1], "counts": [2, 2, 2]}
        (tmp_path / "f.field").write_bytes(
            json.dumps(header).encode() + b"\n" + bytes(64))
        code, out, err = run(capsys, ["norm", "--field", "f.field",
                                      "--p", "2"])
        assert code == 65
        assert out == ""
        assert err.startswith("momentxray norm: error: f.field: bad field"
                              " header: origin must be finite")
        assert err.count("\n") == 1
        assert not (tmp_path / "momentxray_run.json").exists()
