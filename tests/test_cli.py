import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bwinr.cli
from bwinr import (
    Downsample,
    ImageGrid,
    RadonTransform,
    load_image,
    save_image,
    shepp_logan,
    synthetic_scene,
)
from bwinr.cli import (
    DEFAULTS,
    TASK_DEFAULTS,
    build_parser,
    experiment_config,
    main,
    read_table,
)
from bwinr.network import load_checkpoint
from bwinr.training import TrainLog


def run(args):
    return main(args)


def _built_too_early(*args, **kwargs):
    raise AssertionError("an image or task was built before the flags were checked")


def test_importing_the_cli_leaves_scipy_sparse_unloaded():
    # Only a Radon matrix needs scipy; fit, superres and conditioning never
    # pay for its import.
    src = Path(bwinr.cli.__file__).parents[1]
    code = "import sys, bwinr.cli; print('scipy.sparse' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "False"


class TestAssets:
    def test_shepp_logan_range(self):
        img = shepp_logan(64)
        assert img.pixels.shape == (64, 64)
        assert img.pixels.min() >= 0.0 and img.pixels.max() <= 1.0

    def test_scene_range(self):
        img = synthetic_scene(48)
        assert img.pixels.min() >= 0.0 and img.pixels.max() <= 1.0


class TestFit:
    def test_zero_epochs_emits_outputs(self, tmp_path):
        out = tmp_path / "run"
        code = run([
            "fit", "--image", "scene:16", "--epochs", "0",
            "--width", "8", "--layers", "1", "--seed", "3",
            "--out", str(out),
        ])
        assert code == 0
        recon = load_image(out / "recon.pgm")
        assert recon.pixels.shape == (16, 16)
        log = TrainLog.from_csv((out / "log.csv").read_text())
        assert log.entries[0].epoch == 0
        params = load_checkpoint(out / "checkpoint.txt")
        assert params.seed == 3
        header, rows = read_table(out / "vnorm.csv")
        assert header == ["layer", "vnorm"]

    def test_short_training_run(self, tmp_path):
        out = tmp_path / "run"
        code = run([
            "fit", "--image", "scene:16", "--epochs", "30",
            "--width", "16", "--layers", "1", "--seed", "0",
            "--log-every", "10", "--out", str(out),
        ])
        assert code == 0
        log = TrainLog.from_csv((out / "log.csv").read_text())
        assert log.entries[-1].loss < log.entries[0].loss

    def test_deterministic_outputs(self, tmp_path):
        args = [
            "fit", "--image", "scene:12", "--epochs", "12",
            "--width", "8", "--layers", "1", "--seed", "7",
        ]
        run(args + ["--out", str(tmp_path / "a")])
        run(args + ["--out", str(tmp_path / "b")])
        for name in ("log.csv", "vnorm.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()
        assert (tmp_path / "a" / "recon.pgm").read_bytes() == \
            (tmp_path / "b" / "recon.pgm").read_bytes()

    def test_relu_pe_smoke(self, tmp_path):
        code = run([
            "fit", "--image", "scene:12", "--act", "relu-pe",
            "--epochs", "5", "--width", "8", "--layers", "1",
            "--pe-levels", "4", "--out", str(tmp_path / "pe"),
        ])
        assert code == 0


class TestCt:
    def test_outputs_and_sinogram(self, tmp_path):
        out = tmp_path / "ct"
        code = run([
            "ct", "--image", "shepp-logan:16", "--angles", "10",
            "--epochs", "5", "--width", "8", "--layers", "1",
            "--out", str(out),
        ])
        assert code == 0
        header, rows = read_table(out / "sinogram.csv")
        det = int(np.ceil(16 * np.sqrt(2)))
        assert header[0] == "angle"
        assert len(header) == 1 + det
        assert len(rows) == 10
        table = np.array(rows)
        op = RadonTransform(16, 16, 10)
        assert op.detectors == det
        assert np.array_equal(table[:, 0], op.angles)
        assert np.array_equal(table[:, 1:], op.apply(shepp_logan(16).pixels))


class TestSuperres:
    def test_lowres_dump(self, tmp_path):
        out = tmp_path / "sr"
        code = run([
            "superres", "--image", "scene:16", "--factor", "4",
            "--epochs", "5", "--width", "8", "--layers", "1",
            "--out", str(out),
        ])
        assert code == 0
        low = load_image(out / "lowres.pgm")
        assert low.pixels.shape == (4, 4)
        expected = tmp_path / "expected.pgm"
        save_image(ImageGrid(Downsample(16, 16, 4).apply(synthetic_scene(16).pixels)), expected)
        assert (out / "lowres.pgm").read_bytes() == expected.read_bytes()


class TestConditioning:
    def test_report_csvs(self, tmp_path):
        out = tmp_path / "cond"
        code = run([
            "conditioning", "--j-max", "4", "--k-list", "8,16,32",
            "--out", str(out),
        ])
        assert code == 0
        header, rows = read_table(out / "dyadic_gram.csv")
        kappa_col = header.index("kappa")
        assert all(row[kappa_col] <= 2.38 for row in rows)
        diag_col = header.index("diag")
        assert all(abs(row[diag_col] - 1 / 6) < 1e-9 for row in rows)
        header2, rows2 = read_table(out / "relu_gram.csv")
        ks = [row[header2.index("K")] for row in rows2]
        assert ks == [8.0, 16.0, 32.0]

    def test_prints_lambda_min_and_kappa_slopes(self, tmp_path, capsys):
        out = tmp_path / "cond"
        run(["conditioning", "--j-max", "2", "--k-list", "8,16,32", "--out", str(out)])
        printed = re.search(
            r"lambda_min slope (\S+), kappa slope (\S+) over", capsys.readouterr().out
        )
        header, rows = read_table(out / "relu_gram.csv")
        log_k = np.log([row[header.index("K")] for row in rows])
        for text, col in zip(printed.groups(), ("lambda_min", "kappa")):
            values = np.log([row[header.index(col)] for row in rows])
            assert abs(float(text) - np.polyfit(log_k, values, 1)[0]) <= 5e-4

    def test_deterministic(self, tmp_path):
        run(["conditioning", "--j-max", "3", "--k-list", "8", "--out", str(tmp_path / "a")])
        run(["conditioning", "--j-max", "3", "--k-list", "8", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "dyadic_gram.csv").read_bytes() == \
            (tmp_path / "b" / "dyadic_gram.csv").read_bytes()


class TestVnormSweep:
    def test_sweep_table(self, tmp_path):
        out = tmp_path / "sweep"
        code = run([
            "vnorm-sweep", "--task", "ct", "--image", "shepp-logan:16",
            "--angles", "10", "--epochs", "40", "--width", "8",
            "--layers", "1", "--c-list", "1,3", "--target-loss", "1e-4",
            "--out", str(out),
        ])
        assert code == 0
        header, rows = read_table(out / "sweep.csv")
        assert header == ["c", "seed", "epochs", "loss", "psnr", "vnorm_total"]
        assert [row[0] for row in rows] == [1.0, 3.0]

    @pytest.mark.parametrize("task", sorted(TASK_DEFAULTS))
    def test_config_is_the_tasks_bwrelu_default(self, task):
        command = {"sigrep": "fit"}.get(task, task)
        parse = build_parser().parse_args
        sweep = parse(["vnorm-sweep", "--task", task, "--image", "scene:8"])
        single = parse([command, "--image", "scene:8"])
        assert experiment_config(sweep) == experiment_config(single)

    def test_requires_target_loss(self, tmp_path):
        code = run([
            "vnorm-sweep", "--image", "shepp-logan:16",
            "--out", str(tmp_path / "x"),
        ])
        assert code == 1


class TestExitCodes:
    def test_missing_image_is_io_error(self, tmp_path):
        code = run([
            "fit", "--image", str(tmp_path / "missing.pgm"),
            "--epochs", "1", "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    @pytest.mark.parametrize("header", [b"P5\n-2 -3\n255\n", b"P5\n0 0\n255\n"],
                             ids=["negative", "zero"])
    def test_nonpositive_pgm_dimensions_are_io_error(self, tmp_path, capsys, header):
        image = tmp_path / "bad.pgm"
        image.write_bytes(header + bytes(6))
        code = run([
            "fit", "--image", str(image), "--epochs", "1",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "dimensions must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["superres", "--factor", "0"],
        ["superres", "--factor", "-2"],
        ["ct", "--angles", "0"],
        ["ct", "--angles", "-3"],
    ], ids=["factor0", "factor-2", "angles0", "angles-3"])
    def test_degenerate_operator_is_config_error(self, tmp_path, capsys, command):
        code = run(command + [
            "--image", "scene:8", "--epochs", "1", "--width", "4",
            "--layers", "1", "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--j-max", "0"],
        ["--j-max", "11"],
        ["--k-list", ","],
        ["--k-list", "8,1"],
        ["--k-list", "8,513"],
    ], ids=["j0", "j11", "k-empty", "k1", "k513"])
    def test_conditioning_range_is_config_error(self, tmp_path, capsys, flags):
        out = tmp_path / "o"
        code = run(["conditioning", *flags, "--out", str(out)])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--c-list", ",", "--target-loss", "1e-3"],
        ["--c-list", "1,-2", "--target-loss", "1e-3"],
        ["--c-list", "1,3"],
    ], ids=["c-empty", "c-negative", "no-target-loss"])
    def test_vnorm_sweep_flags_checked_before_task(
        self, tmp_path, capsys, monkeypatch, flags
    ):
        monkeypatch.setattr(bwinr.cli, "resolve_image", _built_too_early)
        monkeypatch.setattr(bwinr.cli, "make_task", _built_too_early)
        out = tmp_path / "o"
        code = run([
            "vnorm-sweep", "--task", "ct", "--image", "shepp-logan:16",
            *flags, "--out", str(out),
        ])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["fit", "--act", "relu", "--c", "5"],
        ["superres", "--act", "relu-pe", "--c", "5"],
        ["fit", "--act", "bwrelu", "--pe-levels", "3"],
        ["fit", "--act", "relu-pe", "--pe-levels", "0"],
        ["fit", "--log-every", "0"],
        ["ct", "--lr", "-1"],
        ["vnorm-sweep", "--act", "bwrelu"],
        ["vnorm-sweep", "--c", "7"],
        ["vnorm-sweep", "--pe-levels", "3"],
        ["vnorm-sweep", "--track-cond"],
        ["vnorm-sweep", "--task", "sigrep", "--angles", "7"],
        ["vnorm-sweep", "--task", "ct", "--factor", "2"],
        ["fit", "--lr", "inf"],
        ["fit", "--wd", "nan"],
        ["fit", "--wd", "inf"],
        ["fit", "--c", "inf"],
        ["fit", "--act", "sine", "--c", "inf"],
        ["fit", "--act", "gauss", "--c", "inf"],
        ["vnorm-sweep", "--c-list", "1,inf"],
        ["fit", "--width", "0"],
        ["fit", "--layers", "0"],
    ], ids=["relu-c", "relu-pe-c", "bwrelu-pe-levels", "pe-levels0", "log-every0",
            "ct-lr", "sweep-act", "sweep-c-not-c-list", "sweep-pe-levels",
            "sweep-track-cond", "sweep-sigrep-angles", "sweep-ct-factor",
            "lr-inf", "wd-nan", "wd-inf", "c-inf", "sine-c-inf", "gauss-c-inf",
            "sweep-c-list-inf", "width0", "layers0"])
    def test_ignored_or_invalid_flag_builds_no_task(
        self, tmp_path, capsys, monkeypatch, command
    ):
        monkeypatch.setattr(bwinr.cli, "resolve_image", _built_too_early)
        monkeypatch.setattr(bwinr.cli, "make_task", _built_too_early)
        out = tmp_path / "o"
        code = run([*command, "--image", "shepp-logan:16", "--target-loss", "1e-3",
                    "--out", str(out)])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_scale_error_names_the_chosen_activation(self, tmp_path, capsys):
        code = run(["fit", "--image", "scene:8", "--act", "relu-pe", "--c", "5",
                    "--out", str(tmp_path / "o")])
        assert code == 1
        assert "relu-pe" in capsys.readouterr().err

    def test_out_of_memory_exits_1_in_one_line(self, tmp_path, capsys, monkeypatch):
        def exhausted(spec):
            raise MemoryError("Unable to allocate 149. GiB for an array")

        monkeypatch.setattr(bwinr.cli, "resolve_image", exhausted)
        code = run(["fit", "--image", "scene:100000", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: out of memory: Unable to allocate 149. GiB for an array\n"
        assert "Traceback" not in err

    def test_every_task_and_activation_has_defaults(self):
        acts = {act for _, act in DEFAULTS}
        assert set(DEFAULTS) == {(task, act) for task in TASK_DEFAULTS for act in acts}

    def test_relu_pe_encodes_ten_levels_by_default(self):
        args = build_parser().parse_args(
            ["fit", "--image", "scene:8", "--act", "relu-pe"]
        )
        assert experiment_config(args).pe_levels == 10

    def test_tiny_generated_image_is_config_error(self, tmp_path, capsys):
        code = run(["fit", "--image", "scene:3", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err

    def test_other_package_error_exits_1(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run([
            "superres", "--image", "scene:18", "--factor", "4", "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_bad_flag_is_config_error(self, tmp_path):
        code = run(["fit", "--image", "scene:16", "--no-such-flag"])
        assert code == 1

    def test_bad_act_is_config_error(self, tmp_path):
        code = run([
            "fit", "--image", "scene:16", "--act", "tanh",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1

    @pytest.mark.parametrize("command", [
        ["conditioning", "--j-max", "2", "--k-list", "8"],
        ["fit", "--image", "scene:8", "--epochs", "1", "--width", "4",
         "--layers", "1"],
    ], ids=["conditioning", "fit"])
    def test_out_under_a_file_is_io_error(self, tmp_path, capsys, command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = run(command + ["--out", str(blocker / "sub")])
        assert code == 2
        assert "i/o error" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["log.csv", "checkpoint.txt", "recon.pgm"])
    def test_unwritable_output_file_is_io_error(self, tmp_path, capsys, name):
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        code = run([
            "fit", "--image", "scene:8", "--epochs", "1", "--width", "4",
            "--layers", "1", "--out", str(out),
        ])
        assert code == 2
        assert f"cannot write {out / name}:" in capsys.readouterr().err

    def test_divergence_is_numerical_failure(self, tmp_path):
        code = run([
            "fit", "--image", "scene:12", "--act", "relu",
            "--lr", "1e6", "--epochs", "50", "--width", "8",
            "--layers", "2", "--out", str(tmp_path / "o"),
        ])
        assert code == 3
