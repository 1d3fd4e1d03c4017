import ast
import errno
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bwinr.cli
import bwinr.errors
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
from bwinr.diagnostics import build_dyadic_gram, build_relu_gram, feature_gram_condition
from bwinr.network import forward, load_checkpoint
from bwinr.training import TrainLog, prepare_inputs, train


def run(args):
    return main(args)


# Every error class in bwinr.errors: the exit code and stderr prefix of main.
_EXITS = [
    (bwinr.errors.BwinrError, 1, "error: "),
    (bwinr.errors.ShapeError, 1, "error: "),
    (bwinr.errors.InvalidInputError, 1, "error: "),
    (bwinr.errors.ConfigurationError, 1, "configuration error: "),
    (bwinr.errors.UnsupportedActivationError, 1, "error: "),
    (bwinr.errors.ImageIOError, 2, "i/o error: "),
    (bwinr.errors.NumericalError, 3, "numerical failure: "),
    (bwinr.errors.DivergenceError, 3, "numerical failure: "),
]


def _built_too_early(*args, **kwargs):
    raise AssertionError("an image or task was built before the flags were checked")


def _trained_too_early(*args, **kwargs):
    raise AssertionError("training started before the output directory was made")


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


def test_module_entry_point_exits_with_mains_code(tmp_path):
    src = Path(bwinr.cli.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    entry = [sys.executable, "-m", "bwinr.cli", "conditioning"]
    ok = subprocess.run(
        [*entry, "--j-max", "1", "--k-list", "8", "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env,
    )
    assert ok.returncode == 0, ok.stderr
    assert (tmp_path / "o" / "dyadic_gram.csv").exists()
    bad = subprocess.run([*entry, "--no-such-flag"], capture_output=True,
                         text=True, env=env)
    assert bad.returncode == 1
    assert "configuration error" in bad.stderr


def test_overflowing_pe_levels_is_one_config_error_line(tmp_path):
    # pi * 2^(levels - 1) overflows at 1024 levels: a rejected flag (exit 1,
    # nothing made), not numpy warnings and a divergence (exit 3).
    src = Path(bwinr.cli.__file__).parents[1]
    out = tmp_path / "o"
    res = subprocess.run(
        [sys.executable, "-m", "bwinr.cli", "fit", "--image", "scene:8",
         "--act", "relu-pe", "--pe-levels", "1024", "--epochs", "1",
         "--width", "4", "--out", str(out)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert res.returncode == 1
    assert res.stderr.startswith("configuration error: ")
    assert res.stderr.count("\n") == 1
    assert "RuntimeWarning" not in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["conditioning", "--j-max", "6", "--k-list", "8,64"],
    ["ct", "--image", "shepp-logan:16", "--angles", "4", "--width", "8",
     "--epochs", "2", "--log-every", "1", "--track-cond", "--seed", "3"],
], ids=["conditioning", "ct-track-cond"])
def test_seeded_outputs_repeat_in_fresh_processes(tmp_path, command):
    # Criterion 11 repeats a run in one process, so it cannot see state that
    # lives as long as a process; the BLAS thread count is pinned because
    # the promise holds only at a fixed count.
    src = Path(bwinr.cli.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    outputs = []
    for rep in ("a", "b"):
        out = tmp_path / rep
        subprocess.run([sys.executable, "-m", "bwinr.cli", *command, "--out", str(out)],
                       capture_output=True, check=True, env=env)
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0] and outputs[0] == outputs[1]


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

    def test_640_digit_seed_round_trips_through_the_checkpoint(self, tmp_path):
        # 640 digits is the longest seed load_checkpoint reads back.
        seed = "9" * 640
        out = tmp_path / "run"
        code = run([
            "fit", "--image", "scene:8", "--epochs", "1", "--width", "8",
            "--layers", "1", "--seed", seed, "--out", str(out),
        ])
        assert code == 0
        assert load_checkpoint(out / "checkpoint.txt").seed == int(seed)

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

    def test_log_round_trips_and_vnorm_total_is_the_logs(self, tmp_path, monkeypatch):
        runs = []

        def recording(cfg, task):
            runs.append(train(cfg, task))
            return runs[-1]

        monkeypatch.setattr(bwinr.cli, "train", recording)
        out = tmp_path / "run"
        code = run([
            "fit", "--image", "scene:12", "--epochs", "6", "--width", "8",
            "--layers", "2", "--log-every", "2", "--track-cond", "--out", str(out),
        ])
        assert code == 0
        [(_, log)] = runs
        assert TrainLog.from_csv(log.to_csv()) == log
        assert TrainLog.from_csv((out / "log.csv").read_text()) == log
        header, rows = read_table(out / "vnorm.csv")
        assert [row[0] for row in rows] == [1.0, 2.0, "total"]
        assert rows[-1][1] == log.entries[-1].vnorm_total

    def test_dead_tracked_layer_logs_the_floor(self, tmp_path):
        # One relu neuron per layer: the tracked layer is all zero.
        out = tmp_path / "dead"
        code = run([
            "fit", "--image", "scene:8", "--width", "1", "--layers", "2",
            "--act", "relu", "--track-cond", "--epochs", "2", "--seed", "0",
            "--out", str(out),
        ])
        assert code == 0
        log = TrainLog.from_csv((out / "log.csv").read_text())
        assert [e.feat_cond for e in log.entries] == [1e14] * 3
        assert (out / "checkpoint.txt").is_file()

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_tracked_kappa_is_the_final_params_last_hidden_layer(
        self, tmp_path, monkeypatch, layers
    ):
        # From three hidden layers on the trace drops layer 0; the tracked
        # layer, the last hidden one, is always held.
        runs = []

        def recording(cfg, task):
            runs.append((cfg, task))
            return train(cfg, task)

        monkeypatch.setattr(bwinr.cli, "train", recording)
        out = tmp_path / "run"
        code = run([
            "fit", "--image", "scene:32", "--width", "16", "--layers", str(layers),
            "--epochs", "3", "--log-every", "1", "--track-cond", "--out", str(out),
        ])
        assert code == 0
        [(cfg, task)] = runs
        trace = forward(load_checkpoint(out / "checkpoint.txt"), prepare_inputs(cfg, task))[1]
        expected = feature_gram_condition(trace.post[layers - 1]).value
        log = TrainLog.from_csv((out / "log.csv").read_text())
        assert log.entries[-1].feat_cond == expected

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

    def test_rows_are_the_builders_reports(self, tmp_path):
        out = tmp_path / "cond"
        run(["conditioning", "--j-max", "4", "--k-list", "8,16,32", "--out", str(out)])
        spectrum = ["lambda_min", "lambda_max", "kappa", "floored"]
        for name, key, build, header in [
            ("dyadic_gram.csv", "J", build_dyadic_gram, ["J", "K", *spectrum, "diag"]),
            ("relu_gram.csv", "K", build_relu_gram, ["K", *spectrum]),
        ]:
            got_header, rows = read_table(out / name)
            assert got_header == header
            for row in rows:
                cells = dict(zip(header, row))
                report = build(int(cells[key]))
                expected = [report.eigenvalues[0], report.eigenvalues[-1],
                            report.condition.value, float(report.condition.floored)]
                got = np.array([cells[col] for col in spectrum])
                assert got.tobytes() == np.array(expected).tobytes()
            assert len(rows) == {"J": 4, "K": 3}[key]

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

    def test_builds_each_j_once_j_max_first(self, tmp_path, monkeypatch):
        built = []

        def recording(J):
            built.append(J)
            return build_dyadic_gram(J)

        monkeypatch.setattr(bwinr.cli, "build_dyadic_gram", recording)
        assert run(["conditioning", "--j-max", "4", "--k-list", "8",
                    "--out", str(tmp_path / "o")]) == 0
        assert built == [4, 1, 2, 3]

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
        ["--k-list", "8,16,8"],
    ], ids=["j0", "j11", "k-empty", "k1", "k513", "k-repeated"])
    def test_conditioning_range_is_config_error(self, tmp_path, capsys, flags):
        out = tmp_path / "o"
        code = run(["conditioning", *flags, "--out", str(out)])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, text, values", [
        ("conditioning", "--k-list", ",", "[]"),
        ("conditioning", "--k-list", "8,16,8", "[8, 16, 8]"),
        ("vnorm-sweep", "--c-list", ",", "[]"),
        ("vnorm-sweep", "--c-list", "1,3,1.0", "[1.0, 3.0, 1.0]"),
    ], ids=["k-empty", "k-repeated", "c-empty", "c-repeated"])
    def test_list_flag_message(self, tmp_path, capsys, command, flag, text, values):
        code = run([command, flag, text, "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"configuration error: argument {flag}: needs one or more distinct "
            f"values, got {values}\n"
        )

    @pytest.mark.parametrize("command", [
        ["fit", "--image", "scene:99999999999999999999", "--epochs", "1"],
        ["fit", "--image", "scene:" + "1" * 5000],
        ["fit", "--image", "scene:8", "--width", "1" + "0" * 20, "--epochs", "1"],
        ["ct", "--image", "shepp-logan:8", "--angles", "1" + "0" * 20, "--epochs", "1"],
        ["fit", "--image", "scene:8", "--layers", "1" + "0" * 20, "--epochs", "1"],
        ["fit", "--image", "scene:8", "--width", "1_0"],
        ["fit", "--image", "scene:8", "--width", " 5"],
        ["fit", "--image", "scene:8", "--width", "+3"],
        ["fit", "--image", "scene:8", "--width", "\u0663"],  # ARABIC-INDIC DIGIT THREE
        ["fit", "--image", "scene:8", "--seed", "\uff11\uff12"],  # FULLWIDTH 12
        ["fit", "--image", "scene:8", "--seed", "1" * 641],
        ["fit", "--image", "scene:8", "--epochs", "1" * 5000],
        ["fit", "--image", "scene:8", "--width=--"],
    ], ids=["image-size-huge", "image-size-5000-digits", "width-huge", "angles-huge",
            "layers-huge", "width-underscore", "width-space", "width-plus",
            "width-arabic-indic", "seed-fullwidth", "seed-641-digits",
            "epochs-5000-digits", "width-double-dash"])
    def test_integer_outside_the_grammar_is_one_short_line(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # None is 1 to 9 ASCII digits (640 for --seed); int() reads several
        # and numpy fails on the huge ones. Each is one short line, before any
        # task, training or output directory.
        monkeypatch.setattr(bwinr.cli, "make_task", _built_too_early)
        monkeypatch.setattr(bwinr.cli, "train", _trained_too_early)
        out = tmp_path / "o"
        code = run([*command, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert len(err) < 200
        assert not out.exists()

    def test_long_repeated_list_is_shortened(self, tmp_path, capsys):
        code = run(["conditioning", "--k-list", ",".join(["8"] * 3000),
                    "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            "configuration error: argument --k-list: needs one or more distinct "
            "values, got [8, 8, 8, 8, 8, 8, ...]\n"
        )

    def test_integer_flags_are_read_only_by_digits(self):
        # int() reads 1_0, +3, " 5" and other scripts' digits, and raises past
        # its digit limit: no flag type and no code outside _digits uses it.
        tree = ast.parse(Path(bwinr.cli.__file__).read_text())
        types = {ast.unparse(kw.value) for node in ast.walk(tree)
                 if isinstance(node, ast.Call) for kw in node.keywords if kw.arg == "type"}
        assert "int" not in types
        # The scans find the flags' types and _digits' one int() call, so an
        # empty result is not a scan that finds nothing.
        assert {"_digits(9)", "_digits(640)", "_distinct(_digits(9))"} <= types
        owners = [
            getattr(top, "name", "<module>")
            for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Name) and node.id == "int"
        ]
        assert owners == ["_digits"]

    @pytest.mark.parametrize("flags", [
        ["--c-list", ",", "--target-loss", "1e-3"],
        ["--c-list", "1,-2", "--target-loss", "1e-3"],
        ["--c-list", "1,3"],
        ["--c-list", "1,3,1.0", "--target-loss", "1e-3"],
    ], ids=["c-empty", "c-negative", "no-target-loss", "c-repeated"])
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
        ["fit", "--act", "relu-pe", "--pe-levels", "1024"],
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
        ["fit", "--seed", "-1"],
        ["ct", "--seed", "-1"],
        ["superres", "--seed", "-1"],
        ["vnorm-sweep", "--seed", "-1"],
    ], ids=["relu-c", "relu-pe-c", "bwrelu-pe-levels", "pe-levels0",
            "pe-levels1024", "log-every0",
            "ct-lr", "sweep-act", "sweep-c-not-c-list", "sweep-pe-levels",
            "sweep-track-cond", "sweep-sigrep-angles", "sweep-ct-factor",
            "lr-inf", "wd-nan", "wd-inf", "c-inf", "sine-c-inf", "gauss-c-inf",
            "sweep-c-list-inf", "width0", "layers0", "fit-seed-negative",
            "ct-seed-negative", "superres-seed-negative", "sweep-seed-negative"])
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

    @pytest.mark.parametrize(
        "error, code, prefix", _EXITS, ids=[e.__name__ for e, _, _ in _EXITS]
    )
    def test_each_error_class_has_its_exit_code(
        self, tmp_path, capsys, monkeypatch, error, code, prefix
    ):
        def failing(spec):
            raise error("the message")

        monkeypatch.setattr(bwinr.cli, "resolve_image", failing)
        assert run(["fit", "--image", "scene:8", "--out", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err == f"{prefix}the message\n"

    def test_exit_table_covers_every_error_class(self):
        classes = {
            v for v in vars(bwinr.errors).values()
            if isinstance(v, type) and issubclass(v, bwinr.errors.BwinrError)
        }
        assert {error for error, _, _ in _EXITS} == classes

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
        ["ct", "--image", "shepp-logan:8", "--angles", "4", "--epochs", "40"],
        ["vnorm-sweep", "--task", "ct", "--image", "shepp-logan:8", "--angles", "4",
         "--epochs", "40", "--c-list", "1,3", "--target-loss", "1e-4"],
    ], ids=["conditioning", "fit", "ct", "vnorm-sweep"])
    def test_out_under_a_file_is_io_error(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(bwinr.cli, "train", _trained_too_early)
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = run(command + ["--out", str(blocker / "sub")])
        assert code == 2
        reason = os.strerror(errno.ENOTDIR)
        assert capsys.readouterr().err == f"i/o error: cannot write {blocker / 'sub'}: {reason}\n"

    @pytest.mark.parametrize("command", [
        ["conditioning", "--j-max", "2", "--k-list", "8"],
        ["fit", "--image", "scene:8", "--epochs", "0", "--width", "4",
         "--layers", "1"],
    ], ids=["conditioning", "fit"])
    def test_null_byte_out_is_io_error(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(bwinr.cli, "train", _trained_too_early)
        out = f"{tmp_path}/a\0b"
        code = run(command + ["--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert "\0" not in err and err.count("\n") == 1
        assert err.startswith(f"i/o error: cannot write {out!r}: ")

    def test_newline_in_image_path_is_one_stderr_line(self, tmp_path, capsys):
        path = f"{tmp_path}/no\nsuch.pgm"
        code = run(["fit", "--image", path, "--out", str(tmp_path / "o")])
        assert code == 2
        reason = os.strerror(errno.ENOENT)
        assert capsys.readouterr().err == f"i/o error: {path!r}: {reason}\n"

    @pytest.mark.parametrize("command", [
        ["conditioning", "--j-max", "2", "--k-list", "8"],
        ["fit", "--image", "scene:8", "--epochs", "1", "--width", "4",
         "--layers", "1"],
        ["vnorm-sweep", "--task", "ct", "--image", "shepp-logan:8", "--angles", "4",
         "--epochs", "2", "--c-list", "1", "--target-loss", "1e-4"],
    ], ids=["conditioning", "fit", "vnorm-sweep"])
    def test_control_character_in_out_is_shown_by_repr(self, tmp_path, capsys, command):
        out = f"{tmp_path}/a\x01b"
        assert run(command + ["--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "\x01" not in stdout
        assert stdout.endswith(f" -> {out!r}\n")
        assert Path(out).is_dir()

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

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_image_names_path_once(self, tmp_path, capsys, kind):
        path = tmp_path / "in"
        reason = os.strerror(errno.ENOENT)
        if kind == "directory":
            path.mkdir()
            reason = os.strerror(errno.EISDIR)
        code = run(["fit", "--image", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == f"i/o error: {path}: {reason}\n"

    def test_divergence_is_numerical_failure(self, tmp_path):
        out = tmp_path / "o"
        code = run([
            "fit", "--image", "scene:12", "--act", "relu",
            "--lr", "1e6", "--epochs", "50", "--width", "8",
            "--layers", "2", "--out", str(out),
        ])
        assert code == 3
        assert [p.name for p in out.iterdir()] == ["log.csv"]
        log = TrainLog.from_csv((out / "log.csv").read_text())
        assert log.entries and log.entries[-1].epoch < 50

    def test_overflowing_adam_moment_is_one_line_and_keeps_log(self, tmp_path, capsys):
        # At c = 1e80 the gradient is finite but its square is not.
        out = tmp_path / "o"
        code = run([
            "fit", "--image", "scene:8", "--act", "sine", "--c", "1e80",
            "--width", "4", "--epochs", "3", "--log-every", "1", "--out", str(out),
        ])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: non-finite Adam second moment encountered at epoch 0"
        ]
        log = TrainLog.from_csv((out / "log.csv").read_text())
        assert [e.epoch for e in log.entries] == [0]

    def test_non_finite_gradient_is_one_line_and_keeps_log(self, tmp_path, capsys):
        # sine at c = 1e200 overflows in backward; numpy's warnings would be
        # errors here, so one clean line also means none was raised.
        out = tmp_path / "o"
        code = run([
            "fit", "--image", "scene:8", "--act", "sine", "--c", "1e200",
            "--width", "4", "--epochs", "3", "--log-every", "1", "--out", str(out),
        ])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: non-finite gradient encountered at epoch 0"
        ]
        log = TrainLog.from_csv((out / "log.csv").read_text())
        assert [e.epoch for e in log.entries] == [0]
