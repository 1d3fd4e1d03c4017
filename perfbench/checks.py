"""Correctness checks on one run's output directory.

Every file the command writes is read back with the package's own
readers (``TrainLog.from_csv``, ``load_checkpoint``, ``load_image``,
``cli.read_table``) and checked for the shape, schema and finiteness the
command promises. A failed check raises ``CheckFailed``.
"""

import hashlib
import math

import numpy as np

from bwinr.cli import read_table
from bwinr.images import load_image
from bwinr.network import load_checkpoint
from bwinr.training import TrainLog

IMAGE_SIDE = 128
SINOGRAM_SHAPE = (100, 182)   # 100 angles x ceil(128 * sqrt 2) detectors
LOWRES_SIDE = 32              # 128 / factor 4
DYADIC_J = range(1, 9)        # conditioning defaults: J <= 8
RELU_K = [8, 16, 32, 64, 128, 256]


class CheckFailed(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _finite(*values):
    return all(v is not None and math.isfinite(v) for v in values)


def output_digests(out_dir):
    """sha256 of every file the run wrote, by name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def check_training(out_dir, workload, seed):
    """Validate a fit/ct/superres run; returns its final LogEntry."""
    log = TrainLog.from_csv((out_dir / "log.csv").read_text(encoding="ascii"))
    epochs = [e.epoch for e in log.entries]
    _require(epochs == list(range(workload.epochs + 1)),
             f"log.csv epochs {epochs}, expected 0..{workload.epochs}")
    wavelet = "bwrelu" in workload.cli_args
    tracks_cond = "--track-cond" in workload.cli_args
    for e in log.entries:
        _require(_finite(e.loss, e.psnr, e.lr) and e.loss >= 0.0,
                 f"log.csv epoch {e.epoch}: non-finite loss/psnr/lr")
        _require(_finite(e.vnorm_total) if wavelet else e.vnorm_total is None,
                 f"log.csv epoch {e.epoch}: vnorm_total {e.vnorm_total}")
        _require(_finite(e.feat_cond) if tracks_cond else e.feat_cond is None,
                 f"log.csv epoch {e.epoch}: feat_cond {e.feat_cond}")
    final = log.entries[-1]

    params = load_checkpoint(out_dir / "checkpoint.txt")
    _require(params.seed == seed, f"checkpoint seed {params.seed} != {seed}")
    dims = tuple((s.in_dim, s.out_dim) for s in params.specs)
    _require(dims == workload.layer_dims, f"checkpoint layers {dims}")
    _require(all(np.all(np.isfinite(a)) for a in params.weights + params.biases),
             "checkpoint holds non-finite values")

    recon = load_image(out_dir / "recon.pgm")
    _require(recon.pixels.shape == (IMAGE_SIDE, IMAGE_SIDE),
             f"recon.pgm shape {recon.pixels.shape}")

    if wavelet:
        header, rows = read_table(out_dir / "vnorm.csv")
        _require(header == ["layer", "vnorm"] and len(rows) == len(dims),
                 "vnorm.csv: one row per hidden layer plus the total expected")
        _require(rows[-1] == ["total", final.vnorm_total],
                 f"vnorm.csv total {rows[-1]} != log.csv {final.vnorm_total}")
    if workload.cli_args[0] == "ct":
        header, rows = read_table(out_dir / "sinogram.csv")
        values = np.array([r[1:] for r in rows], dtype=float)
        _require(len(header) == SINOGRAM_SHAPE[1] + 1
                 and values.shape == SINOGRAM_SHAPE
                 and np.all(np.isfinite(values)),
                 f"sinogram.csv shape {values.shape}")
    if workload.cli_args[0] == "superres":
        low = load_image(out_dir / "lowres.pgm")
        _require(low.pixels.shape == (LOWRES_SIDE, LOWRES_SIDE),
                 f"lowres.pgm shape {low.pixels.shape}")
    return final


def check_conditioning(out_dir):
    """Validate the Gram-spectrum CSVs; returns (dyadic kappas, relu kappas)."""
    header, rows = read_table(out_dir / "dyadic_gram.csv")
    col = {name: i for i, name in enumerate(header)}
    _require([r[col["J"]] for r in rows] == list(DYADIC_J), "dyadic_gram.csv: J column")
    dyadic = []
    for r in rows:
        J = int(r[col["J"]])
        _require(r[col["K"]] == 2**J - 1, f"dyadic J={J}: K {r[col['K']]}")
        # The normalised system has exactly 1/6 on the diagonal.
        _require(abs(r[col["diag"]] - 1.0 / 6.0) <= 1e-12,
                 f"dyadic J={J}: diagonal {r[col['diag']]} != 1/6")
        _require(_finite(r[col["lambda_min"]], r[col["kappa"]])
                 and r[col["lambda_min"]] > 0.0 and r[col["floored"]] == 0
                 and r[col["kappa"]] >= 1.0,
                 f"dyadic J={J}: spectrum {r}")
        dyadic.append(r[col["kappa"]])

    header, rows = read_table(out_dir / "relu_gram.csv")
    col = {name: i for i, name in enumerate(header)}
    _require([r[col["K"]] for r in rows] == RELU_K, "relu_gram.csv: K column")
    relu = [r[col["kappa"]] for r in rows]
    _require(all(_finite(k) and k >= 1.0 for k in relu)
             and all(a < b for a, b in zip(relu, relu[1:])),
             f"relu_gram.csv: kappa must be finite and grow with K, got {relu}")
    return dyadic, relu
