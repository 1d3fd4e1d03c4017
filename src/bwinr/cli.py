"""Command-line entry points for the benchmark experiments.

Subcommands
-----------
fit           image fitting (signal representation)
ct            computed-tomography reconstruction from parallel-beam data
superres      4x super-resolution from block-downsampled measurements
conditioning  Gram-matrix spectra of the ReLU and dyadic wavelet systems
vnorm-sweep   scale sweep: PSNR vs total variation norm at equal loss

Defaults follow the per-task hyperparameter tables (see README). Exit
codes: 0 success, 1 configuration error, 2 I/O error, 3 numerical failure.
All randomness sits behind --seed; repeated runs write bitwise-identical
CSVs.
"""

import argparse
import re
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import assets
from .activations import Activation
from .diagnostics import (
    build_dyadic_gram,
    build_relu_gram,
    check_dyadic_levels,
    check_relu_gram_size,
    dyadic_system,
    variation_norm_deep,
)
from .errors import (
    BwinrError,
    ConfigurationError,
    DivergenceError,
    ImageIOError,
    NumericalError,
    ShapeError,
)
from .images import load_image, save_image
from .network import save_checkpoint
from .operators import ImageGrid, make_task
from .training import TrainConfig, format_table, parse_table, train

# Per-(task, activation) training defaults: learning rate, scale, decay,
# epochs, width, depth. Plain relu has no published setting and borrows
# the relu-pe learning rate of its task.
DEFAULTS = {
    ("ct", "bwrelu"): dict(lr=2e-3, scale=3.0),
    ("ct", "sine"): dict(lr=1e-3, scale=25.0),
    ("ct", "gauss"): dict(lr=5e-3, scale=10.0),
    ("ct", "relu-pe"): dict(lr=3e-3, scale=None),
    ("ct", "relu"): dict(lr=3e-3, scale=None),
    ("sigrep", "bwrelu"): dict(lr=4e-3, scale=9.0),
    ("sigrep", "sine"): dict(lr=2e-3, scale=50.0),
    ("sigrep", "gauss"): dict(lr=1e-3, scale=10.0),
    ("sigrep", "relu-pe"): dict(lr=4e-3, scale=None),
    ("sigrep", "relu"): dict(lr=4e-3, scale=None),
    ("superres", "bwrelu"): dict(lr=3e-3, scale=3.0),
    ("superres", "sine"): dict(lr=2e-3, scale=12.0),
    ("superres", "gauss"): dict(lr=3e-3, scale=6.0),
    ("superres", "relu-pe"): dict(lr=4e-3, scale=None),
    ("superres", "relu"): dict(lr=4e-3, scale=None),
}
TASK_DEFAULTS = {
    "ct": dict(epochs=10000, decay=0.1, width=300, depth=3),
    "sigrep": dict(epochs=1000, decay=0.1, width=300, depth=3),
    "superres": dict(epochs=2000, decay=0.2, width=256, depth=3),
}

_GENERATED_IMAGE = re.compile(r"^(shepp-logan|scene):(\d+)$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # exact flags only: --c is not --c-list
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigurationError(message)


def resolve_image(spec):
    """Either a path to a PGM file or 'shepp-logan:N' / 'scene:N'."""
    m = _GENERATED_IMAGE.match(spec)
    if m:
        name, size = m.group(1), int(m.group(2))
        if size < 4:
            raise ConfigurationError(f"generated image too small: {spec}")
        return assets.shepp_logan(size) if name == "shepp-logan" else assets.synthetic_scene(size)
    return load_image(spec)


def experiment_config(args):
    """Translate the flags of ``args.task`` into a validated TrainConfig.

    ``Activation`` rejects a ``--c`` for relu and relu-pe, and a scale
    that is not finite and positive for the others.
    """
    base = TASK_DEFAULTS[args.task]
    act_defaults = DEFAULTS[(args.task, args.act)]
    pe_levels = args.pe_levels
    if args.act == "relu-pe":
        pe_levels = 10 if pe_levels is None else pe_levels
    elif pe_levels is not None:
        raise ConfigurationError(f"--pe-levels needs --act relu-pe, not {args.act}")
    kind = {"gauss": "gaussian", "relu-pe": "relu"}.get(args.act, args.act)
    try:
        activation = Activation(kind, act_defaults["scale"] if args.c is None else args.c)
    except ConfigurationError as exc:
        raise ConfigurationError(f"--c for --act {args.act}: {exc}") from exc
    return TrainConfig(
        activation=activation,
        epochs=args.epochs if args.epochs is not None else base["epochs"],
        lr0=args.lr if args.lr is not None else act_defaults["lr"],
        decay=args.decay if args.decay is not None else base["decay"],
        width=args.width if args.width is not None else base["width"],
        depth=args.layers if args.layers is not None else base["depth"],
        weight_decay=args.wd,
        seed=args.seed,
        log_every=args.log_every,
        pe_levels=pe_levels,
        target_loss=args.target_loss,
        track_feature_condition=args.track_cond,
    )


def _config_and_task(args):
    """Check every flag, then build (cfg, task): a rejected flag builds nothing."""
    cfg = experiment_config(args)
    # n_angles (--angles) and factor are in args only when given.
    operator = {k: v for k, v in vars(args).items() if k in ("n_angles", "factor")}
    if set(operator) - {{"ct": "n_angles", "superres": "factor"}.get(args.task)}:
        raise ConfigurationError("--angles is for task ct, --factor for superres")
    return cfg, make_task(args.task, resolve_image(args.image), **operator)


@contextmanager
def _writing(target):
    """Report any OSError met while writing ``target`` as ImageIOError (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise ImageIOError(f"cannot write {target}: {exc}") from exc


def _output_dir(path):
    out = Path(path)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
    return out


def _write_text(path, text):
    with _writing(path):
        Path(path).write_bytes(text.encode("ascii"))


def write_table(path, header, rows):
    """Write a CSV by ``training.format_table``."""
    _write_text(path, format_table(header, rows))


def read_table(path):
    """Parse an ASCII CSV by ``training.parse_table`` into (header, rows)."""
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise ShapeError(f"{path}: not ASCII text ({exc})") from exc
    return parse_table(text)


def cmd_train(args):
    """fit, ct and superres: train one net on ``args.task`` and write its
    outputs; a diverged run writes only its partial ``log.csv``."""
    cfg, task = _config_and_task(args)
    out = _output_dir(args.out)
    try:
        params, log = train(cfg, task)
    except DivergenceError as exc:
        _write_text(out / "log.csv", exc.log.to_csv())
        raise

    save_image(ImageGrid(log.final_render), out / "recon.pgm")  # clamps to [0, 1]
    _write_text(out / "log.csv", log.to_csv())
    with _writing(out / "checkpoint.txt"):
        save_checkpoint(params, out / "checkpoint.txt")
    final = log.entries[-1]
    if final.vnorm_total is not None:
        report = variation_norm_deep(params)
        rows = [(f"{i + 1}", v) for i, v in enumerate(report.layers)]
        rows.append(("total", report.total))
        write_table(out / "vnorm.csv", ["layer", "vnorm"], rows)

    if args.task == "ct":
        op = task.operator
        rows = [
            [angle] + values.tolist()
            for angle, values in zip(op.angles, task.target)
        ]
        header = ["angle"] + [f"d{i}" for i in range(op.detectors)]
        write_table(out / "sinogram.csv", header, rows)
    if args.task == "superres":
        save_image(ImageGrid(task.target), out / "lowres.pgm")

    snr = "n/a" if final.psnr is None else f"{final.psnr:.2f} dB"
    print(
        f"{args.task}: epochs={final.epoch} loss={final.loss:.3e} psnr={snr}"
        f" -> {out}"
    )
    return 0


def cmd_conditioning(args):
    check_dyadic_levels(args.j_max)
    if not args.k_list:
        raise ConfigurationError("--k-list needs at least one K")
    for K in args.k_list:
        check_relu_gram_size(K)
    out = _output_dir(args.out)
    dyadic_rows = []
    for J in range(1, args.j_max + 1):
        report = build_dyadic_gram(J)
        scale, shift = np.array(dyadic_system(J)).T
        gram = report.matrix
        # Boolean masks select in row-major order, as a loop over (a, b) would.
        same = scale[:, None] == scale[None, :]
        gap = np.abs(shift[:, None] - shift[None, :])
        same1 = gram[same & (gap == 1)]
        same2 = gram[same & (gap == 2)]
        cross = np.abs(gram[~same])
        dyadic_rows.append([
            J, len(scale),
            float(report.eigenvalues[0]), float(report.eigenvalues[-1]),
            report.condition.value, report.condition.floored,
            float(gram[0, 0]),
            float(np.mean(same1)) if same1.size else None,
            float(np.mean(same2)) if same2.size else None,
            float(np.max(cross)) if cross.size else None,
        ])
    write_table(
        out / "dyadic_gram.csv",
        ["J", "K", "lambda_min", "lambda_max", "kappa", "floored",
         "diag", "c1", "c2", "cross_scale_max"],
        dyadic_rows,
    )

    relu_rows = []
    for K in args.k_list:
        report = build_relu_gram(K)
        relu_rows.append([
            K,
            float(report.eigenvalues[0]), float(report.eigenvalues[-1]),
            report.condition.value, report.condition.floored,
        ])
    write_table(
        out / "relu_gram.csv",
        ["K", "lambda_min", "lambda_max", "kappa", "floored"],
        relu_rows,
    )
    if len(relu_rows) >= 2:
        logs = np.log([[r[0], r[1], r[3]] for r in relu_rows])
        lam_slope, kappa_slope = np.polyfit(logs[:, 0], logs[:, 1:], 1)[0]
        print(f"relu gram: log-log lambda_min slope {lam_slope:.3f}, "
              f"kappa slope {kappa_slope:.3f} over K={args.k_list}")
    print(f"dyadic gram: max kappa {max(r[4] for r in dyadic_rows):.4f} "
          f"for J<={args.j_max} -> {out}")
    return 0


def run_vnorm_sweep(task, base_cfg, c_list, target_loss):
    """Train one net per scale, early-stopped at the shared target loss.

    Returns rows (c, seed, epochs_run, loss, psnr, vnorm_total).
    """
    rows = []
    for c in c_list:
        cfg = replace(
            base_cfg,
            activation=Activation("bwrelu", float(c)),
            target_loss=target_loss,
        )
        _, log = train(cfg, task)
        final = log.entries[-1]
        rows.append((
            float(c), cfg.seed, final.epoch, final.loss, final.psnr,
            final.vnorm_total,
        ))
    return rows


def cmd_vnorm_sweep(args):
    if args.target_loss is None:
        raise ConfigurationError("vnorm-sweep requires --target-loss")
    if not args.c_list:
        raise ConfigurationError("--c-list needs at least one scale")
    for c in args.c_list:
        Activation("bwrelu", c)  # rejects a non-positive scale before training
    cfg, task = _config_and_task(args)
    out = _output_dir(args.out)
    rows = run_vnorm_sweep(task, cfg, args.c_list, args.target_loss)
    write_table(
        out / "sweep.csv",
        ["c", "seed", "epochs", "loss", "psnr", "vnorm_total"],
        rows,
    )
    best_psnr = max(rows, key=lambda r: r[4])
    best_vnorm = min(rows, key=lambda r: r[5])
    print(
        f"sweep: best psnr at c={best_psnr[0]} "
        f"({best_psnr[4]:.2f} dB), min vnorm at c={best_vnorm[0]} -> {out}"
    )
    return 0


def _add_training(p, with_act=True):
    """Flags of the training subcommands; vnorm-sweep fixes the activation."""
    p.add_argument("--image", required=True,
                   help="PGM path, or shepp-logan:N / scene:N")
    if with_act:
        p.add_argument("--act", default="bwrelu",
                       choices=sorted({act for _, act in DEFAULTS}))
        p.add_argument("--c", type=float, default=None,
                       help="c / omega0 / sigma0; relu and relu-pe take none")
        p.add_argument("--pe-levels", type=int, default=None,
                       help="Fourier levels of relu-pe (default 10)")
        p.add_argument("--track-cond", action="store_true",
                       help="log feature-Gram condition numbers")
    else:
        p.set_defaults(act="bwrelu", c=None, pe_levels=None, track_cond=False)
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--layers", type=int, default=None,
                   help="number of hidden layers")
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--decay", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--wd", type=float, default=0.0, help="weight decay")
    p.add_argument("--log-every", type=int, default=None)
    p.add_argument("--target-loss", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")


def _int_list(text):
    return [int(tok) for tok in text.split(",") if tok]


def _float_list(text):
    return [float(tok) for tok in text.split(",") if tok]


def build_parser():
    parser = _Parser(prog="bwinr", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    # Absent unless given, so make_task's defaults (100, 4) are the only ones.
    angles = dict(dest="n_angles", metavar="ANGLES", type=int,
                  default=argparse.SUPPRESS)
    factor = dict(type=int, default=argparse.SUPPRESS)

    p = sub.add_parser("fit", help="fit an image directly")
    _add_training(p)
    p.set_defaults(func=cmd_train, task="sigrep")

    p = sub.add_parser("ct", help="CT reconstruction")
    _add_training(p)
    p.add_argument("--angles", **angles)
    p.set_defaults(func=cmd_train, task="ct")

    p = sub.add_parser("superres", help="super-resolution")
    _add_training(p)
    p.add_argument("--factor", **factor)
    p.set_defaults(func=cmd_train, task="superres")

    p = sub.add_parser("conditioning", help="Gram spectra reports")
    p.add_argument("--seed", type=int, default=0,
                   help="no effect: nothing here is random")
    p.add_argument("--out", default="out")
    p.add_argument("--j-max", type=int, default=8)
    p.add_argument("--k-list", type=_int_list, default=[8, 16, 32, 64, 128, 256])
    p.set_defaults(func=cmd_conditioning)

    p = sub.add_parser("vnorm-sweep", help="PSNR vs variation norm over scales")
    _add_training(p, with_act=False)
    p.add_argument("--task", default="ct", choices=sorted(TASK_DEFAULTS))
    p.add_argument("--angles", **angles)
    p.add_argument("--factor", **factor)
    p.add_argument("--c-list", type=_float_list, default=[1.0, 2.0, 3.0, 5.0])
    p.set_defaults(func=cmd_vnorm_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except ImageIOError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except BwinrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
