"""Adam training loop with exponential learning-rate decay.

One full-batch step per epoch: render the network over the task's
coordinate grid, push the rendering through the task's linear operator,
take the MSE against the measurements, and backpropagate through operator
and network. Weight decay enters as an extra 2*lambda*w gradient on
weight matrices only; biases are never regularized.

The learning rate follows eta(t) = eta0 * r^(t/T). Runs are bit-for-bit
reproducible from the seed, and the log serializes to a fixed CSV schema
(``epoch,loss,psnr,lr,vnorm_total,feat_cond``).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .activations import Activation, positional_encoding
from .diagnostics import feature_gram_condition, psnr, variation_norm_deep
from .errors import (
    ConfigurationError,
    DivergenceError,
    NumericalError,
    ShapeError,
    UnsupportedActivationError,
)
from .network import NetworkParams, backward, forward, init_network, mlp_specs

DIVERGENCE_THRESHOLD = 1e12

LOG_CSV_HEADER = "epoch,loss,psnr,lr,vnorm_total,feat_cond"


@dataclass(frozen=True)
class TrainConfig:
    """Architecture, optimizer schedule and diagnostics for one run."""

    activation: Activation
    epochs: int
    lr0: float
    decay: float = 0.1
    width: int = 300
    depth: int = 3
    weight_decay: float = 0.0
    seed: int = 0
    log_every: int | None = None       # default: max(1, epochs // 100)
    pe_levels: int | None = None       # Fourier-encode inputs when set
    target_loss: float | None = None   # early stop at this training loss
    track_feature_condition: bool = False  # kappa of the last hidden layer

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigurationError(f"epochs must be >= 0, got {self.epochs}")
        if not 0 < self.lr0 < math.inf:
            raise ConfigurationError(f"lr0 must be finite and positive, got {self.lr0}")
        if not 0 < self.decay <= 1:
            raise ConfigurationError(
                f"decay must be in (0, 1], got {self.decay}"
            )
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigurationError(
                f"weight_decay must be finite and >= 0, got {self.weight_decay}"
            )
        if self.width < 1 or self.depth < 1:
            raise ConfigurationError(
                f"width/depth must be >= 1, got {self.width}/{self.depth}"
            )
        if self.pe_levels is not None and self.pe_levels < 1:
            raise ConfigurationError(f"pe_levels must be >= 1, got {self.pe_levels}")
        if self.log_every is not None and self.log_every < 1:
            raise ConfigurationError(f"log_every must be >= 1, got {self.log_every}")
        if self.target_loss is not None and not self.target_loss >= 0:
            raise ConfigurationError(f"target_loss must be >= 0, got {self.target_loss}")

    @property
    def diagnostic_period(self):
        if self.log_every is not None:
            return self.log_every
        return max(1, self.epochs // 100)


def lr_at(cfg, t):
    """eta0 * r^(t/T); constant eta0 for zero-epoch configs."""
    if cfg.epochs == 0:
        return float(cfg.lr0)
    return cfg.lr0 * cfg.decay ** (t / cfg.epochs)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First and second moments over ``weights + biases``, and the step count."""

    m: list
    v: list
    step: int = 0


def init_adam_state(params):
    zeros = [np.zeros_like(p) for p in params.weights + params.biases]
    return AdamState(m=zeros, v=[np.zeros_like(z) for z in zeros])


def adam_step(params, grads, state, lr, weight_decay=0.0):
    """One bias-corrected Adam step; returns fresh (params, state).

    ``weight_decay`` adds 2*lambda*w to each weight gradient (biases are
    left unregularized).
    """
    t = state.step + 1
    step_size = lr * math.sqrt(1.0 - ADAM_BETA2**t) / (1.0 - ADAM_BETA1**t)
    n_weights = len(params.weights)
    theta, m, v = [], [], []
    for i, (p, g) in enumerate(zip(params.weights + params.biases,
                                   grads.weights + grads.biases)):
        if weight_decay and i < n_weights:
            g = g + 2.0 * weight_decay * p
        if not np.all(np.isfinite(g)):
            raise NumericalError("non-finite gradient encountered")
        m.append(ADAM_BETA1 * state.m[i] + (1.0 - ADAM_BETA1) * g)
        v.append(ADAM_BETA2 * state.v[i] + (1.0 - ADAM_BETA2) * g * g)
        theta.append(p - step_size * m[i] / (np.sqrt(v[i]) + ADAM_EPS))
    new = NetworkParams(
        specs=params.specs,
        weights=theta[:n_weights],
        biases=theta[n_weights:],
        seed=params.seed,
    )
    return new, AdamState(m=m, v=v, step=t)


@dataclass(frozen=True)
class LogEntry:
    epoch: int
    loss: float
    psnr: float | None
    lr: float
    vnorm_total: float | None = None
    vnorm_layers: tuple | None = None
    feat_cond: float | None = None


def format_field(value):
    """CSV cell for an optional float: '' for None, 'inf', else repr."""
    if value is None:
        return ""
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return repr(float(value))


def format_row(values):
    """One CSV line: bools and ints as integers, floats and None by
    ``format_field``, anything else by ``str``."""
    cells = []
    for v in values:
        if isinstance(v, (bool, int, np.integer)):
            cells.append(str(int(v)))
        elif v is None or isinstance(v, float):
            cells.append(format_field(v))
        else:
            cells.append(str(v))
    return ",".join(cells)


def parse_field(text):
    """Inverse of ``format_field``; raises ValueError on other text."""
    if text == "":
        return None
    if text == "inf":
        return math.inf
    return float(text)


@dataclass
class TrainLog:
    """Logged diagnostics; ``final_render`` (never in CSV) is the last state's."""

    entries: list = field(default_factory=list)
    final_render: np.ndarray | None = field(default=None, compare=False, repr=False)

    def to_csv(self):
        lines = [LOG_CSV_HEADER] + [
            format_row((e.epoch, e.loss, e.psnr, e.lr, e.vnorm_total, e.feat_cond))
            for e in self.entries
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text):
        lines = [ln for ln in text.splitlines() if ln]
        if not lines or lines[0] != LOG_CSV_HEADER:
            raise ShapeError("unrecognized training-log CSV header")
        log = cls()
        for ln in lines[1:]:
            epoch, loss, snr, lr, vnorm, cond = ln.split(",")
            log.entries.append(LogEntry(
                epoch=int(epoch),
                loss=parse_field(loss),
                psnr=parse_field(snr),
                lr=parse_field(lr),
                vnorm_total=parse_field(vnorm),
                feat_cond=parse_field(cond),
            ))
        return log


def prepare_inputs(cfg, task):
    """Network inputs for the task, Fourier-encoded when configured."""
    X = np.asarray(task.coords, dtype=float)
    if cfg.pe_levels is not None:
        X = positional_encoding(X, cfg.pe_levels)
    return X


def build_network(cfg, task):
    """Fresh network matching the task's input dimension."""
    X = prepare_inputs(cfg, task)
    sizes = [X.shape[1]] + [cfg.width] * cfg.depth + [1]
    return init_network(mlp_specs(sizes, cfg.activation), cfg.seed), X


def _loss_and_rendered(params, X, task):
    Y, trace = forward(params, X)
    rendered = Y.reshape(task.render_shape)
    out = task.operator.apply(rendered)
    resid = out - task.target
    loss = float(np.mean(resid * resid))
    return loss, resid, rendered, trace


def _diagnostics_entry(cfg, task, params, trace, epoch, loss, lr, rendered):
    snr = None
    if task.reference is not None:
        snr = psnr(task.reference, rendered)
    vnorm_total = None
    vnorm_layers = None
    try:
        report = variation_norm_deep(params)
        vnorm_total, vnorm_layers = report.total, report.layers
    except UnsupportedActivationError:
        pass
    feat = None
    if cfg.track_feature_condition:
        feat = feature_gram_condition(trace, len(params.specs) - 2).value
    return LogEntry(
        epoch=epoch, loss=loss, psnr=snr, lr=lr,
        vnorm_total=vnorm_total, vnorm_layers=vnorm_layers, feat_cond=feat,
    )


def train(cfg, task):
    """Run the configured fit against ``task``; returns (params, log).

    Deterministic in ``cfg.seed``. Each state runs one ``forward``, whose
    trace serves loss, backward and diagnostics (feature-Gram kappa too).
    Diagnostics are logged every ``cfg.diagnostic_period`` epochs and at
    the final state, reached after ``cfg.epochs`` steps or at the first
    loss <= ``cfg.target_loss``; its rendering is ``log.final_render``.
    Raises DivergenceError (log attached) if the loss blows past 1e12.
    """
    params, X = build_network(cfg, task)
    state = init_adam_state(params)
    log = TrainLog()
    period = cfg.diagnostic_period
    for t in range(cfg.epochs + 1):
        loss, resid, rendered, trace = _loss_and_rendered(params, X, task)
        if not math.isfinite(loss) or loss > DIVERGENCE_THRESHOLD:
            raise DivergenceError(
                f"loss diverged at epoch {t}: {loss:.3e}", log=log
            )
        lr = lr_at(cfg, t)
        final = t == cfg.epochs or (
            cfg.target_loss is not None and loss <= cfg.target_loss
        )
        if final or t % period == 0:
            log.entries.append(_diagnostics_entry(
                cfg, task, params, trace, t, loss, lr, rendered
            ))
        if final:
            log.final_render = rendered
            return params, log
        d_rendered = task.operator.vjp((2.0 / resid.size) * resid)
        grads = backward(params, trace, d_rendered.reshape(-1, 1))
        del trace  # free it before the next forward allocates another
        params, state = adam_step(params, grads, state, lr, cfg.weight_decay)
