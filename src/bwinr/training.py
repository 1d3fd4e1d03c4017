"""Adam training loop with exponential learning-rate decay.

One full-batch step per epoch: render the network over the task's
coordinate grid, push the rendering through the task's linear operator,
take the MSE against the measurements, and backpropagate through operator
and network. That loss and its gradient exist once (``_objective``,
``_gradients``); ``grad_check`` compares them with central differences.
Weight decay enters as an extra 2*lambda*w gradient on weight matrices
only; biases are never regularized.

The learning rate follows eta(t) = eta0 * r^(t/T). Runs are bit-for-bit
reproducible from the seed. The log's CSV has one column per ``LogEntry``
field; ``format_table``/``parse_table`` are the package's one CSV codec.
"""

import math
from dataclasses import astuple, dataclass, field, fields

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
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
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
    feat_cond: float | None = None


LOG_COLUMNS = tuple(f.name for f in fields(LogEntry))


def format_table(header, rows):
    """CSV text, one line per row: floats by ``repr`` (so ``-inf`` and
    ``nan`` survive), None as an empty cell, bools and ints as integers,
    anything else by ``str``."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(repr(float(v)))
            elif v is None:
                cells.append("")
            elif isinstance(v, (bool, int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def parse_table(text):
    """Inverse of ``format_table``: (header, rows). An empty cell reads as
    None, a number in a form ``format_table`` writes as a float, any other
    cell (``1e5``, ``+1.50``) as its text. An empty text, or a row whose cell
    count is not the header's, raises ShapeError."""
    lines = text.splitlines()
    if not lines:
        raise ShapeError("empty CSV text")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    for n, cells in enumerate(rows, start=2):
        if len(cells) != len(header):
            raise ShapeError(f"CSV line {n}: {len(cells)} cells, header has {len(header)}")
        for i, cell in enumerate(cells):
            try:  # numbers only in the forms format_table writes
                if repr(float(cell)) == cell or str(int(cell)) == cell:
                    cells[i] = float(cell)
            except ValueError:
                cells[i] = cell or None  # empty: None; otherwise the text
    return header, rows


@dataclass
class TrainLog:
    """Logged diagnostics; ``final_render`` (never in CSV) is the last state's."""

    entries: list = field(default_factory=list)
    final_render: np.ndarray | None = field(default=None, compare=False, repr=False)

    def to_csv(self):
        return format_table(LOG_COLUMNS, [astuple(e) for e in self.entries])

    @classmethod
    def from_csv(cls, text):
        header, rows = parse_table(text)
        if tuple(header) != LOG_COLUMNS:
            raise ShapeError("unrecognized training-log CSV header")
        for row in rows:
            epoch, loss, _, lr = row[:4]  # epoch, loss and lr are required
            if not (isinstance(epoch, float) and epoch.is_integer()) or any(
                isinstance(v, str) for v in row
            ) or loss is None or lr is None:
                raise ShapeError(f"malformed training-log row {row}")
        return cls([LogEntry(int(row[0]), *row[1:]) for row in rows])


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


def _objective(params, X, task):
    """The one loss, mean((A f(X) - target)^2) with A = ``task.operator``:
    (loss, resid, rendered, trace). An output that does not fill A's
    ``in_shape`` or measurements not of the target's shape are ShapeErrors."""
    Y, trace = forward(params, X)
    if Y.size != math.prod(task.operator.in_shape):
        raise ShapeError(f"output {Y.shape} != rendering {task.operator.in_shape}")
    rendered = Y.reshape(task.operator.in_shape)
    out = task.operator.apply(rendered)
    if out.shape != task.target.shape:
        raise ShapeError(f"measurements {out.shape} != target {task.target.shape}")
    resid = out - task.target
    loss = float(np.mean(resid * resid))
    return loss, resid, rendered, trace


def _gradients(params, trace, task, resid):
    """Exact gradients of ``_objective``: backprop of A^T (2/m) resid, m = resid.size."""
    d_rendered = task.operator.vjp((2.0 / resid.size) * resid)
    return backward(params, trace, d_rendered.reshape(trace.post[-1].shape))


def grad_check(params, X, task, h=1e-5):
    """Max relative error of ``_gradients`` against central differences of
    ``_objective``; each parameter costs two forwards, so keep nets small."""
    _, resid, _, trace = _objective(params, X, task)
    grads = _gradients(params, trace, task, resid)
    worst = 0.0
    probe = params.copy()
    for arr, g in zip(probe.weights + probe.biases, grads.weights + grads.biases):
        flat, g_flat = arr.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = _objective(probe, X, task)[0]
            flat[i] = orig - h
            down = _objective(probe, X, task)[0]
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            worst = max(worst, abs(g_flat[i] - fd) / max(abs(g_flat[i]), 1e-8))
    return worst


def _diagnostics_entry(cfg, task, params, trace, epoch, loss, lr, rendered):
    snr = None
    if task.reference is not None:
        snr = psnr(task.reference, rendered)
    vnorm_total = None
    try:
        vnorm_total = variation_norm_deep(params).total
    except UnsupportedActivationError:
        pass
    feat = None
    if cfg.track_feature_condition:
        feat = feature_gram_condition(trace, len(params.specs) - 2).value
    return LogEntry(
        epoch=epoch, loss=loss, psnr=snr, lr=lr,
        vnorm_total=vnorm_total, feat_cond=feat,
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
        loss, resid, rendered, trace = _objective(params, X, task)
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
        grads = _gradients(params, trace, task, resid)
        del trace  # free it before the next forward allocates another
        params, state = adam_step(params, grads, state, lr, cfg.weight_decay)
