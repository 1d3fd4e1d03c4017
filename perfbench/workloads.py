"""The benchmark's workloads: one ``bwinr`` command line each.

Why each workload exists, and which layer it isolates, is recorded in
README.md and in BENCHMARK.json. Every training workload pins
``--epochs`` and ``--log-every``, so the work in one epoch (one
diagnostics entry per epoch) never depends on how long a run is.
"""

from dataclasses import dataclass

# Spans every training workload must record in its traced run.
_TRAINING_SPANS = (
    "cli.main", "assets.image", "operators.make_task", "training.train",
    "network.forward", "activations.apply", "operators.apply",
    "diagnostics.psnr", "operators.vjp", "network.backward",
    "training.adam_step", "images.save_image", "network.save_checkpoint",
)


@dataclass(frozen=True)
class Workload:
    name: str
    cli_args: tuple
    epochs: int | None          # None: not a training command
    layer_dims: tuple = ()      # (in, out) of every layer of the network
    expect_spans: tuple = ()    # spans that must record at least one call


def _dims(n_in, width, depth):
    sizes = [n_in] + [width] * depth + [1]
    return tuple(zip(sizes, sizes[1:]))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fit-bwrelu",
            cli_args=("fit", "--image", "scene:128", "--act", "bwrelu",
                      "--epochs", "2", "--log-every", "1"),
            epochs=2,
            layer_dims=_dims(2, 300, 3),
            expect_spans=_TRAINING_SPANS + (
                "diagnostics.variation_norm_deep", "cli.write_table",
            ),
        ),
        Workload(
            name="ct-bwrelu-cond",
            cli_args=("ct", "--image", "shepp-logan:128", "--angles", "100",
                      "--act", "bwrelu", "--track-cond",
                      "--epochs", "1", "--log-every", "1"),
            epochs=1,
            layer_dims=_dims(2, 300, 3),
            expect_spans=_TRAINING_SPANS + (
                "operators.radon_build", "diagnostics.variation_norm_deep",
                "diagnostics.feature_gram_condition", "linalg.condition_number",
                "linalg.sym_eigvals", "cli.write_table",
            ),
        ),
        Workload(
            name="superres-relupe",
            cli_args=("superres", "--image", "scene:128", "--factor", "4",
                      "--act", "relu-pe", "--epochs", "6", "--log-every", "1"),
            epochs=6,
            layer_dims=_dims(40, 256, 3),
            expect_spans=_TRAINING_SPANS,
        ),
        Workload(
            name="conditioning",
            cli_args=("conditioning",),
            epochs=None,
            expect_spans=(
                "cli.main", "diagnostics.build_dyadic_gram",
                "diagnostics.build_relu_gram", "linalg.condition_number",
                "linalg.sym_eigvals", "cli.write_table",
            ),
        ),
    )
}
