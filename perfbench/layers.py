"""Per-layer metrics from the spans of one traced run.

Training workloads report per-epoch values over the steady epochs: the
window from the first training forward to the end of the last Adam
step, divided by the number of Adam steps. The final forward after the
loop, the CLI's render forward and the output writes fall outside it.
``conditioning`` has no epochs; its window is the whole command and its
values are per run. Metrics marked per run always cover the whole
command.

A span's self time is its duration minus that of its direct children.
Metrics whose unit is ``flop`` or ``B`` are computed from the array
shapes at the wrapped calls, not measured.
"""

from collections import defaultdict

# name -> (unit, better)
PER_LAYER = {
    "activations.apply_s": ("s", "lower"),
    "activations.apply_calls": ("count", "lower"),
    "activations.out_bytes": ("B", "lower"),
    "network.forward_self_s": ("s", "lower"),
    "network.backward_s": ("s", "lower"),
    "network.forward_calls": ("count", "lower"),
    "network.matmul_flops": ("flop", "lower"),
    "network.trace_bytes": ("B", "lower"),
    "network.save_checkpoint_s": ("s", "lower"),
    "network.checkpoint_bytes": ("B", "lower"),
    "operators.make_task_s": ("s", "lower"),
    "operators.radon_build_s": ("s", "lower"),
    "operators.radon_nnz": ("count", "lower"),
    "operators.radon_matrix_bytes": ("B", "lower"),
    "operators.apply_s": ("s", "lower"),
    "operators.vjp_s": ("s", "lower"),
    "training.adam_step_s": ("s", "lower"),
    "training.train_self_s": ("s", "lower"),
    "diagnostics.feature_gram_condition_self_s": ("s", "lower"),
    "diagnostics.variation_norm_deep_s": ("s", "lower"),
    "diagnostics.psnr_s": ("s", "lower"),
    "diagnostics.build_dyadic_gram_s": ("s", "lower"),
    "diagnostics.build_relu_gram_s": ("s", "lower"),
    "linalg.condition_number_s": ("s", "lower"),
    "linalg.sym_eigvals_s": ("s", "lower"),
    "images.save_image_s": ("s", "lower"),
    "assets.image_s": ("s", "lower"),
    "cli.write_table_s": ("s", "lower"),
    "quality.final_loss": ("1", "lower"),
    "quality.final_psnr_db": ("dB", "higher"),
    "quality.dyadic_kappa_max": ("1", "lower"),
    "quality.relu_kappa_max": ("1", "lower"),
    "trace.coverage": ("1", "higher"),
    "trace.overhead": ("1", "lower"),
}
COMPUTED = [name for name, (unit, _) in PER_LAYER.items() if unit in ("flop", "B")]


def per_layer_metrics(spans, quality, overhead):
    """Value of every PER_LAYER metric, by name, from one run's ``spans``.

    ``quality`` holds the figures of merit read from the run's outputs and
    ``overhead`` the traced run's extra wall time; both come from the caller.
    """
    name = [s[0] for s in spans]
    start = [s[1] for s in spans]
    end = [s[2] for s in spans]
    parent = [s[3] for s in spans]
    count = [s[5] or {} for s in spans]
    by_name = defaultdict(list)
    children = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[name[i]].append(i)
        children[parent[i]].append(i)

    def dur(i):
        return end[i] - start[i]

    def self_time(i):
        return dur(i) - sum(dur(c) for c in children[i])

    trains = by_name["training.train"]
    if trains:
        root = trains[0]
        adam = by_name["training.adam_step"]
        lo = min(start[i] for i in by_name["network.forward"] if start[i] >= start[root])
        hi = max(end[i] for i in adam)
        epochs = len(adam)
    else:
        root = by_name["cli.main"][0]
        lo, hi, epochs = start[root], end[root], 1

    def in_window(i):
        return lo <= start[i] and end[i] <= hi

    def per_epoch(span, value=dur, where=lambda i: True):
        return sum(value(i) for i in by_name[span] if in_window(i) and where(i)) / epochs

    def per_run(span, value=dur):
        return sum(value(i) for i in by_name[span])

    def counted(key):
        return lambda i: count[i].get(key, 0)

    covered = sum(dur(c) for c in children[root])
    window_children = sum(dur(c) for c in children[root] if in_window(c))
    forward_ids = set(by_name["network.forward"])
    values = {
        "activations.apply_s": per_epoch(
            "activations.apply", where=lambda i: parent[i] in forward_ids),
        "activations.apply_calls": per_epoch("activations.apply", lambda i: 1),
        "activations.out_bytes": per_epoch("activations.apply", counted("out_bytes")),
        "network.forward_self_s": per_epoch("network.forward", self_time),
        "network.backward_s": per_epoch("network.backward"),
        "network.forward_calls": per_epoch("network.forward", lambda i: 1),
        "network.matmul_flops": per_epoch("network.forward", counted("flops"))
        + per_epoch("network.backward", counted("flops")),
        # Bytes one forward keeps for backward: the largest over its calls.
        "network.trace_bytes": max(
            [count[i]["trace_bytes"] for i in by_name["network.forward"]], default=0),
        "network.save_checkpoint_s": per_run("network.save_checkpoint"),
        "network.checkpoint_bytes": per_run("network.save_checkpoint", counted("bytes")),
        "operators.make_task_s": per_run("operators.make_task"),
        "operators.radon_build_s": per_run("operators.radon_build"),
        "operators.radon_nnz": per_run("operators.radon_build", counted("nnz")),
        "operators.radon_matrix_bytes": per_run(
            "operators.radon_build", counted("matrix_bytes")),
        "operators.apply_s": per_epoch("operators.apply"),
        "operators.vjp_s": per_epoch("operators.vjp"),
        "training.adam_step_s": per_epoch("training.adam_step"),
        "training.train_self_s": (hi - lo - window_children) / epochs if trains else 0.0,
        "diagnostics.feature_gram_condition_self_s": per_epoch(
            "diagnostics.feature_gram_condition", self_time),
        "diagnostics.variation_norm_deep_s": per_epoch("diagnostics.variation_norm_deep"),
        "diagnostics.psnr_s": per_epoch("diagnostics.psnr"),
        "diagnostics.build_dyadic_gram_s": per_run("diagnostics.build_dyadic_gram"),
        "diagnostics.build_relu_gram_s": per_run("diagnostics.build_relu_gram"),
        "linalg.condition_number_s": per_epoch("linalg.condition_number"),
        "linalg.sym_eigvals_s": per_epoch("linalg.sym_eigvals"),
        "images.save_image_s": per_run("images.save_image"),
        "assets.image_s": per_run("assets.image"),
        "cli.write_table_s": per_run("cli.write_table"),
        # Share of train's (or, without training, main's) wall time that
        # the wrapped child calls account for.
        "trace.coverage": covered / dur(root),
        "trace.overhead": overhead,
    }
    # Figures a workload's command does not print read 0.
    values.update({k: quality.get(k, 0.0) for k in PER_LAYER if k.startswith("quality.")})
    return values


def missing_spans(spans, expected):
    """Names in ``expected`` that recorded no call."""
    seen = {s[0] for s in spans}
    return [n for n in expected if n not in seen]
