"""Acceptance gate: one test per criterion, one printed line each.

Run as ``pytest tests/test_acceptance.py -v -s``. The gate holds criteria
1-7 and 10-12 (there are no criteria 8 and 9) and runs in about 10 s on
two cores, most of it in the dyadic Gram builds and the univariate fits.
"""

import time

import numpy as np

from bwinr import (
    NetworkParams,
    Activation,
    TrainConfig,
    build_dyadic_gram,
    build_relu_gram,
    Downsample,
    dyadic_system,
    expand_to_relus,
    forward,
    grad_check,
    init_network,
    make_signal_task,
    mlp_specs,
    psi,
    RadonTransform,
    train,
    univariate_benchmark,
)
from bwinr.cli import main as cli_main
from expansion_bound import expansion_error_bound


def report(criterion, ok, detail, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\n[criterion {criterion}] {status}: {detail}{timing}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_wavelet_represents_relu():
    t0 = time.perf_counter()
    x = np.linspace(-1.0, 1.0, 10_000)
    err = np.abs(24.0 * psi(x / 4.0) - np.maximum(x, 0.0)).max()
    elapsed = time.perf_counter() - t0
    report(
        1, err <= 1e-12 and elapsed < 1.0,
        f"max |24 psi(x/4) - relu(x)| = {err:.2e} (<= 1e-12)", elapsed,
    )


def _dyadic_entry_stats(J):
    rep = build_dyadic_gram(J)
    system = dyadic_system(J)
    gram = rep.matrix
    diag_err = np.abs(np.diag(gram) - 1 / 6).max()
    c1_err = c2_err = cross_max = 0.0
    for a, (ja, ka) in enumerate(system):
        for b, (jb, kb) in enumerate(system):
            if a == b:
                continue
            if ja == jb and abs(ka - kb) == 1:
                c1_err = max(c1_err, abs(gram[a, b] - 0.030864))
            elif ja == jb and abs(ka - kb) == 2:
                c2_err = max(c2_err, abs(gram[a, b] + 0.0030864))
            elif ja != jb:
                cross_max = max(cross_max, abs(gram[a, b]))
    return rep, diag_err, c1_err, c2_err, cross_max


def test_criterion_2_dyadic_gram_constants():
    t0 = time.perf_counter()
    worst = {"diag": 0.0, "c1": 0.0, "c2": 0.0, "cross": 0.0}
    for J in range(1, 9):
        _, diag_err, c1_err, c2_err, cross_max = _dyadic_entry_stats(J)
        worst["diag"] = max(worst["diag"], diag_err)
        worst["c1"] = max(worst["c1"], c1_err)
        worst["c2"] = max(worst["c2"], c2_err)
        worst["cross"] = max(worst["cross"], cross_max)
    elapsed = time.perf_counter() - t0
    ok = (
        worst["diag"] <= 1e-6 and worst["c1"] <= 1e-6
        and worst["c2"] <= 1e-6 and worst["cross"] <= 1e-6
        and elapsed < 10.0
    )
    report(
        2, ok,
        "dyadic gram errors: diag {diag:.1e}, C1 {c1:.1e}, C2 {c2:.1e}, "
        "cross-scale {cross:.1e} (each <= 1e-6)".format(**worst), elapsed,
    )


def test_criterion_3_dyadic_condition_bounded():
    t0 = time.perf_counter()
    kappas = [build_dyadic_gram(J).condition.value for J in range(1, 9)]
    elapsed = time.perf_counter() - t0
    report(
        3, max(kappas) <= 2.38 and elapsed < 10.0,
        f"kappa(G_psi) max over J=1..8 is {max(kappas):.4f} (<= 2.38)", elapsed,
    )


def test_criterion_4_relu_condition_growth():
    # With h = 2/K each ReLU is sum_k h(k-j)_+ phi_k in the hat basis phi_k:
    # the hat Gram has eigenvalues Theta(h) and the coefficient matrix has
    # singular values from Theta(h) to Theta(K), so lam_min ~ K^-3 carries
    # the cubic rate and lam_max ~ K makes kappa ~ K^4 (>= the Omega(K^3)
    # lower bound). Both bands are one unit wide around those exponents.
    t0 = time.perf_counter()
    ks = np.array([8, 16, 32, 64, 128, 256])
    reports = [build_relu_gram(int(K)) for K in ks]
    lam_mins = [r.eigenvalues[0] for r in reports]
    kappas = [r.condition.value for r in reports]
    lam_slope = float(np.polyfit(np.log(ks), np.log(lam_mins), 1)[0])
    slope = float(np.polyfit(np.log(ks), np.log(kappas), 1)[0])
    elapsed = time.perf_counter() - t0
    report(
        4,
        -3.5 <= lam_slope <= -2.5 and 3.5 <= slope <= 4.5 and elapsed < 30.0,
        f"log-log slopes vs K of lam_min(G_sigma) {lam_slope:.3f} "
        f"(within [-3.5, -2.5]) and kappa(G_sigma) {slope:.3f} "
        f"(within [3.5, 4.5])",
        elapsed,
    )


def test_criterion_5_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, (20, 2))
    T = rng.standard_normal((20, 1))
    errs = {}
    for label, act in [
        ("bwrelu", Activation("bwrelu", 3.0)),
        ("sine", Activation("sine", 2.0)),
        ("gaussian", Activation("gaussian", 2.0)),
    ]:
        params = init_network(mlp_specs([2, 8, 1], act), 0)
        errs[label] = grad_check(params, X, make_signal_task(X, T), h=1e-5)
    elapsed = time.perf_counter() - t0
    ok = all(e <= 1e-5 for e in errs.values()) and elapsed < 5.0
    detail = ", ".join(f"{k} {v:.1e}" for k, v in errs.items())
    report(5, ok, f"grad_check vs central differences: {detail} (<= 1e-5)", elapsed)


def test_criterion_6_operator_adjoints():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    h = w = 64
    X = rng.standard_normal((h, w))
    op = RadonTransform(h, w, 50)
    U = rng.standard_normal((50, op.detectors))
    lhs = np.sum(op.apply(X) * U)
    rhs = np.sum(X * op.vjp(U))
    radon_err = abs(lhs - rhs) / abs(lhs)
    V = rng.standard_normal((16, 16))
    down = Downsample(h, w, 4)
    lhs2 = np.sum(down.apply(X) * V)
    rhs2 = np.sum(X * down.vjp(V))
    down_err = abs(lhs2 - rhs2) / abs(lhs2)
    elapsed = time.perf_counter() - t0
    ok = radon_err <= 1e-10 and down_err <= 1e-10 and elapsed < 5.0
    report(
        6, ok,
        f"adjoint dot-products: radon {radon_err:.1e}, "
        f"downsample {down_err:.1e} (<= 1e-10)", elapsed,
    )


def test_criterion_7_univariate_conditioning_gap():
    t0 = time.perf_counter()
    x, y = univariate_benchmark(512)
    task = make_signal_task(x, y)
    logs = {}
    for label, act in [
        ("bwrelu", Activation("bwrelu", 3.0)),
        ("relu", Activation("relu")),
    ]:
        cfg = TrainConfig(
            activation=act, epochs=2000, lr0=5e-3, decay=0.1,
            width=64, depth=1, seed=0, log_every=20,
            track_feature_condition=True,
        )
        _, logs[label] = train(cfg, task)
    mse_ratio = logs["bwrelu"].entries[-1].loss / logs["relu"].entries[-1].loss
    gaps = [
        er.feat_cond / eb.feat_cond
        for eb, er in zip(logs["bwrelu"].entries, logs["relu"].entries)
    ]
    elapsed = time.perf_counter() - t0
    ok = mse_ratio <= 0.1 and min(gaps) >= 100.0 and elapsed < 120.0
    report(
        7, ok,
        f"matched-budget univariate fit: mse ratio {mse_ratio:.1e} (<= 0.1), "
        f"min kappa gap {min(gaps):.1e}x (>= 100x at every logged epoch)",
        elapsed,
    )


def test_criterion_10_scale_reparameterization_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)

    def shallow(c_scale, w, b, v):
        return NetworkParams(
            specs=tuple(mlp_specs([2, 6, 1], Activation("bwrelu", c_scale))),
            weights=[w, v], biases=[b, np.zeros(1)], seed=0,
        )

    X = rng.uniform(-1, 1, (30, 2))
    T = rng.standard_normal((30, 1))
    worst = 0.0
    for _ in range(100):
        c = float(rng.uniform(0.3, 6.0))
        lam = float(rng.uniform(0.0, 0.1))
        w = rng.standard_normal((6, 2))
        b = rng.standard_normal(6)
        v = rng.standard_normal((1, 6))

        Y1, _ = forward(shallow(c, w, b, v), X)
        obj1 = float(np.mean((Y1 - T) ** 2)) + lam * (
            np.sum(v**2) + np.sum(w**2)
        )
        Y2, _ = forward(shallow(1.0, c * w, c * b, v), X)
        obj2 = float(np.mean((Y2 - T) ** 2)) + lam * (
            np.sum(v**2) + np.sum((c * w) ** 2) / c**2
        )
        worst = max(worst, abs(obj1 - obj2) / max(abs(obj1), 1e-300))
    elapsed = time.perf_counter() - t0
    report(
        10, worst <= 1e-12 and elapsed < 1.0,
        f"objective identity under c-absorption: max rel err {worst:.1e} "
        f"over 100 draws (<= 1e-12)", elapsed,
    )


def test_criterion_11_command_determinism(tmp_path):
    t0 = time.perf_counter()
    pairs = []
    for rep in ("a", "b"):
        out = tmp_path / f"cond_{rep}"
        assert cli_main([
            "conditioning", "--j-max", "4", "--k-list", "8,16", "--out", str(out),
        ]) == 0
        pairs.append(out)
    cond_same = all(
        (pairs[0] / name).read_bytes() == (pairs[1] / name).read_bytes()
        for name in ("dyadic_gram.csv", "relu_gram.csv")
    )
    fits = []
    for rep in ("a", "b"):
        out = tmp_path / f"fit_{rep}"
        assert cli_main([
            "fit", "--image", "scene:16", "--epochs", "25", "--width", "12",
            "--layers", "1", "--seed", "5", "--log-every", "5",
            "--out", str(out),
        ]) == 0
        fits.append(out)
    fit_same = all(
        (fits[0] / name).read_bytes() == (fits[1] / name).read_bytes()
        for name in ("log.csv", "vnorm.csv", "recon.pgm", "checkpoint.txt")
    )
    elapsed = time.perf_counter() - t0
    report(
        11, cond_same and fit_same,
        "repeated runs with fixed seeds produce bitwise-identical outputs "
        "(conditioning CSVs; fit log/vnorm/recon/checkpoint)", elapsed,
    )


# (hidden layers, width, scale), all with c > 1 so that a dropped scale shows.
# The bound grows about as (8/3 c ||W||_inf)^depth, so the deeper nets are
# narrower or less scaled: each size's bound stays <= 1e-6.
EXPANSION_SIZES = [(1, 32, 5.0), (2, 32, 5.0), (3, 32, 2.0), (4, 8, 2.0)]


def test_criterion_12_network_equals_its_relu_expansion():
    t0 = time.perf_counter()
    worst_err, worst_bound, ok = 0.0, 0.0, True
    for depth, width, c in EXPANSION_SIZES:
        for seed in range(3):
            p = init_network(mlp_specs([2] + [width] * depth + [1], Activation("bwrelu", c)), seed)
            X = np.random.default_rng(seed).uniform(-1.0, 1.0, (4096, 2))
            err = float(np.abs(forward(p, X)[0] - forward(expand_to_relus(p), X)[0]).max())
            bound = expansion_error_bound(p, X)
            ok = ok and err <= bound <= 1e-6
            worst_err, worst_bound = max(worst_err, err), max(worst_bound, bound)
    elapsed = time.perf_counter() - t0
    report(
        12, ok,
        f"BW-ReLU net vs forward of its ReLU expansion: max error {worst_err:.1e} "
        f"<= first-order bound (max {worst_bound:.1e}) <= 1e-6, 3 seeds x 4 sizes",
        elapsed,
    )
