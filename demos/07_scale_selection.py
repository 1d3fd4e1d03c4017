"""What a variation-norm sweep over the activation scale c measures.

The paper proposes picking c without a validation set, by the variation
norm of the trained network: for fixed weights, scaling the wavelet
argument by c multiplies that norm by c. This demo trains a CT
reconstruction for each c in {1, 2, 3, 5}, stopping every run at the same
measurement loss, and prints each run's PSNR, its total variation norm
across layers, that norm divided by c, and the c that each of PSNR and
norm picks.

The runs use no weight decay, so nothing in training pulls the norm
down: the weights stay near their initialization, and the norm divided
by c stays near its value at init, within a few percent. The smallest c
then has the smallest norm by construction, whatever its PSNR, so at
weight decay 0 the norm's pick says nothing about generalization.
Whether weight decay makes the norm pick the best-PSNR scale is not
tested here.
"""

from bwinr import Activation, TrainConfig, make_task, shepp_logan
from bwinr.cli import run_vnorm_sweep


def main():
    task = make_task("ct", shepp_logan(48), n_angles=60)
    base = TrainConfig(
        activation=Activation("bwrelu", 3.0),
        epochs=1200, lr0=2e-3, decay=0.1, width=48, depth=3, seed=0,
        log_every=300, target_loss=2e-4,
    )
    rows = run_vnorm_sweep(task, base, [1.0, 2.0, 3.0, 5.0])
    print(f"{'c':>4} {'epochs':>7} {'loss':>10} {'psnr (dB)':>10} {'vnorm':>10}"
          f" {'vnorm/c':>10}")
    for c, _, epochs, loss, snr, vnorm in rows:
        print(f"{c:>4.0f} {epochs:>7d} {loss:>10.2e} {snr:>10.2f} {vnorm:>10.1f}"
              f" {vnorm / c:>10.1f}")
    best_psnr = max(rows, key=lambda r: r[4])
    best_vnorm = min(rows, key=lambda r: r[5])
    print(f"\nhighest psnr at c = {best_psnr[0]:.0f}")
    print(f"smallest variation norm at c = {best_vnorm[0]:.0f} "
          "(weight decay 0: the norm tracks c, not training)")


if __name__ == "__main__":
    main()
