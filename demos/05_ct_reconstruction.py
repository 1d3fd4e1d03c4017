"""Computed-tomography reconstruction from 100 parallel-beam projections.

The network never sees the phantom: it only sees the sinogram. Each epoch
renders the current image, pushes it through the (linear, exactly
adjointed) Radon operator, and descends the measurement-domain MSE. The
reconstruction and the sinogram are written to demos/output/.
"""

from pathlib import Path

import numpy as np

from bwinr import (
    Activation,
    ImageGrid,
    TrainConfig,
    make_task,
    psnr,
    save_image,
    shepp_logan,
    train,
)

OUT = Path(__file__).parent / "output"


def main():
    OUT.mkdir(exist_ok=True)
    phantom = shepp_logan(64)
    save_image(phantom, OUT / "ct_phantom.pgm")
    task = make_task("ct", phantom, n_angles=100)
    sino = task.target
    print(f"sinogram: {task.operator.angles.size} angles x {sino.shape[1]} detectors")
    save_image(ImageGrid(sino / sino.max()), OUT / "ct_sinogram.pgm")

    cfg = TrainConfig(
        activation=Activation("bwrelu", 3.0),
        epochs=800, lr0=2e-3, decay=0.1, width=64, depth=3, seed=0,
        log_every=200,
    )
    _, log = train(cfg, task)
    recon = ImageGrid(np.clip(log.final_render, 0.0, 1.0))
    save_image(recon, OUT / "ct_recon.pgm")
    print("epoch  measurement mse   psnr vs phantom")
    for e in log.entries:
        print(f"{e.epoch:5d}  {e.loss:15.3e}   {e.psnr:6.2f} dB")
    print(f"final reconstruction psnr: {psnr(phantom, recon):.2f} dB "
          f"-> {OUT / 'ct_recon.pgm'}")


if __name__ == "__main__":
    main()
