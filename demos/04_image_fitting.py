"""Image fitting (signal representation) on a synthetic scene.

Trains a 3-hidden-layer wavelet network (c = 9) to map pixel coordinates
to intensities, next to a plain-ReLU net at the same budget. At this demo
scale (64 x 64, width 64, 400 epochs) the wavelet net already resolves
the chirp and grating patches that the ReLU fit blurs away. The printed
PSNR gap is one draw (seed 0), not an estimate: this fit amplifies a
last-digit change in the gradients about tenfold per epoch, so a change
in floating-point summation order alone has moved the wavelet PSNR by
0.7 dB (20.33 -> 20.99). Compare activations over several seeds before
reading a size into the gap. Reconstructions land in demos/output/.
"""

from pathlib import Path

import numpy as np

from bwinr import (
    Activation,
    ImageGrid,
    TrainConfig,
    make_task,
    save_image,
    synthetic_scene,
    train,
)

OUT = Path(__file__).parent / "output"


def fit(task, activation, lr, label):
    cfg = TrainConfig(
        activation=activation, epochs=400, lr0=lr, decay=0.1,
        width=64, depth=3, seed=0, log_every=100,
    )
    _, log = train(cfg, task)
    recon = ImageGrid(np.clip(log.final_render, 0.0, 1.0))
    save_image(recon, OUT / f"sigrep_{label}.pgm")
    print(f"  {label:8s} psnr = {log.entries[-1].psnr:6.2f} dB "
          f"(loss {log.entries[-1].loss:.2e})")
    return log.entries[-1].psnr


def main():
    OUT.mkdir(exist_ok=True)
    scene = synthetic_scene(64)
    save_image(scene, OUT / "sigrep_original.pgm")
    task = make_task("sigrep", scene)
    print("fitting 64x64 scene, width 64, 3 hidden layers, 400 epochs:")
    bw = fit(task, Activation("bwrelu", 9.0), 4e-3, "wavelet")
    relu = fit(task, Activation("relu"), 4e-3, "relu")
    print(f"  gap: {bw - relu:.2f} dB in favor of the wavelet activation")


if __name__ == "__main__":
    main()
