"""4x super-resolution through the block-averaging forward operator.

Training only matches the 16x16 block means of the rendered image against
the low-resolution input. The net fits those means almost exactly and
interpolates between them, but nothing constrains it inside a block, so
its PSNR against the withheld full-resolution scene stays well below that
of a nearest-neighbour upsample of the same input, printed next to it.
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
    synthetic_scene,
    train,
)

OUT = Path(__file__).parent / "output"


def main():
    OUT.mkdir(exist_ok=True)
    scene = synthetic_scene(64)
    task = make_task("superres", scene, factor=4)
    save_image(scene, OUT / "superres_original.pgm")
    save_image(ImageGrid(task.target), OUT / "superres_input_16px.pgm")

    cfg = TrainConfig(
        activation=Activation("bwrelu", 3.0),
        epochs=600, lr0=3e-3, decay=0.2, width=64, depth=3, seed=0,
        log_every=150,
    )
    _, log = train(cfg, task)
    recon = ImageGrid(np.clip(log.final_render, 0.0, 1.0))
    save_image(recon, OUT / "superres_recon.pgm")
    final = log.entries[-1]
    print(f"low-res input: {task.target.shape[0]}x{task.target.shape[1]}, "
          f"output: {scene.height}x{scene.width}")
    nearest = psnr(scene, np.kron(task.target, np.ones((4, 4))))
    print(f"measurement mse {final.loss:.2e}, "
          f"psnr vs full-resolution scene {final.psnr:.2f} dB "
          f"(nearest-neighbour upsample: {nearest:.2f} dB)")
    print(f"wrote {OUT / 'superres_recon.pgm'}")


if __name__ == "__main__":
    main()
