"""Scanning service demo: fingerprinted checkpoints, cached scans, a grid run.

The workflow mirrors production use of ``python -m repro``:

1. train one clean and one BadNet-backdoored model,
2. save each as a metadata-tagged ``.npz`` checkpoint (so the CLI can
   rebuild the architecture from the file alone),
3. ``scan`` the backdoored checkpoint — then scan it again and watch the
   result store turn the repeat into a cache hit,
4. fan a checkpoint x detector ``grid`` across two worker processes, and
5. ``report`` everything the store has seen.

Every command uses the CLI's default result store, the ``scan_results/``
directory in the working directory (here a temporary one).

Run with:  python examples/scan_service.py
"""

import os
import tempfile

import numpy as np

from repro.attacks import BadNetAttack
from repro.data import load_cifar10
from repro.eval import Trainer, TrainingConfig
from repro.models import build_model
from repro.nn.serialization import save_model
from repro.service.cli import main as repro_cli

SEED = 0
IMAGE_SIZE = 20


def train_checkpoints(workdir: str) -> list:
    """Train one clean and one backdoored model; save tagged checkpoints."""
    train_set, test_set = load_cifar10(samples_per_class=40, test_per_class=10,
                                       seed=SEED, image_size=IMAGE_SIZE)
    metadata = {"model": "basic_cnn", "dataset": "cifar10",
                "image_size": IMAGE_SIZE}
    checkpoints = []

    clean_model = build_model("basic_cnn", num_classes=10, in_channels=3,
                              image_size=IMAGE_SIZE,
                              rng=np.random.default_rng(SEED))
    trainer = Trainer(TrainingConfig(epochs=5), rng=np.random.default_rng(SEED + 1))
    trained = trainer.train_clean(clean_model, train_set, test_set)
    path = os.path.join(workdir, "clean.npz")
    save_model(trained.model, path, metadata=metadata)
    print(f"clean model: accuracy={trained.clean_accuracy:.2%} -> {path}")
    checkpoints.append(path)

    backdoored = build_model("basic_cnn", num_classes=10, in_channels=3,
                             image_size=IMAGE_SIZE,
                             rng=np.random.default_rng(SEED + 2))
    attack = BadNetAttack(0, train_set.image_shape, patch_size=3,
                          poison_rate=0.1, rng=np.random.default_rng(SEED + 3))
    trained = trainer.train_backdoored(backdoored, train_set, test_set, attack)
    path = os.path.join(workdir, "badnet.npz")
    save_model(trained.model, path, metadata=metadata)
    print(f"badnet model: accuracy={trained.clean_accuracy:.2%} "
          f"asr={trained.attack_success_rate:.2%} -> {path}")
    checkpoints.append(path)
    return checkpoints


def run(argv: list) -> None:
    """Run one ``python -m repro`` command; exit on a non-zero status."""
    status = repro_cli(argv)
    if status:
        raise SystemExit(status)


def main() -> None:
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="repro-scan-demo-") as workdir:
        clean_ckpt, badnet_ckpt = train_checkpoints(workdir)
        os.chdir(workdir)  # the default --store lands in scan_results/ here
        budget = ["--clean-budget", "60", "--samples-per-class", "15",
                  "--iterations", "40"]

        print("\n--- python -m repro scan (first run: computed) ---")
        run(["scan", badnet_ckpt, "--detector", "usb"] + budget)

        print("\n--- python -m repro scan (identical request: cache hit) ---")
        run(["scan", badnet_ckpt, "--detector", "usb"] + budget)

        print("\n--- python -m repro grid (2 checkpoints x 2 detectors, "
              "2 workers) ---")
        run(["grid", clean_ckpt, badnet_ckpt, "--detectors", "usb,nc",
             "--workers", "2"] + budget)

        print("\n--- python -m repro report ---")
        run(["report"])
        os.chdir(home)


if __name__ == "__main__":
    main()
