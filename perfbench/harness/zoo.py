"""Grid checkpoints with known ground truth, trained from the run's seed.

Every grid model is a ``basic_cnn`` on the synthetic MNIST family at 16 px,
trained with the implant recipe ``tools/repair_smoke.py`` passes with:
BadNet, 4 px patch at (1, 1), poison rate 0.25, 6 epochs.  The grid is
trained in slices of one backdoored and one clean model; targets are
distinct across slices and drawn from the seed.
A backdoored model whose attack success rate stays below
:data:`ASR_FLOOR` is listed as ``attack_failed`` and left out of
``verdict_accuracy`` — it is reported, never re-seeded away.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.attacks import BadNetAttack
from repro.data import load_dataset
from repro.eval.trainer import Trainer, TrainingConfig
from repro.models import build_model
from repro.nn.serialization import save_model
from repro.service.fingerprint import fingerprint_state_dict

__all__ = ["ASR_FLOOR", "GridModel", "train_slice", "verdict_correct",
           "zoo_signature"]

#: Backdoored models below this attack success rate are ``attack_failed``.
ASR_FLOOR = 0.9
IMAGE_SIZE = 16
#: Training epochs (the implant recipe; the harness self-test shrinks it).
EPOCHS = 6
METADATA = {"model": "basic_cnn", "dataset": "mnist", "image_size": IMAGE_SIZE}


@dataclass(frozen=True)
class GridModel:
    """One trained grid checkpoint and its ground truth."""

    checkpoint: str
    fingerprint: str
    target: Optional[int]
    clean_accuracy: float
    attack_success_rate: Optional[float]

    @property
    def attack_failed(self) -> bool:
        """A backdoor that did not take (excluded from verdict scoring)."""
        return (self.target is not None
                and (self.attack_success_rate or 0.0) < ASR_FLOOR)

    def describe(self) -> str:
        """One human-readable line."""
        kind = ("clean" if self.target is None
                else f"badnet->{self.target}")
        asr = ("" if self.attack_success_rate is None
               else f" asr={self.attack_success_rate:.3f}")
        flag = " attack_failed" if self.attack_failed else ""
        return (f"{os.path.basename(self.checkpoint)} {kind} "
                f"acc={self.clean_accuracy:.3f}{asr}{flag}")


def train_slice(directory: str, seed: int, index: int) -> List[GridModel]:
    """Train grid slice ``index``: one backdoored and one clean checkpoint.

    Slice ``i`` implants target ``targets[i]`` of a seed-drawn permutation,
    so targets are distinct across slices.  The dataset family seed equals
    ``seed``; scan requests must use the same seed, because the synthetic
    class prototypes are keyed by it.
    """
    os.makedirs(directory, exist_ok=True)
    train_set, test_set = load_dataset("mnist", samples_per_class=40,
                                       test_per_class=30, seed=seed,
                                       image_size=IMAGE_SIZE)
    targets = [int(t) for t in np.random.default_rng(seed).permutation(10)]
    models: List[GridModel] = []
    for offset, target in enumerate((targets[index], None)):
        number = 2 * index + offset
        base = 1000 * seed + 10 * number
        rng = np.random.default_rng
        model = build_model("basic_cnn", num_classes=10, in_channels=1,
                            image_size=IMAGE_SIZE, rng=rng(base))
        trainer = Trainer(TrainingConfig(epochs=EPOCHS, batch_size=32,
                                         lr=2e-3), rng=rng(base + 1))
        if target is None:
            trained = trainer.train_clean(model, train_set, test_set,
                                          seed=seed)
        else:
            attack = BadNetAttack(target, train_set.image_shape, patch_size=4,
                                  poison_rate=0.25, location=(1, 1),
                                  rng=rng(base + 2))
            trained = trainer.train_backdoored(model, train_set, test_set,
                                               attack, seed=seed)
        path = os.path.join(directory, f"grid-{number}.npz")
        save_model(model, path, metadata=dict(METADATA))
        models.append(GridModel(
            checkpoint=path,
            fingerprint=fingerprint_state_dict(model.state_dict()),
            target=target, clean_accuracy=float(trained.clean_accuracy),
            attack_success_rate=(None if trained.attack_success_rate is None
                                 else float(trained.attack_success_rate))))
    return models


def verdict_correct(model: GridModel, flagged: List[int]) -> Optional[bool]:
    """Whether a verdict matches ground truth (``None``: not scored).

    A clean model is correct when nothing is flagged; a backdoored one only
    when its true target is among the flagged classes.
    """
    if model.attack_failed:
        return None
    if model.target is None:
        return not flagged
    return model.target in flagged


def zoo_signature(models: List[GridModel]) -> Dict[str, str]:
    """Checkpoint name -> weight fingerprint (set-up determinism check)."""
    return {os.path.basename(m.checkpoint): m.fingerprint for m in models}
