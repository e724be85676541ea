"""Experiment harness: fleet training + detection for every table in the paper.

An :class:`ExperimentConfig` describes one paper table: the dataset family,
the architecture, the list of cases (clean / BadNet-2x2 / Latent / IAD / ...),
the detectors to compare, and a :class:`ExperimentScale` that sets how large
the reproduction run is.  The paper trains 50 (CIFAR-10/MNIST) or 15
(ImageNet/VGG/GTSRB) models per case on a GPU; the reproduction defaults are
far smaller so the full suite runs on a CPU, and every knob can be raised to
paper scale by picking the ``paper`` preset.

The output of :func:`run_experiment` contains one paper-style row per
(case, detector) pair — the same columns as Tables 1–6 — plus the per-case
mean clean accuracy and ASR.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..attacks import (
    BadNetAttack,
    BlendedAttack,
    InputAwareDynamicAttack,
    LatentBackdoorAttack,
)
from ..attacks.base import (
    SCENARIO_ALL_TO_ALL,
    SCENARIO_ALL_TO_ONE,
    SCENARIO_SOURCE_CONDITIONAL,
    SCENARIOS,
    BackdoorAttack,
    TargetSpec,
)
from ..core.trigger_optimizer import TriggerOptimizationConfig
from ..core.uap import TargetedUAPConfig
from ..core.usb import USBConfig, USBDetector
from ..data import DATASET_SPECS, load_dataset, stratified_sample
from ..data.dataset import Dataset
from ..defenses import NeuralCleanseConfig, NeuralCleanseDetector, TaborConfig, TaborDetector
from ..models import build_model
from ..utils.logging import get_logger
from .protocol import DetectionCaseSummary, ModelDetectionRecord, summarize_case
from .trainer import TrainedModel, Trainer, TrainingConfig

__all__ = [
    "AttackSpec",
    "CaseSpec",
    "ExperimentScale",
    "SCALES",
    "ExperimentConfig",
    "CaseResult",
    "ExperimentResult",
    "CaseModelJob",
    "CaseModelOutcome",
    "FleetModelSummary",
    "build_attack",
    "build_case_detectors",
    "case_scenario_id",
    "default_source_classes",
    "scenario_grid_config",
    "run_case",
    "run_case_model_job",
    "run_experiment",
    "run_repair_sweep",
    "table1_config",
    "table2_config",
    "table3_config",
    "table4_config",
    "table5_config",
    "table6_config",
    "TABLE_CONFIGS",
]

_LOG = get_logger("repro.eval.experiments")


# ---------------------------------------------------------------------- #
# Specs
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class AttackSpec:
    """Declarative description of one attack used by a case."""

    kind: str  # "badnet" | "latent" | "iad" | "blended"
    patch_size: Optional[int] = None
    #: Patch size as a fraction of the image width (used by the ImageNet table,
    #: where the paper's 20x20 / 25x25 are relative to 224x224 inputs).
    patch_fraction: Optional[float] = None
    poison_rate: float = 0.1
    target_class: int = 0
    #: Scenario axis (see :data:`repro.attacks.SCENARIOS`).
    scenario: str = SCENARIO_ALL_TO_ONE
    #: Victim classes for ``source_conditional`` (defaulted per-dataset by
    #: :func:`default_source_classes` when left unset).
    source_classes: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"Unknown scenario '{self.scenario}'. "
                             f"Available: {SCENARIOS}")
        if self.source_classes is not None:
            object.__setattr__(self, "source_classes",
                               tuple(int(c) for c in self.source_classes))

    def resolve_patch(self, image_size: int) -> int:
        """Concrete patch side length for an ``image_size`` input (default 3)."""
        if self.patch_fraction is not None:
            return max(2, int(round(self.patch_fraction * image_size)))
        if self.patch_size is not None:
            return self.patch_size
        return 3

    def resolve_scenario(self, num_classes: Optional[int]) -> TargetSpec:
        """The concrete :class:`TargetSpec` this attack trains under."""
        sources = self.source_classes
        if self.scenario == SCENARIO_SOURCE_CONDITIONAL and sources is None:
            if num_classes is None:
                raise ValueError("source_conditional without explicit "
                                 "source_classes needs num_classes.")
            sources = default_source_classes(self.target_class, num_classes)
        return TargetSpec(kind=self.scenario, target_class=self.target_class,
                          source_classes=sources, num_classes=num_classes)


def default_source_classes(target_class: int, num_classes: int,
                           count: int = 2) -> Tuple[int, ...]:
    """Default victim classes for source-conditional runs: the ``count``
    classes cyclically following the target."""
    if num_classes < 2:
        raise ValueError("source-conditional needs at least two classes.")
    count = min(count, num_classes - 1)
    return tuple(sorted((target_class + offset) % num_classes
                        for offset in range(1, count + 1)))


@dataclass(frozen=True)
class CaseSpec:
    """One table row group: either clean models or one attack configuration."""

    name: str
    attack: Optional[AttackSpec] = None

    @property
    def is_clean(self) -> bool:
        """True for the clean-model control case (no attack configured)."""
        return self.attack is None


@dataclass(frozen=True)
class ExperimentScale:
    """Scaling preset: how big the fleets, datasets, and optimizations are."""

    models_per_case: int = 1
    samples_per_class: int = 40
    test_per_class: int = 12
    image_size: Optional[int] = None
    epochs: int = 7
    batch_size: int = 32
    learning_rate: float = 2e-3
    clean_budget: int = 100
    usb_iterations: int = 50
    baseline_iterations: int = 80
    uap_passes: int = 2
    uap_batch_size: int = 50
    #: Restrict detection to the first N classes (always including the true
    #: target); ``None`` means all classes.  Only the smallest presets use it.
    detection_class_limit: Optional[int] = None
    model_kwargs: Dict[str, object] = field(default_factory=dict)


SCALES: Dict[str, ExperimentScale] = {
    # "bench" is the pytest-benchmark default: one model per case, the smallest
    # budgets that still show the paper's qualitative shape — a couple of
    # minutes per table on a CPU.
    "bench": ExperimentScale(models_per_case=1, samples_per_class=30, test_per_class=10,
                             image_size=24, epochs=6, clean_budget=60,
                             usb_iterations=30, baseline_iterations=40, uap_passes=1,
                             detection_class_limit=4,
                             model_kwargs={}),
    # "tiny" is slightly larger: one model per case, reduced optimization
    # budgets — minutes per table on a CPU.
    "tiny": ExperimentScale(models_per_case=1, samples_per_class=40, test_per_class=10,
                            epochs=7, clean_budget=80, usb_iterations=40,
                            baseline_iterations=60, uap_passes=1,
                            detection_class_limit=6),
    # "small" gives meaningful per-case statistics in roughly an hour.
    "small": ExperimentScale(models_per_case=3, samples_per_class=60, test_per_class=15,
                             epochs=9, clean_budget=150, usb_iterations=80,
                             baseline_iterations=150, uap_passes=2),
    # "paper" mirrors the paper's fleet sizes and iteration budgets (50/15
    # models per case, 500 optimization steps); only practical on a large
    # machine or with a lot of patience.
    "paper": ExperimentScale(models_per_case=50, samples_per_class=400,
                             test_per_class=100, epochs=50, batch_size=96,
                             learning_rate=0.01, clean_budget=300,
                             usb_iterations=500, baseline_iterations=1000,
                             uap_passes=5),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one table's experiment."""

    name: str
    dataset: str
    model: str
    cases: Sequence[CaseSpec]
    detectors: Sequence[str] = ("nc", "tabor", "usb")
    scale: ExperimentScale = field(default_factory=lambda: SCALES["tiny"])
    description: str = ""
    #: Trigger-inversion engine for every scan in this experiment
    #: (``sequential`` / ``batched`` / ``mega``).
    inversion_mode: str = "batched"

    def with_scale(self, scale: ExperimentScale) -> "ExperimentConfig":
        """A copy of this config running at a different scale preset."""
        return replace(self, scale=scale)


# ---------------------------------------------------------------------- #
# Results
# ---------------------------------------------------------------------- #
@dataclass
class CaseResult:
    """Everything measured for one case (fleet of models + all detectors).

    ``trained`` holds full :class:`TrainedModel` objects for serial runs and
    lightweight :class:`FleetModelSummary` entries for scheduler-dispatched
    runs; both expose ``clean_accuracy`` / ``attack_success_rate``.
    """

    case: CaseSpec
    trained: Sequence[object]
    summaries: Dict[str, DetectionCaseSummary]

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean([t.clean_accuracy for t in self.trained])) if self.trained else 0.0

    @property
    def mean_asr(self) -> Optional[float]:
        rates = [t.attack_success_rate for t in self.trained
                 if t.attack_success_rate is not None]
        return float(np.mean(rates)) if rates else None


@dataclass
class ExperimentResult:
    """All cases of one experiment/table."""

    config: ExperimentConfig
    cases: List[CaseResult]

    def rows(self) -> List[Dict[str, object]]:
        """Paper-style rows: one per (case, detector)."""
        table: List[Dict[str, object]] = []
        for case_result in self.cases:
            for detector_name, summary in case_result.summaries.items():
                row = summary.as_row()
                row["scenario"] = case_scenario_id(case_result.case)
                row["accuracy"] = round(case_result.mean_accuracy * 100, 2)
                asr = case_result.mean_asr
                row["asr"] = round(asr * 100, 2) if asr is not None else None
                table.append(row)
        return table

    def summary_for(self, case_name: str, detector: str) -> DetectionCaseSummary:
        """The per-(case, detector) summary (raises ``KeyError`` if absent)."""
        for case_result in self.cases:
            if case_result.case.name == case_name:
                return case_result.summaries[detector]
        raise KeyError(f"No case named '{case_name}'.")


# ---------------------------------------------------------------------- #
# Builders
# ---------------------------------------------------------------------- #
def build_attack(spec: AttackSpec, image_shape, rng: np.random.Generator,
                 num_classes: Optional[int] = None) -> BackdoorAttack:
    """Instantiate the attack described by ``spec`` for ``image_shape``.

    ``num_classes`` anchors the scenario (the all-to-all label shift wraps
    modulo K); it may stay ``None`` for plain all-to-one specs.
    """
    image_size = image_shape[1]
    patch = spec.resolve_patch(image_size)
    scenario = (spec.resolve_scenario(num_classes)
                if num_classes is not None or spec.scenario != SCENARIO_ALL_TO_ONE
                else None)
    if spec.kind == "badnet":
        return BadNetAttack(spec.target_class, image_shape, patch_size=patch,
                            poison_rate=spec.poison_rate, scenario=scenario,
                            rng=rng)
    if spec.kind == "latent":
        return LatentBackdoorAttack(spec.target_class, image_shape, patch_size=patch,
                                    poison_rate=spec.poison_rate,
                                    scenario=scenario, rng=rng)
    if spec.kind == "iad":
        return InputAwareDynamicAttack(spec.target_class, image_shape,
                                       backdoor_rate=max(spec.poison_rate, 0.1),
                                       scenario=scenario, rng=rng)
    if spec.kind == "blended":
        return BlendedAttack(spec.target_class, image_shape,
                             poison_rate=spec.poison_rate, scenario=scenario,
                             rng=rng)
    raise KeyError(f"Unknown attack kind '{spec.kind}'.")


def build_case_detectors(clean_data: Dataset, scale: ExperimentScale,
                         detectors: Sequence[str], rng: np.random.Generator) -> Dict[str, object]:
    """Instantiate the requested detectors with scale-appropriate budgets."""
    built: Dict[str, object] = {}
    for name in detectors:
        key = name.lower()
        child_rng = np.random.default_rng(rng.integers(0, 2 ** 31 - 1))
        if key == "usb":
            config = USBConfig(
                uap=TargetedUAPConfig(max_passes=scale.uap_passes,
                                      batch_size=scale.uap_batch_size),
                optimization=TriggerOptimizationConfig(
                    iterations=scale.usb_iterations, ssim_weight=1.0,
                    mask_l1_weight=0.01),
            )
            built["USB"] = USBDetector(clean_data, config, rng=child_rng)
        elif key == "nc":
            config = NeuralCleanseConfig(
                optimization=TriggerOptimizationConfig(
                    iterations=scale.baseline_iterations, ssim_weight=0.0,
                    mask_l1_weight=0.01))
            built["NC"] = NeuralCleanseDetector(clean_data, config, rng=child_rng)
        elif key == "tabor":
            config = TaborConfig(
                optimization=TriggerOptimizationConfig(
                    iterations=scale.baseline_iterations, ssim_weight=0.0,
                    mask_l1_weight=0.01, mask_tv_weight=0.002,
                    outside_pattern_weight=0.002))
            built["TABOR"] = TaborDetector(clean_data, config, rng=child_rng)
        else:
            raise KeyError(f"Unknown detector '{name}'.")
    return built


def _detection_classes(num_classes: int, scale: ExperimentScale,
                       target_class: Optional[int],
                       extra: Sequence[int] = ()) -> Optional[List[int]]:
    """Class subset to scan, honouring ``detection_class_limit``.

    ``extra`` classes (e.g. a conditional scenario's source classes) are kept
    in the subset alongside the true target so pair-mode scans cover the
    ground-truth (source, target) cells.
    """
    limit = scale.detection_class_limit
    if limit is None or limit >= num_classes:
        return None
    required: List[int] = []
    for cls in ([target_class] if target_class is not None else []) + list(extra):
        if cls is not None and cls not in required:
            required.append(int(cls))
    fill = [c for c in range(num_classes) if c not in required]
    return sorted((required + fill)[:max(limit, len(required))])


def case_scenario_id(case: CaseSpec) -> str:
    """Short scenario label for one case (reporting + store digests)."""
    if case.is_clean:
        return "-"
    spec = case.attack
    if spec.scenario == SCENARIO_SOURCE_CONDITIONAL:
        sources = ",".join(str(c) for c in spec.source_classes or ())
        return f"source_conditional({sources or '?'}->{spec.target_class})"
    if spec.scenario == SCENARIO_ALL_TO_ALL:
        return "all_to_all"
    return f"{spec.scenario}(t={spec.target_class})"


def scenario_grid_config(config: ExperimentConfig,
                         scenarios: Sequence[str],
                         source_classes: Optional[Sequence[int]] = None,
                         cases: Optional[Sequence[str]] = None
                         ) -> ExperimentConfig:
    """Expand a table config along the scenario axis.

    Every non-clean case is replicated once per scenario in ``scenarios``
    (clean cases are kept as-is, once); ``cases`` optionally restricts the
    expansion to the named base cases.  Source classes for
    ``source_conditional`` default per-target via
    :func:`default_source_classes`.
    """
    for kind in scenarios:
        if kind not in SCENARIOS:
            raise KeyError(f"Unknown scenario '{kind}'. Available: {SCENARIOS}")
    spec = DATASET_SPECS[config.dataset]
    expanded: List[CaseSpec] = []
    for case in config.cases:
        if cases is not None and case.name not in cases:
            continue
        if case.is_clean:
            expanded.append(case)
            continue
        for kind in scenarios:
            sources = None
            if kind == SCENARIO_SOURCE_CONDITIONAL:
                sources = (tuple(int(c) for c in source_classes)
                           if source_classes is not None else
                           default_source_classes(case.attack.target_class,
                                                  spec.num_classes))
            attack = replace(case.attack, scenario=kind, source_classes=sources)
            name = (case.name if kind == SCENARIO_ALL_TO_ONE
                    else f"{case.name}@{kind}")
            expanded.append(CaseSpec(name, attack))
    if not expanded:
        raise ValueError("Scenario grid selected no cases.")
    return replace(config, cases=tuple(expanded))


# ---------------------------------------------------------------------- #
# Runner
# ---------------------------------------------------------------------- #
def _train_case_model(config: ExperimentConfig, case: CaseSpec, case_seed: int,
                      model_index: int) -> Tuple[TrainedModel, Optional[int], int, Dataset]:
    """Train one model of one case; returns (trained, true_target, seed, test set)."""
    scale = config.scale
    spec = DATASET_SPECS[config.dataset]
    model_seed = case_seed * 1000 + model_index
    train_set, test_set = load_dataset(
        config.dataset, samples_per_class=scale.samples_per_class,
        test_per_class=scale.test_per_class, seed=model_seed,
        image_size=scale.image_size)
    image_shape = train_set.image_shape

    model = build_model(config.model, num_classes=spec.num_classes,
                        in_channels=spec.channels, image_size=image_shape[1],
                        rng=np.random.default_rng(model_seed + 1),
                        **scale.model_kwargs)
    trainer = Trainer(TrainingConfig(epochs=scale.epochs,
                                     batch_size=scale.batch_size,
                                     lr=scale.learning_rate),
                      rng=np.random.default_rng(model_seed + 2))

    if case.is_clean:
        trained = trainer.train_clean(model, train_set, test_set, seed=model_seed)
        true_target = None
    else:
        attack = build_attack(case.attack, image_shape,
                              np.random.default_rng(model_seed + 3),
                              num_classes=spec.num_classes)
        trained = trainer.train_backdoored(model, train_set, test_set, attack,
                                           seed=model_seed)
        true_target = case.attack.target_class
    _LOG.info("%s/%s model %d: acc=%.3f asr=%s", config.name, case.name,
              model_index, trained.clean_accuracy,
              f"{trained.attack_success_rate:.3f}"
              if trained.attack_success_rate is not None else "n/a")
    return trained, true_target, model_seed, test_set


def _detect_case_model(config: ExperimentConfig, case: CaseSpec,
                       trained: TrainedModel, true_target: Optional[int],
                       model_seed: int, model_index: int,
                       test_set: Dataset) -> Dict[str, ModelDetectionRecord]:
    """Run every configured detector on one trained model.

    For non-all-to-one cases the detectors run in pair mode: the scenario
    supplies the (source, target) grid, and the records carry the scenario
    plus the full ground-truth target set (all-to-all has K targets).
    """
    scale = config.scale
    spec = DATASET_SPECS[config.dataset]
    clean_data = stratified_sample(test_set, scale.clean_budget,
                                   np.random.default_rng(model_seed + 4))
    detectors = build_case_detectors(clean_data, scale, config.detectors,
                                     np.random.default_rng(model_seed + 5))
    scenario = trained.attack.scenario if trained.attack is not None else None
    scenario_kind = scenario.kind if scenario is not None else SCENARIO_ALL_TO_ONE
    extra = scenario.source_classes or () if scenario is not None else ()
    classes = _detection_classes(spec.num_classes, scale, true_target,
                                 extra=extra)
    pairs = None
    if scenario is not None and scenario.kind != SCENARIO_ALL_TO_ONE:
        pairs = scenario.scan_pairs(classes if classes is not None
                                    else range(spec.num_classes))
    true_targets = (scenario.expected_target_classes(spec.num_classes)
                    if scenario is not None else None)
    if scenario_kind == SCENARIO_ALL_TO_ALL:
        true_target = None
    records: Dict[str, ModelDetectionRecord] = {}
    for detector_name, detector in detectors.items():
        detection = detector.detect(trained.model, classes=classes, pairs=pairs,
                                    mode=config.inversion_mode)
        records[detector_name] = ModelDetectionRecord(
            model_index=model_index, is_backdoored_truth=not case.is_clean,
            true_target_class=true_target, detection=detection,
            scenario=scenario_kind, true_target_classes=true_targets)
    return records


def run_case(config: ExperimentConfig, case: CaseSpec, seed: int) -> CaseResult:
    """Train the fleet for one case and run every detector on every model."""
    scale = config.scale
    trained_models: List[TrainedModel] = []
    records: Dict[str, List[ModelDetectionRecord]] = {}
    for model_index in range(scale.models_per_case):
        trained, true_target, model_seed, test_set = _train_case_model(
            config, case, seed, model_index)
        trained_models.append(trained)
        model_records = _detect_case_model(config, case, trained, true_target,
                                           model_seed, model_index, test_set)
        for detector_name, record in model_records.items():
            records.setdefault(detector_name, []).append(record)

    summaries = {name: summarize_case(case.name, name, recs)
                 for name, recs in records.items()}
    return CaseResult(case=case, trained=trained_models, summaries=summaries)


# ---------------------------------------------------------------------- #
# Scheduler-dispatched fleet (process-parallel across cases x models)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class CaseModelJob:
    """Picklable unit of fleet work: train one model of one case, scan it."""

    config: ExperimentConfig
    case: CaseSpec
    case_index: int
    case_seed: int
    model_index: int
    #: When set, the worker saves a fingerprinted checkpoint here.
    checkpoint_dir: Optional[str] = None


@dataclass(frozen=True)
class FleetModelSummary:
    """Light substitute for :class:`TrainedModel` in scheduler-run fleets.

    Workers do not ship trained weights back to the parent; they return this
    summary (plus, optionally, a fingerprinted on-disk checkpoint), which
    carries everything :class:`CaseResult` aggregates.
    """

    clean_accuracy: float
    attack_success_rate: Optional[float]
    is_backdoored: bool
    seed: Optional[int] = None
    fingerprint: Optional[str] = None
    checkpoint: Optional[str] = None


@dataclass
class CaseModelOutcome:
    """Worker -> parent payload: one model's summary + compact detections."""

    case_index: int
    model_index: int
    summary: FleetModelSummary
    #: detector name -> ``ModelDetectionRecord.to_dict()`` payload.
    records: Dict[str, Dict[str, object]]


def run_case_model_job(job: CaseModelJob) -> CaseModelOutcome:
    """Worker entry point: train + detect one (case, model) cell.

    Module-level (picklable under any multiprocessing start method) and a
    thin composition of the same helpers :func:`run_case` uses, so the
    scheduler path reproduces the serial path's verdicts exactly.
    """
    from ..nn.serialization import save_model
    from ..service.fingerprint import fingerprint_model

    config, case = job.config, job.case
    trained, true_target, model_seed, test_set = _train_case_model(
        config, case, job.case_seed, job.model_index)
    records = _detect_case_model(config, case, trained, true_target,
                                 model_seed, job.model_index, test_set)
    fingerprint = fingerprint_model(trained.model)
    checkpoint: Optional[str] = None
    if job.checkpoint_dir:
        checkpoint = os.path.join(
            job.checkpoint_dir,
            f"{config.name}_{case.name}_m{job.model_index}.npz")
        spec = DATASET_SPECS[config.dataset]
        save_model(trained.model, checkpoint, metadata={
            "model": config.model,
            "dataset": config.dataset,
            "image_size": config.scale.image_size or spec.image_size,
            "model_kwargs": dict(config.scale.model_kwargs),
            "experiment": config.name,
            "case": case.name,
            "model_index": job.model_index,
            "seed": model_seed,
            "clean_accuracy": trained.clean_accuracy,
            "attack_success_rate": trained.attack_success_rate,
            "is_backdoored": trained.is_backdoored,
        })
    summary = FleetModelSummary(
        clean_accuracy=trained.clean_accuracy,
        attack_success_rate=trained.attack_success_rate,
        is_backdoored=trained.is_backdoored, seed=model_seed,
        fingerprint=fingerprint, checkpoint=checkpoint)
    return CaseModelOutcome(
        case_index=job.case_index, model_index=job.model_index,
        summary=summary,
        records={name: record.to_dict() for name, record in records.items()})


def _record_fleet_scans(config: ExperimentConfig, case: CaseSpec,
                        outcome: CaseModelOutcome, scheduler) -> None:
    """Append one store record per (model, detector) of a fleet outcome."""
    from ..service.fingerprint import digest_config, scan_key
    from ..service.records import ScanRecord

    store = scheduler.store
    summary = outcome.summary
    if store is None or summary.fingerprint is None:
        return
    for detector_name, payload in outcome.records.items():
        record = ModelDetectionRecord.from_dict(payload)
        # Scenario identity is part of the digest: the same weights scanned
        # under different scenario grids must never share a cache entry.
        digest_payload = {
            "experiment": config.name, "detector": detector_name.lower(),
            "scale": config.scale, "dataset": config.dataset,
            "case": case.name, "scenario": case_scenario_id(case),
        }
        # Keep pre-existing cached digests stable: the engine only enters
        # the digest when it deviates from the historical default.
        if config.inversion_mode != "batched":
            digest_payload["inversion_mode"] = config.inversion_mode
        digest = digest_config(digest_payload)
        store.add(ScanRecord.from_detection(
            key=scan_key(summary.fingerprint, detector_name, digest),
            fingerprint=summary.fingerprint, config_digest=digest,
            checkpoint=summary.checkpoint
            or f"<fleet:{config.name}/{case.name}#{outcome.model_index}>",
            model=config.model, dataset=config.dataset,
            detection=record.detection,
            extra={"clean_accuracy": summary.clean_accuracy,
                   **({"attack_success_rate": summary.attack_success_rate}
                      if summary.attack_success_rate is not None else {})}))


def run_experiment(config: ExperimentConfig, seed: int = 0,
                   scheduler=None,
                   checkpoint_dir: Optional[str] = None,
                   job_timeout: Optional[float] = None,
                   job_retries: Optional[int] = None) -> ExperimentResult:
    """Run every case of an experiment and collect paper-style rows.

    Without a ``scheduler`` the fleet runs serially in-process (the
    historical behaviour, and what the unit tests exercise).  With a
    :class:`repro.service.ScanScheduler` the (case, model) grid is dispatched
    through :meth:`~repro.service.ScanScheduler.run_jobs` — the backend and
    retry loop the watch daemon uses — process-parallel for ``workers > 1``,
    inline otherwise — and, when the scheduler carries a result store, every
    model's detections are recorded there under its weight fingerprint.
    ``checkpoint_dir`` additionally makes workers persist each trained model
    as a metadata-tagged checkpoint that ``python -m repro scan`` can replay.

    Args:
        config: Table description (cases, detectors, scale).
        seed: Base seed; each case uses ``seed + case_index``.
        scheduler: Optional :class:`repro.service.ScanScheduler`.
        checkpoint_dir: When set (scheduler runs only), workers save each
            trained model as a fingerprinted checkpoint here.
        job_timeout: Per-(case, model) wall-clock budget forwarded to
            :meth:`~repro.service.ScanScheduler.run_jobs` (pool path only;
            default: the scheduler's own ``job_timeout``).
        job_retries: Bounded retry budget per (case, model) job (default:
            the scheduler's own ``job_retries``).

    Returns:
        The :class:`ExperimentResult` with one row per (case, detector).
    """
    if scheduler is None:
        case_results = []
        for case_index, case in enumerate(config.cases):
            _LOG.info("Running %s case '%s' (%d/%d)", config.name, case.name,
                      case_index + 1, len(config.cases))
            case_results.append(run_case(config, case, seed=seed + case_index))
        return ExperimentResult(config=config, cases=case_results)

    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)
    jobs = [CaseModelJob(config=config, case=case, case_index=case_index,
                         case_seed=seed + case_index, model_index=model_index,
                         checkpoint_dir=checkpoint_dir)
            for case_index, case in enumerate(config.cases)
            for model_index in range(config.scale.models_per_case)]
    backend = getattr(scheduler, "backend", None)
    _LOG.info("Dispatching %s: %d job(s) via the %s backend (%d worker(s)).",
              config.name, len(jobs),
              getattr(backend, "name", "inline"),
              max(getattr(scheduler, "workers", 1), 1))
    outcomes: List[CaseModelOutcome] = scheduler.run_jobs(
        run_case_model_job, jobs, timeout=job_timeout, retries=job_retries)

    case_results = []
    for case_index, case in enumerate(config.cases):
        case_outcomes = sorted(
            (o for o in outcomes if o.case_index == case_index),
            key=lambda o: o.model_index)
        records: Dict[str, List[ModelDetectionRecord]] = {}
        for outcome in case_outcomes:
            for detector_name, payload in outcome.records.items():
                records.setdefault(detector_name, []).append(
                    ModelDetectionRecord.from_dict(payload))
            _record_fleet_scans(config, case, outcome, scheduler)
        summaries = {name: summarize_case(case.name, name, recs)
                     for name, recs in records.items()}
        case_results.append(CaseResult(
            case=case, trained=[o.summary for o in case_outcomes],
            summaries=summaries))
    return ExperimentResult(config=config, cases=case_results)


# ---------------------------------------------------------------------- #
# Repair sweep: detect -> repair -> verify across cases x detectors
# ---------------------------------------------------------------------- #
def run_repair_sweep(config: ExperimentConfig, seed: int = 0,
                     strategies: Sequence[str] = ("unlearn",),
                     plan=None) -> List[Dict[str, object]]:
    """ASR-before/after repair table: attack x scenario x detector x strategy.

    For every non-clean case the fleet is trained as in
    :func:`run_experiment`, each configured detector reverse-engineers its
    triggers once (full arrays, scenario-aware pair grids), and each repair
    ``strategy`` is applied to a fresh copy of the weights through
    :func:`repro.mitigation.repair_model` — so strategies are compared on
    identical starting points.  Because the sweep owns the ground-truth
    attack, the rows carry *true* ASR before/after (the service's repair
    path can only report reversed-trigger flip rates).

    Args:
        config: Table description; clean cases are skipped.
        seed: Base seed, offset per case exactly like :func:`run_experiment`.
        strategies: Repair strategies to compare
            (:data:`repro.mitigation.STRATEGIES` members).
        plan: Base :class:`repro.mitigation.RepairPlan`; its ``strategy``
            field is replaced per sweep column.

    Returns:
        One row dict per (case, model, detector, strategy) in the column
        layout of :data:`repro.eval.reporting.repair_sweep_columns`
        (percentages for accuracy/ASR).
    """
    from ..mitigation import RepairPlan, repair_model

    plan = plan or RepairPlan()
    scale = config.scale
    spec = DATASET_SPECS[config.dataset]
    rows: List[Dict[str, object]] = []
    for case_index, case in enumerate(config.cases):
        if case.is_clean:
            continue
        for model_index in range(scale.models_per_case):
            trained, true_target, model_seed, test_set = _train_case_model(
                config, case, seed + case_index, model_index)
            snapshot = trained.model.state_dict()  # already a copy per entry
            clean_data = stratified_sample(test_set, scale.clean_budget,
                                           np.random.default_rng(model_seed + 4))
            scenario = trained.attack.scenario
            extra = scenario.source_classes or ()
            classes = _detection_classes(spec.num_classes, scale, true_target,
                                         extra=extra)
            pairs = None
            if scenario.kind != SCENARIO_ALL_TO_ONE:
                pairs = scenario.scan_pairs(classes if classes is not None
                                            else range(spec.num_classes))
            detectors = build_case_detectors(clean_data, scale,
                                             config.detectors,
                                             np.random.default_rng(model_seed + 5))
            for detector_name, detector in detectors.items():
                detection = detector.detect(trained.model, classes=classes,
                                            pairs=pairs,
                                            mode=config.inversion_mode)
                for strategy in strategies:
                    model = build_model(
                        config.model, num_classes=spec.num_classes,
                        in_channels=spec.channels,
                        image_size=test_set.image_shape[1],
                        rng=np.random.default_rng(model_seed + 1),
                        **scale.model_kwargs)
                    model.load_state_dict(snapshot)
                    report = repair_model(
                        model, detection, clean_data,
                        plan=replace(plan, strategy=strategy),
                        detector=detector, eval_data=test_set,
                        attack=trained.attack,
                        rng=np.random.default_rng(model_seed + 6))
                    rows.append({
                        "case": case.name,
                        "scenario": case_scenario_id(case),
                        "method": detector_name,
                        "strategy": strategy,
                        "model": model_index,
                        "asr_before": (round(report.asr_before * 100, 2)
                                       if report.asr_before is not None
                                       else None),
                        "asr_after": (round(report.asr_after * 100, 2)
                                      if report.asr_after is not None
                                      else None),
                        "acc_before": round(report.accuracy_before * 100, 2),
                        "acc_after": round(report.accuracy_after * 100, 2),
                        "verdict_before": ("BACKDOORED" if report.verdict_before
                                           else "clean"),
                        "verdict_after": (
                            "-" if report.verdict_after is None
                            else "BACKDOORED" if report.verdict_after
                            else "clean"),
                        "guardrail_ok": report.guardrail_ok,
                        "success": report.success,
                        "cells": ",".join(report.cells) or "-",
                    })
                    _LOG.info(
                        "%s/%s [%s/%s]: asr %.3f -> %.3f, acc %.3f -> %.3f",
                        config.name, case.name, detector_name, strategy,
                        report.asr_before or 0.0, report.asr_after or 0.0,
                        report.accuracy_before, report.accuracy_after)
    return rows


# ---------------------------------------------------------------------- #
# Table configurations (one per paper table)
# ---------------------------------------------------------------------- #
def table1_config(scale: str | ExperimentScale = "tiny") -> ExperimentConfig:
    """Table 1: CIFAR-10 + ResNet-18, clean vs BadNet 2x2 / 3x3."""
    return ExperimentConfig(
        name="table1",
        dataset="cifar10",
        model="resnet18",
        cases=(
            CaseSpec("clean"),
            CaseSpec("badnet_2x2", AttackSpec("badnet", patch_size=2)),
            CaseSpec("badnet_3x3", AttackSpec("badnet", patch_size=3)),
        ),
        scale=_resolve_scale(scale),
        description="Detection evaluation on CIFAR-10 (ResNet-18); paper: 50 models/case.",
    )


def table2_config(scale: str | ExperimentScale = "tiny") -> ExperimentConfig:
    """Table 2: ImageNet-10 + EfficientNet-B0, BadNet with large triggers."""
    return ExperimentConfig(
        name="table2",
        dataset="imagenet10",
        model="efficientnet_b0",
        cases=(
            CaseSpec("badnet_20x20", AttackSpec("badnet", patch_fraction=20 / 224)),
            CaseSpec("badnet_25x25", AttackSpec("badnet", patch_fraction=25 / 224)),
        ),
        scale=_resolve_scale(scale),
        description="Detection evaluation on the ImageNet subset (EfficientNet-B0); paper: 15 models/case.",
    )


def table3_config(scale: str | ExperimentScale = "tiny") -> ExperimentConfig:
    """Table 3: stronger attacks (Latent, IAD) on VGG-16 + CIFAR-10."""
    return ExperimentConfig(
        name="table3",
        dataset="cifar10",
        model="vgg16",
        cases=(
            CaseSpec("clean"),
            CaseSpec("latent_4x4", AttackSpec("latent", patch_size=4)),
            CaseSpec("iad_full", AttackSpec("iad")),
        ),
        scale=_resolve_scale(scale),
        description="Stronger backdoor attacks on VGG-16 / CIFAR-10; paper: 15 models/case.",
    )


def table4_config(scale: str | ExperimentScale = "tiny") -> ExperimentConfig:
    """Table 4 (appendix): VGG-16 + CIFAR-10 with BadNet triggers."""
    return ExperimentConfig(
        name="table4",
        dataset="cifar10",
        model="vgg16",
        cases=(
            CaseSpec("clean"),
            CaseSpec("badnet_2x2", AttackSpec("badnet", patch_size=2)),
            CaseSpec("badnet_3x3", AttackSpec("badnet", patch_size=3)),
        ),
        scale=_resolve_scale(scale),
        description="Detection evaluation on VGG-16 / CIFAR-10; paper: 15 models/case.",
    )


def table5_config(scale: str | ExperimentScale = "tiny") -> ExperimentConfig:
    """Table 5 (appendix): MNIST, clean vs BadNet 2x2 / 3x3."""
    return ExperimentConfig(
        name="table5",
        dataset="mnist",
        model="basic_cnn",
        cases=(
            CaseSpec("clean"),
            CaseSpec("badnet_2x2", AttackSpec("badnet", patch_size=2)),
            CaseSpec("badnet_3x3", AttackSpec("badnet", patch_size=3)),
        ),
        scale=_resolve_scale(scale),
        description="Detection evaluation on MNIST; paper: 50 models/case.",
    )


def table6_config(scale: str | ExperimentScale = "tiny") -> ExperimentConfig:
    """Table 6 (appendix): GTSRB (43 classes), clean vs BadNet 2x2 / 3x3."""
    return ExperimentConfig(
        name="table6",
        dataset="gtsrb",
        model="resnet18",
        cases=(
            CaseSpec("clean"),
            CaseSpec("badnet_2x2", AttackSpec("badnet", patch_size=2)),
            CaseSpec("badnet_3x3", AttackSpec("badnet", patch_size=3)),
        ),
        scale=_resolve_scale(scale),
        description="Detection evaluation on GTSRB; paper: 15 models/case.",
    )


def _resolve_scale(scale: str | ExperimentScale) -> ExperimentScale:
    if isinstance(scale, ExperimentScale):
        return scale
    if scale not in SCALES:
        raise KeyError(f"Unknown scale preset '{scale}'. Available: {sorted(SCALES)}")
    return SCALES[scale]


TABLE_CONFIGS = {
    "table1": table1_config,
    "table2": table2_config,
    "table3": table3_config,
    "table4": table4_config,
    "table5": table5_config,
    "table6": table6_config,
}
