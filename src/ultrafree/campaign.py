"""Randomized verification campaigns over generated ultrametric spaces.

A campaign runs the selected stages over a deterministic grid of random
instances.  Single-instance failures are recorded, never fatal: the
theorem-backed checks are exactly the ones whose failures must surface in
the aggregate report.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .chain import basis_constant, basis_vectors, build_chain, verify_chain, verify_projection_algebra
from .ell1 import ThreePointReport, pipeline, three_point_report
from .metric import FiniteMetricSpace, random_ultrametric, round_to_dyadic, validate
from .rtree import verify_retraction_claims
from .serialize import dump_json

STAGES = ("validate", "basis", "embed", "l1check", "threepoint")

THREE_POINT_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))


@dataclass(frozen=True)
class CampaignConfig:
    sizes: tuple[int, ...]
    seeds: int
    stages: tuple[str, ...]
    out: Optional[str] = None
    base_seed: int = 0

    def __post_init__(self) -> None:
        if any(size < 2 for size in self.sizes):
            raise ValueError("sizes must be at least 2")
        if self.seeds < 1:
            raise ValueError("need at least one seed")
        unknown = [s for s in self.stages if s not in STAGES]
        if unknown:
            raise ValueError(f"unknown stages: {unknown}")


@dataclass(frozen=True)
class StageResult:
    stage: str
    passed: bool
    details: dict


@dataclass(frozen=True)
class InstanceResult:
    instance: str
    size: int
    seed: int
    stages: tuple[StageResult, ...]

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.stages)


@dataclass(frozen=True)
class Report:
    schema: str
    config: CampaignConfig
    instances: tuple[InstanceResult, ...]
    three_point: tuple[ThreePointReport, ...]
    passes: int
    failures: int
    max_retraction_constant: Optional[Fraction]
    min_l1_lower: Optional[Fraction]
    generated_at: str

    @property
    def passed(self) -> bool:
        return self.failures == 0 and not any(r.l1_isometric for r in self.three_point)


def _stage_validate(space: FiniteMetricSpace) -> StageResult:
    report = validate(space)
    return StageResult(
        "validate",
        report.is_metric and report.is_ultrametric,
        {
            "is_metric": report.is_metric,
            "is_ultrametric": report.is_ultrametric,
            "is_dyadic": report.is_dyadic,
            "failing_triple": report.failing_triple,
        },
    )


def _stage_basis(space: FiniteMetricSpace, seed: int) -> StageResult:
    rng = random.Random(seed)
    shuffled = list(range(1, len(space)))
    rng.shuffle(shuffled)
    ok = True
    constants = []
    for ordering in (tuple(range(len(space))), (0, *shuffled)):
        chain = build_chain(space, ordering)
        constant = basis_constant(space, basis_vectors(chain))
        constants.append(constant)
        ok = ok and verify_chain(chain).passed and verify_projection_algebra(chain).passed and constant == 1
    return StageResult("basis", ok, {"basis_constants": constants})


def _stage_embed(space: FiniteMetricSpace) -> StageResult:
    claims = verify_retraction_claims(round_to_dyadic(space))  # the dendrogram is certified inside
    return StageResult(
        "embed",
        claims.passed,
        {"retraction_constant": claims.attained_constant},
    )


def _stage_l1check(space: FiniteMetricSpace, seed: int) -> StageResult:
    report = pipeline(space, seed=seed)
    return StageResult(
        "l1check",
        report.passed,
        {
            "distortion": report.distortion,
            "retraction_constant": report.retraction_constant,
            "projection_norm": report.projection_norm,
            "basis_constant": report.basis_constant,
            "l1_lower": report.l1_lower,
            "l1_upper": report.l1_upper,
        },
    )


def run_campaign(config: CampaignConfig) -> Report:
    """Execute the configured stages; deterministic given the config."""
    instances = []
    passes = failures = 0
    max_retraction: Optional[Fraction] = None
    min_l1: Optional[Fraction] = None
    per_instance = [s for s in config.stages if s != "threepoint"]
    for size in config.sizes:
        for seed_index in range(config.seeds):
            seed = config.base_seed + 10007 * size + seed_index
            space = random_ultrametric(size, seed)
            results = []
            for stage in per_instance:
                try:
                    if stage == "validate":
                        result = _stage_validate(space)
                    elif stage == "basis":
                        result = _stage_basis(space, seed)
                    elif stage == "embed":
                        result = _stage_embed(space)
                    else:
                        result = _stage_l1check(space, seed)
                except Exception as exc:  # recorded, never fatal
                    result = StageResult(stage, False, {"error": f"{type(exc).__name__}: {exc}"})
                results.append(result)
                value = result.details.get("retraction_constant")
                if value is not None and (max_retraction is None or value > max_retraction):
                    max_retraction = value
                value = result.details.get("l1_lower")
                if value is not None and (min_l1 is None or value < min_l1):
                    min_l1 = value
            instance = InstanceResult(f"n{size}-s{seed_index}", size, seed_index, tuple(results))
            instances.append(instance)
            if instance.passed:
                passes += 1
            else:
                failures += 1
    three_point = ()
    if "threepoint" in config.stages:
        three_point = tuple(three_point_report(s) for s in THREE_POINT_GRID)
    return Report(
        schema="ultrafree-report/3",
        config=config,
        instances=tuple(instances),
        three_point=three_point,
        passes=passes,
        failures=failures,
        max_retraction_constant=max_retraction,
        min_l1_lower=min_l1,
        generated_at=datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    )


def emit_report(report: Report, path: Optional[str] = None) -> str:
    """Serialize the report; stable field order, rationals as strings."""
    return dump_json(report, path)
