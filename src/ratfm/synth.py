"""Deterministic multi-domain synthetic benchmark generator.

Each domain carries a fixed template (a sum of sinusoids with
incommensurate periods); series within a domain share the template and
differ only by their noise realization and by the single injected
anomaly in the test region.  Shared templates give retrieval genuinely
similar cross-series examples, while the secondary sinusoid keeps a
single-period naive forecaster from fitting the signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import LabeledSeries
from .errors import InvalidSpecError, check_field_types

ANOMALY_KINDS = ("spike", "plateau_shift", "frequency_change")

# Anomaly start is drawn from this fraction band of the test region so
# the span stays inside the scored range for reasonable input budgets.
_ANOMALY_BAND = (0.72, 0.92)

# Integer period triples (two slow, one fast) whose joint period (lcm)
# is larger than typical context budgets but small enough for train
# regions to cover every phase: a single-period naive forecaster always
# misfits the other components, cross-series retrieval can find
# phase-aligned copies, and the fast component gives every short window
# enough structure that misaligned segments decorrelate.  The fast
# period divides the slow pair's lcm so the joint period is unchanged.
_BASE_PERIODS = (
    (96.0, 80.0, 20.0),
    (72.0, 64.0, 16.0),
    (88.0, 48.0, 24.0),
    (64.0, 56.0, 16.0),
    (120.0, 96.0, 20.0),
    (112.0, 64.0, 28.0),
)


@dataclass(frozen=True)
class DomainTemplate:
    """Sum-of-sinusoids shape shared by every series of one domain.

    An optional slow amplitude modulation at ``mod_period`` (by default
    the joint period of the components) keeps the template exactly
    periodic while decorrelating segments that are offset by less than
    the joint period.
    """

    periods: tuple[float, ...]
    amplitudes: tuple[float, ...]
    phases: tuple[float, ...]
    level: float = 0.0
    mod_depth: float = 0.0
    mod_period: float | None = None

    def evaluate(self, t: np.ndarray, period_scale: float = 1.0) -> np.ndarray:
        base = np.zeros(len(t), dtype=np.float64)
        for period, amp, phase in zip(self.periods, self.amplitudes, self.phases):
            base += amp * np.sin(2.0 * np.pi * t / (period * period_scale) + phase)
        if self.mod_depth and self.mod_period:
            base *= 1.0 + self.mod_depth * np.sin(
                2.0 * np.pi * t / (self.mod_period * period_scale)
            )
        return self.level + base

    @property
    def amplitude_total(self) -> float:
        return float(sum(abs(a) for a in self.amplitudes))


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the generated benchmark; fully seeded."""

    domains: int = 3
    series_per_domain: int = 8
    train_len: int = 2400
    test_len: int = 1600
    templates: tuple[DomainTemplate, ...] | None = None
    noise_std: float = 0.05
    anomaly_kinds: tuple[str, ...] = ANOMALY_KINDS
    anomaly_len: tuple[int, int] = (30, 60)
    seed: int = 0

    def validate(self) -> None:
        check_field_types(self, InvalidSpecError)
        for template in self.templates or ():
            check_field_types(template, InvalidSpecError)
        if self.domains < 1 or self.series_per_domain < 1:
            raise InvalidSpecError("need at least one domain and one series each")
        if self.train_len < 16 or self.test_len < 32:
            raise InvalidSpecError("train_len/test_len too short for a benchmark")
        if not math.isfinite(self.noise_std) or self.noise_std < 0:
            raise InvalidSpecError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if self.seed < 0:
            raise InvalidSpecError("seed must be >= 0")
        lo, hi = self.anomaly_len
        if not 1 <= lo <= hi:
            raise InvalidSpecError(f"bad anomaly length range ({lo}, {hi})")
        for kind in self.anomaly_kinds:
            if kind not in ANOMALY_KINDS:
                raise InvalidSpecError(f"unknown anomaly kind {kind!r}")
        if not self.anomaly_kinds:
            raise InvalidSpecError("need at least one anomaly kind")
        if self.templates is not None and len(self.templates) != self.domains:
            raise InvalidSpecError("templates must match the domain count")
        start_lo = math.ceil(_ANOMALY_BAND[0] * self.test_len)
        start_hi = math.floor(_ANOMALY_BAND[1] * self.test_len) - hi
        if start_hi < start_lo:
            raise InvalidSpecError(
                "test_len too short to place the anomaly inside the scored band"
            )


def default_template(domain_index: int) -> DomainTemplate:
    base = _BASE_PERIODS[domain_index % len(_BASE_PERIODS)]
    # repeated cycles through the base list shift both periods by a
    # multiple of 8 so phase coverage on stride-8 pools is preserved
    shift = 16.0 * (domain_index // len(_BASE_PERIODS))
    periods = tuple(p + shift for p in base)
    return DomainTemplate(
        periods=periods,
        amplitudes=(1.0, 0.8, 0.5),
        phases=(0.0, 1.1, 2.3),
        level=2.0 + 0.5 * domain_index,
        mod_depth=0.35,
        mod_period=float(math.lcm(*(int(p) for p in periods[:2]))),
    )


def _inject_anomaly(
    values: np.ndarray,
    template: DomainTemplate,
    noise: np.ndarray,
    kind: str,
    start: int,
    length: int,
) -> None:
    span = slice(start, start + length)
    amp = template.amplitude_total
    # magnitudes stay subtle relative to the signal so detection hinges
    # on the forecaster's error floor, not on raw outlier size
    if kind == "spike":
        bump = np.sin(np.pi * np.linspace(0.0, 1.0, length))
        values[span] += 1.5 * amp * bump
    elif kind == "plateau_shift":
        values[span] += 0.75 * amp
    elif kind == "frequency_change":
        t = np.arange(start, start + length, dtype=np.float64)
        values[span] = template.evaluate(t, period_scale=0.5) + noise[span]
    else:  # pragma: no cover - guarded by SynthSpec.validate
        raise InvalidSpecError(f"unknown anomaly kind {kind!r}")


def generate_synthetic(spec: SynthSpec) -> list[LabeledSeries]:
    """Generate the benchmark; deterministic for a fixed spec."""
    spec.validate()
    total_len = spec.train_len + spec.test_len
    t = np.arange(total_len, dtype=np.float64)
    out = []
    for d in range(spec.domains):
        template = (
            spec.templates[d] if spec.templates is not None else default_template(d)
        )
        base = template.evaluate(t)
        for s in range(spec.series_per_domain):
            rng = np.random.default_rng((spec.seed, d, s))
            noise = (
                rng.standard_normal(total_len) * spec.noise_std
                if spec.noise_std > 0
                else np.zeros(total_len)
            )
            values = base + noise
            kind_idx = (d * spec.series_per_domain + s) % len(spec.anomaly_kinds)
            kind = spec.anomaly_kinds[kind_idx]
            lo, hi = spec.anomaly_len
            length = int(rng.integers(lo, hi + 1))
            start_lo = math.ceil(_ANOMALY_BAND[0] * spec.test_len)
            start_hi = math.floor(_ANOMALY_BAND[1] * spec.test_len) - length
            start_local = int(rng.integers(start_lo, start_hi + 1))
            start = spec.train_len + start_local
            _inject_anomaly(values, template, noise, kind, start, length)
            idx = d * spec.series_per_domain + s + 1
            end = start + length - 1
            stem = f"{idx:03d}_dom{d}_{spec.train_len}_{start}_{end}"
            out.append(
                LabeledSeries(
                    id=stem,
                    domain=f"dom{d}",
                    values=values,
                    train_end=spec.train_len,
                    anomaly_spans=((start, end),),
                    source_path="",
                )
            )
    return out


def write_synthetic(spec: SynthSpec, out_dir: str | Path) -> list[Path]:
    """Write the benchmark as UCR-style text files, one value per line."""
    out_dir = Path(out_dir)
    generated = generate_synthetic(spec)  # validates before anything is created
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for series in generated:
        path = out_dir / f"{series.id}.txt"
        path.write_text("\n".join(repr(float(v)) for v in series.values) + "\n")
        paths.append(path)
    return paths
