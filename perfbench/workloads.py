"""The benchmark's workloads: inputs, configs, operations and check facts.

Plain data only; nothing here imports ``ratfm``, so the orchestrator and
the output checks can read it without loading the package under test.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # SynthSpec fields (the seed comes from --seed)
    synth: dict
    # ExperimentConfig fields besides dataset_root, seed and budget
    config: dict
    # (example_len, horizon, target_len); 512/96/512 is the CLI default
    budget: tuple[int, int, int]
    # effective pool stride; the program's default is horizon // 12
    pool_stride: int
    # settings evaluated on the prepared run, each emitted
    settings: tuple[str, ...]
    diagnostics: bool = False
    sweep_fractions: tuple[float, ...] = ()
    # test windows per retrieval report recomputed by the max-NCC oracle
    retrieval_sample: int = 0
    # dominant template period per domain, checked against the estimate
    expected_periods: dict | None = None
    # retrieval's global VUS-ROC must exceed zero-shot's on the same data
    beats_zero_shot: bool = False

    def ops_per_rep(self) -> int:
        """Series-in-report evaluations plus diagnostics and sweep calls."""
        n_series = self.synth["domains"] * self.synth["series_per_domain"]
        reports = len(self.settings) + len(self.sweep_fractions)
        calls = int(self.diagnostics) + int(bool(self.sweep_fractions))
        return n_series * reports + calls


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="consumers_default",
            why=(
                "CLI-default budget, 2 workers; copy, linear, diagnostics and a "
                "two-fraction sweep share one dataset, so retrievals repeat"
            ),
            synth={"domains": 3, "series_per_domain": 4},
            config={"workers": 2},
            budget=(512, 96, 512),
            pool_stride=8,
            settings=("ratfm_copy", "ratfm_linear"),
            diagnostics=True,
            sweep_fractions=(1.0, 0.5),
            retrieval_sample=6,
            beats_zero_shot=True,
        ),
        Workload(
            name="archive_zero_shot",
            why=(
                "2 series of 300k points, zero-shot: parsing, period estimation, "
                "VUS and score-CSV writing dominate; retrieval does no work"
            ),
            synth={
                "domains": 2,
                "series_per_domain": 1,
                "train_len": 100_000,
                "test_len": 200_000,
            },
            config={},
            budget=(512, 96, 512),
            pool_stride=8,
            settings=("zero_shot_naive",),
            expected_periods={"dom0": 96, "dom1": 72},
        ),
    )
}
