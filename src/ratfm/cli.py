"""Command-line interface.

Subcommands: ``ingest`` (validate a dataset with the checks a run
makes while preparing it), ``synth`` (write a synthetic dataset),
``run`` (evaluate one setting), ``sweep`` (candidate-pool fraction
sweep), ``diag-similarity`` (reference-segment similarity diagnostics).
Exit codes: 0 success, 2 config error, 3 dataset error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from .dataset import dump_metadata, load_dataset
from .errors import ConfigError, DatasetError
from .forecast import Budget
from .harness import (
    SETTINGS,
    ExperimentConfig,
    emit_reports,
    prepare_series,
    run_setting,
    similarity_diagnostics,
    sweep_pool_fraction,
)
from .synth import SynthSpec, write_synthetic

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATASET = 3


def _parse_budget(text: str) -> Budget:
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --budget {text!r}: expected 'Te,H,Tt'") from exc
    if len(parts) != 3:
        raise ConfigError(f"bad --budget {text!r}: expected three integers")
    return Budget(*parts)


def _parse_fractions(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad --fractions {text!r}") from exc


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="experiment config JSON")
    parser.add_argument("--dataset", help="dataset root (alternative to --config)")
    parser.add_argument("--seed", type=int, help="override the experiment seed")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--budget", help="input budget as 'Te,H,Tt' (default 512,96,512)")
    parser.add_argument("--no-sma", action="store_true", help="skip score smoothing")


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config is not None:
        config = ExperimentConfig.from_json(args.config)
    elif args.dataset is not None:
        config = ExperimentConfig(dataset_root=args.dataset)
    else:
        raise ConfigError("provide --config or --dataset")
    overrides = {}
    if args.dataset is not None and args.config is not None:
        overrides["dataset_root"] = args.dataset
        overrides["synth"] = None
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.budget is not None:
        overrides["budget"] = _parse_budget(args.budget)
    if args.no_sma:
        overrides["sma"] = False
    if overrides:
        config = dataclasses.replace(config, **overrides)
    config.validate()
    return config


def _cmd_ingest(args: argparse.Namespace) -> int:
    series = load_dataset(args.root)
    if not series:
        raise DatasetError(f"no series files found under {args.root}")
    domains: dict[str, int] = {}
    for s in series:
        prepare_series(s)
        domains[s.domain] = domains.get(s.domain, 0) + 1
    print(f"parsed {len(series)} series across {len(domains)} domains")
    for dom in sorted(domains):
        print(f"  {dom}: {domains[dom]} series")
    if args.out is not None:
        dump_metadata(series, args.out)
        print(f"metadata written to {args.out}")
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    raw = {
        "domains": args.domains,
        "series_per_domain": args.series_per_domain,
        "train_len": args.train_len,
        "test_len": args.test_len,
        "noise_std": args.noise_std,
        "seed": args.seed if args.seed is not None else 0,
    }
    if args.anomaly_kinds is not None:
        raw["anomaly_kinds"] = tuple(args.anomaly_kinds.split(","))
    if args.anomaly_len is not None:
        try:
            lo, hi = (int(v) for v in args.anomaly_len.split(","))
        except ValueError as exc:
            raise ConfigError(
                f"bad --anomaly-len {args.anomaly_len!r}: expected 'lo,hi'"
            ) from exc
        raw["anomaly_len"] = (lo, hi)
    spec = SynthSpec(**{k: v for k, v in raw.items() if v is not None})
    paths = write_synthetic(spec, args.out)
    print(f"wrote {len(paths)} series to {args.out}")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    report = run_setting(config, args.setting)
    paths = emit_reports(report, config.out_dir)
    n = report.overall.get("n_series", 0)
    print(f"setting={args.setting} series={n} skipped={len(report.skipped)}")
    for metric in ("vus_roc", "vus_pr", "f1"):
        if metric in report.overall:
            print(f"  {metric}: {report.overall[metric]:.4f}")
    print(f"report written to {paths['report']}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args)
    fractions = None if args.fractions is None else _parse_fractions(args.fractions)
    result = sweep_pool_fraction(config, fractions, setting=args.setting)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "sweep.csv"
    result.write_csv(csv_path)
    for fraction, domain, vus_roc, n_series in result.rows:
        print(f"fraction={fraction} domain={domain} vus_roc={vus_roc:.4f} n={n_series}")
    print(f"sweep table written to {csv_path}")
    return EXIT_OK


def _cmd_diag(args: argparse.Namespace) -> int:
    config = _load_config(args)
    diag = similarity_diagnostics(config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "diagnostics.json").write_text(
        json.dumps(diag.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    diag.write_csv(out / "diagnostics.csv")
    for dom, rec in sorted(diag.per_domain.items()):
        print(
            f"{dom}: example_future={rec['example_future']:.3f} "
            f"aligned={rec['aligned_segment']:.3f} best={rec['best_segment']:.3f}"
        )
    o = diag.overall
    print(
        f"overall: example_future={o['example_future']:.3f} "
        f"aligned={o['aligned_segment']:.3f} best={o['best_segment']:.3f}"
    )
    print(f"diagnostics written to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratfm",
        description="Retrieval-augmented forecast-based anomaly detection benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="validate a dataset directory")
    p_ingest.add_argument("root", help="directory of UCR-style series files")
    p_ingest.add_argument("--out", help="write parsed metadata JSON here")
    p_ingest.set_defaults(func=_cmd_ingest)

    p_synth = sub.add_parser("synth", help="write a synthetic dataset")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--domains", type=int)
    p_synth.add_argument("--series-per-domain", type=int, dest="series_per_domain")
    p_synth.add_argument("--train-len", type=int, dest="train_len")
    p_synth.add_argument("--test-len", type=int, dest="test_len")
    p_synth.add_argument("--noise-std", type=float, dest="noise_std")
    p_synth.add_argument("--anomaly-kinds", dest="anomaly_kinds",
                         help="comma-separated subset of spike,plateau_shift,frequency_change")
    p_synth.add_argument("--anomaly-len", dest="anomaly_len", help="length range 'lo,hi'")
    p_synth.add_argument("--seed", type=int)
    p_synth.set_defaults(func=_cmd_synth)

    p_run = sub.add_parser("run", help="evaluate one pipeline setting")
    p_run.add_argument("--setting", required=True, choices=SETTINGS)
    _add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="candidate-pool fraction sweep")
    p_sweep.add_argument("--fractions", help="comma-separated fractions in (0,1]")
    p_sweep.add_argument("--setting", default="ratfm_copy", choices=SETTINGS)
    _add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_diag = sub.add_parser(
        "diag-similarity", help="reference-segment similarity diagnostics"
    )
    _add_common(p_diag)
    p_diag.set_defaults(func=_cmd_diag)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an empty path would name the working directory
        for name in ("--config", "--dataset", "--out", "root"):
            if getattr(args, name.lstrip("-"), None) == "":
                raise ConfigError(f"{name} must not be empty")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DatasetError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return EXIT_DATASET


if __name__ == "__main__":
    sys.exit(main())
