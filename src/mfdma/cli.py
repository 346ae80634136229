"""Command-line front end.

Subcommands: ``generate`` (cascades and noise), ``analyze`` (one series or
surface), ``surrogate`` (shuffle, re-analyze, compare spectrum widths),
``compare`` (backward/centered/forward MFDMA plus MFDFA against an
analytic reference), and ``oracle`` (print closed-form tau/alpha/f).

Exit codes: 0 success, 2 validation error, 3 degenerate-data error,
4 I/O or input-format error, 5 out of memory.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .exceptions import DegenerateDataError, InputFormatError, ValidationError
from .generators import (
    CascadeSpec1D,
    CascadeSpec2D,
    binomial_measure_1d,
    cascade_measure_2d,
    gaussian_noise,
    shuffle_surrogate,
)
from .pipeline import (
    CHOICES,
    DEFAULTS,
    FIELD_TYPES,
    AnalysisConfig,
    _q_labels,
    analyze,
    analyze_all,
    csv_table,
    emit_results,
    ingest_input,
    ingest_series,  # noqa: F401  perfbench's trace wraps mfdma.cli.ingest_series
    json_text,
    run_pipeline,
    write_series_csv,
)
from .spectrum import _binomial_weights, _check_weights, analytic_alpha, analytic_f, analytic_tau
from .spectrum import build_q_grid, tau_error

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4
EXIT_MEMORY = 5


def format_with_error(value: float, se: float) -> str:
    """Render value(err) to 3 decimals, the error in units of the last digit.

    0.874 with se 0.006 becomes ``0.874(6)``; errors of ten or more last
    digits keep their extra figures, as in ``1.401(12)``.
    """
    return f"{value:.3f}({int(round(se * 1000))})"


def _print_scaling_summary(bundle, label=None):
    est = bundle.estimate
    qs = est.qs.values
    if label:
        print(f"== {label} ==")
    labels = _q_labels(qs)  # over the whole grid, so the printed rows are told apart too
    picks = np.linspace(0, qs.size - 1, min(9, qs.size)).round().astype(int)
    print(f"{'q':>6}  {'h(q)':>12}  {'tau(q)':>10}")
    for idx in dict.fromkeys(picks.tolist()):  # sorted, so this drops adjacent repeats
        h_txt = format_with_error(est.h[idx], est.h_se[idx])
        print(f"{labels[idx]:>6}  {h_txt:>12}  {est.tau[idx]:>10.3f}")
    print(f"spectrum width: {bundle.spectrum.width:.4f}")


def _parse_weights(text: str) -> tuple[float, ...]:
    """The comma-separated numbers of a weights option as floats; ``_check_weights`` checks them."""
    try:
        return tuple(float(p) for p in text.replace(" ", "").split(",") if p)
    except ValueError:
        raise ValidationError(f"weights must be comma-separated numbers, got {text!r}")


def _cascade_weights(p1, weights_text):
    """The checked weights of the cascade named by a p1 (binomial) or four weights (square)."""
    if p1 is None:
        return _check_weights(_parse_weights(weights_text), (4,))
    return _binomial_weights(p1)


# the analysis flags are the AnalysisConfig fields: --field-name, except these
FLAG_NAMES = {"input_path": "--input", "legendre_half_window": "--legendre-window",
              "out_format": "--format"}
Q_FIELDS = ("q_min", "q_max", "q_step")  # the analysis flags oracle takes too
FLAG_HELP = {
    "input_path": "input data file",
    "theta": "window position parameter in [0, 1]",
    "legendre_half_window": "half-window of the local tau(q) slope estimate (default 3)",
}


def _add_field_flags(parser, names) -> None:
    """One flag per AnalysisConfig field of ``names``, of the field's declared type."""
    for name in names:
        parser.add_argument(FLAG_NAMES.get(name, "--" + name.replace("_", "-")), dest=name,
                            type=FIELD_TYPES[name][0], choices=CHOICES.get(name),
                            help=FLAG_HELP.get(name))


def _config(args, loaded: dict) -> AnalysisConfig:
    """The command's config: its flags over its ``loaded`` --config fields; it needs an input."""
    flags = {k: getattr(args, k) for k in DEFAULTS if getattr(args, k) is not None}
    cfg = AnalysisConfig(**{**loaded, **flags})
    if cfg.input_path is None:
        raise ValidationError(f"{args.command} needs --input")
    return cfg


def cmd_generate(args) -> int:
    if args.kind == "binomial":
        data = binomial_measure_1d(CascadeSpec1D(p1=args.p1, levels=args.levels))
    elif args.kind == "cascade2d":
        data = cascade_measure_2d(CascadeSpec2D(_parse_weights(args.weights), args.levels))
    else:
        data = gaussian_noise(args.length, args.seed)
    out = Path(args.out)
    write_series_csv(data, out)
    size = f"{len(data)} values" if data.ndim == 1 else "{}x{}".format(*data.shape)
    print(f"wrote {data.name}: {size} to {out}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    cfg = _config(args, AnalysisConfig.read_config_file(args.config))
    bundle = run_pipeline(cfg)
    _print_scaling_summary(bundle, label=Path(cfg.input_path).name)
    if cfg.out_dir is not None:
        written = emit_results(bundle, cfg.out_dir, cfg.out_format)
        for path in written:
            print(f"wrote {path}")
    return EXIT_OK


def cmd_surrogate(args) -> int:
    cfg = _config(args, AnalysisConfig.read_config_file(args.config))
    if cfg.mode != "series":
        raise ValidationError(f"surrogate shuffles a series, got mode {cfg.mode!r}")
    raw, digest = ingest_input(cfg)
    shuffled = shuffle_surrogate(raw, cfg.seed)
    # the float64 bytes name the values one to one, as their repr text would; no copy is made
    shuffled_digest = hashlib.sha256(np.ascontiguousarray(shuffled.values, dtype="<f8")).hexdigest()
    raw_bundle = analyze(cfg, raw, digest)
    shuffled_bundle = analyze(cfg, shuffled, shuffled_digest)
    width_raw = raw_bundle.spectrum.width
    width_shuffled = shuffled_bundle.spectrum.width
    preserved = bool(
        np.array_equal(np.sort(raw.values), np.sort(shuffled.values))
    )
    summary = {
        "seed": cfg.seed,
        "width_raw": width_raw,
        "width_shuffled": width_shuffled,
        "width_change": width_shuffled - width_raw,
        "multiset_preserved": preserved,
    }
    _print_scaling_summary(raw_bundle, label="raw")
    _print_scaling_summary(shuffled_bundle, label=f"shuffled (seed {cfg.seed})")
    print(
        f"width raw = {width_raw:.4f}, shuffled = {width_shuffled:.4f}, "
        f"change = {summary['width_change']:+.4f}"
    )
    if cfg.out_dir is not None:
        out_dir = Path(cfg.out_dir)
        emit_results(raw_bundle, out_dir / "raw", cfg.out_format)
        emit_results(shuffled_bundle, out_dir / "shuffled", cfg.out_format)
        summary_path = out_dir / "surrogate_summary.json"
        summary_path.write_text(json_text(summary))
        print(f"wrote {summary_path}")
    return EXIT_OK


COMPARE_METHODS = (
    ("mfdma_theta0", "mfdma", 0.0),
    ("mfdma_theta0.5", "mfdma", 0.5),
    ("mfdma_theta1", "mfdma", 1.0),
    ("mfdfa", "mfdfa", 0.0),
)


def cmd_compare(args) -> int:
    loaded = AnalysisConfig.read_config_file(args.config)
    for name in ("method", "theta"):
        if getattr(args, name) is not None or name in loaded:
            raise ValidationError(f"compare runs every method and theta, so --{name} is not taken")
    if (args.analytic_p1 is None) == (args.analytic_weights is None):
        raise ValidationError(
            "compare needs exactly one analytic reference: --analytic-p1 or --analytic-weights"
        )
    cfg = _config(args, loaded)
    flag, mode = ("p1", "series") if args.analytic_p1 is not None else ("weights", "surface")
    if cfg.mode != mode:
        raise ValidationError(f"--analytic-{flag} implies --mode {mode}")
    # the reference needs no data, so a bad one, or one that overflows, fails before the read
    qs = build_q_grid(cfg.q_min, cfg.q_max, cfg.q_step).values
    tau_ref = analytic_tau(_cascade_weights(args.analytic_p1, args.analytic_weights), qs)
    data, digest = ingest_input(cfg)
    labels, methods, thetas = zip(*COMPARE_METHODS)
    bundles = dict(zip(labels, analyze_all(cfg, zip(methods, thetas), data, digest)))

    dtaus = {label: tau_error(b.estimate, tau_ref) for label, b in bundles.items()}
    sums = {label: float(np.abs(d).sum()) for label, d in dtaus.items()}
    ranking = sorted(sums, key=sums.get)
    print(f"{'q':>6}  " + "  ".join(f"{label:>15}" for label in dtaus))
    for i, label in enumerate(_q_labels(qs)):
        print(f"{label:>6}  " + "  ".join(f"{d[i]:>15.4f}" for d in dtaus.values()))
    print("sum |delta tau|: " + ", ".join(f"{k} = {sums[k]:.4f}" for k in ranking))
    print("ranking (best first): " + " < ".join(ranking))

    if cfg.out_dir is not None:
        out_dir = Path(cfg.out_dir)
        for label, bundle in bundles.items():
            emit_results(bundle, out_dir / label.replace(".", "_"), cfg.out_format,
                         tau_reference=tau_ref)
        path = out_dir / "delta_tau.csv"
        taus = [b.estimate.tau for b in bundles.values()]
        header = ["q", "tau_analytic"]
        header += [f"tau_{l}" for l in bundles] + [f"dtau_{l}" for l in bundles]
        path.write_text(csv_table(header, [qs, tau_ref] + taus + list(dtaus.values())))
        summary_path = out_dir / "compare_summary.json"
        summary_path.write_text(json_text({"sum_abs_dtau": sums, "ranking": ranking}))
        print(f"wrote {path}")
        print(f"wrote {summary_path}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    if (args.p1 is None) == (args.weights is None):
        raise ValidationError("oracle needs exactly one of --p1 or --weights")
    grid = {k: DEFAULTS[k] if getattr(args, k) is None else getattr(args, k) for k in Q_FIELDS}
    qs = build_q_grid(**grid).values
    weights = _cascade_weights(args.p1, args.weights)
    text = csv_table(
        ["q", "tau", "alpha", "f"],
        [qs] + [oracle(weights, qs) for oracle in (analytic_tau, analytic_alpha, analytic_f)],
    )
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfdma",
        description="Multifractal analysis of series and surfaces by detrending moving averages.",
    )
    parser.add_argument("--version", action="version", version=f"mfdma {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic measure or noise series")
    gen.set_defaults(func=cmd_generate)
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    g1 = gen_sub.add_parser("binomial", help="deterministic binomial cascade measure")
    g1.add_argument("--p1", type=float, required=True, help="left-child mass fraction in (0, 1)")
    g1.add_argument("--levels", type=int, required=True, help="cascade steps; length is 2^levels")
    g1.add_argument("--out", required=True)
    g2 = gen_sub.add_parser("cascade2d", help="deterministic four-way square cascade")
    g2.add_argument("--weights", required=True, help="four comma-separated quadrant fractions")
    g2.add_argument("--levels", type=int, required=True, help="cascade steps; side is 2^levels")
    g2.add_argument("--out", required=True)
    g3 = gen_sub.add_parser("noise", help="seeded standard normal series")
    g3.add_argument("--length", type=int, required=True)
    g3.add_argument("--seed", type=int, default=0)
    g3.add_argument("--out", required=True)

    commands = (
        ("analyze", "analyze one series or surface", cmd_analyze),
        ("surrogate", "analyze a series and its shuffled surrogate", cmd_surrogate),
        ("compare", "run backward/centered/forward MFDMA and MFDFA on one input", cmd_compare),
    )
    for name, help_text, func in commands:
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(func=func)
        grid = command.add_argument_group("analysis options")
        _add_field_flags(grid, FIELD_TYPES)
        grid.add_argument("--config", help="JSON config file; CLI flags take precedence")
    sub.choices["compare"].add_argument("--analytic-p1", type=float, dest="analytic_p1")
    sub.choices["compare"].add_argument("--analytic-weights", dest="analytic_weights")

    orc = sub.add_parser("oracle", help="print closed-form tau/alpha/f of a cascade")
    orc.add_argument("--p1", type=float)
    orc.add_argument("--weights")
    _add_field_flags(orc, Q_FIELDS)
    orc.add_argument("--out")
    orc.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DegenerateDataError as exc:
        print(f"degenerate data: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (InputFormatError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        # numpy's message; an array allocation's names the bytes it asked for
        print(f"error: out of memory in {args.command}: {exc}", file=sys.stderr)
        return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())
