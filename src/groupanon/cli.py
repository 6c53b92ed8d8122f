"""Config-driven command line for the anonymization pipeline.

Subcommands: ``anonymize`` runs the full pipeline (load, concentration
signal, decompose, redistribute, integer quantities, rewrite, report);
``inspect`` prints the signal, coefficients, synthesis matrix, and fixed
coefficient set without writing anything; ``verify`` re-checks an already
anonymized file against its original.

Exit status: 0 = success with all invariant checks passing, 2 = pipeline
ran but an invariant check failed (outputs are still written for
debugging), 1 = hard error (a machine-readable error report is written
when a report path is known).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, GroupAnonError
from .matrices import build_reconstruction_matrix
from .microdata import (
    AttributeSpec,
    Microfile,
    concentration_signal,
    load_microfile,
    new_quantities,
    rewrite_microfile,
    write_microfile,
)
from .redistribution import (
    CHECK_TOL,
    RedistributionPlan,
    fixed_border_indices,
    format_plot_data,
    redistribute,
    verify_outcome,
)
from .wavelets import analyze, extend_to_even, filter_by_name

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVARIANT = 2


@dataclass
class RunConfig:
    """One fully specified anonymization run."""

    input: Path
    spec: AttributeSpec
    wavelet: str
    level: int
    extension: str
    plan: RedistributionPlan
    seed: int = 0
    delimiter: str = ","
    output: Path | None = None
    report: Path | None = None
    plot_data: Path | None = None

    def __post_init__(self):
        if self.level < 1:
            raise ConfigError(f"wavelet level must be >= 1, got {self.level}")
        if self.extension not in ("left", "right"):
            raise ConfigError(f"extension must be 'left' or 'right', got {self.extension!r}")


def load_config(path) -> RunConfig:
    """Parse the JSON run configuration at ``path``."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    known = {"input", "output", "report", "plot_data", "delimiter", "seed",
             "attributes", "wavelet", "plan"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("input", "attributes"):
        if key not in data:
            raise ConfigError(f"config is missing required key {key!r}")
    spec = _parse_attributes(data["attributes"])
    wavelet_cfg = data.get("wavelet", {})
    plan = _parse_plan(data.get("plan", {}))
    return RunConfig(
        input=Path(data["input"]),
        output=Path(data["output"]) if data.get("output") else None,
        report=Path(data["report"]) if data.get("report") else None,
        plot_data=Path(data["plot_data"]) if data.get("plot_data") else None,
        delimiter=data.get("delimiter", ","),
        seed=int(data.get("seed", 0)),
        spec=spec,
        wavelet=wavelet_cfg.get("name", "db2"),
        level=int(wavelet_cfg.get("level", 1)),
        extension=wavelet_cfg.get("extension", "left"),
        plan=plan,
    )


def _parse_attributes(section) -> AttributeSpec:
    if not isinstance(section, dict):
        raise ConfigError("'attributes' must be an object")
    try:
        vital = section["vital"]
        combos = section["vital_combinations"]
        parameter = section["parameter"]
        parameter_values = section["parameter_values"]
    except KeyError as exc:
        raise ConfigError(f"'attributes' is missing {exc.args[0]!r}") from None
    denominator = section.get("denominator", "group_total")
    denominator_filter = None
    if isinstance(denominator, dict):
        try:
            denominator_filter = (denominator["attribute"], tuple(denominator["values"]))
        except KeyError as exc:
            raise ConfigError(f"denominator filter is missing {exc.args[0]!r}") from None
        denominator = "custom_filter"
    fallback = section.get("fallback")
    if isinstance(fallback, str):
        fallback = (fallback,)
    elif fallback is not None:
        fallback = tuple(fallback)
    try:
        return AttributeSpec(
            vital_attributes=tuple(vital),
            vital_combinations=tuple(tuple(c) if isinstance(c, (list, tuple)) else (c,) for c in combos),
            parameter_attribute=parameter,
            parameter_values=tuple(parameter_values),
            denominator=denominator,
            denominator_filter=denominator_filter,
            fallback_combination=fallback,
        )
    except GroupAnonError as exc:
        raise ConfigError(str(exc)) from None


def _parse_plan(section) -> RedistributionPlan:
    if not isinstance(section, dict):
        raise ConfigError("'plan' must be an object")
    fixed = section.get("fixed_indices")
    free = section.get("free_values")
    if free is not None:
        try:
            free = {int(i): float(v) for i, v in free.items()}
        except (TypeError, ValueError, AttributeError):
            raise ConfigError("'free_values' must map coefficient indices to numbers") from None
    targets = tuple((int(p), float(v)) for p, v in section.get("targets", []))
    floor = section["floor"] if "floor" in section else 2.0
    try:
        return RedistributionPlan(
            strategy=section.get("strategy", "manual"),
            fixed_indices=frozenset(int(i) for i in fixed) if fixed is not None else None,
            free_values=free,
            targets=targets,
            floor=floor,
        )
    except GroupAnonError as exc:
        raise ConfigError(str(exc)) from None


def _check_attributes(mf: Microfile, spec: AttributeSpec) -> None:
    for name in spec.referenced_attributes():
        if name not in mf.attributes:
            raise ConfigError(f"unknown attribute {name!r} (file has {mf.attributes})")


@contextmanager
def _stage(timings: dict, name: str):
    """Add the wall time of the block to ``timings[name]``."""
    start = time.perf_counter()
    yield
    timings[name] = timings.get(name, 0.0) + time.perf_counter() - start


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def run_anonymize(config: RunConfig) -> tuple[int, dict]:
    """Full pipeline; returns (exit status, report)."""
    if config.output is None:
        raise ConfigError("anonymize needs an output path")
    timings: dict[str, float] = {}
    with _stage(timings, "load"):
        mf = load_microfile(config.input, delimiter=config.delimiter)
    _check_attributes(mf, config.spec)
    with _stage(timings, "signal"):
        signal = concentration_signal(mf, config.spec)
    filters = filter_by_name(config.wavelet)
    with _stage(timings, "redistribute"):
        final_ratios, record, red_report = redistribute(
            signal.ratios, config.plan, filters, config.level, config.extension
        )
    with _stage(timings, "quantities"):
        counts, achieved_mean = new_quantities(final_ratios, signal.denominators)
    with _stage(timings, "rewrite"):
        rewritten = rewrite_microfile(mf, config.spec, signal.numerators, counts, config.seed)
    with _stage(timings, "write"):
        write_microfile(rewritten, config.output)
    with _stage(timings, "recount"):
        recount = concentration_signal(rewritten, config.spec)

    checks = dict(red_report["checks"])
    checks["mean_preserved"] = abs(checks["mean_delta"]) < CHECK_TOL
    checks["details_proportional"] = checks["detail_residual"] < CHECK_TOL
    checks["recount_matches"] = bool(np.array_equal(recount.numerators, counts))
    checks["denominators_unchanged"] = bool(
        np.array_equal(recount.denominators, signal.denominators)
    )
    passed = all(
        checks[key]
        for key in (
            "mean_preserved",
            "details_proportional",
            "positivity",
            "border_equality",
            "recount_matches",
            "denominators_unchanged",
        )
    )
    report = {
        "status": "ok" if passed else "invariant_violation",
        "input": str(config.input),
        "output": str(config.output),
        "seed": config.seed,
        "wavelet": {"name": config.wavelet, "level": config.level, "extension": config.extension},
        "signal": {
            "parameter_values": list(signal.parameter_values),
            "numerators": signal.numerators.tolist(),
            "denominators": signal.denominators.tolist(),
            "ratios": signal.ratios.tolist(),
            "final_ratios": final_ratios.tolist(),
        },
        "redistribution": red_report,
        "counts": {
            "old": signal.numerators.tolist(),
            "new": counts.tolist(),
            "original_mean": float(signal.numerators.mean()),
            "achieved_mean": achieved_mean,
        },
        "checks": checks,
        "timings": timings,
        "sizes": {
            "records": len(mf),
            "categories": len(signal.parameter_values),
            "extended_length": len(red_report["extended_after"]),
            "level": config.level,
            "records_changed": len(rewritten.edited),
        },
    }
    if config.report is not None:
        _write_json(config.report, report)
    if config.plot_data is not None:
        config.plot_data.parent.mkdir(parents=True, exist_ok=True)
        config.plot_data.write_text(
            format_plot_data(signal.ratios, final_ratios), encoding="utf-8"
        )
    return (EXIT_OK if passed else EXIT_INVARIANT), report


def run_inspect(config: RunConfig) -> tuple[int, str]:
    """Compute and render the decomposition view; writes nothing."""
    mf = load_microfile(config.input, delimiter=config.delimiter)
    _check_attributes(mf, config.spec)
    signal = concentration_signal(mf, config.spec)
    filters = filter_by_name(config.wavelet)
    extended, meta = extend_to_even(signal.ratios, config.extension)
    dec = analyze(extended, filters, config.level, meta=meta)
    matrix = build_reconstruction_matrix(filters, meta.extended_length, config.level)
    fixed = sorted(fixed_border_indices(filters, config.level, meta))

    def fmt(values) -> str:
        return " ".join(format(v, ".4f") for v in values)

    lines = [
        f"parameter values: {' '.join(signal.parameter_values)}",
        f"numerators: {' '.join(str(v) for v in signal.numerators)}",
        f"denominators: {' '.join(str(v) for v in signal.denominators)}",
        f"concentration signal: {fmt(signal.ratios)}",
        f"extension: {meta.direction} ({meta.original_length} -> {meta.extended_length} samples)",
        f"approximation coefficients (level {dec.level}): {fmt(dec.approx)}",
    ]
    for u, detail in enumerate(dec.details, start=1):
        lines.append(f"detail coefficients (level {u}): {fmt(detail)}")
    lines.append(f"reconstruction matrix ({matrix.n} x {matrix.m}):")
    lines.append(matrix.dump())
    lines.append(f"fixed coefficient indices: {' '.join(str(i) for i in fixed) if fixed else '(none)'}")
    return EXIT_OK, "\n".join(lines)


def run_verify(config: RunConfig) -> tuple[int, dict]:
    """Re-check an anonymized file against its original.

    Counts in the rewritten file are integers, so the recomputed ratios
    carry rounding noise; the mean and detail checks therefore use bounds
    derived from the worst-case effect of a half-count per group instead of
    the exact in-pipeline tolerances.
    """
    if config.output is None:
        raise ConfigError("verify needs an output path (the anonymized file)")
    timings: dict[str, float] = {}
    with _stage(timings, "load"):
        original = load_microfile(config.input, delimiter=config.delimiter)
        final = load_microfile(config.output, delimiter=config.delimiter)
    _check_attributes(original, config.spec)
    _check_attributes(final, config.spec)
    with _stage(timings, "signal"):
        sig_before = concentration_signal(original, config.spec)
        sig_after = concentration_signal(final, config.spec)
    filters = filter_by_name(config.wavelet)
    _, meta = extend_to_even(sig_before.ratios, config.extension)
    with _stage(timings, "outcome"):
        outcome = verify_outcome(sig_before.ratios, sig_after.ratios, filters, config.level, meta)

    # Worst-case ratio perturbation from rounding one count: half a record.
    eps = float(0.5 / sig_before.denominators.min())
    gain_low = float(np.abs(filters.lowpass).sum())
    gain_high = float(np.abs(filters.highpass).sum())
    mean_tol = float((0.5 / sig_before.denominators).mean()) + 1e-12
    detail_tol = 2.0 * eps * gain_high * gain_low ** (config.level - 1) + 1e-12

    same_shape = len(original) == len(final) and original.attributes == final.attributes
    changed = np.zeros(len(original), dtype=bool)
    conserved = same_shape
    with _stage(timings, "compare"):
        for attribute in original.attributes if same_shape else ():
            differs = _cells_differ(original, final, attribute)
            if attribute in config.spec.vital_attributes:
                changed |= differs
            elif differs.any():
                conserved = False
    checks = {
        "record_count_unchanged": len(original) == len(final),
        "non_vital_cells_unchanged": conserved,
        "denominators_unchanged": bool(
            np.array_equal(sig_before.denominators, sig_after.denominators)
        ),
        "positivity": outcome["positivity"],
        "border_equality": outcome["border_equality"],
        "mean_within_rounding": abs(outcome["mean_delta"]) <= mean_tol,
        "details_within_rounding": outcome["detail_residual"] <= detail_tol,
    }
    counts_match = None
    if config.report is not None and config.report.exists():
        try:
            previous = json.loads(config.report.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"report {config.report} is not valid JSON: {exc}") from None
        wanted = previous.get("counts", {}).get("new")
        if wanted is not None:
            counts_match = sig_after.numerators.tolist() == wanted
            checks["counts_match_report"] = counts_match
    passed = all(v for v in checks.values() if v is not None)
    report = {
        "status": "ok" if passed else "invariant_violation",
        "input": str(config.input),
        "output": str(config.output),
        "tolerances": {"mean": mean_tol, "detail": detail_tol},
        "outcome": outcome,
        "counts": {
            "old": sig_before.numerators.tolist(),
            "new": sig_after.numerators.tolist(),
        },
        "checks": checks,
        "timings": timings,
        "sizes": {
            "records": len(original),
            "categories": len(sig_before.parameter_values),
            "extended_length": meta.extended_length,
            "level": config.level,
            "records_changed": int(changed.sum()),
        },
    }
    return (EXIT_OK if passed else EXIT_INVARIANT), report


def _cells_differ(before: Microfile, after: Microfile, attribute: str) -> np.ndarray:
    """Per record, whether ``attribute`` holds another value in ``after``.

    The two files have their own vocabularies, so ``before``'s codes are
    first mapped into ``after``'s.
    """
    j = after.column_index(attribute)
    index = {value: code for code, value in enumerate(after.vocabularies[j])}
    return before.lookup(attribute, index, -1) != after.codes[j]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="groupanon",
        description="Group anonymity for tabular microdata via redistribution of "
        "the wavelet approximation of a concentration signal.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("anonymize", "run the full pipeline and write the anonymized microfile"),
        ("inspect", "print the decomposition view without writing anything"),
        ("verify", "re-check an anonymized microfile against its original"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="JSON run configuration")
        cmd.add_argument("--seed", type=int, help="override the configured seed")
        cmd.add_argument("--output", help="override the configured output path")
        cmd.add_argument("--report", help="override the configured report path")
    args = parser.parse_args(argv)

    report_path = Path(args.report) if args.report else None
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        if args.output is not None:
            config = replace(config, output=Path(args.output))
        if args.report is not None:
            config = replace(config, report=Path(args.report))
        report_path = config.report
        if args.command == "anonymize":
            status, report = run_anonymize(config)
            print(json.dumps(report["checks"], indent=2, sort_keys=True))
        elif args.command == "inspect":
            status, text = run_inspect(config)
            print(text)
        else:
            status, report = run_verify(config)
            print(json.dumps(report["checks"], indent=2, sort_keys=True))
        return status
    except (GroupAnonError, OSError) as exc:
        if report_path is not None:
            try:
                _write_json(report_path, {
                    "status": "error",
                    "error": {"type": type(exc).__name__, "message": str(exc)},
                })
            except OSError:
                pass
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
