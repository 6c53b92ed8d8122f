"""Config-driven command line for the anonymization pipeline.

Subcommands: ``anonymize`` runs the full pipeline (load, concentration
signal, decompose, redistribute, integer quantities, rewrite, report);
``inspect`` prints the signal, coefficients, the rows of the synthesis
operator (each expanded from :func:`groupanon.wavelets.operator_band` to
one line of 4-decimal entries) and the fixed coefficient set the run uses,
writing each line as it is made, once every check has run, and no file;
``verify`` re-checks an already anonymized file against its original.

``anonymize`` and ``verify`` build their ``checks`` the same way: the rows
of :func:`groupanon.redistribution.verify_outcome` (mean, details,
positivity, border) plus file-level rows, each ``{value, tolerance,
passed}``.  A file-level row counts mismatches and has tolerance 0.  The
run passes when every row passes.  Both print ``status``, ``checks``,
``timings`` and ``sizes`` as JSON on stdout.

Exit status: 0 = success with all invariant checks passing, 2 = pipeline
ran but an invariant check failed (outputs are still written for
debugging; stderr names each failed check with its value and tolerance),
1 = hard error, a usage error included (only ``anonymize`` writes a
machine-readable error report, when a report path is known and the run's
paths do not clash; when the config does not load, only over nothing or an
earlier report).  Each config object has one key table: a key maps onto
one dataclass field and one converter, defaults live on the dataclasses,
and an unknown key is an error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigError, GroupAnonError
from .microdata import (
    AttributeSpec,
    check_release,
    concentration_signal,
    load_microfile,
    new_quantities,
    rewrite_microfile,
    write_microfile,
)
from .redistribution import (
    STRATEGIES,
    RedistributionPlan,
    check_row,
    format_plot_data,
    redistribute,
    rounding_tolerances,
    verify_outcome,
)
from .wavelets import (EXTENSIONS, WAVELETS, ExtensionMeta, analyze, extend_to_even, filter_by_name,
                       operator_band)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVARIANT = 2
_PATHS = ("input", "output", "report", "plot_data")


@dataclass
class RunConfig:
    """One fully specified anonymization run; no two of its ``_PATHS`` name one file."""

    input: Path
    spec: AttributeSpec
    wavelet: str = "db2"
    level: int = 1
    extension: str = "left"
    plan: RedistributionPlan = field(default_factory=RedistributionPlan)
    seed: int = 0
    delimiter: str = ","
    output: Path | None = None
    report: Path | None = None
    plot_data: Path | None = None

    def __post_init__(self):
        # So that a run never writes over its input or over another of its files.
        seen = {}
        for key in _PATHS:
            path = getattr(self, key)
            other = key if path is None else seen.setdefault(Path(path).resolve(), key)
            if other != key:
                raise ConfigError(f"{key} and {other} name the same file: {path}", field=key)


def _of(*kinds):
    """The converter that takes a value of one of the JSON types ``kinds`` as it is."""
    def convert(value):
        # JSON true and false are not numbers, though Python's bool is an int.
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise TypeError(value)
        return value
    return convert


_string, _list, _object_of = _of(str), _of(list), _of(dict)
_integer = _of(int)


def _number(value):
    """A JSON number that a float holds finitely: Python's json also takes NaN, the infinities and any integer."""
    try:
        finite = math.isfinite(_of(int, float)(value))
    except OverflowError:  # an integer past the float range
        finite = False
    if not finite:
        raise ValueError("must be finite")
    return value


def _positive(convert):
    """``convert``, taking only a value above 0."""
    def check(value):
        if not convert(value) > 0:
            raise ValueError("must be positive")
        return value
    return check


def _choice(options):
    """The converter that takes one of ``options`` as it is."""
    def convert(value):
        if value not in options:
            raise ValueError(f"expected one of {list(options)}")
        return value
    return convert


def _strings(value) -> tuple[str, ...]:
    return tuple(map(_string, _list(value)))


def _string_or_strings(value) -> tuple[str, ...]:
    """A list of strings, or one bare string standing for a list of one."""
    return (value,) if isinstance(value, str) else _strings(value)


def _path(value) -> Path:
    if not _string(value):
        raise ValueError(value)
    return Path(value)


def _optional(convert):
    """``convert``, except that JSON null stands for None."""
    return lambda value: None if value is None else convert(value)


def _object(name: str, data, table: dict, required=(), build=dict):
    """``build`` called with the fields config object ``name`` sets.

    ``table`` maps each key to (field, converter).  Keys left out keep their
    dataclass default.  A field of None takes the fields its converter
    returns.  An unknown key, a missing required key, a value its converter
    cannot take and a value ``build`` rejects (its error naming the field)
    are each a ConfigError naming ``name.key``.
    """
    if not isinstance(data, dict):
        raise TypeError(data)
    prefix = f"{name}." if name else ""
    unknown = [prefix + key for key in data if key not in table]
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    for key in required:
        if key not in data:
            raise ConfigError(f"config is missing required key {prefix + key!r}")
    fields = {}
    for key, value in data.items():
        field_name, convert = table[key]
        try:
            converted = convert(value)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise _malformed(prefix + key, value, exc) from None
        fields.update(converted if field_name is None else {field_name: converted})
    try:
        return build(**fields)
    except GroupAnonError as exc:  # the dataclass's own validation
        keys = [key for key in data if exc.field is not None and table[key][0] == exc.field]
        if not keys:
            raise ConfigError(str(exc)) from None
        raise _malformed(prefix + keys[0], data[keys[0]], exc) from None


def _malformed(key: str, value, exc: Exception) -> ConfigError:
    message = f"config key {key!r} has a malformed value: {value!r}"
    if isinstance(exc, ValueError) and str(exc):
        message += f" ({exc})"
    return ConfigError(message, field=getattr(exc, "field", None))


def _denominator(value) -> tuple[str, tuple[str, ...]] | None:
    """``"group_total"`` (None: every record of the group), or the filter an object names."""
    if isinstance(value, str):
        _choice(("group_total",))(value)
        return None
    rule = _object("attributes.denominator", value, _DENOMINATOR, ("attribute", "values"))
    return rule["attribute"], rule["values"]


def _free_values(value) -> dict[int, float]:
    """Free values by coefficient index: JSON object keys, hence strings holding the index, no two naming one."""
    values = {int(i): _number(x) for i, x in _object_of(value).items()}
    if len(values) != len(value):
        raise ValueError("two keys name one coefficient")
    return values


# One key table per config object: JSON key -> (dataclass field, converter).
_DENOMINATOR = {"attribute": ("attribute", _string), "values": ("values", _strings)}
_ATTRIBUTES = {
    "vital": ("vital_attributes", _strings),
    "vital_combinations": (
        "vital_combinations", lambda v: tuple(map(_string_or_strings, _list(v)))
    ),
    "parameter": ("parameter_attribute", _string),
    "parameter_values": ("parameter_values", _strings),
    "denominator": ("denominator_filter", _denominator),
    "fallback": ("fallback_combination", _optional(_string_or_strings)),
}
_WAVELET = {
    "name": ("wavelet", _choice(WAVELETS)),
    "level": ("level", _positive(_integer)),
    "extension": ("extension", _choice(EXTENSIONS)),
}
_PLAN = {
    "strategy": ("strategy", _choice(STRATEGIES)),
    "fixed_indices": ("fixed_indices", _optional(lambda v: frozenset(map(_integer, _list(v))))),
    "free_values": ("free_values", _optional(_free_values)),
    "targets": ("targets", lambda v: tuple((_integer(p), _number(x)) for p, x in map(_list, _list(v)))),
    "floor": ("floor", _optional(_positive(_number))),
}
_RUN = {
    "input": ("input", _path),
    "output": ("output", _optional(_path)),
    "report": ("report", _optional(_path)),
    "plot_data": ("plot_data", _optional(_path)),
    "delimiter": ("delimiter", _string),
    "seed": ("seed", _integer),
    "attributes": ("spec", lambda v: _object("attributes", v, _ATTRIBUTES, (
        "vital", "vital_combinations", "parameter", "parameter_values"), AttributeSpec)),
    "wavelet": (None, lambda v: _object("wavelet", v, _WAVELET)),
    "plan": ("plan", lambda v: _object("plan", v, _PLAN, (), RedistributionPlan)),
}


def _unique_keys(pairs) -> dict:
    """The JSON object of ``pairs``, none of whose keys may repeat: json alone keeps the last silently."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"config repeats key {key!r} in one object")
        data[key] = value
    return data


def load_config(path) -> RunConfig:
    """Parse the JSON run configuration at ``path``."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return _object("", data, _RUN, ("input", "attributes"), RunConfig)


@contextmanager
def _stage(timings: dict, name: str):
    """Add the wall time of the block to ``timings[name]``."""
    start = time.perf_counter()
    yield
    timings[name] = timings.get(name, 0.0) + time.perf_counter() - start


# List entries encoded by one call of json's C encoder when a report is written.
_SLICE = 1024
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _write_json(path: Path, payload: dict) -> None:
    """Write ``json.dumps(payload, sort_keys=True, separators=(",", ":"))`` and a newline to ``path``, a piece at a time.

    The dicts of ``payload``, whose keys are all strings, are walked in
    sorted key order, and a list longer than ``_SLICE`` is encoded a slice at
    a time, so neither the whole text nor the encoder's chunks of a long
    list are ever held.  Every piece comes from json's C encoder: json.dump,
    which writes as it encodes, uses the pure-Python one and is slower.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        _put_json(handle.write, payload)
        handle.write("\n")


def _put_json(write, value) -> None:
    """Hand the JSON text of ``value`` to ``write`` piece by piece."""
    if isinstance(value, dict):
        write("{")
        for i, key in enumerate(sorted(value)):
            write(("," if i else "") + _encode(key) + ":")
            _put_json(write, value[key])
        write("}")
    elif isinstance(value, list) and len(value) > _SLICE:
        for i in range(0, len(value), _SLICE):
            write(("," if i else "[") + _encode(value[i:i + _SLICE])[1:-1])
        write("]")
    else:
        write(_encode(value))


def _finish(report: dict) -> tuple[int, dict]:
    """Set ``report["status"]`` from its check rows; return the run's exit code and ``report``."""
    passed = all(row["passed"] for row in report["checks"].values())
    report["status"] = "ok" if passed else "invariant_violation"
    return (EXIT_OK if passed else EXIT_INVARIANT), report


def run_anonymize(config: RunConfig) -> tuple[int, dict]:
    """Full pipeline; returns (exit status, report)."""
    if config.output is None:
        raise ConfigError("anonymize needs an output path")
    timings: dict[str, float] = {}
    with _stage(timings, "load"):
        mf = load_microfile(config.input, delimiter=config.delimiter)
    with _stage(timings, "signal"):
        signal = concentration_signal(mf, config.spec)
    filters = filter_by_name(config.wavelet)
    with _stage(timings, "redistribute"):
        final_ratios, red_report = redistribute(
            signal.ratios, config.plan, filters, config.level, config.extension
        )
    with _stage(timings, "quantities"):
        counts, achieved_mean = new_quantities(final_ratios, signal.denominators)
    with _stage(timings, "rewrite"):
        rewritten = rewrite_microfile(mf, config.spec, signal.numerators, counts, config.seed)
    del mf  # the columns the rewrite replaced are freed
    with _stage(timings, "write"):
        write_microfile(rewritten, config.output)
    with _stage(timings, "recount"):
        recount = concentration_signal(rewritten, config.spec)

    checks = red_report.pop("checks")
    checks["released_counts_match"] = _mismatch_row(recount.numerators, counts)
    checks["denominators_unchanged"] = _mismatch_row(recount.denominators, signal.denominators)
    code, report = _finish({
        "input": str(config.input),
        "output": str(config.output),
        "seed": config.seed,
        "wavelet": {"name": config.wavelet, "level": config.level, "extension": config.extension},
        "signal": {
            "parameter_values": list(config.spec.parameter_values),
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
            "records": len(rewritten),
            "categories": len(config.spec.parameter_values),
            "extended_length": ExtensionMeta(red_report["extension"], len(final_ratios)).extended_length,
            "level": config.level,
            "records_changed": len(rewritten.edited),
        },
    })
    # The report file cannot hold its own write time; the returned report
    # and the summary on stdout carry it.
    with _stage(timings, "report"):
        if config.report is not None:
            _write_json(config.report, report)
        if config.plot_data is not None:
            config.plot_data.parent.mkdir(parents=True, exist_ok=True)
            with open(config.plot_data, "w", encoding="utf-8") as handle:
                format_plot_data(signal.ratios, final_ratios, handle)
    return code, report


def run_inspect(config: RunConfig, out) -> None:
    """Write the decomposition view to the text stream ``out`` line by line, once every check has run."""
    mf = load_microfile(config.input, delimiter=config.delimiter)
    signal = concentration_signal(mf, config.spec)
    filters = filter_by_name(config.wavelet)
    extended, meta = extend_to_even(signal.ratios, config.extension)
    dec = analyze(extended, filters, config.level, meta=meta)
    n, m = meta.extended_length, dec.approx.size
    cols, taps = operator_band(filters, config.level, n, np.arange(n))
    fixed = sorted(config.plan.fixed_set(filters, config.level, meta))

    def fmt(values) -> str:
        return " ".join(format(v, ".4f") for v in values)

    put = partial(print, file=out)
    put(f"parameter values: {' '.join(config.spec.parameter_values)}")
    put(f"numerators: {' '.join(str(v) for v in signal.numerators)}")
    put(f"denominators: {' '.join(str(v) for v in signal.denominators)}")
    put(f"concentration signal: {fmt(signal.ratios)}")
    put(f"extension: {meta.direction} ({meta.original_length} -> {meta.extended_length} samples)")
    put(f"approximation coefficients (level {dec.level}): {fmt(dec.approx)}")
    for u, detail in enumerate(dec.details, start=1):
        put(f"detail coefficients (level {u}): {fmt(detail)}")
    put(f"reconstruction matrix ({n} x {m}):")
    # One row at a time: the cells outside a row's band all print as 0.
    zero = f"{0.0:8.4f}"
    cells = [zero] * m
    for row_cols, row_taps in zip(cols.tolist(), taps.tolist()):
        for j, tap in zip(row_cols, row_taps):
            cells[j] = f"{tap:8.4f}"
        put(" ".join(cells))
        for j in row_cols:
            cells[j] = zero
    put(f"fixed coefficient indices: {' '.join(str(i) for i in fixed) if fixed else '(none)'}")


def run_verify(config: RunConfig) -> tuple[int, dict]:
    """Re-check an anonymized file against its original.

    Counts in the rewritten file are integers, so the recomputed ratios
    carry rounding noise; the mean and detail checks therefore use the
    bounds of :func:`groupanon.redistribution.rounding_tolerances` instead
    of the exact in-pipeline tolerance.  Both files are read in one pass
    (:func:`groupanon.microdata.check_release`, the ``read`` stage): the
    original a chunk of records at a time, and the anonymized file in step
    with it, of which only the records that differ from the original's
    record at the same position are split into cells (``records_reparsed``),
    or all of them when the attribute names differ.  An error names the
    file at fault.  A configured report is read first, and only its
    ``counts.new`` is kept.
    """
    if config.output is None:
        raise ConfigError("verify needs an output path (the anonymized file)")
    wanted = None if config.report is None else _released_counts(config.report)
    timings: dict[str, float] = {}
    with _stage(timings, "read"):
        found = check_release(config.input, config.output, config.spec, config.delimiter)
    filters = filter_by_name(config.wavelet)
    before, meta = extend_to_even(found.before.ratios, config.extension)
    after, _ = extend_to_even(found.after.ratios, config.extension)  # border pair equal by construction
    mean_tol, detail_tol = rounding_tolerances(found.before.denominators, filters, config.level)
    with _stage(timings, "outcome"):
        checks, _ = verify_outcome(
            before, after, filters, config.level, meta, mean_tol=mean_tol, detail_tol=detail_tol
        )
    checks["record_count_unchanged"] = _count_row(abs(found.records - found.released))
    checks["non_vital_cells_unchanged"] = _count_row(found.altered)
    checks["denominators_unchanged"] = _mismatch_row(found.before.denominators, found.after.denominators)
    if wanted is not None:
        checks["released_counts_match"] = _mismatch_row(found.after.numerators, wanted)
    return _finish({
        "checks": checks,
        "timings": timings,
        "sizes": {
            "records": found.records,
            "categories": len(config.spec.parameter_values),
            "extended_length": meta.extended_length,
            "level": config.level,
            "records_changed": found.changed,
            "records_reparsed": found.tokenized,
        },
    })


def _released_counts(path: Path) -> list:
    """The ``counts.new`` list of the anonymize report at ``path``."""
    try:
        previous = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"report {path} does not exist") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"report {path} is not valid JSON: {exc}") from None
    counts = previous.get("counts") if isinstance(previous, dict) else None
    wanted = counts.get("new") if isinstance(counts, dict) else None
    if not isinstance(wanted, list):
        raise ConfigError(f"report {path} is not an anonymize report: no 'counts.new' list")
    return wanted


def _count_row(count: int) -> dict:
    """A file-level check row: ``count`` mismatches, of which none are allowed."""
    return check_row(count, 0, count == 0)


def _mismatch_row(actual, expected) -> dict:
    """Row counting the entries where ``actual`` and ``expected`` differ."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    if actual.shape != expected.shape:
        return _count_row(max(actual.size, expected.size))
    return _count_row(int(np.count_nonzero(actual != expected)))


def _absent_or_report(path: Path) -> bool:
    """Whether ``path`` holds nothing yet or an earlier report (a JSON object with a ``status``)."""
    try:
        previous = json.loads(path.read_bytes())
    except (OSError, ValueError) as exc:
        return isinstance(exc, FileNotFoundError)
    return isinstance(previous, dict) and "status" in previous


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="groupanon",
        description="Group anonymity for tabular microdata via redistribution of "
        "the wavelet approximation of a concentration signal.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config_flag = argparse.ArgumentParser(add_help=False)
    config_flag.add_argument("--config", required=True, help="JSON run configuration")
    path_flags = argparse.ArgumentParser(add_help=False, parents=[config_flag])
    path_flags.add_argument("--output", type=Path, help="override the configured output path")
    path_flags.add_argument("--report", type=Path, help="override the configured report path")
    anonymize = sub.add_parser("anonymize", parents=[path_flags],
                               help="run the full pipeline and write the anonymized microfile")
    anonymize.add_argument("--seed", type=int, help="override the configured seed")
    sub.add_parser("inspect", parents=[config_flag], help="print the decomposition view without writing anything")
    sub.add_parser("verify", parents=[path_flags], help="re-check an anonymized microfile against its original")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error; 2 here means an invariant failed
        return EXIT_ERROR if exc.code else EXIT_OK

    report_path = None
    try:
        config = load_config(args.config)
        flags = {key: getattr(args, key, None) for key in ("seed", "output", "report")}
        config = replace(config, **{key: value for key, value in flags.items() if value is not None})
        report_path = config.report
        if args.command == "inspect":
            run_inspect(config, sys.stdout)
            return EXIT_OK
        run = run_anonymize if args.command == "anonymize" else run_verify
        status, report = run(config)
        summary = {key: report[key] for key in ("status", "checks", "timings", "sizes")}
        print(json.dumps(summary, indent=2, sort_keys=True))
        for name, row in sorted(report["checks"].items()):
            if not row["passed"]:
                print(f"check failed: {name}: value {row['value']} (tolerance {row['tolerance']})",
                      file=sys.stderr)
        return status
    except (GroupAnonError, OSError) as exc:
        # Only anonymize writes an error report: verify's report path names
        # the report it checks, and inspect writes nothing.  Nor does a run
        # whose paths clash, since its report path may name its input, nor
        # one whose config did not load over a file that is not a report.
        clash = getattr(exc, "field", None) in _PATHS
        if report_path is None and getattr(args, "report", None) is not None and _absent_or_report(args.report):
            report_path = args.report
        if args.command == "anonymize" and report_path is not None and not clash:
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
