"""Run one groupanon command in-process, with spans around its layer calls.

Usage::

    PYTHONPATH=src python3 perfbench/trace_child.py anonymize CONFIG OUT_JSON
    PYTHONPATH=src python3 perfbench/trace_child.py verify    CONFIG OUT_JSON
    PYTHONPATH=src python3 perfbench/trace_child.py load-peak CONFIG OUT_JSON

The first two wrap the layer functions at the names ``groupanon.cli`` and
``groupanon.redistribution`` import them under, run ``groupanon.cli.main``
exactly as the command line would, and write every span (name, start, end,
index of the parent span) to OUT_JSON.  ``load-peak`` loads the configured
input once and writes the peak growth of the process's resident memory
during the load.  (``tracemalloc`` would give the peak of Python
allocations, but it makes a load about 15 times slower: 31 s against 2.1 s
on census-13.)

A wrapped name that neither namespace has any more is listed under
``absent`` instead of failing the run, so the trace survives refactors.
The exit status is the command's own.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time

SPANS = (
    "cli.run_anonymize",
    "cli.run_verify",
    "microdata.load_microfile",
    "microdata.concentration_signal",
    "microdata.new_quantities",
    "microdata.rewrite_microfile",
    "microdata.write_microfile",
    "redistribution.redistribute",
    "redistribution.make_coefficients",
    "redistribution.fixed_border_indices",
    "redistribution.verify_outcome",
    "matrices.build_reconstruction_matrix",
    "matrices.apply_matrix",
    "wavelets.extend_to_even",
    "wavelets.analyze",
    "wavelets.synth_detail",
)
NAMESPACES = ("groupanon.cli", "groupanon.redistribution")
EXIT_NO_PROGRAM = 3
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
SAMPLE_S = 0.005


class Tracer:
    """In-memory span recorder; spans nest by call order on one thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()

        return traced


def install(tracer: Tracer, modules) -> list[str]:
    """Wrap every span target found; return the span names found nowhere."""
    absent = []
    for span in SPANS:
        attr = span.split(".", 1)[1]
        found = False
        for module in modules:
            fn = getattr(module, attr, None)
            if callable(fn) and not isinstance(fn, type):
                setattr(module, attr, tracer.wrap(span, fn))
                found = True
        if not found:
            absent.append(span)
    return absent


def _rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * PAGE_BYTES


def peak_rss_growth(fn, *args) -> int:
    """Largest rise of resident memory above its starting level during ``fn``.

    A second thread samples the resident set every few milliseconds; the
    process's own high-water mark cannot be used, because importing numpy
    can leave it above what a small load reaches.
    """
    base = _rss_bytes()
    peak = base
    done = threading.Event()

    def sample():
        nonlocal peak
        while not done.wait(SAMPLE_S):
            peak = max(peak, _rss_bytes())

    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        loaded = fn(*args)  # held so the final sample still counts it
        final = _rss_bytes()
    finally:
        done.set()
        sampler.join()
    del loaded
    return max(peak, final) - base


def _import_namespaces():
    modules = []
    for name in NAMESPACES:
        try:
            modules.append(importlib.import_module(name))
        except ImportError:
            continue
    return modules


def main(argv) -> int:
    command, config, out = argv
    modules = _import_namespaces()
    cli = next((m for m in modules if m.__name__ == "groupanon.cli"), None)
    if cli is None:
        print("error: groupanon.cli cannot be imported", file=sys.stderr)
        return EXIT_NO_PROGRAM

    result: dict = {"absent": []}
    status = 0
    if command == "load-peak":
        load = getattr(cli, "load_microfile", None)
        if load is None:
            result["absent"].append("microdata.load_microfile")
        else:
            with open(config, encoding="utf-8") as handle:
                source = json.load(handle)["input"]
            result["peak_bytes"] = peak_rss_growth(load, source)
    else:
        tracer = Tracer()
        result["absent"] = install(tracer, modules)
        status = cli.main([command, "--config", config])
        result["spans"] = tracer.spans
    result["exit"] = status
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
