"""Run one ``repden`` CLI command in-process with its layers wrapped in spans.

    python3 bench/tracer.py SPANS_JSON [repden arguments ...]

Every function named in ``LAYERS`` is replaced, in each ``repden`` module
that holds it (names imported with ``from ... import`` and the values of
dispatch dicts included), by a wrapper that records one span per call:
name, start, end, parent span, thread, whether it raised, and a counted
size where the layer has one.  Span stacks are thread-local; work handed to
a thread pool takes the submitting thread's open span as its parent.
Spans stay in memory and are written to SPANS_JSON when the command
returns.  The exit code is the command's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

# module -> public functions traced as layers
LAYERS = {
    "cli": ("cmd_train", "cmd_fit", "cmd_evaluate", "cmd_simulate"),
    "modelio": ("read_samples_csv", "write_samples_csv", "write_density_csv",
                "load_model", "save_model"),
    "presmooth": ("weighted_kde",),
    "logmap": ("clog_transform",),
    "fpca": ("fit_fpca",),
    "expfam": ("train_family", "newton_minimize", "natural_from_moment",
               "suffstat_average", "density"),
    "estimators": ("select_k_aic", "fit_mle", "fit_map", "fit_blup", "shrinkage_stats"),
    "logscale": ("fit_original_scale", "clamp_log_obs", "density_original_scale"),
    "metrics": ("loo_cross_entropy", "return_level", "kl_div"),
    "simgen": ("generate",),
    "simulate": ("run_replication",),
}


def _file_bytes(param: str):
    return lambda bound, result: os.path.getsize(bound.arguments[param])


# span name -> (bound call arguments, result) -> counted size
COUNTERS = {
    "presmooth.weighted_kde": lambda b, r: int(b.arguments["sample"].obs.size),
    "modelio.read_samples_csv": lambda b, r: sum(s.size for s in r),
    "modelio.write_density_csv": _file_bytes("path"),
    "modelio.save_model": _file_bytes("path"),
    "metrics.loo_cross_entropy": lambda b, r: int(len(b.arguments["obs"])),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "inherited", None)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.current()
            sid = next(self._ids)
            stack = self._stack()
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter()
                stack.pop()
                self.spans.append((sid, name, parent, threading.get_ident(), t0, t1, 1, None))
                raise
            t1 = perf_counter()
            stack.pop()
            count = counter(sig.bind(*args, **kwargs), result) if counter else None
            self.spans.append((sid, name, parent, threading.get_ident(), t0, t1, 0, count))
            return result

        return traced

    def propagate(self, fn):
        """Run ``fn`` in a pool thread as a child of the submitter's open span."""
        parent = self.current()

        @functools.wraps(fn)
        def run(*args, **kwargs):
            self._local.inherited = parent
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.inherited = None

        return run

    def install(self) -> None:
        originals: dict[int, object] = {}
        for mod_name, names in LAYERS.items():
            mod = importlib.import_module(f"repden.{mod_name}")
            for fname in names:
                fn = getattr(mod, fname, None)
                if not callable(fn):
                    self.missing.append(f"{mod_name}.{fname}")
                    continue
                originals[id(fn)] = self.wrap(f"{mod_name}.{fname}", fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "repden" and not mod_name.startswith("repden."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in originals:
                    setattr(mod, attr, originals[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in originals:
                            value[key] = originals[id(item)]

        submit = ThreadPoolExecutor.submit
        tracer = self

        def traced_submit(pool, fn, /, *args, **kwargs):
            return submit(pool, tracer.propagate(fn), *args, **kwargs)

        ThreadPoolExecutor.submit = traced_submit

    def dump(self, path: str) -> None:
        fields = ("id", "name", "parent", "thread", "start", "end", "failed", "count")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans, "missing": self.missing}, fh)


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from repden.cli import main as cli_main

    try:
        code = cli_main(cli_argv)
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
