"""Seeded end-to-end benchmark of the ``repden`` CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout (it needs ``src/repden``).  A run generates its
inputs from ``--seed`` with numpy alone, then starts ``python3 -m
repden.cli`` as a fresh process with the CLI's default threads and BLAS
settings, one process at a time (a closed loop with one client), until
``--seconds`` would be exceeded.  Outputs are checked and hashed after
every command.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(each input set's median over its commands, pooled over the sets); with
``--trace 1`` it carries the per-layer metrics of one traced command (see
``layers.py``).  The exit code is 1 when an output, determinism or trace
check fails, 2 when the checkout holds no source to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from layers import LAYER_METRICS, aggregate, expectation_problems, layer_values
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
DIGESTS = WORK / "digests.json"

# Each run sets up this many input sets from its seed (set-up time is their
# median) and its commands take them in turn, so one run's medians average
# over more than one draw of the data.
INPUT_SETS = 4

# A command still running after this long is killed and counts as failed,
# so a hung command cannot keep a run past its time limit.
COMMAND_TIMEOUT_S = 120

# Settings that would override the CLI's default worker and BLAS thread
# counts; they are removed so every run measures the defaults users get.
THREAD_VARS = (
    "REPDEN_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


@dataclass
class Result:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


class Runner:
    """Starts commands one at a time and accounts each one's process tree.

    ``os.wait4`` on the child returns the user and system CPU of the child
    plus every descendant it waited for (worker processes, if any), and the
    peak RSS over that tree, for this command alone.  The benchmark's own
    ``RUSAGE_CHILDREN`` would instead keep the maximum over all earlier
    commands.
    """

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        self.env["PYTHONPATH"] = str(SRC)

    def run(self, cmd: list[str]) -> Result:
        out_path, err_path = self.scratch / "stdout.txt", self.scratch / "stderr.txt"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Result(
            returncode=proc.returncode,
            stdout=out_path.read_text(encoding="utf-8"),
            stderr=err_path.read_text(encoding="utf-8"),
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
        )

    def cli(self, argv: list[str]) -> Result:
        return self.run([sys.executable, "-m", "repden.cli", *argv])

    def traced_cli(self, spans: Path, argv: list[str]) -> Result:
        return self.run([sys.executable, str(BENCH / "tracer.py"), str(spans), *argv])


def source_fingerprint() -> str:
    """Hash of the package and benchmark source, so stored digests belong to
    one commit."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class DigestBook:
    """Output digests of the first run of each (workload, seed, source)."""

    def __init__(self, workload: str, seed: int):
        self.prefix = f"{workload}:{seed}:{source_fingerprint()[:16]}"
        self.book = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}

    def matches(self, key: str, digest: str) -> bool:
        """Record ``digest`` on first sight; later calls compare against it."""
        full = f"{self.prefix}:{key}"
        if full not in self.book:
            self.book[full] = digest
            tmp = DIGESTS.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.book, indent=1, sort_keys=True))
            os.replace(tmp, DIGESTS)
        return self.book[full] == digest


class Bench:
    """One benchmark run of one workload: set-up, commands, checks, tallies."""

    def __init__(self, workload, seed: int, scratch: Path):
        self.workload, self.seed, self.scratch = workload, seed, scratch
        self.runner = Runner(scratch)
        self.book = DigestBook(workload.name, seed)
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def setup(self, parts: int) -> tuple[list[dict], float]:
        """Set up ``parts`` input sets; returns their contexts and the median time."""
        times, ctxs = [], []
        for part in range(parts):
            work = self.scratch / f"setup{part}"
            work.mkdir()
            t0 = time.perf_counter()
            ctx = self.workload.setup(work, self.seed, part, self.runner.cli)
            times.append(time.perf_counter() - t0)
            if "model_digest" in ctx and not self.book.matches(f"{part}:model",
                                                                ctx["model_digest"]):
                self.problems.append(f"input set {part}: set-up train wrote a different "
                                     "model than the first run")
            ctxs.append(ctx)
        return ctxs, statistics.median(times)

    def run_timed(self, ctxs: list[dict], budget_s: float, run_cli) -> list[Result]:
        """Run the command on each input set in turn until ``budget_s`` would be
        exceeded (at least once).  Sets come round again, so a long enough run
        repeats commands on identical inputs."""
        results = []
        t_start = time.perf_counter()
        while True:
            part = len(results) % len(ctxs)
            out = self.scratch / f"out{len(results)}"
            out.mkdir()
            res = run_cli(self.workload.argv(ctxs[part], out))
            results.append(res)
            self.score(ctxs[part], part, out, res)
            shutil.rmtree(out, ignore_errors=True)
            elapsed = time.perf_counter() - t_start
            if elapsed + statistics.median(r.wall_s for r in results) > budget_s:
                return results

    def score(self, ctx: dict, part: int, out: Path, res: Result) -> None:
        """Check one command's outputs and digest; add its items to the tallies."""
        items = self.workload.items(ctx)
        self.attempted += items
        if res.returncode != 0:
            self.failed += items
            self.problems.append(f"command exited {res.returncode}: "
                                 f"{res.stderr.strip()[-500:]}")
            return
        try:
            outcome = self.workload.check(ctx, out, res.stdout)
            digest = self.workload.digest(ctx, out)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            self.failed += items
            self.problems.append(f"outputs unreadable: {type(exc).__name__}: {exc}")
            return
        self.problems.extend(outcome.problems)
        if not self.book.matches(f"{part}:output", digest):
            self.failed += items
            self.problems.append(f"input set {part}: output digest differs from the first "
                                 "run of this source and seed")
        else:
            self.failed += outcome.failed

    def end_to_end(self, seconds: float) -> dict:
        ctxs, setup_s = self.setup(INPUT_SETS)
        results = self.run_timed(ctxs, seconds, self.runner.cli)
        items = self.workload.items(ctxs[0])
        print(f"{self.workload.name}: {len(results)} commands of {items} "
              f"{self.workload.item}s, walls {', '.join(f'{r.wall_s:.3f}' for r in results)} s")
        # Input sets differ in cost (up to 30% on loo_logscale), so a median over
        # commands would depend on which set lands in the middle.  Each set's
        # median over its repeats is taken instead, and the sets are pooled.
        parts = range(min(len(ctxs), len(results)))
        walls = [statistics.median(r.wall_s for r in results[p::len(ctxs)]) for p in parts]
        cpus = [statistics.median(r.cpu_s for r in results[p::len(ctxs)]) for p in parts]
        return {
            "setup_s": metric(setup_s, "s"),
            "items_per_s": metric(sum(self.workload.items(ctxs[p]) for p in parts) / sum(walls),
                                  "items/s"),
            "cpu_s": metric(statistics.fmean(cpus), "s"),
            "peak_rss_mb": metric(statistics.median(r.peak_rss_mb for r in results), "MB"),
        }

    def per_layer(self, seconds: float) -> dict:
        """Untraced commands for half the run give the reference wall; then one
        traced command gives the layer metrics."""
        ctxs, _ = self.setup(1)
        untraced = self.run_timed(ctxs, seconds / 2, self.runner.cli)
        spans = self.scratch / "spans.json"
        traced = self.run_timed(ctxs, 0, lambda argv: self.runner.traced_cli(spans, argv))[0]
        stats, missing = aggregate(spans)
        self.problems.extend(expectation_problems(self.workload.name, stats, missing))
        overhead = traced.wall_s - statistics.median(r.wall_s for r in untraced)
        values = layer_values(stats, missing, overhead)
        return {name: metric(values[name], unit) for name, unit, _ in LAYER_METRICS}


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repden" / "cli.py").is_file():
        print(f"no repden source under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    scratch = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    bench = Bench(workload, args.seed, scratch)
    try:
        # compiles the package's bytecode once per checkout, outside any timing
        warm = bench.runner.cli(["--version"])
        if warm.returncode != 0:
            print(f"repden does not start: {warm.stderr.strip()}", file=sys.stderr)
            return 2
        metrics = bench.per_layer(args.seconds) if args.trace else bench.end_to_end(args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for p in bench.problems:
        print(f"check failed: {p}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']} {m['unit']}")
    print(f"{workload.name} fail_share = {bench.failed / bench.attempted} ratio "
          f"({bench.failed} of {bench.attempted} {workload.item}s)")
    correct = not bench.problems
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
