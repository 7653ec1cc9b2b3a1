"""The benchmark's workloads: inputs, CLI command, work items, output checks.

Each workload drives one ``repden`` subcommand.  Output checks read the
files the CLI wrote and recompute what they can with numpy alone; nothing
here imports ``repden``, so a defect in the package cannot hide itself.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from inputs import (
    gumbel_site_groups,
    rng_for,
    spread_sizes,
    truncated_normal_groups,
    write_samples,
)

# Absolute tolerances of the output checks.
XI_TOL = 1e-8
NORM_TOL = 1e-6
ORTHO_TOL = 1e-6
AIC_TOL = 1e-9
MEAN_TOL = 1e-12


@dataclass
class Outcome:
    """What the checks found in one command's outputs."""

    failed: int                  # work items that failed or failed a check
    problems: list[str]          # output-check failures (the run is incorrect)


def sha256_files(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def model_digest(path: Path) -> str:
    """Digest of a model file, leaving out the wall-clock timestamp."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload.get("provenance", {}).pop("timestamp", None)
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def trap_weights(lo: float, hi: float, n: int) -> np.ndarray:
    dt = (hi - lo) / (n - 1)
    w = np.full(n, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def read_model(path: Path) -> dict:
    payload = json.loads(path.read_text(encoding="utf-8"))
    dom = payload["domain"]
    lo, hi, n = float(dom["lo"]), float(dom["hi"]), int(dom["n_grid"])
    return {
        "grid": np.linspace(lo, hi, n),
        "w": trap_weights(lo, hi, n),
        "phi": np.array(payload["eigfns"], dtype=float),            # (K, G)
        "densities": np.array(payload["train_densities"], dtype=float),
    }


def read_csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:] if line]


def check_model(model: dict, n_train: int) -> list[str]:
    """Eigenfunctions orthonormal and training densities normalized."""
    problems = []
    phi, w = model["phi"], model["w"]
    gram = phi @ (w[:, None] * phi.T)
    if np.max(np.abs(gram - np.eye(phi.shape[0]))) > ORTHO_TOL:
        problems.append("eigenfunctions are not orthonormal under the trapezoid rule")
    if model["densities"].shape[0] != n_train:
        problems.append(f"model stores {model['densities'].shape[0]} training densities, "
                        f"expected {n_train}")
    mass = model["densities"] @ w
    if np.any(np.abs(mass - 1.0) > NORM_TOL):
        problems.append("a stored training density does not integrate to 1")
    return problems


class Workload:
    """One benchmarked command.  ``setup`` writes the inputs (and the model
    the command reads); ``argv`` is the timed command; ``check`` validates
    its outputs; ``digest`` hashes the outputs that must be reproducible."""

    name: str
    item: str
    why: str

    def setup(self, work: Path, seed: int, part: int, run_cli) -> dict:
        """Write input set ``part`` of ``seed`` under ``work``; returns its context."""
        raise NotImplementedError

    def argv(self, ctx: dict, out: Path) -> list[str]:
        raise NotImplementedError

    def items(self, ctx: dict) -> int:
        raise NotImplementedError

    def check(self, ctx: dict, out: Path, stdout: str) -> Outcome:
        raise NotImplementedError

    def digest(self, ctx: dict, out: Path) -> str:
        raise NotImplementedError


def _train(run_cli, argv: list[str], model: Path) -> str:
    res = run_cli(["train", *argv, "--out", str(model)])
    if res.returncode != 0:
        raise RuntimeError(f"set-up train exited {res.returncode}: {res.stderr.strip()}")
    return model_digest(model)


class FitSparse(Workload):
    name = "fit_sparse"
    item = "group"
    why = ("fit --method blup --k aic on 150 groups of 5-59 obs in a family trained on "
           "60x200 obs: Newton solver, shrinkage, AIC, density CSV writing")
    N_TRAIN, TRAIN_SIZE = 60, 200
    N_NEW, NEW_SIZES = 150, (5, 59)

    def setup(self, work, seed, part, run_cli):
        rng = rng_for(seed, f"{self.name}/{part}")
        train = truncated_normal_groups(rng, "t", [self.TRAIN_SIZE] * self.N_TRAIN, -3.0, 3.0)
        sizes = spread_sizes(rng, self.N_NEW, *self.NEW_SIZES)
        new = truncated_normal_groups(rng, "g", sizes, -3.0, 3.0)
        write_samples(work / "train.csv", train)
        write_samples(work / "new.csv", new)
        model = work / "model.json"
        digest = _train(run_cli, [str(work / "train.csv"), "--domain=-3,3", "--k-max", "8"],
                        model)
        return {"model": model, "model_digest": digest, "new": work / "new.csv",
                "ids": [gid for gid, _ in new]}

    def argv(self, ctx, out):
        return ["fit", str(ctx["model"]), str(ctx["new"]), "--out", str(out),
                "--method", "blup", "--k", "aic"]

    def items(self, ctx):
        return len(ctx["ids"])

    def check(self, ctx, out, stdout):
        if "parsed_model" not in ctx:
            ctx["parsed_model"] = read_model(ctx["model"])
        model = ctx["parsed_model"]
        payload = json.loads((out / "fits.json").read_text(encoding="utf-8"))
        results = payload["results"]
        ids = [r["id"] for r in results]
        if ids != ctx["ids"]:
            return Outcome(len(ctx["ids"]), ["fits.json does not hold one result per group"])
        failed, problems = 0, []
        for r in results:
            if r["status"] != "ok":
                failed += 1
                continue
            bad = self._check_one(model, out, r)
            if bad:
                failed += 1
                problems.append(f"group {r['id']}: {bad}")
        return Outcome(failed, problems)

    @staticmethod
    def _check_one(model, out, r) -> str | None:
        values = [r["loglik"], r["aic"], *r["theta"], *r["xi"]]
        if not all(math.isfinite(v) for v in values):
            return "non-finite value"
        k = r["k"]
        dens = np.loadtxt(out / f"density_{r['id']}.csv", delimiter=",", skiprows=1)
        t, p = dens[:, 0], dens[:, 1]
        if t.shape != model["grid"].shape or np.max(np.abs(t - model["grid"])) > 1e-12:
            return "density grid differs from the model grid"
        wp = model["w"] * p
        if abs(wp.sum() - 1.0) > NORM_TOL:
            return "density does not integrate to 1"
        xi = model["phi"][:k] @ wp
        if len(r["xi"]) != k or np.max(np.abs(xi - np.array(r["xi"]))) > XI_TOL:
            return "xi differs from the integral of phi against the density"
        if abs(r["aic"] - (2 * k - 2 * r["loglik"])) > AIC_TOL * max(1.0, abs(r["aic"])):
            return "aic differs from 2k - 2 loglik"
        trace = r["aic_trace"]
        best = min(trace, key=lambda kv: (kv[1], kv[0]))
        if best[0] != k:
            return "k is not the argmin of aic_trace"
        return None

    def digest(self, ctx, out):
        return sha256_files(out / "fits.json")


class LooLogscale(Workload):
    name = "loo_logscale"
    item = "leave-one-out refit"
    why = ("evaluate --loo --return-levels --methods map,blup,kde on 6 sites of 5-20 Gumbel "
           "values, log-scale family: hundreds of near-identical refits, pushforward, tiny KDEs")
    N_TRAIN, TRAIN_SIZE = 60, 150
    N_NEW, NEW_SIZES = 6, (5, 20)
    # The MLE is left out: on sites of 5-10 values, about 1 site in 130 (sizes
    # 5-6) to 1 in 800 (sizes 8-10) holds a far upper value that drives every
    # truncation's Newton iterates past the divergence guard, so that site's
    # MLE refits fail as the documented degenerate-input error.  The shrinkage
    # fits never failed on the same sites.
    METHODS = ("map", "blup", "kde")
    LEVELS = ("5", "10", "20", "30")

    def setup(self, work, seed, part, run_cli):
        rng = rng_for(seed, f"{self.name}/{part}")
        train = gumbel_site_groups(rng, "site", [self.TRAIN_SIZE] * self.N_TRAIN)
        sizes = spread_sizes(rng, self.N_NEW, *self.NEW_SIZES)
        # New sites come from the middle of the training population: a site at
        # its edge puts the sample moments on the family's boundary, where the
        # MLE does not exist and leave-one-out refits fail by design.
        new = gumbel_site_groups(rng, "new", sizes, locs=(37.5, 52.5), scales=(6.75, 10.25))
        write_samples(work / "sites.csv", train)
        write_samples(work / "new.csv", new)
        model = work / "model.json"
        digest = _train(run_cli, [str(work / "sites.csv"), "--log-scale", "--k-max", "8"],
                        model)
        return {"model": model, "model_digest": digest, "new": work / "new.csv",
                "sizes": {gid: vals.size for gid, vals in new}}

    def argv(self, ctx, out):
        return ["evaluate", str(ctx["model"]), str(ctx["new"]), "--out", str(out),
                "--loo", "--return-levels", ",".join(self.LEVELS),
                "--methods", ",".join(self.METHODS)]

    def items(self, ctx):
        return sum(ctx["sizes"].values()) * len(self.METHODS)

    def check(self, ctx, out, stdout):
        sizes = ctx["sizes"]
        expected = {(gid, m) for gid in sizes for m in self.METHODS}
        rows = read_csv_rows(out / "loo_per_sample.csv")
        # the stratum column is quoted and holds a comma
        keys = [(r[0], r[-3]) for r in rows]
        if len(keys) != len(expected) or set(keys) != expected:
            return Outcome(self.items(ctx), ["loo_per_sample.csv lacks one row per (site, method)"])
        bad: set[tuple[str, str]] = set()
        problems = []
        for r in rows:
            key = (r[0], r[-3])
            if r[-1] != "1":
                bad.add(key)
            elif not math.isfinite(float(r[-2])):
                bad.add(key)
                problems.append(f"{key}: flagged finite but not finite")
        levels: dict[tuple[str, str], list[tuple[float, float]]] = {}
        for gid, method, t, level in read_csv_rows(out / "return_levels.csv"):
            levels.setdefault((gid, method), []).append((float(t), float(level)))
        for gid in sizes:
            for method in self.METHODS:
                if method == "kde":
                    continue
                pairs = sorted(levels.get((gid, method), []))
                vals = np.array([v for _, v in pairs])
                if len(pairs) != len(self.LEVELS):
                    bad.add((gid, method))
                elif not (np.all(vals > 0) and np.all(np.diff(vals) > 0)):
                    bad.add((gid, method))
                    problems.append(f"{gid}/{method}: return levels not positive and increasing")
        failed = sum(sizes[gid] for gid, _ in bad)
        return Outcome(failed, problems)

    def digest(self, ctx, out):
        return sha256_files(out / "loo_per_sample.csv", out / "return_levels.csv")


class TrainLarge(Workload):
    name = "train_large"
    item = "observation"
    why = ("train --k-max 8 on 20 groups x 20000 obs (4e5 CSV rows): CSV parsing and dense "
           "KDE pre-smoothing dominate, Newton never runs; peak memory is the headline")
    N_TRAIN, TRAIN_SIZE = 20, 20_000

    def setup(self, work, seed, part, run_cli):
        rng = rng_for(seed, f"{self.name}/{part}")
        groups = truncated_normal_groups(rng, "L", [self.TRAIN_SIZE] * self.N_TRAIN, -3.0, 3.0)
        rows = write_samples(work / "large.csv", groups)
        return {"input": work / "large.csv", "rows": rows}

    def argv(self, ctx, out):
        return ["train", str(ctx["input"]), "--out", str(out / "model.json"),
                "--domain=-3,3", "--k-max", "8"]

    def items(self, ctx):
        return ctx["rows"]

    def check(self, ctx, out, stdout):
        summary = json.loads(stdout)
        problems = []
        if summary.get("n_used") != self.N_TRAIN:
            problems.append(f"n_used is {summary.get('n_used')}, expected {self.N_TRAIN}")
        problems += check_model(read_model(out / "model.json"), self.N_TRAIN)
        return Outcome(self.items(ctx) if problems else 0, problems)

    def digest(self, ctx, out):
        return model_digest(out / "model.json")


class SimulateRep(Workload):
    name = "simulate_rep"
    item = "replication"
    why = ("simulate --scenario trunc_normal --reps 1 --n-test 300 --k-max 4: the only path "
           "through simgen, kl_div and the rep writers; one rep runs without a process pool")
    # Several replications run in a pool of 2 worker processes, each with its
    # own OpenBLAS threads, which oversubscribes 2 cores: the same inputs took
    # 4.3 to 7.2 s (4 reps) and 10.3 to 15.3 s (12 reps), too unsteady to
    # bound.  One replication runs in the CLI's own process.
    REPS, N_TEST = 1, 300
    METHODS = ("mle", "map", "blup", "kde")

    def setup(self, work, seed, part, run_cli):
        # The CLI draws its own data from --seed; set-up only checks that it starts.
        res = run_cli(["--version"])
        if res.returncode != 0:
            raise RuntimeError(f"repden --version exited {res.returncode}")
        return {"sim_seed": int(rng_for(seed, f"{self.name}/{part}").integers(0, 2**31 - 1))}

    def argv(self, ctx, out):
        return ["simulate", "--scenario", "trunc_normal", "--seed", str(ctx["sim_seed"]),
                "--reps", str(self.REPS), "--n-test", str(self.N_TEST), "--k-max", "4",
                "--out", str(out)]

    def items(self, ctx):
        return self.REPS

    def check(self, ctx, out, stdout):
        rows = read_csv_rows(out / "mkl_per_rep.csv")
        expected = {(str(r), m) for r in range(self.REPS) for m in self.METHODS}
        keys = [(r[0], r[1]) for r in rows]
        if len(keys) != len(expected) or set(keys) != expected:
            return Outcome(self.REPS, ["mkl_per_rep.csv lacks one row per (rep, method)"])
        bad_reps, problems = set(), []
        per_method: dict[str, list[float]] = {m: [] for m in self.METHODS}
        for rep, method, mkl in rows:
            v = float(mkl)
            per_method[method].append(v)
            if not (math.isfinite(v) and v >= 0):
                bad_reps.add(rep)
                problems.append(f"rep {rep}/{method}: MKL {mkl} is not finite and non-negative")
        summary = {row[0]: float(row[1]) for row in read_csv_rows(out / "mkl_summary.csv")}
        for method in self.METHODS:
            want = float(np.mean(per_method[method]))
            got = summary.get(method, math.nan)
            if not abs(got - want) <= MEAN_TOL * max(1.0, abs(want)):
                problems.append(f"mkl_summary mean for {method} differs from mkl_per_rep")
                bad_reps = {str(r) for r in range(self.REPS)}
        return Outcome(len(bad_reps), problems)

    def digest(self, ctx, out):
        return sha256_files(out / "mkl_per_rep.csv")


WORKLOADS = {w.name: w for w in (FitSparse(), LooLogscale(), TrainLarge(), SimulateRep())}
