"""The four benchmark workloads, driven through lflow's public API.

Every workload is a closed loop: one caller runs its jobs back to back,
each job starting when the previous one returned. A pass is one fixed
list of jobs; `run_pass(snapshot)` runs it and returns one `Job` per
reconstruction or posterior sample, calling `snapshot()` right before
each job and keeping what it returns (the speed probe's state) beside
the job's wall time. Every pass repeats the same jobs on the same
inputs, so outputs must repeat bit for bit. `verify(passes)` returns the
workload's own failed checks and `summary(passes)` its record-line
figures (SSIM, or the posterior moments).

Calls into lflow go through module attributes (`tasks.reconstruct`, not a
name imported from it), so that the tracer's wrappers are the ones called.

Inputs come from the benchmark seed alone: the program receives the
configs, and, through `reconstruct`, the measurements generated from
them. `setup()` builds them: it imports lflow and generates the
workload's inputs, including the first operator build and degrade.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import time
from dataclasses import dataclass, replace

import numpy as np

import lflow
from lflow import cli, tasks
from lflow.config import dump_config
from lflow.tasks import default_task_config, resolve_truth

PRESET_TASKS = ("gaussian-deblur", "motion-deblur", "super-resolution", "box-inpaint")
# zero mode is excluded on purpose; see design.json "excluded".
PRESET_COV_MODES = ("lflow", "eq17", "pigdm")

CG_MATCH_TOL = 1e-9
SAMPLES_PER_PASS = 96
SEED_STRIDE = 1_000_000
# Moment limits. The mean limit is per run over eight coordinates; the
# covariance limit is criterion 07's 15% at 2000 samples, scaled by
# sqrt(2000 / n) like the Monte Carlo error itself.
MOMENT_MEAN_SE_LIMIT = 4.5
MOMENT_COV_FROB_AT_2000 = 0.15
# Largest allowed RMS distance of a sample from its exact flow endpoint.
FLOW_ENDPOINT_TOL = 1e-4


@dataclass
class Job:
    name: str
    ms: float
    probe: tuple
    nfe: int
    status: str
    digest: str
    psnr_db: float
    ssim: float = float("nan")
    output: np.ndarray | None = None
    accepted: int = -1
    rejected: int = -1


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


class PresetsWorkload:
    """Four task presets x three covariance modes at 64^2 via `lflow sample`."""

    name = "presets-64"
    image_side = 64

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.configs = []

    def setup(self) -> None:
        for kind in PRESET_TASKS:
            for mode in PRESET_COV_MODES:
                cfg = default_task_config(kind, seed=self.seed, cov_mode=mode,
                                          out_dir=self.out_dir)
                path = os.path.join(self.out_dir, f"{cfg.run_id}.cfg")
                with open(path, "w", encoding="ascii") as fh:
                    fh.write(dump_config(cfg.to_sections()))
                self.configs.append((cfg, path))
        first = self.configs[0][0]
        first.build_operator()
        tasks.degrade(first, resolve_truth(first))

    def run_pass(self, snapshot) -> list[Job]:
        jobs = []
        for cfg, path in self.configs:
            sink = io.StringIO()
            probe = snapshot()
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink):
                code = cli.main(["sample", "--config", path])
            ms = (time.perf_counter() - start) * 1e3
            base = os.path.join(self.out_dir, cfg.run_id)
            with open(base + "-report.csv", newline="", encoding="ascii") as fh:
                row = next(csv.DictReader(fh))
            recon = b""
            if row["status"] == "ok":
                with open(base + "-recon.pgm", "rb") as fh:
                    recon = fh.read()
            status = row["status"] if code == 0 or row["status"] != "ok" else f"exit:{code}"
            stable = ",".join(v for c, v in row.items() if c != "wall_ms").encode()
            jobs.append(Job(cfg.run_id, ms, probe, int(row["nfe"]), status,
                            _digest(stable, recon), float(row["psnr_db"]),
                            float(row["ssim"])))
        return jobs

    def verify(self, passes) -> list[str]:
        return []

    def summary(self, passes) -> dict:
        return _image_summary(passes)

    def working_set(self) -> dict:
        return _image_working_set(self.image_side)


class ReconstructWorkload:
    """Reconstructions through `tasks.reconstruct` on pre-built measurements."""

    def __init__(self, name: str, configs, seed: int, cg_reference: bool = False):
        self.name = name
        self.seed = seed
        self.configs = [replace(c, seed=seed) for c in configs]
        self.cg_reference = cg_reference
        self.inputs = []

    def setup(self) -> None:
        for cfg in self.configs:
            cfg.build_operator()
            x_true = resolve_truth(cfg)
            self.inputs.append((cfg, x_true, tasks.degrade(cfg, x_true)))

    def run_pass(self, snapshot) -> list[Job]:
        jobs = []
        for cfg, x_true, y in self.inputs:
            probe = snapshot()
            start = time.perf_counter()
            x_hat, rep = tasks.reconstruct(cfg, y, x_true=x_true)
            ms = (time.perf_counter() - start) * 1e3
            out = b"" if x_hat is None else x_hat.tobytes()
            jobs.append(Job(rep.run_id, ms, probe, rep.nfe, rep.status,
                            _digest(str(rep.nfe).encode(), out), rep.psnr_db,
                            rep.ssim, x_hat))
        return jobs

    def verify(self, passes) -> list[str]:
        """cg runs must match the closed-form reconstruction of the same seed."""
        if not self.cg_reference:
            return []
        failures = []
        for (cfg, x_true, y), job in zip(self.inputs, passes[0]):
            closed = replace(cfg, guidance_solver="closed-form")
            ref, _ = tasks.reconstruct(closed, y, x_true=x_true)
            if job.output is None or ref is None:
                failures.append(f"{job.name}: no reconstruction to compare")
                continue
            worst = float(np.max(np.abs(job.output - ref)))
            if not worst <= CG_MATCH_TOL:
                failures.append(f"{job.name}: cg vs closed form differs by "
                                f"{worst:.3e} (tol {CG_MATCH_TOL:.0e})")
        return failures

    def summary(self, passes) -> dict:
        return _image_summary(passes)

    def working_set(self) -> dict:
        return _image_working_set(self.configs[0].size)


class PosteriorMomentsWorkload:
    """Criterion 07's dense 8-dim problem sampled over many seeds.

    Each sample is also compared with its exact endpoint: with K = 1, the
    lflow covariance, a dense operator and the analytic field, the guided
    velocity is the exact conditional flow of N(mu, Sigma) along the
    straight path, so in Sigma's eigenbasis each coordinate of
    z - (1 - t) mu scales by sqrt(c(t) / c(t_s)), c(t) = (1-t)^2 lam + t^2.
    The distance to that endpoint is the sampler's integration error.
    """

    name = "posterior-moments"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        rng = lflow.numerics.make_rng(2026)
        self.op = lflow.DenseOperator(rng.normal(size=(5, 8)))
        self.model = lflow.LinearGaussianModel(self.op, prior_std=1.0, sigma_y=0.1)
        self.y = rng.normal(size=5)
        self.field = lflow.AnalyticGaussianField(sigma_latr=1.0)
        self.dec = lflow.IdentityDecoder((8,))
        schedule = lflow.PathSchedule()
        self.base = lflow.SamplerConfig(
            t_s=schedule.t_max,
            solver=lflow.AdaptiveHeunSolver(atol=1e-6, rtol=1e-6),
            guidance=lflow.GuidanceSpec(cov_mode=lflow.CovarianceMode(kind="lflow"),
                                        sigma_y=0.1, k_steps=1),
            init_mode="pure-noise",
        )
        mu, cov = lflow.exact_posterior(self.model, self.y)
        t_s, t_min = schedule.t_max, schedule.t_min
        lam, q = np.linalg.eigh(cov)

        def c(t):
            return (1.0 - t) ** 2 * lam + t * t

        flow = (q * np.sqrt(c(t_min) / c(t_s))) @ q.T
        denoise = 1.0 - t_min * self.field.scalar(t_min)
        self.endpoint = lambda z1: denoise * ((1.0 - t_min) * mu
                                              + flow @ (z1 - (1.0 - t_s) * mu))

    def run_pass(self, snapshot) -> list[Job]:
        first_seed = self.seed * SEED_STRIDE
        jobs = []

        def runner(i: int):
            seed = first_seed + i
            probe = snapshot()
            start = time.perf_counter()
            try:
                z, traj = lflow.sample_posterior(replace(self.base, seed=seed),
                                                 self.field, self.dec, self.op, self.y)
            except lflow.LflowError as exc:
                ms = (time.perf_counter() - start) * 1e3
                jobs.append(Job(f"sample-{seed}", ms, probe, 0,
                                f"failed:{type(exc).__name__}", "", float("nan")))
                return np.full(8, np.nan)
            ms = (time.perf_counter() - start) * 1e3
            # pure-noise init: the first draw from the run seed's generator.
            z1 = np.random.Generator(np.random.PCG64(seed)).normal(size=8)
            err = float(np.mean((z - self.endpoint(z1)) ** 2))
            jobs.append(Job(f"sample-{seed}", ms, probe, traj.nfe, "ok",
                            _digest(z.tobytes()),
                            10.0 * np.log10(1.0 / err), output=z,
                            accepted=traj.accepted, rejected=traj.rejected))
            return z

        self.exact = lflow.exact_posterior(self.model, self.y)
        lflow.mc_moments(runner, SAMPLES_PER_PASS)
        return jobs

    def summary(self, passes) -> dict:
        """Moments of the pass's samples against exact_posterior."""
        x = np.stack([j.output for j in passes[0] if j.status == "ok"])
        n = x.shape[0]
        mu, cov_exact = self.exact
        cov = np.cov(x, rowvar=False, ddof=1)
        se = np.sqrt(np.diag(cov) / n)
        return {
            "samples": n,
            "moment_mean_se_max": float(np.max(np.abs(x.mean(axis=0) - mu) / se)),
            "moment_cov_frob": float(np.linalg.norm(cov - cov_exact)
                                     / np.linalg.norm(cov_exact)),
            "moment_cov_frob_limit": MOMENT_COV_FROB_AT_2000 * np.sqrt(2000.0 / n),
            "moment_mean_se_limit": MOMENT_MEAN_SE_LIMIT,
            "flow_endpoint_rms_max": float(max(
                np.sqrt(10.0 ** (-j.psnr_db / 10.0)) for j in passes[0]
                if j.status == "ok")),
        }

    def verify(self, passes) -> list[str]:
        m = self.summary(passes)
        failures = []
        if not m["moment_mean_se_max"] <= m["moment_mean_se_limit"]:
            failures.append(f"posterior mean off by {m['moment_mean_se_max']:.2f} SE "
                            f"(limit {MOMENT_MEAN_SE_LIMIT}) over {m['samples']} samples")
        if not m["moment_cov_frob"] <= m["moment_cov_frob_limit"]:
            failures.append(f"posterior covariance off by {m['moment_cov_frob']:.3f} "
                            f"(limit {m['moment_cov_frob_limit']:.3f}) "
                            f"over {m['samples']} samples")
        if not m["flow_endpoint_rms_max"] <= FLOW_ENDPOINT_TOL:
            failures.append(f"sample {m['flow_endpoint_rms_max']:.3e} from its exact "
                            f"flow endpoint (tol {FLOW_ENDPOINT_TOL:.0e})")
        return failures

    def working_set(self) -> dict:
        return {"state_bytes": 8 * 8, "operator_bytes": 8 * 5 * 8}


def _image_summary(passes) -> dict:
    ok = [j.ssim for j in passes[0] if j.status == "ok"]
    return {"ssim_mean": sum(ok) / len(ok) if ok else None}


def _image_working_set(side: int) -> dict:
    return {"image_side": side, "field_bytes": 8 * side * side,
            "spectrum_bytes": 16 * side * side}


WORKLOADS = ("presets-64", "deblur-256", "posterior-moments", "cg-deblur-64")


def make(name: str, seed: int, out_dir: str):
    """The workload `name` with inputs generated from `seed`."""
    if name == "presets-64":
        return PresetsWorkload(seed, out_dir)
    if name == "deblur-256":
        return ReconstructWorkload(name, [
            default_task_config("gaussian-deblur", size=256),
            default_task_config("super-resolution", size=256)], seed)
    if name == "posterior-moments":
        return PosteriorMomentsWorkload(seed)
    if name == "cg-deblur-64":
        return ReconstructWorkload(name, [
            default_task_config("gaussian-deblur", guidance_solver="cg")], seed,
            cg_reference=True)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
