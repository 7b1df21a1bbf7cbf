"""Command-line entry point.

Subcommands:

* ``sample``: one reconstruction (degrade the configured image, run the
  guided sampler, write images and a report).
* ``degrade``: forward model only; writes the measurement and the truth.
* ``bench``: one reconstruction per covariance mode on identical input,
  written as a single report table.
* ``oracle-check``: the exact linear-Gaussian cross-validation battery;
  exit code 1 when any check fails.
* ``lemma-b1``: spectral-folding vs spatial-subsampling equivalence over
  a size/factor grid; exit code 1 when any error exceeds 1e-10.

Flags shared by the run-producing subcommands: ``--config`` (strict
key = value file, see the README grammar), ``--task``, ``--seed``,
``--cov-mode``, ``--solver``, ``--out``, ``--report``, ``--trajectory``.
A flag sets the config key `FLAG_KEYS` names over the file (or the
``--task`` preset), and the result is built and checked once. Exit code
is 0 only when every requested run succeeded.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import parse_config_file
from .errors import ConfigError, LflowError
from .fields import COV_MODE_KINDS
from .imageio import write_image
from .operators import block_downsample_check
from .oracle import run_oracle_checks
from .report import write_reports_csv, write_reports_json
from .tasks import (
    ODE_SOLVER_NAMES,
    REPORT_FORMATS,
    TASK_KINDS,
    TaskConfig,
    bench_cov_modes,
    degrade,
    reconstruct,
    resolve_truth,
    task_config_from_sections,
)

LEMMA_B1_SIZES = (8, 16, 64)
LEMMA_B1_FACTORS = (2, 4)
LEMMA_B1_TOL = 1e-10

# Run flag -> the (section, key) of the config it overrides.
FLAG_KEYS = {"seed": ("sampler", "seed"), "cov_mode": ("guidance", "cov_mode"),
             "solver": ("sampler", "solver"), "out": ("run", "out_dir"),
             "report": ("run", "report_format")}


def _add_run_flags(parser: argparse.ArgumentParser, trajectory: bool) -> None:
    parser.add_argument("--task", choices=TASK_KINDS, default=None,
                        help="task preset (when no --config is given)")
    parser.add_argument("--config", default=None, metavar="PATH",
                        help="run configuration file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--cov-mode", choices=COV_MODE_KINDS, default=None)
    parser.add_argument("--solver", choices=ODE_SOLVER_NAMES, default=None)
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="output directory (default from config)")
    parser.add_argument("--report", choices=REPORT_FORMATS, default=None)
    if trajectory:
        parser.add_argument("--trajectory", default=None, metavar="PATH",
                            help="write per-step solver trace as CSV")


def _resolve_config(args) -> TaskConfig:
    """The file's sections (or the --task preset's) with each set flag as the
    key it overrides, built and checked once."""
    if args.config is None:
        sections = {"task": {"kind": args.task or "gaussian-deblur"}}
    else:
        sections = parse_config_file(args.config)
    kind = sections.get("task", {}).get("kind", "gaussian-deblur")
    if args.task is not None and args.task != kind:
        raise LflowError(f"--task {args.task} conflicts with config kind {kind}")
    for flag, (section, key) in FLAG_KEYS.items():
        value = getattr(args, flag)
        if value is not None:
            sections.setdefault(section, {})[key] = value
    return task_config_from_sections(sections)


def _out_dir(cfg: TaskConfig) -> str:
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"[run] out_dir: cannot create {cfg.out_dir!r}: "
                          f"{exc.strerror}") from exc
    return cfg.out_dir


def _degrade_and_write(cfg: TaskConfig):
    """Degrade the config's truth and write the measurement (a mask's
    zero-filled back) and the truth; returns (path base, x_true, y)."""
    base = os.path.join(_out_dir(cfg), cfg.run_id)
    x_true = resolve_truth(cfg)
    y = degrade(cfg, x_true)
    op, mask = cfg.build_operator()
    write_image(base + "-input.pgm", y if mask is None else op.adjoint(y))
    write_image(base + "-truth.pgm", x_true)
    return base, x_true, y


def _write_reports(cfg: TaskConfig, reports, path_base: str) -> str:
    path = f"{path_base}.{cfg.report_format}"
    {"csv": write_reports_csv, "json": write_reports_json}[cfg.report_format](reports, path)
    return path


def _cmd_sample(args) -> int:
    cfg = _resolve_config(args)
    if args.trajectory is not None:
        # Found unwritable before the run, not when the finished run writes it.
        try:
            open(args.trajectory, "a", encoding="ascii").close()
        except OSError as exc:
            raise ConfigError(f"--trajectory: cannot write {args.trajectory!r}: "
                              f"{exc.strerror}") from exc
    base, x_true, y = _degrade_and_write(cfg)
    x_hat, report = reconstruct(cfg, y, x_true=x_true,
                                trajectory_path=args.trajectory)
    if x_hat is not None:
        write_image(base + "-recon.pgm", x_hat)
    report_path = _write_reports(cfg, [report], base + "-report")
    print(f"{report.run_id}: status={report.status} nfe={report.nfe} "
          f"psnr={report.psnr_db:.2f} dB ssim={report.ssim:.4f} "
          f"-> {report_path}")
    return 0 if report.ok else 1


def _cmd_degrade(args) -> int:
    cfg = _resolve_config(args)
    _degrade_and_write(cfg)
    print(f"{cfg.run_id}: wrote measurement and truth under {cfg.out_dir}")
    return 0


def _cmd_bench(args) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(cfg)
    modes = [args.cov_mode] if args.cov_mode else list(COV_MODE_KINDS)
    reports = bench_cov_modes(cfg, modes)
    path = _write_reports(cfg, reports,
                          os.path.join(out, f"bench-{cfg.kind}-{cfg.seed}"))
    for rep in reports:
        print(f"{rep.cov_mode:>6}: status={rep.status} nfe={rep.nfe} "
              f"psnr={rep.psnr_db:.2f} dB ssim={rep.ssim:.4f}")
    print(f"report -> {path}")
    return 0 if all(r.ok for r in reports) else 1


def _cmd_oracle_check(args) -> int:
    checks = run_oracle_checks(seed=args.seed if args.seed is not None else 0)
    failed = 0
    for check in checks:
        tag = "ok " if check.passed else "FAIL"
        print(f"[{tag}] {check.name}: {check.detail}")
        failed += 0 if check.passed else 1
    print(f"{len(checks) - failed}/{len(checks)} oracle checks passed")
    return 0 if failed == 0 else 1


def _cmd_lemma_b1(_args) -> int:
    worst_overall = 0.0
    failed = 0
    for n in LEMMA_B1_SIZES:
        for s in LEMMA_B1_FACTORS:
            err = block_downsample_check(n, s)
            passed = err < LEMMA_B1_TOL
            failed += 0 if passed else 1
            worst_overall = max(worst_overall, err)
            tag = "ok " if passed else "FAIL"
            print(f"[{tag}] n={n:<3} s={s}: max error {err:.3e}")
    print(f"worst {worst_overall:.3e} (tolerance {LEMMA_B1_TOL:.0e})")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lflow",
        description="Posterior-guided flow sampling for linear inverse problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="run one reconstruction")
    _add_run_flags(p, trajectory=True)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("degrade", help="apply the forward model only")
    _add_run_flags(p, trajectory=False)
    p.set_defaults(fn=_cmd_degrade)

    p = sub.add_parser("bench", help="sweep covariance modes on one input")
    _add_run_flags(p, trajectory=False)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("oracle-check", help="exact-model cross-validation suite")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_oracle_check)

    p = sub.add_parser("lemma-b1", help="downsampling equivalence check")
    p.set_defaults(fn=_cmd_lemma_b1)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except LflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
