"""In-process tests of the command-line interface."""

import csv
import json
from collections import Counter

import numpy as np
import pytest

import lflow.tasks
from lflow.cli import main
from lflow.fields import AnalyticGaussianField
from lflow.sampler import TRAJECTORY_COLUMNS, SamplerConfig

FAST_CONFIG = """
[task]
kind = gaussian-deblur
size = 16
kernel_size = 1
sigma_y = 0.05

[guidance]
literal_update = true

[sampler]
atol = 0.001
rtol = 0.001
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CONFIG)
    return str(path)


def read_report_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_oracle_check_command(capsys):
    assert main(["oracle-check"]) == 0
    out = capsys.readouterr().out
    assert "8/8 oracle checks passed" in out
    assert "FAIL" not in out


def test_oracle_check_accepts_a_seed(capsys):
    assert main(["oracle-check", "--seed", "3"]) == 0


def test_lemma_b1_command(capsys):
    assert main(["lemma-b1"]) == 0
    out = capsys.readouterr().out
    assert out.count("[ok ]") == 6
    assert "worst" in out


def test_sample_writes_images_and_report(tmp_path, config_path, capsys):
    code = main(["sample", "--config", config_path, "--out", str(tmp_path)])
    assert code == 0
    base = tmp_path / "gaussian-deblur-lflow-0"
    for suffix in ("-input.pgm", "-truth.pgm", "-recon.pgm", "-report.csv"):
        assert (tmp_path / (base.name + suffix)).exists(), suffix
    rows = read_report_rows(tmp_path / (base.name + "-report.csv"))
    assert len(rows) == 1
    assert rows[0]["status"] == "ok"
    assert rows[0]["task"] == "gaussian-deblur"
    assert "status=ok" in capsys.readouterr().out


def test_sample_flag_overrides(tmp_path, config_path):
    code = main([
        "sample", "--config", config_path, "--out", str(tmp_path),
        "--seed", "7", "--cov-mode", "pigdm", "--solver", "euler",
        "--report", "json",
    ])
    assert code == 0
    report_path = tmp_path / "gaussian-deblur-pigdm-7-report.json"
    data = json.loads(report_path.read_text())
    assert data[0]["seed"] == 7
    assert data[0]["cov_mode"] == "pigdm"
    assert data[0]["solver"] == "euler"


def test_sample_builds_one_operator(tmp_path, config_path, monkeypatch):
    # degrade, reconstruct and the written measurement share the config's
    # operator. The SSIM window is built in lflow.metrics and not counted.
    built = []
    for name in ("CircConvOperator", "ConvDownsampleOperator", "MaskOperator"):
        cls = getattr(lflow.tasks, name)

        def counting(*args, _cls=cls):
            built.append(_cls.__name__)
            return _cls(*args)

        monkeypatch.setattr(lflow.tasks, name, counting)
    assert main(["sample", "--config", config_path, "--out", str(tmp_path)]) == 0
    assert built == ["CircConvOperator"]


BOX_CONFIG = """
[task]
kind = box-inpaint
size = 16
box_size = 8
sigma_y = 0.05
"""


def count_constructions(monkeypatch):
    """Count the fields and sampler configs constructed (by their
    __post_init__) and the mask operators the config module builds."""
    built = Counter()
    for cls in (AnalyticGaussianField, SamplerConfig):
        def counting_post_init(self, _real=cls.__post_init__, _name=cls.__name__):
            built[_name] += 1
            _real(self)

        monkeypatch.setattr(cls, "__post_init__", counting_post_init)
    real_mask = lflow.tasks.MaskOperator

    def counting_mask(*args):
        built["MaskOperator"] += 1
        return real_mask(*args)

    monkeypatch.setattr(lflow.tasks, "MaskOperator", counting_mask)
    return built


def test_flags_over_a_config_build_one_config(tmp_path, monkeypatch):
    cfg = tmp_path / "box.cfg"
    cfg.write_text(BOX_CONFIG)
    built = count_constructions(monkeypatch)
    assert main(["sample", "--config", str(cfg), "--out", str(tmp_path), "--seed", "3"]) == 0
    assert built == {"AnalyticGaussianField": 1, "SamplerConfig": 1, "MaskOperator": 1}


def test_bench_builds_one_config_per_mode(tmp_path, monkeypatch):
    # The sweep degrades through the first mode's config, so its operator
    # serves both the measurement and that mode's run.
    cfg = tmp_path / "box.cfg"
    cfg.write_text(BOX_CONFIG)
    built = count_constructions(monkeypatch)
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert built == {"AnalyticGaussianField": 4, "SamplerConfig": 4, "MaskOperator": 4}


def test_bench_of_one_mode_runs_the_config_it_built(tmp_path, monkeypatch):
    cfg = tmp_path / "box.cfg"
    cfg.write_text(BOX_CONFIG)
    built = count_constructions(monkeypatch)
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path),
                 "--cov-mode", "pigdm"]) == 0
    assert built == {"AnalyticGaussianField": 1, "SamplerConfig": 1, "MaskOperator": 1}


def count_field_evaluations(monkeypatch):
    calls = []
    real = AnalyticGaussianField.velocity
    monkeypatch.setattr(AnalyticGaussianField, "velocity",
                        lambda self, z, t: calls.append(t) or real(self, z, t))
    return calls


@pytest.mark.parametrize("command", ["sample", "degrade", "bench"])
def test_an_out_dir_that_cannot_be_made_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                         command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    calls = count_field_evaluations(monkeypatch)
    code = main([command, "--task", "box-inpaint", "--out", str(blocker / "sub")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [run] out_dir: cannot create")
    assert calls == []


@pytest.mark.parametrize("where", ["under a file", "a directory"])
def test_a_trajectory_that_cannot_be_written_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                              config_path, where):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = tmp_path / "out"
    calls = count_field_evaluations(monkeypatch)
    trajectory = blocker / "t.csv" if where == "under a file" else tmp_path
    code = main(["sample", "--config", config_path, "--out", str(out),
                 "--trajectory", str(trajectory)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --trajectory")
    assert calls == []
    assert not out.exists()


def test_a_flag_replaces_a_file_value_before_it_is_checked(tmp_path, capsys):
    # sigma_y = 0 with cov_mode = zero is singular; --cov-mode lflow replaces
    # the file's mode, and only the configuration that runs is checked.
    cfg = tmp_path / "singular.cfg"
    cfg.write_text(FAST_CONFIG.replace("sigma_y = 0.05", "sigma_y = 0")
                   .replace("literal_update = true", "literal_update = true\ncov_mode = zero"))
    assert main(["sample", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "[guidance] cov_mode" in capsys.readouterr().err
    code = main(["sample", "--config", str(cfg), "--cov-mode", "lflow", "--out", str(tmp_path)])
    assert code == 0
    rows = read_report_rows(tmp_path / "gaussian-deblur-lflow-0-report.csv")
    assert rows[0]["cov_mode"] == "lflow"
    assert rows[0]["status"] == "ok"


def test_sample_records_a_trajectory(tmp_path, config_path):
    trace = tmp_path / "trace.csv"
    code = main([
        "sample", "--config", config_path, "--out", str(tmp_path),
        "--trajectory", str(trace),
    ])
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "t,nfe_cumulative,state_norm,residual_norm"
    assert len(lines) > 2


def test_sample_without_config_uses_the_preset(tmp_path):
    code = main([
        "sample", "--task", "box-inpaint", "--out", str(tmp_path), "--seed", "1",
    ])
    assert code == 0
    assert (tmp_path / "box-inpaint-lflow-1-recon.pgm").exists()


def test_degrade_writes_only_the_forward_model(tmp_path, config_path):
    code = main(["degrade", "--config", config_path, "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "gaussian-deblur-lflow-0-input.pgm").exists()
    assert (tmp_path / "gaussian-deblur-lflow-0-truth.pgm").exists()
    assert not (tmp_path / "gaussian-deblur-lflow-0-recon.pgm").exists()


def test_bench_sweeps_all_modes(tmp_path, config_path):
    code = main(["bench", "--config", config_path, "--out", str(tmp_path)])
    assert code == 0
    rows = read_report_rows(tmp_path / "bench-gaussian-deblur-0.csv")
    assert [r["cov_mode"] for r in rows] == ["lflow", "eq17", "pigdm", "zero"]
    assert all(r["status"] == "ok" for r in rows)


def test_bench_can_restrict_to_one_mode(tmp_path, config_path):
    code = main([
        "bench", "--config", config_path, "--out", str(tmp_path),
        "--cov-mode", "zero",
    ])
    assert code == 0
    rows = read_report_rows(tmp_path / "bench-gaussian-deblur-0.csv")
    assert [r["cov_mode"] for r in rows] == ["zero"]


def test_task_flag_conflicting_with_config_kind(tmp_path, config_path, capsys):
    code = main([
        "sample", "--config", config_path, "--task", "box-inpaint",
        "--out", str(tmp_path),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_exits_with_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[sampler]\nrtoll = 1e-5\n")
    code = main(["sample", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 2
    assert "rtoll" in capsys.readouterr().err


@pytest.mark.parametrize("text,blamed", [
    ("[guidance]\nk_steps = 0\n", "[guidance] k_steps"),
    ("[guidance]\nk_steps = 0\nliteral_update = true\n", "[guidance] k_steps"),
    ("[task]\nkind = box-inpaint\nbox_size = 80\n", "[task]"),
    ("[guidance]\ncov_mode = bogus\n", "[guidance] cov_mode"),
    ("[task]\nkind = box-inpaint\nsize = 16\nbox_size = 17\n", "[task] box_size"),
    ("[task]\nkind = gaussian-deblur\nsize = 12\nkernel_size = 13\n", "[task] kernel_size"),
    ("[task]\nkind = motion-deblur\nsize = 12\nkernel_size = 13\n", "[task] kernel_size"),
    ("[task]\nkind = super-resolution\nsize = 63\nsr_factor = 2\n", "[task] sr_factor"),
    ("[task]\nkind = super-resolution\nsize = 12\nsr_factor = 4\n", "[task] sr_factor"),
    ("[task]\nkind = motion-deblur\nkernel_length = 12\n", "[task] kernel_length"),
    ("[task]\nsize = 16\nsigma_y = 0\n[guidance]\ncov_mode = zero\nsolver = cg\n",
     "[task] sigma_y = 0 with [guidance] cov_mode = zero"),
    ("[task]\nkind = box-inpaint\nsigma_y = 1e-200\n[guidance]\ncov_mode = zero\n",
     "[task] sigma_y = 0 with [guidance] cov_mode = zero"),
    ("[task]\nkind = gaussian-deblur\nsigma_y = 1e-200\n[guidance]\ncov_mode = zero\n",
     "[task] sigma_y = 0 with [guidance] cov_mode = zero"),
    ("[task]\nkind = motion-deblur\nkernel_length = 8\nsigma_y = 0.0\n",
     "[task] sigma_y = 0 makes the measurement system"),
    ("[prior]\ndecoder_kind = scale\ndecoder_scale = nan\n", "[prior] decoder_scale"),
    ("[prior]\ndecoder_kind = scale\ndecoder_scale = inf\n", "[prior] decoder_scale"),
    ("[prior]\ndecoder_kind = scale\ndecoder_scale = 0\n", "[prior] decoder_scale"),
    ("[prior]\nsigma_latr = nan\n", "[prior] sigma_latr"),
    ("[task]\nsigma_y = nan\n", "[task] sigma_y"),
    ("[prior]\nsigma_latr = 0\n", "[prior] sigma_latr"),
    ("[prior]\nsigma_latr = -1\n", "[prior] sigma_latr"),
    ("[prior]\nsigma_latr = 1.35e154\n", "[prior] sigma_latr"),
    ("[prior]\nsigma_latr = 1e-200\n", "[prior] sigma_latr"),
    ("[task]\nsize = 2\nkernel_size = 1\n", "[task] size"),
    ("[task]\nsize = 3\nkernel_size = 1\n", "[task] size"),
    ("[task]\nsize = 8\nkernel_size = 5\n", "[task] size"),
    ("[task]\nsigma_y = -0.1\n", "[task] sigma_y"),
    ("[task]\nkernel_std = -1\n", "[task] kernel_std"),
    ("[task]\nkernel_std = 1e-200\n", "[task] kernel_std"),
    ("[task]\nkernel_size = 4\n", "[task] kernel_size"),
    ("[guidance]\ncg_tol = 0\nsolver = cg\n", "[guidance] cg_tol"),
    ("[guidance]\ncg_max_iter = 0\nsolver = cg\n", "[guidance] cg_max_iter"),
    ("[task]\nimage = no-such-file.pgm\n", "[task] image"),
    ("[sampler]\nseed = -1\n", "[sampler] seed"),
    ("[sampler]\nh_init = -1\n", "[sampler] h_init"),
    ("[sampler]\nrtol = 0\n", "[sampler] rtol must be > 0, got 0"),
    ("[sampler]\natol = 0\n", "[sampler] atol must be > 0, got 0"),
    ("[task]\nsize = 16\n[sampler]\nh_min = 1.0\n", "[sampler] h_min"),
    ("[task]\nsize = 16\n[sampler]\nh_init = 1e-11\n", "[sampler] h_init = 1e-11"),
], ids=["k_steps", "k_steps_literal", "box_size", "cov_mode", "box_size_key",
        "gaussian_kernel_size", "motion_kernel_size", "sr_factor", "sr_kernel_too_big",
        "kernel_length", "singular_system", "singular_system_inpaint_square",
        "singular_system_deblur_square", "singular_gram_motion", "scale_nan", "scale_inf", "scale_zero",
        "sigma_latr_nan", "sigma_y_nan", "sigma_latr_zero", "sigma_latr_negative",
        "sigma_latr_square_overflow", "sigma_latr_square_underflow", "size_2",
        "size_3", "size_below_ssim_window", "sigma_y_negative", "kernel_std_negative",
        "kernel_std_underflow", "kernel_size_even", "cg_tol_zero", "cg_max_iter_zero",
        "image_missing", "seed_negative", "h_init_negative", "rtol_zero", "atol_zero",
        "h_min_above_auto_first_step", "h_init_below_default_h_min"])
def test_bad_config_values_exit_with_a_usage_error(tmp_path, capsys, text, blamed):
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    code = main(["sample", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert blamed in err
    assert not list(tmp_path.glob("*.pgm"))


def test_image_of_another_size_exits_with_a_usage_error(tmp_path, capsys):
    from lflow.imageio import write_pgm

    image = tmp_path / "small.pgm"
    write_pgm(image, np.full((8, 8), 0.5))
    cfg = tmp_path / "image.cfg"
    cfg.write_text(FAST_CONFIG.replace("size = 16\n", f"size = 16\nimage = {image}\n"))
    code = main(["sample", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "[task] image" in err and "[task] size" in err
    assert not list(tmp_path.glob("*-recon.pgm"))


def test_cov_mode_flag_cannot_make_the_system_singular(tmp_path, capsys):
    cfg = tmp_path / "noiseless.cfg"
    cfg.write_text(FAST_CONFIG.replace("sigma_y = 0.05", "sigma_y = 0"))
    code = main(["sample", "--config", str(cfg), "--cov-mode", "zero",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "[guidance] cov_mode" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.pgm"))


@pytest.mark.parametrize("command", ["sample", "bench"])
@pytest.mark.parametrize("text,flag,blamed", [
    ("[sampler]\nsteps = 0\n", "euler", "[sampler] steps must be >= 1, got 0"),
    ("[sampler]\nsteps = 0\n", "heun", "[sampler] steps must be >= 1, got 0"),
    ("[sampler]\nsolver = euler\natol = 0\n", "adaptive", "[sampler] atol must be > 0, got 0.0"),
    ("[sampler]\nsolver = euler\nmax_steps = 0\n", "adaptive",
     "[sampler] max_steps must be >= 1, got 0"),
], ids=["euler_steps", "heun_steps", "adaptive_atol", "adaptive_max_steps"])
def test_solver_flag_over_a_config_is_checked_like_the_file(tmp_path, capsys, command,
                                                            text, flag, blamed):
    # Each file is valid for its own solver; the flag switches to one that
    # reads the bad key.
    cfg = tmp_path / "switch.cfg"
    cfg.write_text(text)
    code = main([command, "--config", str(cfg), "--solver", flag, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {blamed}\n"
    assert not list(tmp_path.glob("*.pgm"))
    assert not list(tmp_path.glob("*.csv"))


def test_negative_seed_flag_exits_with_a_usage_error(tmp_path, config_path, capsys):
    code = main(["sample", "--config", config_path, "--seed", "-1", "--out", str(tmp_path)])
    assert code == 2
    assert "[sampler] seed" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.pgm"))


def test_missing_config_file_exits_with_a_usage_error(tmp_path, capsys):
    code = main(["sample", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_failed_runs_exit_nonzero(tmp_path, capsys):
    cfg = tmp_path / "doomed.cfg"
    # The trailing [sampler] keys of FAST_CONFIG absorb the extra line.
    cfg.write_text(FAST_CONFIG + "max_steps = 2\n")
    code = main(["sample", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1
    rows = read_report_rows(tmp_path / "gaussian-deblur-lflow-0-report.csv")
    assert rows[0]["status"] == "failed:MaxStepsExceededError"
    assert not (tmp_path / "gaussian-deblur-lflow-0-recon.pgm").exists()


def test_a_failed_run_writes_its_partial_trajectory(tmp_path):
    cfg = tmp_path / "doomed.cfg"
    cfg.write_text(FAST_CONFIG + "max_steps = 2\n")
    trace = tmp_path / "trace.csv"
    code = main(["sample", "--config", str(cfg), "--out", str(tmp_path),
                 "--trajectory", str(trace)])
    assert code == 1
    lines = trace.read_text().splitlines()
    assert tuple(lines[0].split(",")) == TRAJECTORY_COLUMNS
    assert float(lines[1].split(",")[0]) == 0.8


def test_argparse_rejects_bad_flag_values(capsys):
    with pytest.raises(SystemExit):
        main(["sample", "--cov-mode", "bogus"])
    with pytest.raises(SystemExit):
        main(["unknown-command"])
    with pytest.raises(SystemExit):
        main([])
