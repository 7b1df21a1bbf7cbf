"""In-process tests of the command-line interface."""

import csv
import json

import numpy as np
import pytest

from lflow.cli import main

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
    ("[task]\nkind = box-inpaint\nbox_size = 80\n", "[task]"),
    ("[guidance]\ncov_mode = bogus\n", "[guidance] cov_mode"),
    ("[task]\nkind = box-inpaint\nsize = 16\nbox_size = 17\n", "[task] box_size"),
    ("[task]\nkind = gaussian-deblur\nsize = 8\nkernel_size = 9\n", "[task] kernel_size"),
    ("[task]\nkind = motion-deblur\nsize = 8\nkernel_size = 9\n", "[task] kernel_size"),
    ("[task]\nkind = super-resolution\nsize = 63\nsr_factor = 2\n", "[task] sr_factor"),
    ("[task]\nkind = super-resolution\nsize = 4\nsr_factor = 2\n", "[task] sr_factor"),
    ("[task]\nkind = motion-deblur\nkernel_length = 12\n", "[task] kernel_length"),
    ("[task]\nsize = 16\nsigma_y = 0\n[guidance]\ncov_mode = zero\nsolver = cg\n",
     "[task] sigma_y = 0 with [guidance] cov_mode = zero"),
    ("[prior]\ndecoder_kind = scale\ndecoder_scale = nan\n", "[prior] decoder_scale"),
    ("[prior]\ndecoder_kind = scale\ndecoder_scale = inf\n", "[prior] decoder_scale"),
    ("[prior]\ndecoder_kind = scale\ndecoder_scale = 0\n", "[prior] decoder_scale"),
    ("[prior]\nsigma_latr = nan\n", "[prior] sigma_latr"),
    ("[task]\nsigma_y = nan\n", "[task] sigma_y"),
], ids=["k_steps", "box_size", "cov_mode", "box_size_key", "gaussian_kernel_size",
        "motion_kernel_size", "sr_factor", "sr_kernel_too_big", "kernel_length",
        "singular_system", "scale_nan", "scale_inf", "scale_zero", "sigma_latr_nan",
        "sigma_y_nan"])
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


def test_argparse_rejects_bad_flag_values(capsys):
    with pytest.raises(SystemExit):
        main(["sample", "--cov-mode", "bogus"])
    with pytest.raises(SystemExit):
        main(["unknown-command"])
    with pytest.raises(SystemExit):
        main([])
