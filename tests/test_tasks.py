"""Tests for task presets, the synthetic card, and the run pipeline.

End-to-end runs here use 16x16 images and loose tolerances: the point is
pipeline plumbing (centering, splicing, reporting, determinism), not
reconstruction quality, which the acceptance suite measures at full size.
The CG-versus-closed-form runs use the 32x32 presets instead, so the
iterative solve sees a realistic spectrum. The BLAS-thread check runs
256x256 reconstructs in subprocesses, since the thread count is fixed
when numpy loads.
"""

import math
import os
import subprocess
import sys
import warnings
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lflow
import lflow.tasks

from lflow.config import CONFIG_SCHEMA
from lflow.errors import ConfigError, ShapeMismatchError
from lflow.fields import COV_MODE_KINDS
from lflow.guidance import ConjugateGradientSolver, GuidanceSpec
from lflow.metrics import SSIM_WINDOW_SIZE
from lflow.numerics import make_rng
from lflow.operators import CircConvOperator, ConvDownsampleOperator, MaskOperator
from lflow.sampler import INIT_MODES
from lflow.tasks import (
    DEGRADE_SEED_OFFSET,
    GUIDANCE_SOLVER_NAMES,
    ODE_SOLVER_NAMES,
    REPORT_FORMATS,
    TASK_KINDS,
    TaskConfig,
    bench_cov_modes,
    default_task_config,
    degrade,
    reconstruct,
    resolve_truth,
    synthetic_image,
    task_config_from_sections,
)


def fast_config(**overrides):
    """A small, quick, noiseless identity-like task for pipeline tests."""
    base = dict(
        kind="gaussian-deblur",
        size=16,
        kernel_size=1,
        sigma_y=0.0,
        literal_update=True,
        atol=1e-5,
        rtol=1e-5,
    )
    base.update(overrides)
    return TaskConfig(**base)


def test_config_vocabulary_validation():
    with pytest.raises(ValueError):
        TaskConfig(kind="sharpen")
    with pytest.raises(ValueError):
        TaskConfig(cov_mode="full")
    with pytest.raises(ValueError):
        TaskConfig(ode_solver="rk45")
    with pytest.raises(ValueError):
        TaskConfig(guidance_solver="lu")
    with pytest.raises(ValueError):
        TaskConfig(report_format="yaml")
    with pytest.raises(ValueError):
        TaskConfig(decoder_kind="conv")
    with pytest.raises(ValueError):
        TaskConfig(init_mode="warm")
    with pytest.raises(ValueError):
        TaskConfig(size=0)


def test_a_bad_init_mode_names_its_sampler_key():
    with pytest.raises(ValueError, match=r"\[sampler\] init_mode: 'warm' not one of"):
        TaskConfig(init_mode="warm")


def test_size_must_hold_the_ssim_window():
    with pytest.raises(ValueError, match=r"\[task\] size: must be >= 11"):
        TaskConfig(size=SSIM_WINDOW_SIZE - 1, kernel_size=5)
    assert TaskConfig(size=SSIM_WINDOW_SIZE, kernel_size=5).size == SSIM_WINDOW_SIZE


def test_presets_assign_per_task_tolerances():
    assert default_task_config("gaussian-deblur").atol == 1e-5
    assert default_task_config("super-resolution").rtol == 1e-5
    assert default_task_config("motion-deblur").atol == 1e-3
    assert default_task_config("box-inpaint").rtol == 1e-3
    assert default_task_config("box-inpaint", atol=1e-7).atol == 1e-7
    with pytest.raises(ValueError):
        default_task_config("upscale")


def test_run_id_and_hash():
    cfg = default_task_config("super-resolution", seed=3, cov_mode="pigdm")
    assert cfg.run_id == "super-resolution-pigdm-3"
    assert len(cfg.hash()) == 16
    assert int(cfg.hash(), 16) >= 0
    assert cfg.hash() == default_task_config(
        "super-resolution", seed=3, cov_mode="pigdm"
    ).hash()
    assert cfg.hash() != replace(cfg, seed=4).hash()


def test_sections_round_trip_and_schema_alignment():
    cfg = default_task_config("motion-deblur", seed=9, k_steps=3, t_s=0.7)
    sections = cfg.to_sections()
    for section, keys in CONFIG_SCHEMA.items():
        assert set(sections[section]) == set(keys)
    assert task_config_from_sections(sections) == cfg


def test_task_config_fields_are_the_schema_keys_with_their_types():
    # The grammar is declared once, in CONFIG_SCHEMA: each key is the
    # TaskConfig attribute of the same name, except the two `solver` keys,
    # and each default has the type the schema parses its key to.
    renamed = {("guidance", "solver"): "guidance_solver",
               ("sampler", "solver"): "ode_solver"}
    types = {renamed.get((section, key), key): typ
             for section, keys in CONFIG_SCHEMA.items() for key, typ in keys.items()}
    assert {f.name for f in fields(TaskConfig)} == set(types)
    for f in fields(TaskConfig):
        assert type(f.default) is types[f.name], f.name


def test_literal_update_builds_a_one_pass_guidance():
    # literal_update = true is the K = 1 update whatever k_steps holds; the
    # config keeps both values, so its dump still tells the two apart.
    for k_steps in (1, 2, 3, 5):
        cfg = default_task_config("gaussian-deblur", k_steps=k_steps, literal_update=True)
        one_pass = replace(cfg, k_steps=1, literal_update=False)
        assert cfg.sampler.guidance == one_pass.sampler.guidance
        assert cfg.hash() != one_pass.hash()
    assert default_task_config("gaussian-deblur", k_steps=3).sampler.guidance.k_steps == 3


def test_a_config_builds_each_runtime_object_once():
    cfg = default_task_config("box-inpaint", size=16, box_size=4)
    op, mask = cfg.build_operator()
    again = cfg.build_operator()
    assert again[0] is op and again[1] is mask
    assert cfg.sampler is cfg.sampler
    assert cfg.field is cfg.field and cfg.decoder is cfg.decoder
    # A replaced config is a new object with its own runtime objects.
    other = replace(cfg, seed=1)
    assert other.build_operator()[0] is not op
    assert other.sampler is not cfg.sampler and other.sampler.seed == 1
    assert other.field is not cfg.field and other.decoder is not cfg.decoder
    # The kept objects are not part of the config's value.
    assert replace(cfg) == cfg and hash(replace(cfg)) == hash(cfg)


def test_constructing_a_config_builds_one_guidance(monkeypatch):
    built = []

    def counting_spec(**kwargs):
        built.append(kwargs)
        return GuidanceSpec(**kwargs)

    monkeypatch.setattr(lflow.tasks, "GuidanceSpec", counting_spec)
    cfg = TaskConfig(guidance_solver="cg")
    assert len(built) == 1
    assert cfg.sampler.guidance.solver == ConjugateGradientSolver()
    assert len(built) == 1


def test_sections_default_to_the_kind_preset():
    cfg = task_config_from_sections({"task": {"kind": "box-inpaint"}})
    assert cfg.kind == "box-inpaint"
    assert cfg.atol == 1e-3
    cfg = task_config_from_sections(
        {"task": {"kind": "box-inpaint"}, "sampler": {"atol": 1e-6}}
    )
    assert cfg.atol == 1e-6


def test_operator_construction_per_kind():
    op, mask = default_task_config("gaussian-deblur").build_operator()
    assert isinstance(op, CircConvOperator)
    assert op.input_shape == (64, 64) and mask is None

    op, mask = default_task_config("motion-deblur").build_operator()
    assert isinstance(op, CircConvOperator) and mask is None

    op, mask = default_task_config("super-resolution").build_operator()
    assert isinstance(op, ConvDownsampleOperator)
    assert op.output_shape == (32, 32) and mask is None

    op, mask = default_task_config("box-inpaint").build_operator()
    assert isinstance(op, MaskOperator)
    assert mask is not None
    assert int((mask == 0).sum()) == 32 * 32
    assert op.output_shape == (64 * 64 - 32 * 32,)


def test_synthetic_card_is_deterministic_and_in_range():
    a = synthetic_image(64)
    b = synthetic_image(64)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (64, 64)
    assert a.min() >= 0.0 and a.max() <= 1.0
    assert a.std() > 0.05
    assert synthetic_image(16).shape == (16, 16)
    with pytest.raises(ValueError):
        synthetic_image(3)


def test_resolve_truth_reads_files(tmp_path):
    from lflow.imageio import write_pgm

    img = make_rng(0).uniform(size=(16, 16))
    path = tmp_path / "truth.pgm"
    write_pgm(path, img, bits=16)
    cfg = fast_config(image=str(path))
    got = resolve_truth(cfg)
    assert np.max(np.abs(got - img)) <= 0.5 / 65535 + 1e-12


def test_resolve_truth_rejects_an_image_of_another_size(tmp_path):
    from lflow.imageio import write_pgm

    path = tmp_path / "small.pgm"
    write_pgm(path, make_rng(0).uniform(size=(8, 8)))
    with pytest.raises(ConfigError, match=r"\[task\] image.*\[task\] size"):
        resolve_truth(fast_config(image=str(path)))


@pytest.mark.parametrize("values,blamed", [
    ({"ode_solver": "euler", "steps": 0}, "[sampler] steps"),
    ({"ode_solver": "heun", "steps": 0}, "[sampler] steps"),
    ({"decoder_kind": "scale", "decoder_scale": 0.0}, "[prior] decoder_scale"),
    ({"decoder_kind": "scale", "decoder_scale": math.inf}, "[prior] decoder_scale"),
    ({"kind": "motion-deblur", "kernel_angle": math.nan}, "[task] kernel_angle"),
    ({"sigma_latr": 0.0}, "[prior] sigma_latr"),
])
def test_construction_rejects_what_a_run_would_reject(values, blamed):
    # Library callers get the pre-flight a config file gets, before any run.
    with pytest.raises(ValueError) as info:
        TaskConfig(**values)
    assert str(info.value).startswith(blamed)


def test_singular_measurement_system_is_a_config_error():
    with pytest.raises(ConfigError, match=r"\[task\] sigma_y.*\[guidance\] cov_mode"):
        TaskConfig(sigma_y=0.0, cov_mode="zero")
    with pytest.raises(ConfigError):
        task_config_from_sections({"task": {"sigma_y": 0.0},
                                   "guidance": {"cov_mode": "zero"}})
    assert TaskConfig(sigma_y=0.0, cov_mode="lflow").sigma_y == 0.0
    assert TaskConfig(sigma_y=0.01, cov_mode="zero").cov_mode == "zero"
    # A noiseless config whose A A^T has exact zero eigenvalues (an 8-tap
    # motion blur on the 64 grid) is singular in every mode.
    with pytest.raises(ConfigError, match=r"\[task\] sigma_y = 0 .* 192 of the 2112"):
        default_task_config("motion-deblur", kernel_length=8, sigma_y=0.0)
    assert default_task_config("motion-deblur", kernel_length=8, sigma_y=1e-3).sigma_y == 1e-3
    assert default_task_config("motion-deblur", sigma_y=0.0).sigma_y == 0.0


@pytest.mark.parametrize("kind", ["gaussian-deblur", "super-resolution"])
def test_cg_guidance_reconstructs_like_the_closed_form(kind):
    cfg = default_task_config(kind, size=32, seed=2)
    y = degrade(cfg)
    closed, closed_report = reconstruct(cfg, y)
    cg, cg_report = reconstruct(replace(cfg, guidance_solver="cg"), y)
    assert closed_report.ok and cg_report.ok
    assert cg_report.nfe == closed_report.nfe
    assert np.max(np.abs(cg - closed)) <= 1e-9


@pytest.mark.parametrize("passes", [{"k_steps": 1}, {"k_steps": 3},
                                    {"literal_update": True}])
@pytest.mark.parametrize("stepper", [{"ode_solver": "adaptive"},
                                     {"ode_solver": "heun", "steps": 20},
                                     {"ode_solver": "euler", "steps": 20}])
def test_cg_guidance_matches_the_closed_form_under_every_stepper(stepper, passes):
    # The CG start is predicted from the stepper's call pattern (which
    # solves sit at accepted states), so each stepper and pass count is run.
    cfg = default_task_config("gaussian-deblur", size=16, seed=3, **stepper, **passes)
    y = degrade(cfg)
    closed, closed_report = reconstruct(cfg, y)
    cg, cg_report = reconstruct(replace(cfg, guidance_solver="cg"), y)
    assert closed_report.ok and cg_report.ok
    assert cg_report.nfe == closed_report.nfe
    assert np.max(np.abs(cg - closed)) <= 1e-9


def test_degrade_is_reproducible_at_a_seed_offset():
    cfg = default_task_config("gaussian-deblur", size=16, seed=5)
    y1 = degrade(cfg)
    y2 = degrade(cfg)
    np.testing.assert_array_equal(y1, y2)
    # The documented generator: run seed plus the fixed offset.
    x = synthetic_image(16)
    op, _ = cfg.build_operator()
    rng = make_rng(5 + DEGRADE_SEED_OFFSET)
    manual = op.apply(x) + cfg.sigma_y * rng.standard_normal((16, 16))
    np.testing.assert_array_equal(y1, manual)
    assert not np.array_equal(y1, degrade(replace(cfg, seed=6)))


def test_noiseless_identity_degradation_is_exact():
    cfg = fast_config()
    np.testing.assert_allclose(degrade(cfg), synthetic_image(16), atol=1e-12)


def test_reconstruct_recovers_a_noiseless_identity_measurement():
    cfg = fast_config()
    y = degrade(cfg)
    x_hat, report = reconstruct(cfg, y)
    assert report.ok
    assert x_hat.shape == (16, 16)
    assert report.psnr_db > 40.0
    assert report.nfe > 0
    assert report.status == "ok"
    assert not math.isnan(report.ssim)


def test_reconstruct_is_deterministic_except_wall_time():
    cfg = fast_config(sigma_y=0.05)
    y = degrade(cfg)
    x1, r1 = reconstruct(cfg, y)
    x2, r2 = reconstruct(cfg, y)
    np.testing.assert_array_equal(x1, x2)
    d1, d2 = asdict(r1), asdict(r2)
    d1.pop("wall_ms")
    d2.pop("wall_ms")
    assert d1 == d2


@pytest.mark.parametrize("factor, nfe, psnr_db, row, total", [
    (2, 279, 17.34967581228647,
     [0.6476208244604053, 0.634269470158841, 0.6288740496903665, 0.47021621478155085],
     503.42550730810683),
    (4, 210, 14.019033473535226,
     [0.6259201186840508, 0.5855576142576704, 0.5712322590946944, 0.5095951035459413],
     503.9002778084357),
])
def test_super_resolution_run_is_pinned(factor, nfe, psnr_db, row, total):
    # NFE and output of the 32^2 preset, pinned so that a rewrite of the
    # spectral fold and tile must keep its arithmetic.
    cfg = default_task_config("super-resolution", size=32, sr_factor=factor)
    x_hat, report = reconstruct(cfg, degrade(cfg))
    assert (report.status, report.nfe) == ("ok", nfe)
    assert report.psnr_db == pytest.approx(psnr_db, rel=0.0, abs=1e-10)
    np.testing.assert_allclose(x_hat[5, 8:12], row, rtol=0.0, atol=1e-13)
    assert float(x_hat.sum()) == pytest.approx(total, rel=0.0, abs=1e-10)


def test_degenerate_box_keeps_every_observed_pixel():
    # box_size 0 observes everything; the splice then reproduces the
    # measurement exactly and the metrics report a perfect match.
    cfg = TaskConfig(
        kind="box-inpaint", size=16, box_size=0, sigma_y=0.0,
        literal_update=True, atol=1e-3, rtol=1e-3,
    )
    y = degrade(cfg)
    x_hat, report = reconstruct(cfg, y)
    np.testing.assert_array_equal(x_hat, synthetic_image(16))
    assert report.psnr_db == float("inf")
    assert report.mse == 0.0


def test_reconstruct_records_a_trajectory(tmp_path):
    cfg = fast_config()
    path = tmp_path / "trace.csv"
    _, report = reconstruct(cfg, degrade(cfg), trajectory_path=path)
    assert report.ok
    lines = path.read_text().splitlines()
    assert lines[0] == "t,nfe_cumulative,state_norm,residual_norm"
    assert len(lines) >= 3
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(1e-3, abs=1e-12)
    assert last[3] != ""


def _counting_field_velocity(monkeypatch):
    """Record every evaluation of the analytic field that a config builds,
    through each member that evaluates it: the velocity alone, with the
    denoised mean (the closed form's plain route), and with coefficients
    (its carried route)."""
    calls = []
    cls = lflow.tasks.AnalyticGaussianField
    for name in ("velocity", "velocity_and_mean", "velocity_and_coeffs"):
        def counting(self, *args, _name=name, _real=getattr(cls, name)):
            calls.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(cls, name, counting)
    return calls


@pytest.mark.parametrize("short", ["one entry", "one entry or row short"])
@pytest.mark.parametrize("kind", TASK_KINDS)
def test_reconstruct_rejects_a_mis_shaped_measurement_before_any_evaluation(
        kind, short, monkeypatch):
    # The mid-gray offset is a scalar, so subtracting it accepts a y of any
    # shape; reconstruct's check of y's shape by name is the only guard.
    cfg = default_task_config(kind, size=16, box_size=8)
    calls = _counting_field_velocity(monkeypatch)
    y = degrade(cfg)
    y = y.ravel()[:1] if short == "one entry" else y[:-1]
    with pytest.raises(ShapeMismatchError, match="measurement y"):
        reconstruct(cfg, y)
    assert calls == []


@pytest.mark.parametrize("size", [16, 64, 256])
@pytest.mark.parametrize("kind", TASK_KINDS)
def test_every_preset_operator_maps_mid_gray_to_mid_gray_exactly(kind, size):
    # reconstruct subtracts the constant 0.5 for A 0.5: bit for bit the same.
    op, _ = default_task_config(kind, size=size, box_size=size // 2).build_operator()
    assert np.all(op.apply(np.full(op.input_shape, 0.5)) == 0.5)


@pytest.mark.parametrize("kind", TASK_KINDS)
def test_reconstruct_centres_y_without_applying_the_operator(kind, monkeypatch):
    cfg = default_task_config(kind, size=16, box_size=8, atol=1e-3, rtol=1e-3)
    y = degrade(cfg)
    op, _ = cfg.build_operator()
    evaluations = _counting_field_velocity(monkeypatch)
    applied_before_sampling = []
    monkeypatch.setattr(op, "apply", lambda x, _real=op.apply:
                        applied_before_sampling.append(not evaluations) or _real(x))
    assert reconstruct(cfg, y)[1].ok
    assert evaluations and not any(applied_before_sampling)


def test_reconstruct_rejects_a_mis_shaped_truth_before_any_evaluation(monkeypatch):
    cfg = fast_config()
    calls = _counting_field_velocity(monkeypatch)
    with pytest.raises(ShapeMismatchError, match="x_true"):
        reconstruct(cfg, degrade(cfg), x_true=np.zeros((15, 16)))
    assert calls == []


def test_solver_failures_become_failed_rows():
    cfg = fast_config(max_steps=2)
    x_hat, report = reconstruct(cfg, degrade(cfg))
    assert x_hat is None
    assert report.status == "failed:MaxStepsExceededError"
    assert not report.ok
    assert math.isnan(report.psnr_db)
    assert math.isnan(report.ssim)
    assert math.isnan(report.mse)
    # The row keeps the evaluations spent: two accepted adaptive steps
    # before the budget ran out, one initial evaluation plus two per step.
    assert report.nfe == 1 + 2 * 2
    assert report.clamp_events == 0


def test_bench_covers_every_mode_in_order():
    cfg = fast_config(sigma_y=0.05, atol=1e-3, rtol=1e-3)
    rows = bench_cov_modes(cfg)
    assert [r.cov_mode for r in rows] == list(COV_MODE_KINDS)
    assert all(r.ok for r in rows)
    assert all(r.task == "gaussian-deblur" for r in rows)
    subset = bench_cov_modes(cfg, modes=["zero"])
    assert len(subset) == 1 and subset[0].cov_mode == "zero"
    with pytest.raises(ValueError):
        bench_cov_modes(cfg, modes=[])


def test_task_kind_constant_matches_presets():
    assert TASK_KINDS == (
        "gaussian-deblur", "motion-deblur", "super-resolution", "box-inpaint"
    )
    for kind in TASK_KINDS:
        assert default_task_config(kind).kind == kind


# Values per schema type. The enumerated string keys draw a valid name or
# a bogus one; `image` draws the synthetic card or files that cannot be
# read; integers stay small enough that no accepted size builds a large
# grid; floats cover the whole finite range, subnormals included.
_CHOICES = {
    ("task", "kind"): TASK_KINDS,
    ("task", "image"): ("synthetic", "no-such-file.pgm", "no-such-file.png", __file__),
    ("prior", "decoder_kind"): ("identity", "scale"),
    ("guidance", "cov_mode"): COV_MODE_KINDS,
    ("guidance", "solver"): GUIDANCE_SOLVER_NAMES,
    ("sampler", "solver"): ODE_SOLVER_NAMES,
    ("sampler", "init_mode"): INIT_MODES,
    ("run", "report_format"): REPORT_FORMATS,
}
_BY_TYPE = {
    int: st.integers(-3, 40),
    float: st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.sampled_from([0.0, -0.0, 1e-320, 1e-300, 1e300, 0.5, 2.0])),
    bool: st.booleans(),
    str: st.just("out"),
}


def _value(section, key, typ):
    if (section, key) in _CHOICES:
        return st.sampled_from(_CHOICES[(section, key)] + ("bogus",))
    return _BY_TYPE[typ]


_SECTIONS = st.fixed_dictionaries({
    section: st.fixed_dictionaries({}, optional={
        key: _value(section, key, typ) for key, typ in keys.items()})
    for section, keys in CONFIG_SCHEMA.items()
})


@settings(max_examples=300, deadline=None)
@given(sections=_SECTIONS)
def test_every_drawn_config_builds_or_is_a_config_error(sections):
    # No sampler runs: the pre-flight alone must turn every value it cannot
    # use into a ConfigError, before a run starts and without a warning.
    # Construction builds the field, decoder and sampler; the operator and
    # the image are built here.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cfg = task_config_from_sections(sections)
            cfg.build_operator()
            resolve_truth(cfg)
        except ConfigError:
            pass


DIGEST_SCRIPT = """
import hashlib, sys
from lflow.tasks import default_task_config, degrade, reconstruct
cfg = default_task_config(sys.argv[1], size=256, seed=1)
x, rep = reconstruct(cfg, degrade(cfg))
print(rep.status, rep.nfe, hashlib.sha256(x.tobytes()).hexdigest())
"""


@pytest.mark.parametrize("kind", ["gaussian-deblur", "super-resolution"])
def test_256_squared_reconstruct_bits_do_not_depend_on_blas_threads(kind):
    # OpenBLAS splits a 65,536-entry dot product across its threads, so a
    # state norm taken through BLAS would round differently with 2 threads.
    src = os.path.dirname(os.path.dirname(os.path.abspath(lflow.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", DIGEST_SCRIPT, kind], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        outputs.append(run.stdout.split())
    assert outputs[0][0] == "ok", outputs
    assert outputs[0] == outputs[1], outputs
