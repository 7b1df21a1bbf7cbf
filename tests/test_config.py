"""Tests for the closed config grammar and canonical dumps."""

import pytest

from lflow.config import (
    CONFIG_SCHEMA,
    config_hash,
    dump_config,
    parse_config_file,
    parse_config_text,
)
from lflow.errors import ConfigError


def full_values():
    """One complete, plausible value per schema key."""
    return {
        "task": {
            "kind": "gaussian-deblur",
            "size": 32,
            "kernel_size": 7,
            "kernel_std": 1.5,
            "kernel_angle": 0.0,
            "kernel_length": 5,
            "sr_factor": 2,
            "box_size": 8,
            "sigma_y": 0.05,
            "image": "synthetic",
        },
        "prior": {
            "sigma_latr": 0.04,
            "decoder_kind": "identity",
            "decoder_scale": 1.0,
        },
        "guidance": {
            "cov_mode": "lflow",
            "k_steps": 2,
            "solver": "closed-form",
            "cg_tol": 1e-10,
            "cg_max_iter": 500,
            "literal_update": False,
        },
        "sampler": {
            "solver": "adaptive",
            "t_s": 0.8,
            "atol": 1e-05,
            "rtol": 1e-05,
            "steps": 100,
            "h_init": 0.016,
            "h_min": 1e-10,
            "max_steps": 100000,
            "init_mode": "encoded-measurement",
            "seed": 0,
        },
        "run": {
            "out_dir": ".",
            "report_format": "csv",
        },
    }


def test_parsing_types_each_value():
    text = """
[task]
kind = box-inpaint
size = 16
sigma_y = 0.25

[guidance]
literal_update = yes
k_steps = 3
"""
    parsed = parse_config_text(text)
    assert parsed["task"]["kind"] == "box-inpaint"
    assert parsed["task"]["size"] == 16
    assert parsed["task"]["sigma_y"] == 0.25
    assert parsed["guidance"]["literal_update"] is True
    assert parsed["guidance"]["k_steps"] == 3
    # Only the keys present in the text come back.
    assert set(parsed) == {"task", "guidance"}
    assert "kernel_std" not in parsed["task"]


def test_comments_and_blank_lines_are_ignored():
    text = "# preamble\n[run]\n# note\nout_dir = results\n\n"
    assert parse_config_text(text) == {"run": {"out_dir": "results"}}


def test_unknown_section_is_an_error():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config_text("[postproc]\nenabled = true\n")


def test_unknown_key_is_an_error():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("[sampler]\nrtoll = 1e-5\n")


def test_key_before_any_section_is_an_error():
    with pytest.raises(ConfigError):
        parse_config_text("seed = 3\n[sampler]\nseed = 4\n")


def test_duplicate_keys_are_an_error():
    with pytest.raises(ConfigError):
        parse_config_text("[run]\nout_dir = a\nout_dir = b\n")


@pytest.mark.parametrize(
    "word,value",
    [("true", True), ("yes", True), ("1", True),
     ("false", False), ("no", False), ("0", False), ("TRUE", True)],
)
def test_boolean_word_forms(word, value):
    parsed = parse_config_text(f"[guidance]\nliteral_update = {word}\n")
    assert parsed["guidance"]["literal_update"] is value


def test_bad_scalar_values_are_errors():
    with pytest.raises(ConfigError, match="literal_update"):
        parse_config_text("[guidance]\nliteral_update = maybe\n")
    with pytest.raises(ConfigError, match="k_steps"):
        parse_config_text("[guidance]\nk_steps = 2.5\n")
    with pytest.raises(ConfigError, match="sigma_y"):
        parse_config_text("[task]\nsigma_y = none\n")
    for raw in ("nan", "inf", "-Infinity"):
        with pytest.raises(ConfigError, match=r"\[prior\] decoder_scale: must be finite"):
            parse_config_text(f"[prior]\ndecoder_scale = {raw}\n")


def test_dump_then_parse_recovers_every_value():
    values = full_values()
    parsed = parse_config_text(dump_config(values))
    assert parsed == values


def test_dump_uses_canonical_scalar_forms():
    text = dump_config(full_values())
    assert "atol = 1e-05" in text
    assert "t_s = 0.8" in text
    assert "literal_update = false" in text
    assert text.index("[task]") < text.index("[prior]") < text.index("[guidance]")


def test_dump_requires_a_complete_mapping():
    values = full_values()
    del values["run"]["out_dir"]
    with pytest.raises(ConfigError, match="out_dir"):
        dump_config(values)
    del values["run"]
    with pytest.raises(ConfigError, match="run"):
        dump_config(values)


def test_hash_is_stable_and_sensitive():
    values = full_values()
    h = config_hash(values)
    assert len(h) == 16
    assert h == config_hash(full_values())
    changed = full_values()
    changed["sampler"]["seed"] = 1
    assert config_hash(changed) != h


def test_file_reading_and_missing_files(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[run]\nreport_format = json\n")
    assert parse_config_file(path) == {"run": {"report_format": "json"}}
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file(tmp_path / "absent.cfg")


def test_schema_vocabulary_is_frozen():
    assert tuple(CONFIG_SCHEMA) == ("task", "prior", "guidance", "sampler", "run")
    assert tuple(CONFIG_SCHEMA["run"]) == ("out_dir", "report_format")
