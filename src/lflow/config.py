"""Strict plain-text run configuration.

The format is INI-style sections of `key = value` pairs. The grammar is
closed: every section and key below is the complete vocabulary, and a
file containing anything else is rejected, because a silently ignored
typo ("rtol" vs "rtoll") is the classic way to invalidate a benchmark.
Missing keys take the defaults baked into the schema by the task
presets.

`dump_config` renders a configuration in one canonical form (fixed
section and key order, canonical number formatting), so equal configs
produce byte-equal dumps; `config_hash` is the first 16 hex digits of
the SHA-256 of that canonical dump.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math

from .errors import ConfigError

# section -> key -> (python type, used for parsing and canonical dumps)
CONFIG_SCHEMA: dict[str, dict[str, type]] = {
    "task": {
        "kind": str,
        "size": int,
        "kernel_size": int,
        "kernel_std": float,
        "kernel_angle": float,
        "kernel_length": int,
        "sr_factor": int,
        "box_size": int,
        "sigma_y": float,
        "image": str,
    },
    "prior": {
        "sigma_latr": float,
        "decoder_kind": str,
        "decoder_scale": float,
    },
    "guidance": {
        "cov_mode": str,
        "k_steps": int,
        "solver": str,
        "cg_tol": float,
        "cg_max_iter": int,
        "literal_update": bool,
    },
    "sampler": {
        "solver": str,
        "t_s": float,
        "atol": float,
        "rtol": float,
        "steps": int,
        "h_init": float,
        "h_min": float,
        "max_steps": int,
        "init_mode": str,
        "seed": int,
    },
    "run": {
        "out_dir": str,
        "report_format": str,
    },
}

_BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False,
               "1": True, "0": False}


def _parse_value(section: str, key: str, raw: str, typ: type):
    raw = raw.strip()
    try:
        if typ is bool:
            word = raw.lower()
            if word not in _BOOL_WORDS:
                raise ValueError(f"not a boolean: {raw!r}")
            return _BOOL_WORDS[word]
        value = typ(raw)
        if typ is float and not math.isfinite(value):
            raise ValueError(f"must be finite, got {raw!r}")
        return value
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def parse_config_text(text: str) -> dict[str, dict]:
    """Parse and validate config text into {section: {key: typed value}}.

    Only keys present in the text appear in the result; the caller merges
    them over its defaults. Unknown sections or keys are errors.
    """
    parser = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), comment_prefixes=("#",),
        inline_comment_prefixes=None, strict=True, default_section="__default__",
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if parser.defaults():
        raise ConfigError("keys are not allowed outside a section")
    result: dict[str, dict] = {}
    for section in parser.sections():
        if section not in CONFIG_SCHEMA:
            raise ConfigError(
                f"unknown section [{section}]; expected one of "
                f"{sorted(CONFIG_SCHEMA)}"
            )
        keys = CONFIG_SCHEMA[section]
        out: dict = {}
        for key, raw in parser.items(section):
            if key not in keys:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]; expected one of "
                    f"{sorted(keys)}"
                )
            out[key] = _parse_value(section, key, raw, keys[key])
        result[section] = out
    return result


def parse_config_file(path) -> dict[str, dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_config(values: dict[str, dict]) -> str:
    """Canonical text for a full {section: {key: value}} mapping.

    Every schema key must be present; canonical dumps never elide
    defaults, so two configs hash equal exactly when every setting is
    equal.
    """
    out = io.StringIO()
    for section, keys in CONFIG_SCHEMA.items():
        if section not in values:
            raise ConfigError(f"missing section [{section}] in config dump")
        out.write(f"[{section}]\n")
        for key in keys:
            if key not in values[section]:
                raise ConfigError(f"missing key {key!r} in [{section}]")
            out.write(f"{key} = {_format_value(values[section][key])}\n")
        out.write("\n")
    return out.getvalue()


def config_hash(values: dict[str, dict]) -> str:
    """First 16 hex digits of SHA-256 over the canonical dump."""
    return hashlib.sha256(dump_config(values).encode("ascii")).hexdigest()[:16]
