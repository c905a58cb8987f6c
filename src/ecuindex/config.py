"""Flat key=value run configuration shared by all pipeline commands.

One file configures every stage; each stage reads the keys it needs.
Lines are ``key = value``; blank lines and ``#`` comments are ignored.
Mappings (sector mix, shock depths) use ``code:value,code:value``.
Shock depths also accept the level names ``primary``/``secondary``/
``tertiary``, expanded over all sector codes of that level.

The fields of ``RunConfig`` and ``PanelConfig`` declare the keys, their
types and their defaults; a value is converted to the type of its field's
default.  Every error in a config file or its values is a ``ConfigError``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from pathlib import Path

from .sectors import LEVEL_NAMES, sector_level
from .simgen import PanelConfig, check_date


class ConfigError(ValueError):
    """A malformed, unknown, duplicate or out-of-range configuration setting."""


@dataclass(frozen=True)
class RunConfig:
    """Settings for the fit, index and report stages."""

    code_map: str | None = None
    # the comparison windows and the root seed are shared with simulate
    ref_base: str = PanelConfig.ref_base
    test_base: str = PanelConfig.test_base
    span: int = PanelConfig.span
    smooth_window: int = 7
    outlier_window: int = 15
    outlier_k: float = 2.0
    interp_window: int = 14
    em_tol: float = 1e-6
    em_max_iter: int = 500
    multi_start: int = 0
    seed: int = PanelConfig.seed
    workers: int = 1
    group_by: tuple[str, ...] = ("sector", "district")

    def validate(self) -> None:
        check_date(self.ref_base, "ref_base")
        check_date(self.test_base, "test_base")
        for name, low in (("span", 1), ("em_max_iter", 1), ("multi_start", 0), ("workers", 1),
                          ("smooth_window", 1), ("interp_window", 1)):
            if not getattr(self, name) >= low:  # NaN fails too
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("em_tol", "outlier_k"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.outlier_window < 3 or self.outlier_window % 2 == 0:
            raise ValueError(f"outlier_window must be odd and >= 3, got {self.outlier_window}")
        for g in self.group_by:
            if g not in ("sector", "district"):
                raise ValueError(f"group_by entries must be sector or district, got {g!r}")


# PanelConfig fields written as code:value lists
_MAPPING_KEYS = ("sector_mix", "district_mix", "shock_depth")

# every key any stage understands; unknown keys are configuration mistakes
KNOWN_KEYS = frozenset(
    {f.name for cls in (RunConfig, PanelConfig) for f in fields(cls)}
    | {"out", "panel"}  # read by the command line itself: output directory, input panel
)

_KINDS = {int: "an integer", float: "a number"}


def _config_errors(fn):
    """Raise every ValueError of ``fn`` as a ConfigError."""
    @functools.wraps(fn)
    def wrapper(*args):
        try:
            return fn(*args)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return wrapper


@_config_errors
def parse_kv(text: str) -> dict[str, str]:
    """Parse key=value lines; rejects malformed lines, duplicates and unknown keys."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno} is not key=value: {stripped!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ValueError(f"unknown config key {key!r} (line {lineno})")
        if key in out:
            raise ValueError(f"duplicate config key {key!r} (line {lineno})")
        out[key] = value
    return out


@_config_errors
def load_config(path) -> dict[str, str]:
    return parse_kv(Path(path).read_text(encoding="utf-8"))


def _convert(key: str, text: str, default):
    """``text`` as the type of ``default``: a number, a comma list, or the string itself."""
    kind = type(default)
    if kind is tuple:
        return tuple(part.strip() for part in text.split(",") if part.strip())
    if kind not in _KINDS:
        return text
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"config field {key} must be {_KINDS[kind]}, got {text!r}") from None


def _plain_fields(cls, raw: dict[str, str], skip=()) -> dict:
    """Converted values of the keys in ``raw`` that name a field of ``cls``."""
    return {f.name: _convert(f.name, raw[f.name], f.default)
            for f in fields(cls) if f.name in raw and f.name not in skip}


def parse_mapping(value: str, field: str) -> dict[str, float]:
    out = {}
    for item in value.split(","):
        item = item.strip()
        if not item:
            continue
        if ":" not in item:
            raise ValueError(f"config field {field} entries must be code:value, got {item!r}")
        code, _, num = item.partition(":")
        try:
            out[code.strip()] = float(num)
        except ValueError:
            raise ValueError(f"config field {field} has non-numeric value in {item!r}") from None
    if not out:
        raise ValueError(f"config field {field} is empty")
    return out


def _expand_depths(depths: dict[str, float], sector_codes) -> dict[str, float]:
    """Resolve a depth mapping that may mix sector codes and level names."""
    unknown = set(depths) - set(sector_codes) - set(LEVEL_NAMES.values())
    if unknown:
        raise ValueError(f"shock_depth names unknown sector code {sorted(unknown)[0]!r}")
    return {code: depths[code] if code in depths
            else depths.get(LEVEL_NAMES[sector_level(code)], 0.0)
            for code in sector_codes}


@_config_errors
def build_panel_config(raw: dict[str, str]) -> PanelConfig:
    """Validated PanelConfig from raw config strings; other stages' keys are ignored."""
    defaults = PanelConfig()
    kwargs = _plain_fields(PanelConfig, raw, skip=_MAPPING_KEYS)
    for name in _MAPPING_KEYS:
        if name in raw:
            kwargs[name] = parse_mapping(raw[name], name)
    if "shock_depth" in kwargs:
        sectors = kwargs.get("sector_mix", defaults.sector_mix)
        kwargs["shock_depth"] = _expand_depths(kwargs["shock_depth"], sectors)
    cfg = PanelConfig(**kwargs)
    cfg.validate()
    return cfg


@_config_errors
def build_run_config(raw: dict[str, str]) -> RunConfig:
    """Validated RunConfig from raw config strings; other stages' keys are ignored."""
    cfg = RunConfig(**_plain_fields(RunConfig, raw))
    cfg.validate()
    return cfg
