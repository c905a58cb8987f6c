"""Every setting of the pipeline, with its default and its check, and the key=value file.

One file configures every stage; each stage reads the keys it needs.
Lines are ``key = value``; blank lines and ``#`` comments are ignored.
Mappings (sector mix, shock depths) use ``code:value,code:value``.

The fields of ``RunConfig`` and ``PanelConfig`` declare the keys, their
types and their defaults; a value is converted to the type of its field's
default, and the config class itself says what a value means (shock depths,
for one, are resolved by ``PanelConfig``).  Both classes refuse a bad value
when an object is built, ``dataclasses.replace`` included.  Every error in a
config file or its values is a ``ConfigError``.

Sector codes are two-level, the first digit the broad group (1 = primary,
2 = secondary, 3 = tertiary).  The default sector mix mirrors the firm-count
shares of a large metropolitan smart-meter panel, and ``index`` accepts the
default codes unless ``code_map`` names others.  The constants the stages share live
here too, so that a stage imports no module it does not run.  No other module is imported.
"""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Mapping

import numpy as np

DAY = np.timedelta64(1, "D")
_SIMPLEX_TOL = 1e-12  # how far a probability vector may sum from 1
# a model's 12 numbers, in the order of RegimeModel.numbers, the EM batch and models.csv
MODEL_COLUMNS = ("alpha_p", "beta_p", "sigma_p", "alpha_r", "beta_r", "sigma_r",
                 "q_pp", "q_pr", "q_rp", "q_rr", "pi0_p", "pi0_r")


class ConfigError(ValueError):
    """A malformed, unknown, duplicate or out-of-range configuration setting."""


# code -> (name, default firm share)
DEFAULT_SECTORS: dict[str, tuple[str, float]] = {
    "101": ("Agriculture, forestry, husbandry and fishery", 0.0034),
    "201": ("Mining", 0.0009),
    "202": ("Manufacturing", 0.4254),
    "203": ("Electricity, heat, gas and water production and supply", 0.0113),
    "204": ("Construction", 0.0238),
    "301": ("Wholesale and retail", 0.0870),
    "302": ("Transportation, storage and postal services", 0.0411),
    "303": ("Hotel and catering", 0.0233),
    "304": ("Information transmission, software and IT services", 0.0218),
    "305": ("Finance", 0.0159),
    "306": ("Real estate", 0.1673),
    "307": ("Leasing and business services", 0.0403),
    "308": ("Scientific research and technology", 0.0149),
    "309": ("Water conservancy, environment and public facilities", 0.0339),
    "310": ("Residential services, repair and other services", 0.0035),
    "311": ("Education", 0.0078),
    "312": ("Health and social work", 0.0154),
    "313": ("Culture, sports and entertainment", 0.0149),
    "314": ("Public administration and social organizations", 0.0236),
    "315": ("Others", 0.0245),
}

DEFAULT_SECTOR_MIX: dict[str, float] = {c: share for c, (_, share) in DEFAULT_SECTORS.items()}

DEFAULT_DISTRICTS: tuple[str, ...] = tuple(f"D{i:02d}" for i in range(1, 17))

DEFAULT_DISTRICT_MIX: dict[str, float] = {d: 1.0 / len(DEFAULT_DISTRICTS) for d in DEFAULT_DISTRICTS}

LEVEL_NAMES = {1: "primary", 2: "secondary", 3: "tertiary"}


def sector_level(code: str) -> int:
    """Broad group (1/2/3) of a two-level sector code."""
    if not code or code[0] not in "123":
        raise ValueError(f"sector code {code!r} has no valid level prefix (expected 1, 2 or 3)")
    return int(code[0])


def _check_mix(mix: Mapping[str, float], what: str) -> None:
    if not mix:
        raise ValueError(f"{what} must not be empty")
    vals = np.array(list(mix.values()), dtype=float)
    if np.any(vals < 0):
        raise ValueError(f"{what} proportions must be non-negative")
    if abs(vals.sum() - 1.0) > 1e-9:
        raise ValueError(f"{what} proportions must sum to 1 within 1e-9, got {vals.sum()!r}")


def check_date(value: str, name: str) -> None:
    """Reject a setting that is not a calendar day written as YYYY-MM-DD."""
    try:
        ok = str(np.datetime64(value, "D")) == value != "NaT"
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a date written YYYY-MM-DD, got {value!r}")


def check_int64(settings) -> None:
    """Reject an int field of the dataclass ``settings`` that numpy's int64 cannot hold, then a
    ``span`` or holiday length implying a day beyond its day numbers (-2**63 is NaT) or more days
    than it counts: ``ref_base - span`` to ``test_base + span``, a holiday to the day after it."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        if f.type == "int" and not -2**63 <= value < 2**63:
            raise ValueError(f"{f.name} must lie in the 64-bit integer range "
                             f"[{-2**63}, {2**63 - 1}], got {value}")
    day = {n: np.datetime64(getattr(settings, n), "D").astype(np.int64).item() for n in
           ("ref_base", "test_base", "holiday_ref", "holiday_test") if hasattr(settings, n)}
    lo, hi = sorted((day.pop("ref_base"), day.pop("test_base")))
    holidays = [(f"{start}_days", d, d + getattr(settings, f"{start}_days"))
                for start, d in day.items()]
    for name, first, last in [("span", lo - settings.span, hi + settings.span), *holidays]:
        if not (-2**63 < first and last < 2**63 and last - first + 1 < 2**63):
            raise ValueError(f"{name} must keep the days it implies, and their count, within "
                             f"numpy's 64-bit day numbers, got {getattr(settings, name)}")


@dataclass(frozen=True)
class PanelConfig:
    """Everything the generator needs; defaults give a plausible city panel."""

    n_firms: int = 100
    seed: int = 0
    sector_mix: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_SECTOR_MIX))
    district_mix: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_DISTRICT_MIX))
    base_lo: float = 50.0
    base_hi: float = 5000.0
    weekly_amplitude: float = 0.15
    annual_amplitude: float = 0.10
    ref_base: str = "2019-02-04"
    test_base: str = "2020-01-24"
    span: int = 95
    holiday_ref: str = "2019-02-04"
    holiday_ref_days: int = 10
    holiday_test: str = "2020-01-24"
    holiday_test_days: int = 10
    holiday_depth: float = 0.35
    shock_start: int = 10
    shock_duration: int = 0
    # by sector code or level name; a code's own entry beats its level's (tertiary hit hardest)
    shock_depth: Mapping[str, float] = field(
        default_factory=lambda: {"primary": 0.25, "secondary": 0.45, "tertiary": 0.60})
    shock_half_life: float = 12.0
    shock_onset_jitter: int = 0
    shock_depth_jitter: float = 0.0
    noise_frac: float = 0.05
    missing_rate: float = 0.0
    outlier_rate: float = 0.0

    def __post_init__(self):
        for name, low in (("n_firms", 0), ("seed", 0), ("span", 1), ("shock_duration", 0),
                          ("shock_onset_jitter", 0), ("holiday_ref_days", 0),
                          ("holiday_test_days", 0)):
            if not getattr(self, name) >= low:  # NaN fails too
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("ref_base", "test_base", "holiday_ref", "holiday_test"):
            check_date(getattr(self, name), name)
        check_int64(self)
        if not 0.0 <= self.noise_frac < np.inf:
            raise ValueError(f"noise_frac must be finite and >= 0, got {self.noise_frac}")
        _check_mix(self.sector_mix, "sector_mix")
        _check_mix(self.district_mix, "district_mix")
        if not 0.0 < self.base_lo <= self.base_hi <= 1e150:  # sums of squares overflow near 1e154
            raise ValueError("base_lo and base_hi must be positive with base_lo <= base_hi <= "
                             f"1e150, got {self.base_lo} and {self.base_hi}")
        for name in ("weekly_amplitude", "annual_amplitude", "holiday_depth",
                     "shock_depth_jitter", "missing_rate", "outlier_rate"):
            v = getattr(self, name)
            if not (0.0 <= v < 1.0):
                raise ValueError(f"{name} must lie in [0, 1), got {v}")
        if not self.shock_half_life > 0.0:
            raise ValueError(f"shock_half_life must be > 0, got {self.shock_half_life}")
        unknown = set(self.shock_depth) - set(self.sector_mix) - set(LEVEL_NAMES.values())
        if unknown:
            raise ValueError(f"shock_depth names unknown sector code {sorted(unknown)[0]!r}")
        for name, depth in {**self.shock_depth, **self.depths()}.items():
            if not (0.0 <= depth <= 1.0):
                raise ValueError(f"shock depth for {name} must lie in [0, 1], got {depth}")

    def depths(self) -> dict[str, float]:
        """Depth of every code of ``sector_mix``: its own entry, else its level's, else 0."""
        d = self.shock_depth
        return {code: d[code] if code in d else d.get(LEVEL_NAMES[sector_level(code)], 0.0)
                for code in self.sector_mix}

    def date_range(self) -> tuple[np.datetime64, np.datetime64]:
        """First and last calendar day the panel must cover (both windows)."""
        span = np.timedelta64(self.span, "D")
        return np.datetime64(self.ref_base) - span, np.datetime64(self.test_base) + span


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

    def __post_init__(self):
        check_date(self.ref_base, "ref_base")
        check_date(self.test_base, "test_base")
        for name, low in (("span", 1), ("em_max_iter", 1), ("multi_start", 0), ("workers", 1),
                          ("smooth_window", 1), ("interp_window", 1), ("seed", 0)):
            if not getattr(self, name) >= low:  # NaN fails too
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        check_int64(self)
        for name in ("em_tol", "outlier_k"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if self.outlier_window < 3 or self.outlier_window % 2 == 0:
            raise ValueError(f"outlier_window must be odd and >= 3, got {self.outlier_window}")
        for i, g in enumerate(self.group_by):
            if g not in ("sector", "district"):
                raise ValueError(f"group_by entries must be sector or district, got {g!r}")
            if g in self.group_by[:i]:
                raise ValueError(f"group_by names {g!r} twice")


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
    """``text`` as the type of ``default``: a number, a comma list, a code:value
    mapping, or the string itself."""
    kind = type(default)
    if kind is tuple:
        return tuple(part.strip() for part in text.split(",") if part.strip())
    if kind is dict:
        return parse_mapping(text, key)
    if kind not in _KINDS:
        return text
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"config field {key} must be {_KINDS[kind]}, got {text!r}") from None


def _fields_from(cls, raw: dict[str, str]) -> dict:
    """Converted values of the keys in ``raw`` that name a field of ``cls``."""
    return {f.name: _convert(f.name, raw[f.name],
                             f.default_factory() if f.default is MISSING else f.default)
            for f in fields(cls) if f.name in raw}


def parse_mapping(value: str, field: str) -> dict[str, float]:
    out = {}
    for item in value.split(","):
        item = item.strip()
        if not item:
            continue
        if ":" not in item:
            raise ValueError(f"config field {field} entries must be code:value, got {item!r}")
        code, _, num = item.partition(":")
        code = code.strip()
        if code in out:
            raise ValueError(f"config field {field} names {code!r} twice")
        try:
            out[code] = float(num)
        except ValueError:
            raise ValueError(f"config field {field} has non-numeric value in {item!r}") from None
    if not out:
        raise ValueError(f"config field {field} is empty")
    return out


@_config_errors
def build_panel_config(raw: dict[str, str]) -> PanelConfig:
    """PanelConfig from raw config strings; other stages' keys are ignored."""
    return PanelConfig(**_fields_from(PanelConfig, raw))


@_config_errors
def build_run_config(raw: dict[str, str]) -> RunConfig:
    """RunConfig from raw config strings; other stages' keys are ignored."""
    return RunConfig(**_fields_from(RunConfig, raw))
