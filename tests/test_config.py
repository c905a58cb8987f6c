"""Tests for the flat key=value configuration format."""

import math
from dataclasses import fields, replace

import pytest

from ecuindex.cli import _out_dir, _panel_path
from ecuindex.config import (
    DEFAULT_SECTOR_MIX,
    KNOWN_KEYS,
    ConfigError,
    RunConfig,
    build_panel_config,
    build_run_config,
    load_config,
    parse_kv,
    parse_mapping,
)
from ecuindex.simgen import PanelConfig

# a valid value different from the default, for every accepted key
NON_DEFAULT = {
    # shared, and the command line's paths
    "seed": "7", "out": "elsewhere", "panel": "p.csv",
    "ref_base": "2019-02-05", "test_base": "2020-01-25", "span": "90",
    # simulate
    "n_firms": "7", "sector_mix": "101:1.0", "district_mix": "D01:1.0",
    "base_lo": "10", "base_hi": "6000", "weekly_amplitude": "0.2", "annual_amplitude": "0.2",
    "holiday_ref": "2019-02-01", "holiday_ref_days": "5",
    "holiday_test": "2020-01-20", "holiday_test_days": "5", "holiday_depth": "0.5",
    "shock_start": "3", "shock_duration": "4", "shock_depth": "tertiary:0.5",
    "shock_half_life": "6", "shock_onset_jitter": "2", "shock_depth_jitter": "0.1",
    "noise_frac": "0.1", "missing_rate": "0.01", "outlier_rate": "0.01",
    # fit / index / report
    "code_map": "codes.csv", "smooth_window": "5", "outlier_window": "11", "outlier_k": "3",
    "interp_window": "7", "em_tol": "1e-5", "em_max_iter": "50", "multi_start": "2",
    "workers": "2", "group_by": "sector",
}


def built(raw):
    """Everything a raw config decides: both stage configs and the command line's paths."""
    return build_run_config(raw), build_panel_config(raw), _out_dir(raw), _panel_path(raw)


def test_parse_ignores_comments_and_blanks():
    raw = parse_kv("# a comment\n\n n_firms = 25 \nseed=3\n")
    assert raw == {"n_firms": "25", "seed": "3"}


def test_malformed_line_reports_lineno():
    with pytest.raises(ValueError, match="line 2"):
        parse_kv("seed=1\nnot a pair\n")


def test_duplicate_key_rejected():
    with pytest.raises(ValueError, match="duplicate config key 'seed'"):
        parse_kv("seed=1\nseed=2\n")


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown config key 'n_frms'"):
        parse_kv("n_frms=10\n")


def test_firm_is_not_a_key():
    with pytest.raises(ConfigError, match="unknown config key 'firm'"):
        parse_kv("firm = X\n")


def test_undecodable_config_file_is_a_config_error(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"seed = \xff\n")
    with pytest.raises(ConfigError, match="can't decode byte 0xff"):
        load_config(path)


def test_empty_config_builds_the_defaults():
    assert build_run_config({}) == RunConfig()
    assert build_panel_config({}) == PanelConfig()


def test_every_key_changes_what_is_built():
    assert set(NON_DEFAULT) == KNOWN_KEYS
    defaults = built({})
    for key, value in NON_DEFAULT.items():
        assert built({key: value}) != defaults, key


def test_stages_ignore_each_others_keys():
    assert build_run_config({"n_firms": "7", "shock_depth": "tertiary:0.5"}) == RunConfig()
    assert build_panel_config({"em_tol": "1e-5", "group_by": "sector"}) == PanelConfig()


@pytest.mark.parametrize("key", ["ref_base", "test_base", "holiday_ref", "holiday_test"])
@pytest.mark.parametrize("value", ["2020-13-45", "", "2020", "today", "2020-01-24T05", "NaT"])
def test_dates_must_parse(key, value):
    with pytest.raises(ConfigError, match=f"{key} must be a date"):
        build_panel_config({key: value})
    if key in ("ref_base", "test_base"):
        with pytest.raises(ConfigError, match=f"{key} must be a date"):
            build_run_config({key: value})


def test_type_error_names_field():
    with pytest.raises(ValueError, match="n_firms must be an integer"):
        build_panel_config({"n_firms": "lots"})
    with pytest.raises(ValueError, match="em_tol must be a number"):
        build_run_config({"em_tol": "tiny"})


def test_mapping_syntax():
    assert parse_mapping("a:0.5, b:0.25,c:0.25", "mix") == {"a": 0.5, "b": 0.25, "c": 0.25}


def test_mapping_rejects_bad_entries():
    with pytest.raises(ValueError, match="code:value"):
        parse_mapping("a=0.5", "mix")
    with pytest.raises(ValueError, match="non-numeric"):
        parse_mapping("a:much", "mix")


def test_repeated_mapping_code_is_a_config_error():
    with pytest.raises(ValueError, match="mix names 'a' twice"):
        parse_mapping("a:0.5, a :0.5", "mix")
    with pytest.raises(ConfigError, match="shock_depth names '301' twice"):
        build_panel_config({"shock_depth": "301:0.2,301:0.9"})


def test_repeated_group_is_a_config_error():
    with pytest.raises(ConfigError, match="group_by names 'sector' twice"):
        build_run_config({"group_by": "sector,sector"})


def test_panel_defaults():
    cfg = build_panel_config({})
    assert cfg.n_firms == 100
    assert cfg.span == 95
    assert cfg.sector_mix == DEFAULT_SECTOR_MIX
    assert (cfg.holiday_test, cfg.holiday_test_days) == ("2020-01-24", 10)


def test_panel_overrides():
    cfg = build_panel_config(parse_kv(
        "n_firms=7\nbase_lo=10\nbase_hi=20\nholiday_test=2020-01-20\nholiday_test_days=5\n"
        "sector_mix=101:1.0\n"
    ))
    assert cfg.n_firms == 7
    assert (cfg.base_lo, cfg.base_hi) == (10.0, 20.0)
    assert (cfg.holiday_test, cfg.holiday_test_days) == ("2020-01-20", 5)
    assert cfg.sector_mix == {"101": 1.0}


def test_shock_depth_level_names_expand():
    cfg = build_panel_config({"shock_depth": "tertiary:0.6,201:0.1"})
    depths = cfg.depths()
    assert depths["301"] == 0.6
    assert depths["315"] == 0.6
    assert depths["201"] == 0.1
    assert depths["202"] == 0.0  # secondary not named, no level default given
    assert depths["101"] == 0.0


def test_shock_depth_code_beats_level_name():
    cfg = build_panel_config({"shock_depth": "tertiary:0.6,301:0.2"})
    assert cfg.depths()["301"] == 0.2
    assert cfg.depths()["302"] == 0.6


def test_shock_depth_unknown_code_rejected():
    with pytest.raises(ValueError, match="unknown sector code '999'"):
        build_panel_config({"shock_depth": "999:0.5"})


def test_run_defaults_and_groups():
    cfg = build_run_config({})
    assert cfg.span == 95
    assert cfg.group_by == ("sector", "district")
    assert cfg.workers == 1
    cfg2 = build_run_config({"group_by": "sector"})
    assert cfg2.group_by == ("sector",)
    cfg3 = build_run_config({"group_by": ""})
    assert cfg3.group_by == ()


def test_validation_errors_are_config_errors():
    for build, raw in ((build_run_config, {"workers": "0"}),
                       (build_run_config, {"em_tol": "tiny"}),
                       (build_run_config, {"em_tol": "nan"}),
                       (build_panel_config, {"noise_frac": "nan"}),
                       (build_panel_config, {"shock_half_life": "nan"}),
                       (build_panel_config, {"n_firms": "-3"}),
                       (build_panel_config, {"sector_mix": "999:1.0"}),
                       (build_panel_config, {"sector_mix": "999:1.0", "shock_depth": "tertiary:0.5"}),
                       (build_panel_config, {"shock_depth": "999:0.5"}),
                       (build_run_config, {"seed": "-1"}),
                       (build_panel_config, {"seed": "-1"}),
                       (build_panel_config, {"noise_frac": "inf"}),
                       (build_panel_config, {"base_hi": "inf"}),
                       (build_panel_config, {"base_lo": "inf", "base_hi": "inf"}),
                       (build_run_config, {"em_tol": "inf"}),
                       (build_run_config, {"outlier_k": "inf"})):
        with pytest.raises(ConfigError):
            build(raw)


@pytest.mark.parametrize("cls,setting,value", [
    (RunConfig, "span", 0), (RunConfig, "outlier_k", -1.0), (RunConfig, "em_tol", -1.0),
    (RunConfig, "seed", -1), (PanelConfig, "seed", -1), (PanelConfig, "noise_frac", math.inf),
    (PanelConfig, "base_hi", math.inf), (RunConfig, "em_tol", math.inf),
    (RunConfig, "outlier_k", math.inf),
])
def test_library_config_refuses_a_bad_value_when_built(cls, setting, value):
    """The library refuses what the command line refuses, with a message naming the setting:
    a one-day window, an outlier threshold every reading strays beyond or none can, a
    tolerance EM can never meet or meets at once, a negative seed, non-finite noise or base
    load."""
    with pytest.raises(ValueError, match=f"{setting} must be"):
        cls(**{setting: value})


@pytest.mark.parametrize("setting,value", [
    ("outlier_window", 4), ("outlier_window", 1), ("interp_window", 0), ("smooth_window", 0),
    ("span", -1),
])
def test_a_setting_no_firm_could_pass_is_refused(setting, value):
    """A setting the per-series preprocessing would refuse for every firm is refused when the
    config is built, ``dataclasses.replace`` included."""
    with pytest.raises(ValueError, match=f"^{setting} must be"):
        replace(RunConfig(), **{setting: value})


INT_FIELDS = [(cls, f.name) for cls in (RunConfig, PanelConfig) for f in fields(cls)
              if f.type == "int"]


DAY_COUNTS = ("span", "holiday_ref_days", "holiday_test_days")


@pytest.mark.parametrize("cls,setting", INT_FIELDS)
def test_every_integer_setting_stays_within_int64(cls, setting):
    """Every int field takes the largest int64, unless it counts days, which the day check
    refuses there, and refuses the next integer, and a field with no lower bound refuses one
    below the smallest, ``dataclasses.replace`` included."""
    assert len(INT_FIELDS) == 16
    if setting in DAY_COUNTS:
        with pytest.raises(ValueError, match=f"^{setting} must keep the days it implies"):
            replace(cls(), **{setting: 2**63 - 1})
    else:
        replace(cls(), **{setting: 2**63 - 1})
    for value in (2**63, -2**63 - 1):
        with pytest.raises(ValueError, match=f"^{setting} must "):
            replace(cls(), **{setting: value})


# at the default dates, 2019-02-04 and 2020-01-24 (day numbers 17931 and 18285): days from
# 17931 - span to 18285 + span are 2 * span + 355, and a holiday's day after is its start + days
LONGEST = {"span": (2**63 - 356) // 2, "holiday_ref_days": 2**63 - 1 - 17931,
           "holiday_test_days": 2**63 - 1 - 18285}


@pytest.mark.parametrize("cls,setting", [(PanelConfig, name) for name in DAY_COUNTS]
                         + [(RunConfig, "span")])
def test_day_counts_are_refused_beyond_numpys_day_numbers(cls, setting):
    """A ``span`` or holiday length is taken up to the longest whose days, and their count,
    numpy's int64 day numbers hold, and refused one day longer or at the values that used to
    wrap, by the library and as a ``ConfigError``; building a config allocates nothing."""
    build = build_panel_config if cls is PanelConfig else build_run_config
    longest = LONGEST[setting]
    assert getattr(replace(cls(), **{setting: longest}), setting) == longest
    assert getattr(build({setting: str(longest)}), setting) == longest
    for value in sorted({longest + 1, 2**62 if setting == "span" else longest + 2, 2**63 - 1}):
        message = (f"{setting} must keep the days it implies, and their count, within numpy's "
                   f"64-bit day numbers, got {value}")
        with pytest.raises(ValueError) as caught:
            replace(cls(), **{setting: value})
        assert str(caught.value) == message
        with pytest.raises(ConfigError) as caught:
            build({setting: str(value)})
        assert str(caught.value) == message


def test_day_check_counts_from_the_earlier_base_and_before_1970():
    """The day range runs from the earlier base to the later one, whichever is ``ref_base``, and
    a holiday's from its first day through the day after it: before 1970 its length is bound by
    that count, 2**63 - 1 days."""
    swapped = dict(ref_base="2020-01-24", test_base="2019-02-04")
    for cls in (PanelConfig, RunConfig):
        replace(cls(), span=LONGEST["span"], **swapped)
        with pytest.raises(ValueError, match="^span must keep"):
            replace(cls(), span=LONGEST["span"] + 1, **swapped)
    early = replace(PanelConfig(), holiday_ref="1969-12-31", holiday_ref_days=2**63 - 2)
    assert early.holiday_ref_days == 2**63 - 2  # day -1 through day 2**63 - 3
    with pytest.raises(ValueError, match="^holiday_ref_days must keep"):
        replace(early, holiday_ref_days=2**63 - 1)  # its day after is a day number, its count not


def test_run_validation():
    with pytest.raises(ValueError, match="workers"):
        build_run_config({"workers": "0"})
    with pytest.raises(ValueError, match="em_tol"):
        build_run_config({"em_tol": "0"})
    with pytest.raises(ValueError, match="outlier_window"):
        build_run_config({"outlier_window": "4"})
    with pytest.raises(ValueError, match="group_by"):
        build_run_config({"group_by": "sector,city"})
