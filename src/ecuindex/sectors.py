"""Default sector and district taxonomy.

Sector codes are two-level: the first digit is the broad group
(1 = primary, 2 = secondary, 3 = tertiary), the remaining digits index the
sector within the group.  The default mix below mirrors the firm-count
shares of a large metropolitan smart-meter panel and is used to seed the
synthetic generator.  The module does no I/O: a run can replace the
sector codes ``index`` accepts with those of a ``code,name`` file, which
``panelio.read_code_map`` reads.
"""

from __future__ import annotations

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

