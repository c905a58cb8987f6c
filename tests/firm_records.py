"""Per-firm records: a panel as one ``RawSeries`` per firm, the shape the oracles keep.

``panel_of`` lays records out as the package's ``KwhPanel``, and ``records_of``
reads a panel's rows back as records, so tests can build panels firm by firm
and compare a panel's grid rows with what an oracle returns.
"""

from dataclasses import dataclass

import numpy as np

from ecuindex.preprocess import DAY, KwhPanel, RawSeries


@dataclass(frozen=True)
class FirmRecord:
    """One firm's raw series plus its sector and district assignment."""

    firm_id: str
    sector_code: str
    district_code: str
    series: RawSeries


def panel_of(records) -> KwhPanel:
    """The records as one panel in firm id order, its grid spanning their days (at least one
    column) and NaN outside each firm's."""
    records = sorted(records, key=lambda r: r.firm_id)
    day0 = min((r.series.dates[0] for r in records if len(r.series)),
               default=np.datetime64("1970-01-01"))
    lo = np.array([(r.series.dates[0] - day0) // DAY if len(r.series) else 0 for r in records],
                  dtype=np.intp)
    hi = lo + np.array([len(r.series) for r in records], dtype=np.intp)
    kwh = np.full((len(records), max(hi.max(initial=0), 1)), np.nan)
    for row, rec, a, b in zip(kwh, records, lo, hi):
        row[a:b] = rec.series.values
    return KwhPanel([r.firm_id for r in records], [r.sector_code for r in records],
                    [r.district_code for r in records], day0, lo, hi, kwh)


def records_of(panel: KwhPanel) -> list[FirmRecord]:
    """Each row of the panel as a record: its days ``lo:hi`` and their readings."""
    return [FirmRecord(firm_id, sector, district,
                       RawSeries(panel.day0 + np.arange(lo, hi), panel.kwh[k, lo:hi]))
            for k, (firm_id, sector, district, lo, hi) in enumerate(zip(
                panel.firm_ids, panel.sector_codes, panel.district_codes, panel.lo.tolist(),
                panel.hi.tolist()))]
