"""The CLI chain's output bytes, pinned by sha256.

``simulate → fit → index → report`` runs on a 30-firm panel with jittered
lockdown shocks (root seed 11), once at workers=1 and once at workers=2.
Every one of the six files it writes must hash to the value recorded
below.  The hashes were recorded with numpy 2.4.6 on Python 3.11, before
the CSV readers and writers moved from row lists to whole text blocks; the
hash of ``firmdays.npy`` when the fit's firm-day handoff became that binary
array, and that of ``report_F00003.csv`` when its rows came to end in CRLF
as every other CSV's do.  A change that alters any output byte (a float's text, a row's order,
a quoting rule, the array's header) fails here.
"""

import hashlib

import pytest

from ecuindex.cli import main

CONFIG = """
n_firms = 30
seed = 11
missing_rate = 0.02
outlier_rate = 0.01
shock_start = 10
shock_onset_jitter = 10
shock_depth_jitter = 0.3
"""

GOLDEN = {
    "panel.csv":
        "39cbc6313848c271fdd34bd53a5d3d75984390c04efd0aafc30cafd459542be4",
    "models.csv":
        "7fb0d0f6563bed029fab6c0cdbc301eca7102921bf8797be8bc8adeaea96f6d3",
    "firmdays.npy":
        "2c841b34daa9418b2e840ca36cacfa242a4a3de75669ce7e7b21e392bcf91e37",
    "ecu.csv":
        "7b9b30857bbfa4b7ecb217034241e0e8375dd82b440e02c72397e31fbfc80ea6",
    "srpi.csv":
        "b00e565afe4fe105307074dc329befaa42ea965483a71e2149a2a315b6f4ea74",
    "report_F00003.csv":
        "e40891ee3a1860c02668b3b1a084a01a574e020e33c510b85a6550f8623eafa6",
}


@pytest.mark.parametrize("workers", ["1", "2"])
def test_chain_outputs_match_recorded_hashes(tmp_path, capsys, workers):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    common = ["--config", str(cfg), "--out", str(tmp_path / "out")]
    for argv in (["simulate"], ["fit", "--workers", workers], ["index"],
                 ["report", "--firm", "F00003"]):
        assert main([*argv, *common]) == 0, capsys.readouterr().err
    got = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
           for name in GOLDEN}
    assert got == GOLDEN
