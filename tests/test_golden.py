"""The CLI chain's output bytes, pinned by sha256.

``simulate → fit → index → report`` runs on a 30-firm panel with jittered
lockdown shocks (root seed 11), once at workers=1 and once at workers=2.
Every one of the six files it writes must hash to the value recorded
below.  The hashes were recorded with numpy 2.4.6 on Python 3.11, before
the CSV readers and writers moved from row lists to whole text blocks; the
hash of ``firmdays.npy`` when the fit's firm-day handoff became that binary
array, that of ``report_F00003.csv`` when its rows came to end in CRLF
as every other CSV's do, and those of ``models.csv``, ``firmdays.npy`` and
``ecu.csv`` when EM's deterministic init became one M-step on the batch.
A change that alters any output byte (a float's text, a row's order, a
quoting rule, the array's header) fails here.

The bytes hold for one numeric platform: an x86-64 host on which OpenBLAS
(scipy-openblas 0.3.31, ``DYNAMIC_ARCH``) picks its SkylakeX kernels and
numpy's SIMD ``found`` list includes X86_V4 (it read X86_V3, X86_V4,
AVX512_ICL and AVX512_SPR).  BLAS ``dot`` and numpy's loops are chosen per
CPU and add in other orders elsewhere: under ``OPENBLAS_CORETYPE=Haswell``
the fit's files differ in their last bits, and with numpy's AVX-512 loops
off the panel does too.  A failure prints this host's list and
``OPENBLAS_CORETYPE``, which name that likely cause.
"""

import hashlib
import os

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

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
        "7e46f07085427dd07e099cb09da203ee99affb62b6458b8a4238a3d202f62bcd",
    "firmdays.npy":
        "226f070677d904a296c0f6760dc4827be91e1cf79370a7608940637ebbafba12",
    "ecu.csv":
        "4ec50c73feeb1c8f69f720ff812a5d89d1f5790c1cbe4d59cda576ca6fc2687a",
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
    found = [name for name in __cpu_dispatch__ if __cpu_features__[name]]
    assert got == GOLDEN, (f"numpy SIMD found: {found}; "
                           f"OPENBLAS_CORETYPE: {os.environ.get('OPENBLAS_CORETYPE')}")
