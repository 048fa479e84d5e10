"""Acceptance gate: every stated criterion at its stated tolerance.

The full battery runs once per session through run_acceptance, with eight
workers; each criterion then gets its own pass/fail test line.  The last test
reruns the battery through the CLI in a subprocess with one worker and
byte-compares its report with the session's, which is the external form of
the determinism criterion.
"""

import json
import os
import subprocess
import sys

import pytest

from exitrate._util import THREADS_ENV
from exitrate.verify import DEFAULT_SEED, run_acceptance

N_CRITERIA = 15


@pytest.fixture(scope="session")
def acceptance(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(THREADS_ENV, "8")
        report = run_acceptance(seed=DEFAULT_SEED, out_dir=str(out), echo=False)
    return report, out


def _entry(report: dict, cid: int) -> dict:
    for ent in report["criteria"]:
        if ent["id"] == cid:
            return ent
    raise KeyError(f"criterion {cid} missing from the report")


@pytest.mark.parametrize("cid", range(1, N_CRITERIA + 1))
def test_criterion(acceptance, cid):
    report, _ = acceptance
    ent = _entry(report, cid)
    status = "PASS" if ent["passed"] else "FAIL"
    print(f"criterion {cid:02d}: {status}  {ent['title']}")
    if not ent["passed"]:
        print("measured:", json.dumps(ent["measured"], sort_keys=True, default=str))
        print("required:", json.dumps(ent["required"], sort_keys=True, default=str))
    assert ent["passed"], f"criterion {cid:02d} failed: {ent['title']}"


def test_every_criterion_is_present_and_all_passed(acceptance):
    report, out = acceptance
    assert [ent["id"] for ent in report["criteria"]] == list(range(1, N_CRITERIA + 1))
    assert report["all_passed"]
    on_disk = json.loads((out / "verify_report.json").read_text())
    assert on_disk["all_passed"]
    assert on_disk["seed"] == DEFAULT_SEED


def test_cli_verifier_is_worker_count_invariant(acceptance, tmp_path):
    # One single-threaded CLI verifier must write the byte-identical report
    # of the eight-threaded in-process session battery.
    _, session_out = acceptance
    out = tmp_path / "w1"
    env = dict(os.environ, EXITRATE_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "exitrate.cli", "verify", "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=1200,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all criteria passed" in proc.stdout
    assert (out / "verify_report.json").read_bytes() == (session_out / "verify_report.json").read_bytes()
