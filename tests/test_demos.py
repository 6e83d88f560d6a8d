"""Every demo script runs to completion and prints what it always printed.

The demos import each name from the module that defines it, so a renamed
or deleted name would otherwise break one silently.  Each demo is seeded,
so its stdout is pinned by SHA-256; an API change must not change what it
shows.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STDOUT_SHA256 = {
    "01_sign_encrypt_blind.py": "27c9f5d55e180df5096c8bb38656218771a9e212904abc8b35ac10f1c647185f",
    "02_certified_ciphertexts.py": "a9ba22b7201e42d00b39fed32bbd30a9246302f1a68eb5814616938729185311",
    "03_exchange_scenarios.py": "408451798c6d41714e49dbf6a5926936d289640796985ece4c5ff9b240ac11e3",
    "04_fault_matrix.py": "c626a9086b7e580dea971a14abd18ea0b42cf10677ab3db62e30894c43a8924c",
}


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name]
