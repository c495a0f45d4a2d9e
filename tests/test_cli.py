import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def clfqp(module, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", module, *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", ["clfqp", "clfqp.cli"])
class TestModuleEntry:
    def test_list_succeeds(self, module):
        proc = clfqp(module, "list", "robots")
        assert proc.returncode == 0
        assert proc.stdout.split() == ["finger", "helix", "spirob"]

    def test_bad_controller_fails(self, module, tmp_path):
        proc = clfqp(module, "run", "--robot", "finger", "--controller", "no-such-law",
                     "--experiment", "setpoint", "--out", str(tmp_path))
        assert proc.returncode != 0
        assert "no-such-law" in proc.stderr
