"""clfqp takes dpotrf, dpotrs, dtrtri and dgesvd from scipy's LAPACK extension
without importing the scipy.linalg package, and they are scipy's own
routines whichever of the two is imported first."""

import importlib.machinery
import os
import subprocess
import sys
from pathlib import Path

import pytest

from clfqp import _lapack

SRC = Path(__file__).resolve().parents[1] / "src"
ROUTINES = ("dpotrf", "dpotrs", "dtrtri", "dgesvd")


def fresh_python(code):
    """Run code in a new interpreter that imports clfqp from the source tree;
    return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestColdStart:
    def test_experiments_import_leaves_out_scipy_linalg(self):
        out = fresh_python("import sys, clfqp.experiments\n"
                           "print('scipy.linalg' in sys.modules)")
        assert out.split() == ["False"]

    def test_cli_list_leaves_out_scipy_linalg(self):
        out = fresh_python("import runpy, sys\n"
                           "sys.argv = ['clfqp', 'list', 'robots']\n"
                           "try:\n"
                           "    runpy.run_module('clfqp', run_name='__main__')\n"
                           "except SystemExit as exc:\n"
                           "    assert exc.code == 0, exc.code\n"
                           "print('scipy.linalg' in sys.modules)")
        assert out.split() == ["finger", "helix", "spirob", "False"]


class TestSameRoutines:
    @pytest.mark.parametrize("first,second", [
        ("clfqp._lapack", "scipy.linalg.lapack"),
        ("scipy.linalg.lapack", "clfqp._lapack"),
    ])
    def test_identical_to_scipy_linalg_lapack(self, first, second):
        out = fresh_python(f"import {first}, {second}\n"
                           "import sys\n"
                           "ours, theirs = sys.modules['clfqp._lapack'], "
                           "sys.modules['scipy.linalg.lapack']\n"
                           f"print(*(getattr(ours, n) is getattr(theirs, n) for n in {ROUTINES}))")
        assert out.split() == ["True"] * len(ROUTINES)


class TestMissingExtension:
    def test_names_scipy_version_and_directory(self, monkeypatch):
        import scipy

        monkeypatch.delitem(sys.modules, _lapack._NAME, raising=False)
        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                            lambda name, path=None, target=None: None)
        where = os.path.join(os.path.dirname(scipy.__file__), "linalg")
        with pytest.raises(ImportError) as info:
            _lapack._load_flapack()
        assert f"scipy {scipy.__version__}" in str(info.value)
        assert where in str(info.value)
