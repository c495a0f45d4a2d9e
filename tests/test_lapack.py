"""clfqp takes dpotrf, dpotrs, dtrtri and dgesvd from scipy's LAPACK extension
without importing the scipy.linalg package, and they are scipy's own
routines whichever of the two is imported first. Its numpy kernels give the
bits and the LinAlgError of the public calls they replace, and the per-step
modules call no numpy wrapper in their place."""

import ast
import importlib.machinery
import os
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import LinAlgError

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


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestNumpyKernels:
    """Each binding returns the bits of the public numpy call it stands for,
    on one matrix and on a stack of them."""

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_svd(self, lead):
        rng = np.random.default_rng(1)
        for m, n in ((3, 27), (27, 3), (7, 7)):
            a = rng.standard_normal(lead + (m, n))
            for full in (True, False):
                got = _lapack.svd(a, full_matrices=full)
                want = np.linalg.svd(a, full_matrices=full)
                assert len(got) == 3 and all(same_bits(g, w) for g, w in zip(got, want))
            assert same_bits(_lapack.svdvals(a), np.linalg.svd(a, compute_uv=False))

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_solve(self, lead):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(lead + (31, 31))
        for b_shape in ((31,), lead + (31, 1), lead + (31, 4)):
            b = rng.standard_normal(b_shape)
            assert same_bits(_lapack.solve(a, b), np.linalg.solve(a, b))
        # the triangular solves of the QP's reduced Hessian
        low = np.tril(a) + 31.0 * np.eye(31)
        b = rng.standard_normal(31)
        assert same_bits(_lapack.solve(low.swapaxes(-1, -2), b),
                         np.linalg.solve(low.swapaxes(-1, -2), b))

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_inv_cholesky_eigvalsh(self, lead):
        rng = np.random.default_rng(3)
        for n in (2, 3, 27):
            a = rng.standard_normal(lead + (n, n))
            sym = a @ a.swapaxes(-1, -2) + n * np.eye(n)
            assert same_bits(_lapack.inv(a), np.linalg.inv(a))
            assert same_bits(_lapack.cholesky(sym), np.linalg.cholesky(sym))
            assert same_bits(_lapack.eigvalsh(sym), np.linalg.eigvalsh(sym))
            assert same_bits(_lapack.eigvalsh(a), np.linalg.eigvalsh(a))

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_einsum(self, lead):
        rng = np.random.default_rng(4)
        rot, skew = rng.standard_normal((2,) + lead + (27, 3, 3))
        vec = rng.standard_normal(lead + (27, 3))
        local = rng.standard_normal((27, 3))
        for subscripts, operands in (("...kij,kj->...ki", (rot, local)),
                                     ("...kij,kj,...klj->...kil", (rot, local, rot)),
                                     ("...kij,...klj->...kil", (skew, skew)),
                                     ("...kij,...kj->...ki", (rot, vec)),
                                     ("...ki,...ki->...k", (vec, vec))):
            assert same_bits(_lapack.c_einsum(subscripts, *operands),
                             np.einsum(subscripts, *operands))

    def test_frame_product(self):
        rng = np.random.default_rng(5)
        rots = rng.standard_normal((27, 3, 3))
        got, want = (np.empty((28, 3, 3)) for _ in range(2))
        got[0] = want[0] = np.eye(3)
        for k, r in enumerate(rots):
            np.ndarray.dot(got[k], r, out=got[k + 1])
            np.dot(want[k], r, out=want[k + 1])
        assert same_bits(got, want)


def outcome(fn, *args):
    """("raises", message) or ("returns", result) of fn(*args)."""
    try:
        return "returns", fn(*args)
    except LinAlgError as exc:
        return "raises", str(exc)


SINGULAR = np.array([[1.0, 2.0], [2.0, 4.0]])
STACK = np.stack([np.eye(2), SINGULAR])
NAN = np.full((3, 4), np.nan)


class TestLinAlgErrors:
    """Each binding raises LinAlgError, with numpy's message, exactly where
    the public call does."""

    @pytest.mark.parametrize("ours,theirs,args", [
        (_lapack.solve, np.linalg.solve, (SINGULAR, np.ones(2))),
        (_lapack.solve, np.linalg.solve, (STACK, np.ones((2, 2, 1)))),
        (_lapack.inv, np.linalg.inv, (SINGULAR,)),
        (_lapack.inv, np.linalg.inv, (STACK,)),
        (_lapack.cholesky, np.linalg.cholesky, (np.diag([1.0, -1.0]),)),
        (_lapack.cholesky, np.linalg.cholesky, (SINGULAR,)),
        (_lapack.svd, np.linalg.svd, (NAN,)),
        (lambda a: _lapack.svd(a, full_matrices=False),
         lambda a: np.linalg.svd(a, full_matrices=False), (NAN,)),
        (_lapack.svdvals, lambda a: np.linalg.svd(a, compute_uv=False), (NAN,)),
        (_lapack.eigvalsh, np.linalg.eigvalsh, (np.full((3, 3), np.nan),)),
    ])
    def test_same_outcome_as_numpy(self, ours, theirs, args):
        kind, want = outcome(theirs, *args)
        got_kind, got = outcome(ours, *args)
        assert got_kind == kind
        if kind == "raises":
            assert got == want
        else:
            for g, w in zip(got if isinstance(got, tuple) else (got,),
                            want if isinstance(want, tuple) else (want,)):
                assert same_bits(g, w)

    def test_the_cases_that_must_raise_do(self):
        for fn, args in ((_lapack.solve, (SINGULAR, np.ones(2))), (_lapack.inv, (SINGULAR,)),
                         (_lapack.cholesky, (np.diag([1.0, -1.0]),)), (_lapack.svd, (NAN,)),
                         (_lapack.svdvals, (NAN,))):
            with pytest.raises(LinAlgError):
                fn(*args)


ERROR_ARGS = dict(invalid="call", over="ignore", divide="ignore", under="ignore")
# binding, the gufunc it calls, its arguments, the message it raises
BINDINGS = [
    (_lapack.svd, "_svd_f", (NAN,), "SVD did not converge"),
    (lambda a: _lapack.svd(a, full_matrices=False), "_svd_s", (NAN,), "SVD did not converge"),
    (_lapack.svdvals, "_svd_n", (NAN,), "SVD did not converge"),
    (_lapack.solve, "_solve1", (SINGULAR, np.ones(2)), "Singular matrix"),
    (_lapack.solve, "_solve", (STACK, np.ones((2, 2, 1))), "Singular matrix"),
    (_lapack.inv, "_inv", (SINGULAR,), "Singular matrix"),
    (_lapack.cholesky, "_cholesky_lo", (np.diag([1.0, -1.0]),),
     "Matrix is not positive definite"),
    (_lapack.eigvalsh, "_eigvalsh_lo", (np.full((3, 3), np.nan),),
     "Eigenvalues did not converge"),
]
IDS = ["svd", "svd_reduced", "svdvals", "solve1", "solve", "inv", "cholesky", "eigvalsh"]


def error_state():
    return np.geterr(), np.geterrcall(), np.getbufsize()


class TestPrebuiltErrorStates:
    """Each binding runs its gufunc under the error state np.errstate would
    set for numpy's wrapper, and leaves the caller's state as it found it."""

    @pytest.mark.parametrize("binding,gufunc,args,message", BINDINGS, ids=IDS)
    def test_state_inside_the_kernel(self, monkeypatch, binding, gufunc, args, message):
        seen = []
        kernel = getattr(_lapack, gufunc)

        def probe(*a, signature):
            seen.append(error_state())
            return kernel(*a, signature=signature)

        monkeypatch.setattr(_lapack, gufunc, probe)
        with pytest.raises(LinAlgError):
            binding(*args)
        (inside, callback, bufsize), = seen
        with np.errstate(call=callback, **ERROR_ARGS):
            assert (inside, callback, bufsize) == error_state()
        with pytest.raises(LinAlgError) as info:
            callback("invalid value", 8)
        assert str(info.value) == message

    @pytest.mark.parametrize("outer", [{}, {"invalid": "ignore"}, {"all": "raise"}])
    @pytest.mark.parametrize("binding,gufunc,args,message", BINDINGS, ids=IDS)
    def test_caller_state_holds_after_a_raise(self, binding, gufunc, args, message, outer):
        with np.errstate(**outer):
            before = error_state()
            assert outcome(binding, *args) == ("raises", message)
            assert error_state() == before

    @pytest.mark.parametrize("outer", [{}, {"invalid": "ignore"}])
    def test_caller_state_holds_after_a_return(self, outer):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((4, 4))
        sym = a @ a.T + 4.0 * np.eye(4)
        with np.errstate(**outer):
            before = error_state()
            for fn, fn_args in ((_lapack.svd, (a,)), (_lapack.svdvals, (a,)),
                                (_lapack.solve, (a, np.ones(4))), (_lapack.inv, (a,)),
                                (_lapack.cholesky, (sym,)), (_lapack.eigvalsh, (sym,))):
                fn(*fn_args)
                assert error_state() == before, fn.__name__
            with pytest.warns(RuntimeWarning) if not outer else nullcontext():
                np.sqrt(np.array([-1.0]))


class TestMissingNumpyKernel:
    @pytest.mark.parametrize("module,name", [("numpy.linalg._umath_linalg", "no_such_gufunc"),
                                             ("numpy._no_such_module", "c_einsum")])
    def test_names_numpy_version(self, module, name):
        with pytest.raises(ImportError) as info:
            _lapack._numpy_kernel(module, name)
        assert f"numpy {np.__version__} has no {module}.{name}" in str(info.value)

    @pytest.mark.parametrize("name", ["_make_extobj", "_extobj_contextvar"])
    def test_import_fails_without_an_error_state_name(self, name):
        out = fresh_python("import numpy as np\n"
                           "import numpy._core.umath as umath\n"
                           f"del umath.{name}\n"
                           "try:\n"
                           "    import clfqp._lapack\n"
                           "except ImportError as exc:\n"
                           "    print(str(exc) == f'numpy {np.__version__} has no '\n"
                           f"          'numpy._core.umath.{name}')\n")
        assert out.split() == ["True"]

    def test_import_fails_without_a_gufunc(self):
        out = fresh_python("import numpy as np\n"
                           "import numpy.linalg._umath_linalg as gufuncs\n"
                           "del gufuncs.svd_s\n"
                           "try:\n"
                           "    import clfqp._lapack\n"
                           "except ImportError as exc:\n"
                           "    print(str(exc) == f'numpy {np.__version__} has no '\n"
                           "          'numpy.linalg._umath_linalg.svd_s')\n")
        assert out.split() == ["True"]


PER_STEP_MODULES = ("multibody", "kinematics", "linalg", "qp", "controllers", "sim")


def _dotted(node) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def numpy_wrapper_uses(path: Path) -> list[str]:
    """Calls of np.linalg.*, np.einsum or np.dot in a module, and imports of
    those names, as "line: name"."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name in ("np.einsum", "np.dot", "numpy.einsum", "numpy.dot") or \
                    name.startswith(("np.linalg.", "numpy.linalg.")):
                found.append(f"{node.lineno}: {name}")
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if ((node.module == "numpy.linalg" and alias.name != "LinAlgError")
                        or (node.module == "numpy" and alias.name in ("einsum", "dot", "linalg"))):
                    found.append(f"{node.lineno}: from {node.module} import {alias.name}")
    return found


class TestNoNumpyWrappers:
    @pytest.mark.parametrize("module", PER_STEP_MODULES)
    def test_module_calls_the_kernels(self, module):
        assert numpy_wrapper_uses(SRC / "clfqp" / f"{module}.py") == []

    def test_the_check_sees_wrapper_calls(self, tmp_path):
        path = tmp_path / "sample.py"
        path.write_text("import numpy as np\n"
                        "from numpy.linalg import svd\n"
                        "np.linalg.solve(a, b)\n"
                        "np.einsum('ij->i', a)\n"
                        "np.dot(a, b)\n"
                        "np.ndarray.dot(a, b)\n", encoding="utf-8")
        assert numpy_wrapper_uses(path) == ["2: from numpy.linalg import svd",
                                            "3: np.linalg.solve", "4: np.einsum", "5: np.dot"]
