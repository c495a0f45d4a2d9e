"""The compiled kernels behind clfqp's linear algebra, bound in one place.

scipy's LAPACK: ``dpotrf``, ``dpotrs``, ``dtrtri`` and ``dgesvd`` come from
scipy's compiled LAPACK wrapper ``scipy.linalg._flapack``, loaded from
scipy's install directory without running ``scipy/linalg/__init__.py``.
That package ``__init__`` pulls in ``scipy._lib.array_api_compat`` and with
it ``numpy.testing``, ``numpy.f2py``, ``numpy.ma``, ``unittest`` and
``email``: about 270 ms and 28 MB of a fresh process (scipy 1.17, numpy 2.4,
Python 3.11 on a 2-core x86-64 Linux host), for routines that sit in one
extension module. The module is registered under its own name in
``sys.modules``, so a later ``import scipy.linalg`` reuses it (and one
imported first is reused here): ``scipy.linalg.lapack.dpotrf is
clfqp._lapack.dpotrf`` in either import order, and the routines are scipy's
own, bit for bit.

numpy's: ``c_einsum`` is the C function ``np.einsum`` calls when it does
not optimise the contraction, and ``svd``, ``svdvals``, ``solve``,
``cholesky``, ``inv`` and ``eigvalsh`` call the ``numpy.linalg._umath_linalg``
gufuncs behind ``np.linalg.svd`` (with and without ``compute_uv``),
``solve``, ``cholesky``, ``inv`` and ``eigvalsh``. Each passes the
signature numpy picks for float64 and runs inside the errstate numpy sets
(``invalid='call'`` with a callback raising ``LinAlgError``), so it returns
the wrapper's bits and raises ``LinAlgError`` on the same singular, not
positive definite or non-convergent input. What it leaves out is the
wrapper's argument handling (array conversion, type resolution, shape
checks, result wrapping), a fixed cost per call that is large next to the
small matrices of a control step. On the host above (fastest of 25 timeit
rounds) ``np.linalg.solve`` of a 31x31 system took 16.4 us against 13.3 us
here, ``np.linalg.svd`` of a 3x27 matrix 14.5 against 10.9 us, and
``np.einsum`` of a chain pass 3.2 against 2.0 us. Arguments are float64
arrays of the shapes the gufuncs take.

These names are private to numpy and scipy. One that the installed version
lacks raises ImportError when this module is imported, naming the version.
There is no fallback to the public wrappers: one module decides where every
kernel comes from, so the bits and the costs that were measured are those
of the only path that runs.
"""

import importlib
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
import scipy
from numpy.linalg import LinAlgError

_NAME = "scipy.linalg._flapack"


def _load_flapack():
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    where = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    spec = importlib.machinery.PathFinder.find_spec(_NAME, [where])
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no {_NAME} extension in {where}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[_NAME] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dpotrf = _flapack.dpotrf
dpotrs = _flapack.dpotrs
dtrtri = _flapack.dtrtri
dgesvd = _flapack.dgesvd


def _numpy_kernel(module: str, name: str):
    """Attribute ``name`` of numpy's module ``module``; ImportError naming
    numpy's version when either is missing."""
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        raise ImportError(f"numpy {np.__version__} has no {module}.{name}") from None


c_einsum = _numpy_kernel("numpy._core.multiarray", "c_einsum")
_UMATH_LINALG = "numpy.linalg._umath_linalg"
_svd_s, _svd_f, _svd_n, _solve, _solve1, _inv, _cholesky_lo, _eigvalsh_lo = (
    _numpy_kernel(_UMATH_LINALG, name) for name in
    ("svd_s", "svd_f", "svd", "solve", "solve1", "inv", "cholesky_lo", "eigvalsh_lo"))


def _raising(message: str) -> dict:
    """The errstate arguments numpy's wrappers call a gufunc under: a
    floating-point invalid flag, which the gufunc raises when LAPACK fails,
    calls back into raising LinAlgError(message)."""
    def callback(err, flag):
        raise LinAlgError(message)

    return dict(call=callback, invalid="call", over="ignore", divide="ignore",
                under="ignore")


_SINGULAR = _raising("Singular matrix")
_NOT_PD = _raising("Matrix is not positive definite")
_NO_EIGENVALUES = _raising("Eigenvalues did not converge")
_NO_SVD = _raising("SVD did not converge")


def svd(a, full_matrices=True):
    """(u, s, vt) of ``np.linalg.svd(a, full_matrices)`` (gesdd)."""
    with np.errstate(**_NO_SVD):
        return (_svd_f if full_matrices else _svd_s)(a, signature="d->ddd")


def svdvals(a):
    """The singular values ``np.linalg.svd(a, compute_uv=False)`` gives."""
    with np.errstate(**_NO_SVD):
        return _svd_n(a, signature="d->d")


def solve(a, b):
    """``np.linalg.solve(a, b)``: b of shape (M,) is one right-hand side,
    any other b a stack of (M, K) blocks."""
    with np.errstate(**_SINGULAR):
        return (_solve1 if b.ndim == 1 else _solve)(a, b, signature="dd->d")


def inv(a):
    """``np.linalg.inv(a)``."""
    with np.errstate(**_SINGULAR):
        return _inv(a, signature="d->d")


def cholesky(a):
    """``np.linalg.cholesky(a)``, the lower factor."""
    with np.errstate(**_NOT_PD):
        return _cholesky_lo(a, signature="d->d")


def eigvalsh(a):
    """``np.linalg.eigvalsh(a)``, read from the lower triangle."""
    with np.errstate(**_NO_EIGENVALUES):
        return _eigvalsh_lo(a, signature="d->d")
