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
signature numpy picks for float64 and runs under the error state numpy's
wrapper sets (``invalid='call'`` with a callback raising ``LinAlgError``),
so it returns the wrapper's bits and raises ``LinAlgError`` on the same
singular, not positive definite or non-convergent input. That error state
is built once per message, with numpy's ``_make_extobj`` (bound here as
``make_extobj``), when this module is imported. Each call sets it through
numpy's error-state context variable (``extobj_contextvar``) and resets it
on the way out, whether the kernel returns or raises, so the caller's error
state, an enclosing ``np.errstate`` included, holds again afterwards.
Besides the error handling, the state carries the ufunc buffer size current
at import, which decides no bit of these kernels.

What the bindings leave out is the wrapper's argument handling (array
conversion, type resolution, shape checks, result wrapping) and a fresh
``np.errstate`` per call: a fixed cost that is large next to the small
matrices of a control step. On the host above (fastest of 15 timeit rounds)
``np.linalg.solve`` of a 31x31 system took 16.0 us; the same gufunc call
took 12.6-14.0 us under a fresh ``np.errstate`` and 11.6-11.8 us under the
prebuilt state. ``np.linalg.svd`` of a 3x27 matrix took 14.5 us against
10.9 us through its gufunc, and ``np.einsum`` of a chain pass 3.2 against
2.0 us through ``c_einsum``. Arguments are float64 arrays of the shapes the
gufuncs take.

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
# What np.errstate builds and sets: an error-state object and the context
# variable every ufunc reads it from.
make_extobj, extobj_contextvar = (
    _numpy_kernel("numpy._core.umath", name) for name in ("_make_extobj", "_extobj_contextvar"))


def _raising(message: str):
    """The error state numpy's wrappers call a gufunc under, built once: a
    floating-point invalid flag, which the gufunc raises when LAPACK fails,
    calls back into raising LinAlgError(message)."""
    def callback(err, flag):
        raise LinAlgError(message)

    return make_extobj(call=callback, invalid="call", over="ignore", divide="ignore",
                        under="ignore")


_SINGULAR = _raising("Singular matrix")
_NOT_PD = _raising("Matrix is not positive definite")
_NO_EIGENVALUES = _raising("Eigenvalues did not converge")
_NO_SVD = _raising("SVD did not converge")


def _under(state, gufunc, *args, signature):
    """``gufunc(*args, signature=signature)`` under the error state
    ``state``; the caller's state holds again when it returns or raises."""
    token = extobj_contextvar.set(state)
    try:
        return gufunc(*args, signature=signature)
    finally:
        extobj_contextvar.reset(token)


def svd(a, full_matrices=True):
    """(u, s, vt) of ``np.linalg.svd(a, full_matrices)`` (gesdd)."""
    return _under(_NO_SVD, _svd_f if full_matrices else _svd_s, a, signature="d->ddd")


def svdvals(a):
    """The singular values ``np.linalg.svd(a, compute_uv=False)`` gives."""
    return _under(_NO_SVD, _svd_n, a, signature="d->d")


def solve(a, b):
    """``np.linalg.solve(a, b)``: b of shape (M,) is one right-hand side,
    any other b a stack of (M, K) blocks."""
    return _under(_SINGULAR, _solve1 if b.ndim == 1 else _solve, a, b, signature="dd->d")


def inv(a):
    """``np.linalg.inv(a)``."""
    return _under(_SINGULAR, _inv, a, signature="d->d")


def cholesky(a):
    """``np.linalg.cholesky(a)``, the lower factor."""
    return _under(_NOT_PD, _cholesky_lo, a, signature="d->d")


def eigvalsh(a):
    """``np.linalg.eigvalsh(a)``, read from the lower triangle."""
    return _under(_NO_EIGENVALUES, _eigvalsh_lo, a, signature="d->d")
