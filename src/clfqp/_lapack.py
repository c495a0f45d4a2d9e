"""The LAPACK routines clfqp calls: ``dpotrf``, ``dpotrs``, ``dtrtri`` and
``dgesvd``.

They come from scipy's compiled LAPACK wrapper ``scipy.linalg._flapack``,
loaded from scipy's install directory without running
``scipy/linalg/__init__.py``. That package ``__init__`` pulls in
``scipy._lib.array_api_compat`` and with it ``numpy.testing``,
``numpy.f2py``, ``numpy.ma``, ``unittest`` and ``email``: about 270 ms and
28 MB of a fresh process (scipy 1.17, numpy 2.4, Python 3.11 on a 2-core
x86-64 Linux host), for routines that sit in one extension module.

The module is registered under its own name in ``sys.modules``, so a later
``import scipy.linalg`` reuses it (and one imported first is reused here):
``scipy.linalg.lapack.dpotrf is clfqp._lapack.dpotrf`` in either import
order, and the routines are scipy's own, bit for bit.
"""

import importlib.machinery
import importlib.util
import os
import sys

import scipy

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
