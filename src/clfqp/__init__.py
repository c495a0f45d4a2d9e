"""Task-space CLF-QP control of underactuated tendon-driven robots.

Library layout:

- ``linalg`` / ``qp``: dense numerical layer (checked SVD, pseudoinverse,
  structured Riccati solve, active-set QP solver).
- ``_lapack``: the compiled kernels behind the linear algebra, bound in
  one place: scipy's LAPACK routines (``dpotrf``, ``dpotrs``, ``dtrtri``,
  ``dgesvd``), loaded from scipy's compiled extension without importing the
  ``scipy.linalg`` package, which would add about 270 ms and 28 MB to every
  fresh process; and numpy's ``c_einsum`` and the ``_umath_linalg`` gufuncs
  behind ``np.linalg``'s svd, solve, inv, cholesky and eigvalsh, called
  without their wrappers' fixed cost per call.
- ``multibody`` / ``kinematics``: serial-chain dynamics and task-space maps.
- ``clf``: quadratic Lyapunov certificate and its per-step inequality row.
- ``controllers``: the five control laws (clf-qp, soft-id-clf-qp, ic, uic,
  ic-qp) as per-step maps from state to bounded input: one full-body QP
  builder with or without the Lyapunov row, one impedance step with uic as
  a flag, and one ``Controller`` class that runs any law by name.
- ``robots``: benchmark robot descriptions (finger, helix, spirob) loaded
  from YAML spec files.
- ``sim``: fixed-step integration with zero-order-hold control; the one
  loop that runs and ends every episode, alone or in lockstep.
- ``experiments``: set-point and trajectory benchmarks, metrics, CSV export.
- ``cli``: command-line entry point.
"""

__version__ = "0.1.0"
