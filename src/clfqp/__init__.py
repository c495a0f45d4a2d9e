"""Task-space CLF-QP control of underactuated tendon-driven robots.

Library layout:

- ``linalg`` / ``qp``: dense numerical layer (checked SVD, pseudoinverse,
  active-set QP solver).
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
  ic-qp), each a function ``law(ctrl, state, ref)`` of the ``Controller``
  that runs it by name: one full-body QP builder with or without the
  Lyapunov row and one impedance step, each reading which form from the
  controller's name. A controller makes its law's constants once, when it
  is built.
- ``robots``: benchmark robot descriptions (finger, helix, spirob) loaded
  from YAML spec files.
- ``sim``: fixed-step zero-order-hold integration: one step over rows of
  states that names each row's end, and the one loop over every episode,
  which checks each state once.
- ``experiments``: set-point and trajectory benchmarks, metrics, CSV export.
- ``cli``: command-line entry point.
"""

__version__ = "0.1.0"
