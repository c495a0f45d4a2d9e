"""Task-space CLF-QP control of underactuated tendon-driven robots.

Library layout:

- ``linalg`` / ``qp``: dense numerical layer (pseudoinverse, structured
  Riccati solve, active-set QP solver).
- ``multibody`` / ``kinematics``: serial-chain dynamics and task-space maps.
- ``clf``: quadratic Lyapunov certificate and its per-step inequality row.
- ``controllers``: the five control laws (clf-qp, soft-id-clf-qp, ic, uic,
  ic-qp) as per-step maps from state to bounded input: one full-body QP
  builder with or without the Lyapunov row, one impedance step with uic as
  a flag, and one ``Controller`` class that runs any law by name.
- ``robots``: benchmark robot descriptions (finger, helix, spirob) loaded
  from YAML spec files.
- ``sim``: fixed-step integration with zero-order-hold control.
- ``experiments``: set-point and trajectory benchmarks, metrics, CSV export.
- ``cli``: command-line entry point.
"""

__version__ = "0.1.0"
