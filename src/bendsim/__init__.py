"""Reduced-order modeling of soft bending actuators.

A planar n-link chain with torsional springs and dampers approximates a
fluid-driven bending actuator. The package covers the full pipeline:
skeletonizing dense shape measurements into chain configurations,
simulating the lumped dynamics under pressure inputs, and identifying
stiffness/damping from recorded motions.
"""

from .dynamics import (
    ActuatorGeometry,
    DynamicsParams,
    build_chain,
    coriolis_matrix,
    eom_accel,
    mass_matrix,
    pressure_torque,
    total_energy,
)
from .errors import (
    BendsimError,
    ConfigError,
    DivergenceError,
    InsufficientDataError,
    InvalidInputError,
    ParseError,
)
from .identification import IdentificationResult, ObjectiveResult, identify, objective
from .integrator import (
    PressureTrace,
    SimConfig,
    Trajectory,
    dominant_frequency,
    positions_at,
    pressure_at,
    simulate,
)
from .io import (
    ModelConfig,
    parse_config,
    parse_frames,
    parse_pressure,
    read_trajectory,
    write_config,
    write_report,
    write_trajectory,
)
from .kinematics import (
    BodyVelocity,
    JointState,
    LinkChain,
    LinkParams,
    PlanarPose,
    body_velocities,
    com_positions,
    forward_kinematics,
    joint_positions,
)
from .reconstruction import (
    OrderSelectionReport,
    SensorFrame,
    SplineCurve,
    curvature_profile,
    fit_reference_chain,
    frame_to_joint_angles,
    max_deviation,
    segment_frame,
    select_order,
    spline_through,
)

__version__ = "0.1.0"
