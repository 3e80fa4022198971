"""Planar closed-chain cycling plant.

Crank centre sits at the origin, x pointing away from the rider, y up; the hip
joint of both legs is at (crank_hip_dx, crank_hip_dy) and positive cadence is
counterclockwise.  Each leg is a two-link chain (thigh, shank) pinned to a
pedal on the crank circle; the left pedal leads the right by half a turn.
Muscles are joint-torque generators with first-order activation dynamics, and
the crank is the single mechanical degree of freedom, loaded by Coulomb plus
viscous rolling resistance.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .errors import NonFiniteState, NonPositiveParameter, Unreachable

TWO_PI = 2.0 * math.pi

RIGHT = "right"
LEFT = "left"

QUADRICEPS = "Quadriceps"
HAMSTRINGS = "Hamstrings"
GLUTEUS = "GluteusMaximus"
MUSCLE_NAMES = (QUADRICEPS, HAMSTRINGS, GLUTEUS)

REACH_MARGIN = 1e-6  # m, strict clearance required at both reach limits
CONTROL_DT = 0.05  # s, control interval: one sim_step, policy query or pattern lookup
INNER_DT = 1e-3  # s, crank integrator substep
N_SUBSTEPS = max(1, round(CONTROL_DT / INNER_DT))
SUBSTEP_DT = CONTROL_DT / N_SUBSTEPS
STICTION_CADENCE = 1e-3  # rad/s, below this Coulomb friction can pin the crank
FV_OMEGA_MAX = 15.0  # rad/s of joint motion along the torque direction
FV_ECCENTRIC_CAP = 1.5

ACTIVATION_TAU = 0.1  # s, electrically induced activation lags the command

# Peak joint torques per muscle.
T_MAX_DEFAULTS = {QUADRICEPS: 30.0, HAMSTRINGS: 20.0, GLUTEUS: 25.0}

# Effective torque shares per joint (sign = extension positive) and bump
# sizing relative to the joint's reachable span.  Calibrated so that binary
# full-intensity patterns settle in the 40-60 RPM band on the nominal rig and
# every muscle is worth its stimulation penalty over a distinct arc.
QUAD_KNEE_SHARE = 0.50
HAM_KNEE_SHARE = -0.60
HAM_HIP_SHARE = 0.30
GLUT_HIP_SHARE = 0.55
BUMP_WIDTH_FACTOR = 1.3
# gluteus peaks early in hip extension with a tighter bump, giving it a
# power-stroke niche distinct from the quadriceps
GLUT_OPT_FRACTION = 0.25
GLUT_WIDTH_FACTOR = 0.8


@dataclass(frozen=True)
class CyclingConfig:
    """Geometry and dynamics of one rider/tricycle setup (SI units)."""

    crank_hip_dx: float
    crank_hip_dy: float
    crank_arm: float
    thigh_len: float
    shank_len: float
    seat_angle: float = 0.0
    n_muscles_per_leg: int = 2
    resistance_coulomb: float = 1.0
    resistance_viscous: float = 0.5
    crank_inertia: float = 1.5
    perturbation_seed: int | None = None

    @property
    def hip(self) -> tuple[float, float]:
        return (self.crank_hip_dx, self.crank_hip_dy)


_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(CyclingConfig))


def config_to_json(config: CyclingConfig) -> str:
    data = {name: getattr(config, name) for name in _CONFIG_FIELDS}
    return json.dumps(data, indent=2) + "\n"


def config_from_dict(data: dict) -> CyclingConfig:
    unknown = sorted(set(data) - set(_CONFIG_FIELDS))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return CyclingConfig(**data)


def config_from_json(text: str) -> CyclingConfig:
    return config_from_dict(json.loads(text))


@dataclass(frozen=True)
class MuscleParams:
    """Joint-torque stand-in for one stimulated muscle group.

    The per-joint torque profile is a raised-cosine bump
    share * max(0, cos(pi * (q - opt) / width)) so profile values stay inside
    [-1, 1]; share signs encode extension (+) versus flexion (-).
    """

    name: str
    t_max: float
    activation_tau: float = ACTIVATION_TAU
    hip_share: float = 0.0
    hip_opt: float = 0.0
    hip_width: float = 1.0
    knee_share: float = 0.0
    knee_opt: float = 0.0
    knee_width: float = 1.0

    def __post_init__(self):
        if self.t_max <= 0:
            raise NonPositiveParameter("t_max", self.t_max)
        if self.activation_tau <= 0:
            raise NonPositiveParameter("activation_tau", self.activation_tau)
        if abs(self.hip_share) > 1.0 or abs(self.knee_share) > 1.0:
            raise ValueError("torque shares must lie in [-1, 1]")


@dataclass(frozen=True)
class SimState:
    """Crank angle (wrapped to [0, 2pi)), cadence, and muscle activations.

    Activations are ordered right-leg muscles first, then left.
    """

    crank_angle: float
    cadence: float
    activations: tuple[float, ...]
    sim_time: float = 0.0


@dataclass(frozen=True)
class JointAngles:
    """One leg's hip and knee angle.

    The knee angle is the interior angle at the knee, 0 = fully folded and
    pi = fully extended; the hip angle is the thigh's world direction offset
    by the seat angle.  The ankle is rigid and not a state.
    """

    hip: float
    knee: float


def initial_state(config: CyclingConfig, crank_angle: float = 0.0) -> SimState:
    n = 2 * config.n_muscles_per_leg
    return SimState(crank_angle % TWO_PI, 0.0, (0.0,) * n, 0.0)


def validate_config(config: CyclingConfig) -> CyclingConfig:
    """Check positivity and full-revolution reachability for both legs.

    Reachability is sampled at 1 degree over the crank circle: the hip-pedal
    distance must stay strictly between |thigh - shank| and thigh + shank with
    a REACH_MARGIN clearance, otherwise the closed chain would lock up.
    """
    positives = (
        "crank_hip_dx",
        "crank_hip_dy",
        "crank_arm",
        "thigh_len",
        "shank_len",
        "crank_inertia",
    )
    for name in positives:
        value = getattr(config, name)
        if not (value > 0) or not math.isfinite(value):
            raise NonPositiveParameter(name, value)
    for name in ("resistance_coulomb", "resistance_viscous"):
        value = getattr(config, name)
        if value < 0 or not math.isfinite(value):
            raise NonPositiveParameter(name, value)
    if config.n_muscles_per_leg not in (2, 3):
        raise ValueError(
            f"n_muscles_per_leg must be 2 or 3, got {config.n_muscles_per_leg}"
        )

    t, s = config.thigh_len, config.shank_len
    lo = abs(t - s) + REACH_MARGIN
    hi = t + s - REACH_MARGIN
    hx, hy = config.hip
    for deg in range(360):
        angle = math.radians(deg)
        for side in (RIGHT, LEFT):
            px, py = pedal_position(config, angle, side)
            d = math.hypot(px - hx, py - hy)
            if not (lo < d < hi):
                raise Unreachable(angle, f"hip-pedal distance {d:.4f} m, side {side}")
    return config


def pedal_position(config: CyclingConfig, crank_angle: float, side: str) -> tuple[float, float]:
    theta = crank_angle if side == RIGHT else crank_angle + math.pi
    return (config.crank_arm * math.cos(theta), config.crank_arm * math.sin(theta))


def _leg_kinematics(config: CyclingConfig, crank_angle: float, side: str):
    """Hip/knee angles and their crank-angle derivatives in one pass."""
    theta = crank_angle if side == RIGHT else crank_angle + math.pi
    ca = config.crank_arm
    px = ca * math.cos(theta)
    py = ca * math.sin(theta)
    rx = px - config.crank_hip_dx
    ry = py - config.crank_hip_dy
    d2 = rx * rx + ry * ry
    d = math.sqrt(d2)
    t = config.thigh_len
    s = config.shank_len

    ck = (t * t + s * s - d2) / (2.0 * t * s)
    knee = math.acos(1.0 if ck > 1.0 else (-1.0 if ck < -1.0 else ck))

    gamma = math.atan2(ry, rx)
    cd = (t * t + d2 - s * s) / (2.0 * t * d)
    dev = math.acos(1.0 if cd > 1.0 else (-1.0 if cd < -1.0 else cd))
    # Knee goes on the clockwise side of the hip->pedal ray: that is the
    # anatomically forward side for a rider seated at +x facing the crank.
    alpha = gamma - dev
    hip = alpha - config.seat_angle

    # pedal velocity per unit crank angle: the position turned a quarter
    # turn, bit-equal to (-ca * sin(theta), ca * cos(theta))
    pdx = -py
    pdy = px
    ddot = (rx * pdx + ry * pdy) / d
    sk = math.sin(knee)
    dknee = d * ddot / (t * s * sk) if sk > 1e-12 else 0.0
    dgamma = (rx * pdy - ry * pdx) / d2
    sdev = math.sin(dev)
    ddev = -((d2 - t * t + s * s) / (2.0 * t * d2 * sdev)) * ddot if sdev > 1e-12 else 0.0
    dhip = dgamma - ddev
    return hip, knee, dhip, dknee


def solve_leg_ik(config: CyclingConfig, crank_angle: float, side: str) -> JointAngles:
    hip, knee, _, _ = _leg_kinematics(config, crank_angle, side)
    return JointAngles(hip=hip, knee=knee)


def joint_jacobian(config: CyclingConfig, crank_angle: float, side: str) -> tuple[float, float]:
    """(d hip / d crank_angle, d knee / d crank_angle), analytic."""
    _, _, dhip, dknee = _leg_kinematics(config, crank_angle, side)
    return dhip, dknee


def leg_forward_kinematics(config: CyclingConfig, joints: JointAngles, side: str) -> tuple[float, float]:
    """Pedal position implied by joint angles (for closure checks)."""
    alpha = joints.hip + config.seat_angle
    kx = config.crank_hip_dx + config.thigh_len * math.cos(alpha)
    ky = config.crank_hip_dy + config.thigh_len * math.sin(alpha)
    lam = alpha + (math.pi - joints.knee)
    return (
        kx + config.shank_len * math.cos(lam),
        ky + config.shank_len * math.sin(lam),
    )


def activation_step(activation: float, excitation: float, dt: float, tau: float) -> float:
    """Exact step of the first-order lag da/dt = (u - a)/tau, clamped to [0, 1]."""
    if dt <= 0:
        raise NonPositiveParameter("dt", dt)
    if tau <= 0:
        raise NonPositiveParameter("tau", tau)
    a = excitation + (activation - excitation) * math.exp(-dt / tau)
    return min(1.0, max(0.0, a))


def _bump(q: float, opt: float, width: float) -> float:
    x = (q - opt) / width
    if x <= -0.5 or x >= 0.5:
        return 0.0
    return math.cos(math.pi * x)


def _fv(omega_along_torque: float) -> float:
    # Concentric motion sheds torque linearly to zero at FV_OMEGA_MAX;
    # eccentric motion gains up to the cap.
    f = 1.0 - omega_along_torque / FV_OMEGA_MAX
    if f < 0.0:
        return 0.0
    if f > FV_ECCENTRIC_CAP:
        return FV_ECCENTRIC_CAP
    return f


def muscle_joint_torques(
    params: MuscleParams,
    activation: float,
    joints: JointAngles,
    joint_velocities: tuple[float, float],
) -> tuple[float, float]:
    """(hip, knee) torque of one muscle at one leg configuration."""
    hv, kv = joint_velocities
    tau_hip = 0.0
    tau_knee = 0.0
    if activation > 0.0:
        if params.hip_share != 0.0:
            prof = params.hip_share * _bump(joints.hip, params.hip_opt, params.hip_width)
            if prof != 0.0:
                w = hv if params.hip_share > 0 else -hv
                tau_hip = activation * params.t_max * prof * _fv(w)
        if params.knee_share != 0.0:
            prof = params.knee_share * _bump(joints.knee, params.knee_opt, params.knee_width)
            if prof != 0.0:
                w = kv if params.knee_share > 0 else -kv
                tau_knee = activation * params.t_max * prof * _fv(w)
    return tau_hip, tau_knee


def joint_angle_ranges(config: CyclingConfig, samples: int = 360):
    """(hip_min, hip_max), (knee_min, knee_max) over one crank revolution."""
    hip_lo = math.inf
    hip_hi = -math.inf
    knee_lo = math.inf
    knee_hi = -math.inf
    for i in range(samples):
        hip, knee, _, _ = _leg_kinematics(config, TWO_PI * i / samples, RIGHT)
        hip_lo = min(hip_lo, hip)
        hip_hi = max(hip_hi, hip)
        knee_lo = min(knee_lo, knee)
        knee_hi = max(knee_hi, knee)
    return (hip_lo, hip_hi), (knee_lo, knee_hi)


def default_muscle_set(config: CyclingConfig) -> tuple[MuscleParams, ...]:
    """Muscle parameters centred on the config's own joint ranges.

    Quadriceps extend the knee, hamstrings flex the knee while extending the
    hip, gluteus maximus extends the hip.  Bumps are centred mid-range and
    sized a bit wider than the reachable span so torque tapers toward the
    reach limits instead of cutting out inside them.
    """
    (hip_lo, hip_hi), (knee_lo, knee_hi) = joint_angle_ranges(config)
    hip_mid = 0.5 * (hip_lo + hip_hi)
    hip_width = BUMP_WIDTH_FACTOR * (hip_hi - hip_lo)
    knee_mid = 0.5 * (knee_lo + knee_hi)
    knee_width = BUMP_WIDTH_FACTOR * (knee_hi - knee_lo)

    quad = MuscleParams(
        QUADRICEPS,
        t_max=T_MAX_DEFAULTS[QUADRICEPS],
        knee_share=QUAD_KNEE_SHARE,
        knee_opt=knee_mid,
        knee_width=knee_width,
    )
    ham = MuscleParams(
        HAMSTRINGS,
        t_max=T_MAX_DEFAULTS[HAMSTRINGS],
        knee_share=HAM_KNEE_SHARE,
        knee_opt=knee_mid,
        knee_width=knee_width,
        hip_share=HAM_HIP_SHARE,
        hip_opt=hip_mid,
        hip_width=hip_width,
    )
    if config.n_muscles_per_leg == 2:
        return (quad, ham)
    glut = MuscleParams(
        GLUTEUS,
        t_max=T_MAX_DEFAULTS[GLUTEUS],
        hip_share=GLUT_HIP_SHARE,
        hip_opt=hip_lo + GLUT_OPT_FRACTION * (hip_hi - hip_lo),
        hip_width=GLUT_WIDTH_FACTOR * (hip_hi - hip_lo),
    )
    return (quad, ham, glut)


def _muscle_terms(muscles) -> tuple:
    """Per-muscle (t_max, hip, knee) for _crank_torque_raw; a joint entry is
    (share, opt, width, sign of share), or None where the share is 0."""

    def joint(share, opt, width):
        return None if share == 0.0 else (share, opt, width, 1.0 if share > 0 else -1.0)

    return tuple(
        (m.t_max, joint(m.hip_share, m.hip_opt, m.hip_width),
         joint(m.knee_share, m.knee_opt, m.knee_width))
        for m in muscles
    )


def _crank_torque_raw(config, terms, crank_angle, cadence, activations) -> float:
    """Virtual-work crank torque over _muscle_terms.

    muscle_joint_torques, _bump and _fv are inlined in their own operation
    order, so the result is bit-equal to summing muscle_joint_torques.  A leg
    with no positive activation would add only zeros and is skipped.
    """
    n = len(terms)
    total = 0.0
    for base, side in ((0, RIGHT), (n, LEFT)):
        leg = activations[base:base + n]
        if max(leg) <= 0.0:
            continue
        hip, knee, dhip, dknee = _leg_kinematics(config, crank_angle, side)
        hip_vel = dhip * cadence
        knee_vel = dknee * cadence
        for a, (t_max, hip_terms, knee_terms) in zip(leg, terms):
            if not a > 0.0:
                continue
            th = tk = 0.0
            if hip_terms is not None:
                share, opt, width, sign = hip_terms
                x = (hip - opt) / width
                if -0.5 < x < 0.5:
                    f = 1.0 - sign * hip_vel / FV_OMEGA_MAX
                    f = 0.0 if f < 0.0 else (FV_ECCENTRIC_CAP if f > FV_ECCENTRIC_CAP else f)
                    th = a * t_max * (share * math.cos(math.pi * x)) * f
            if knee_terms is not None:
                share, opt, width, sign = knee_terms
                x = (knee - opt) / width
                if -0.5 < x < 0.5:
                    f = 1.0 - sign * knee_vel / FV_OMEGA_MAX
                    f = 0.0 if f < 0.0 else (FV_ECCENTRIC_CAP if f > FV_ECCENTRIC_CAP else f)
                    tk = a * t_max * (share * math.cos(math.pi * x)) * f
            total += th * dhip + tk * dknee
    return total


_STEP_COUNT = 0


def sim_step_count() -> int:
    """Number of sim_step calls made in this process; lets offline training
    prove it never touched the simulator.  Drives that collect_sessions and
    evaluate_pattern run in worker processes count in the worker, not here."""
    return _STEP_COUNT


def sim_step(config: CyclingConfig, muscles, state: SimState, controls) -> SimState:
    """Advance one control interval (CONTROL_DT) with 1 ms semi-implicit
    Euler substeps.

    Viscous drag is handled implicitly; Coulomb friction is explicit with a
    stiction clamp so the crank neither chatters nor reverses under friction
    alone.
    """
    global _STEP_COUNT
    _STEP_COUNT += 1

    n = len(muscles)
    if len(controls) != 2 * n:
        raise ValueError(f"expected {2 * n} controls, got {len(controls)}")
    u = [min(1.0, max(0.0, float(c))) for c in controls]

    theta = state.crank_angle
    omega = state.cadence
    acts = list(state.activations)
    inertia = config.crank_inertia
    coulomb = config.resistance_coulomb
    viscous = config.resistance_viscous

    dt = SUBSTEP_DT
    visc_div = 1.0 + dt * viscous / inertia
    terms = _muscle_terms(muscles)
    # activation_step's decay factor per activation, right leg then left
    decay = [math.exp(-dt / m.activation_tau) for m in muscles] * 2

    for _ in range(N_SUBSTEPS):
        torque = _crank_torque_raw(config, terms, theta, omega, acts)
        for i in range(2 * n):
            a = u[i] + (acts[i] - u[i]) * decay[i]
            # activation_step's clamp to [0, 1], nan included
            acts[i] = a if 0.0 < a < 1.0 else (1.0 if a >= 1.0 else 0.0)
        if abs(omega) < STICTION_CADENCE and abs(torque) <= coulomb:
            omega = 0.0
        else:
            if omega > 0.0:
                fric = coulomb
            elif omega < 0.0:
                fric = -coulomb
            else:
                fric = math.copysign(coulomb, torque)
            new_omega = (omega + dt * (torque - fric) / inertia) / visc_div
            if omega != 0.0 and new_omega * omega < 0.0 and abs(torque) <= coulomb:
                new_omega = 0.0  # friction cannot reverse motion by itself
            omega = new_omega
        theta = (theta + dt * omega) % TWO_PI

    if not (math.isfinite(theta) and math.isfinite(omega) and all(map(math.isfinite, acts))):
        raise NonFiniteState(
            f"integration diverged at t={state.sim_time + CONTROL_DT:.3f} s"
        )
    return SimState(theta, omega, tuple(acts), state.sim_time + CONTROL_DT)


def nominal_config(n_muscles_per_leg: int = 2, seat_angle: float = 0.35) -> CyclingConfig:
    """Desk-scale reference rig used by the examples and tests."""
    return CyclingConfig(
        crank_hip_dx=0.52,
        crank_hip_dy=0.30,
        crank_arm=0.17,
        thigh_len=0.44,
        shank_len=0.43,
        seat_angle=seat_angle,
        n_muscles_per_leg=n_muscles_per_leg,
    )
