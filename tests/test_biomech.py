import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fescycle import biomech as bm
from fescycle import offline
from fescycle.errors import NonPositiveParameter, Unreachable


def reach_ok_oracle(config, samples=360):
    """Independent geometric check: hip-pedal distance vs the two-link reach
    band at sampled crank angles, both legs."""
    hx, hy = config.crank_hip_dx, config.crank_hip_dy
    lo = abs(config.thigh_len - config.shank_len)
    hi = config.thigh_len + config.shank_len
    for i in range(samples):
        theta = 2.0 * math.pi * i / samples
        for phase in (0.0, math.pi):
            px = config.crank_arm * math.cos(theta + phase)
            py = config.crank_arm * math.sin(theta + phase)
            d = math.hypot(px - hx, py - hy)
            if not (lo + 1e-6 < d < hi - 1e-6):
                return False
    return True


class TestValidateConfig:
    def test_realistic_rig_is_valid(self):
        config = bm.CyclingConfig(
            crank_hip_dx=0.55, crank_hip_dy=0.35, crank_arm=0.17,
            thigh_len=0.44, shank_len=0.43,
        )
        assert reach_ok_oracle(config)
        assert bm.validate_config(config) is config

    def test_short_legs_far_hip_unreachable(self):
        # max reach 0.4 m but the pedal circle sits ~1 m away
        config = bm.CyclingConfig(
            crank_hip_dx=0.8, crank_hip_dy=0.6, crank_arm=0.17,
            thigh_len=0.2, shank_len=0.2,
        )
        assert not reach_ok_oracle(config)
        with pytest.raises(Unreachable) as err:
            bm.validate_config(config)
        assert 0.0 <= err.value.crank_angle < 2.0 * math.pi

    def test_zero_crank_arm_rejected(self):
        config = bm.CyclingConfig(
            crank_hip_dx=0.55, crank_hip_dy=0.35, crank_arm=0.0,
            thigh_len=0.44, shank_len=0.43,
        )
        with pytest.raises(NonPositiveParameter) as err:
            bm.validate_config(config)
        assert err.value.name == "crank_arm"

    def test_validator_agrees_with_oracle_on_marginal_geometry(self):
        # hip distance chosen so the far side of the circle just misses reach
        config = bm.CyclingConfig(
            crank_hip_dx=0.56, crank_hip_dy=0.42, crank_arm=0.17,
            thigh_len=0.44, shank_len=0.43,
        )
        assert not reach_ok_oracle(config)
        with pytest.raises(Unreachable):
            bm.validate_config(config)

    def test_bad_muscle_count_rejected(self):
        config = bm.CyclingConfig(
            crank_hip_dx=0.52, crank_hip_dy=0.30, crank_arm=0.17,
            thigh_len=0.44, shank_len=0.43, n_muscles_per_leg=4,
        )
        with pytest.raises(ValueError):
            bm.validate_config(config)


class TestConfigJson:
    def test_round_trip(self, nominal_2m):
        text = bm.config_to_json(nominal_2m)
        again = bm.config_from_json(text)
        assert again == nominal_2m
        assert bm.config_to_json(again) == text

    def test_unknown_keys_rejected(self, nominal_2m):
        data = json.loads(bm.config_to_json(nominal_2m))
        data["unknown_field"] = 1.0
        with pytest.raises(ValueError, match="unknown_field"):
            bm.config_from_dict(data)


class TestPedalPosition:
    def test_right_at_zero(self, nominal_2m):
        x, y = bm.pedal_position(nominal_2m, 0.0, bm.RIGHT)
        assert (x, y) == (0.17, 0.0)

    def test_left_is_opposed(self, nominal_2m):
        x, y = bm.pedal_position(nominal_2m, 0.0, bm.LEFT)
        assert x == pytest.approx(-0.17, abs=1e-15)
        assert abs(y) < 1e-15

    def test_right_quarter_turn(self, nominal_2m):
        x, y = bm.pedal_position(nominal_2m, math.pi / 2.0, bm.RIGHT)
        assert x == pytest.approx(0.0, abs=1e-15)
        assert y == pytest.approx(0.17)


def bisect_knee_from_distance(t, s, d, tol=1e-12):
    """Root of reach(knee) = d on knee in [0, pi]; reach grows monotonically."""
    lo, hi = 0.0, math.pi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        reach = math.sqrt(t * t + s * s - 2.0 * t * s * math.cos(mid))
        if reach < d:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


class TestLegIk:
    def test_matches_bisection_oracle(self, nominal_2m):
        cfg = nominal_2m
        for theta in (1.0, 0.0, 2.5, 4.0, 5.5):
            for side in (bm.RIGHT, bm.LEFT):
                joints = bm.solve_leg_ik(cfg, theta, side)
                px, py = bm.pedal_position(cfg, theta, side)
                d = math.hypot(px - cfg.crank_hip_dx, py - cfg.crank_hip_dy)
                knee_oracle = bisect_knee_from_distance(cfg.thigh_len, cfg.shank_len, d)
                assert joints.knee == pytest.approx(knee_oracle, abs=1e-7)

    def test_near_full_extension(self):
        # far pedal point lands 1 mm inside the straight-leg limit
        cfg = bm.CyclingConfig(
            crank_hip_dx=0.48, crank_hip_dy=0.48, crank_arm=0.19,
            thigh_len=0.44, shank_len=0.43,
        )
        bm.validate_config(cfg)
        far_angle = math.atan2(-cfg.crank_hip_dy, -cfg.crank_hip_dx)
        joints = bm.solve_leg_ik(cfg, far_angle, bm.RIGHT)
        assert joints.knee > math.radians(160.0)
        assert joints.knee < math.pi

    def test_near_fold(self):
        # pedal circle passes within ~4 mm of the hip, almost folding the leg
        cfg = bm.CyclingConfig(
            crank_hip_dx=0.12, crank_hip_dy=0.10, crank_arm=0.14,
            thigh_len=0.44, shank_len=0.43,
        )
        bm.validate_config(cfg)
        near_angle = math.atan2(cfg.crank_hip_dy, cfg.crank_hip_dx)
        joints = bm.solve_leg_ik(cfg, near_angle, bm.RIGHT)
        assert joints.knee < math.radians(12.0)
        assert joints.knee > 0.0

    def test_forward_kinematics_closure(self, nominal_3m):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            cfg = nominal_3m
            theta = rng.uniform(0.0, 2.0 * math.pi)
            side = bm.RIGHT if rng.random() < 0.5 else bm.LEFT
            joints = bm.solve_leg_ik(cfg, theta, side)
            got = bm.leg_forward_kinematics(cfg, joints, side)
            want = bm.pedal_position(cfg, theta, side)
            assert math.hypot(got[0] - want[0], got[1] - want[1]) <= 1e-9

    def test_closure_across_random_rigs(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            cfg = bm.CyclingConfig(
                crank_hip_dx=rng.uniform(0.42, 0.52),
                crank_hip_dy=rng.uniform(0.22, 0.32),
                crank_arm=rng.uniform(0.15, 0.17),
                thigh_len=rng.uniform(0.42, 0.46),
                shank_len=rng.uniform(0.41, 0.45),
                seat_angle=rng.uniform(-0.3, 0.6),
            )
            bm.validate_config(cfg)
            for _ in range(16):
                theta = rng.uniform(0.0, 2.0 * math.pi)
                side = bm.RIGHT if rng.random() < 0.5 else bm.LEFT
                joints = bm.solve_leg_ik(cfg, theta, side)
                assert 0.0 < joints.knee < math.pi
                got = bm.leg_forward_kinematics(cfg, joints, side)
                want = bm.pedal_position(cfg, theta, side)
                assert math.hypot(got[0] - want[0], got[1] - want[1]) <= 1e-9

    def test_left_right_phase_symmetry_exact(self, nominal_2m):
        for theta in np.linspace(0.0, 2.0 * math.pi, 37):
            left = bm.solve_leg_ik(nominal_2m, theta, bm.LEFT)
            right = bm.solve_leg_ik(nominal_2m, theta + math.pi, bm.RIGHT)
            assert left == right

    def test_knee_sits_on_forward_branch(self, nominal_2m):
        # the knee must stay on the clockwise side of the hip->pedal ray
        cfg = nominal_2m
        for deg in range(0, 360, 5):
            theta = math.radians(deg)
            joints = bm.solve_leg_ik(cfg, theta, bm.RIGHT)
            alpha = joints.hip + cfg.seat_angle
            kx = cfg.crank_hip_dx + cfg.thigh_len * math.cos(alpha)
            ky = cfg.crank_hip_dy + cfg.thigh_len * math.sin(alpha)
            px, py = bm.pedal_position(cfg, theta, bm.RIGHT)
            cross = (px - cfg.crank_hip_dx) * (ky - cfg.crank_hip_dy) - (
                py - cfg.crank_hip_dy
            ) * (kx - cfg.crank_hip_dx)
            assert cross <= 1e-12


class TestJointJacobian:
    def test_matches_central_differences(self, nominal_3m):
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(1000):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            side = bm.RIGHT if rng.random() < 0.5 else bm.LEFT
            dhip, dknee = bm.joint_jacobian(nominal_3m, theta, side)
            jp = bm.solve_leg_ik(nominal_3m, theta + h, side)
            jm = bm.solve_leg_ik(nominal_3m, theta - h, side)
            fd_hip = (jp.hip - jm.hip) / (2.0 * h)
            fd_knee = (jp.knee - jm.knee) / (2.0 * h)
            assert dhip == pytest.approx(fd_hip, rel=1e-5, abs=1e-8)
            assert dknee == pytest.approx(fd_knee, rel=1e-5, abs=1e-8)

    def test_knee_rate_grows_toward_extension_limit_but_stays_finite(self):
        # same rig family, crank arm pushed toward the straight-leg limit:
        # the peak knee rate keeps growing yet never diverges while the
        # config stays strictly reachable
        peaks = []
        for crank_arm in (0.18, 0.21, 0.228, 0.23345):
            cfg = bm.CyclingConfig(
                crank_hip_dx=0.45, crank_hip_dy=0.45, crank_arm=crank_arm,
                thigh_len=0.44, shank_len=0.43,
            )
            bm.validate_config(cfg)
            peak = max(
                abs(bm.joint_jacobian(cfg, 2.0 * math.pi * i / 1440, bm.RIGHT)[1])
                for i in range(1440)
            )
            assert math.isfinite(peak)
            peaks.append(peak)
        assert peaks == sorted(peaks)
        assert peaks[-1] > 1.3 * peaks[0]

    def test_left_right_symmetry(self, nominal_2m):
        for theta in np.linspace(0.0, 2.0 * math.pi, 19):
            assert bm.joint_jacobian(nominal_2m, theta, bm.LEFT) == bm.joint_jacobian(
                nominal_2m, theta + math.pi, bm.RIGHT
            )


class TestActivationStep:
    def test_fixed_point(self):
        assert bm.activation_step(0.5, 0.5, 0.05, 0.1) == pytest.approx(0.5)

    def test_closed_form_rise(self):
        # a' = u + (a - u) e^{-dt/tau} with a=0, u=1, dt=tau=0.1
        got = bm.activation_step(0.0, 1.0, 0.1, 0.1)
        assert got == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_decay_limit(self):
        assert bm.activation_step(1.0, 0.0, 1e9, 0.1) == 0.0

    def test_bad_dt(self):
        with pytest.raises(NonPositiveParameter):
            bm.activation_step(0.0, 1.0, 0.0, 0.1)

    @given(
        a=st.floats(0.0, 1.0),
        u=st.floats(0.0, 1.0),
        dt=st.floats(1e-4, 10.0),
        tau=st.floats(1e-3, 10.0),
    )
    def test_stays_in_unit_interval(self, a, u, dt, tau):
        out = bm.activation_step(a, u, dt, tau)
        assert 0.0 <= out <= 1.0
        # moves toward the excitation, never past it
        assert min(a, u) - 1e-12 <= out <= max(a, u) + 1e-12


class TestMuscleTorques:
    def test_zero_activation_zero_torque(self, nominal_2m):
        muscles = bm.default_muscle_set(nominal_2m)
        joints = bm.solve_leg_ik(nominal_2m, 1.0, bm.RIGHT)
        for mp in muscles:
            assert bm.muscle_joint_torques(mp, 0.0, joints, (0.0, 0.0)) == (0.0, 0.0)

    def test_peak_torque_at_bump_centre(self):
        mp = bm.MuscleParams(
            bm.QUADRICEPS, t_max=30.0, knee_share=1.0, knee_opt=1.5, knee_width=2.0
        )
        joints = bm.JointAngles(hip=0.0, knee=1.5)
        tau_hip, tau_knee = bm.muscle_joint_torques(mp, 1.0, joints, (0.0, 0.0))
        assert tau_hip == 0.0
        assert tau_knee == pytest.approx(30.0)

    def test_quadriceps_always_extends_knee(self, nominal_2m):
        quad = bm.default_muscle_set(nominal_2m)[0]
        (_, _), (knee_lo, knee_hi) = bm.joint_angle_ranges(nominal_2m)
        for knee in np.linspace(knee_lo, knee_hi, 80):
            joints = bm.JointAngles(hip=-3.0, knee=float(knee))
            for vel in (-3.0, 0.0, 3.0):
                _, tau_knee = bm.muscle_joint_torques(quad, 0.7, joints, (0.0, vel))
                assert tau_knee >= 0.0

    def test_profile_values_bounded(self, nominal_3m):
        rng = np.random.default_rng(3)
        for mp in bm.default_muscle_set(nominal_3m):
            for _ in range(200):
                joints = bm.JointAngles(rng.uniform(-6, 2), rng.uniform(0, math.pi))
                tau_hip, tau_knee = bm.muscle_joint_torques(mp, 1.0, joints, (0.0, 0.0))
                assert abs(tau_hip) <= mp.t_max
                assert abs(tau_knee) <= mp.t_max


def reference_torque(config, muscles, theta, omega, acts):
    """Virtual-work crank torque from muscle_joint_torques and the analytic
    joint Jacobians, summed leg by leg and muscle by muscle."""
    n = len(muscles)
    total = 0.0
    for li, side in enumerate((bm.RIGHT, bm.LEFT)):
        joints = bm.solve_leg_ik(config, theta, side)
        dhip, dknee = bm.joint_jacobian(config, theta, side)
        for mi, mp in enumerate(muscles):
            a = acts[li * n + mi]
            if a <= 0.0:
                continue
            th, tk = bm.muscle_joint_torques(mp, a, joints, (dhip * omega, dknee * omega))
            total += th * dhip + tk * dknee
    return total


def reference_step(config, muscles, state, controls):
    """sim_step written with the reference helpers, one call per term, in
    the plant's operation order; returns (crank_angle, cadence, activations)."""
    n = len(muscles)
    u = [min(1.0, max(0.0, float(c))) for c in controls]
    theta, omega, acts = state.crank_angle, state.cadence, list(state.activations)
    coulomb = config.resistance_coulomb
    n_sub = max(1, round(bm.CONTROL_DT / bm.INNER_DT))
    dt = bm.CONTROL_DT / n_sub
    visc_div = 1.0 + dt * config.resistance_viscous / config.crank_inertia
    for _ in range(n_sub):
        torque = reference_torque(config, muscles, theta, omega, acts)
        acts = [bm.activation_step(a, ui, dt, muscles[i % n].activation_tau)
                for i, (a, ui) in enumerate(zip(acts, u))]
        if abs(omega) < bm.STICTION_CADENCE and abs(torque) <= coulomb:
            omega = 0.0
        else:
            if omega > 0.0:
                fric = coulomb
            elif omega < 0.0:
                fric = -coulomb
            else:
                fric = math.copysign(coulomb, torque)
            new_omega = (omega + dt * (torque - fric) / config.crank_inertia) / visc_div
            if omega != 0.0 and new_omega * omega < 0.0 and abs(torque) <= coulomb:
                new_omega = 0.0
            omega = new_omega
        theta = (theta + dt * omega) % bm.TWO_PI
    return theta, omega, tuple(acts)


def plant(n_muscles, gap):
    config = bm.validate_config(bm.nominal_config(n_muscles))
    muscles = bm.default_muscle_set(config)
    if gap:
        return offline.apply_reality_gap(config, muscles, offline.RealityGapConfig(seed=123))
    return config, muscles


class TestFastPlantMatchesReference:
    @pytest.mark.parametrize("n_muscles", [2, 3])
    @pytest.mark.parametrize("gap", [False, True])
    @pytest.mark.parametrize("binary", [False, True])
    def test_sim_step_bit_equal(self, n_muscles, gap, binary):
        config, muscles = plant(n_muscles, gap)
        rng = np.random.default_rng([n_muscles, gap, binary])
        state = bm.initial_state(config, float(rng.uniform(0.0, bm.TWO_PI)))
        ref = (state.crank_angle, state.cadence, state.activations)
        moved = False
        for k in range(300):
            if k < 20:
                u = np.zeros(2 * n_muscles)  # at rest, both legs idle
            elif binary:
                u = (rng.uniform(size=2 * n_muscles) < 0.4).astype(float)
            else:
                u = rng.uniform(-0.2, 1.2, 2 * n_muscles)
            ref = reference_step(config, muscles, bm.SimState(*ref), u)
            state = bm.sim_step(config, muscles, state, u)
            assert (state.crank_angle, state.cadence, state.activations) == ref
            moved |= state.cadence != 0.0
        assert moved

    @pytest.mark.parametrize("n_muscles", [2, 3])
    @pytest.mark.parametrize("gap", [False, True])
    def test_crank_torque_bit_equal(self, n_muscles, gap):
        config, muscles = plant(n_muscles, gap)
        rng = np.random.default_rng(n_muscles)
        for _ in range(300):
            theta = rng.uniform(0.0, bm.TWO_PI)
            omega = rng.uniform(-8.0, 8.0)
            acts = tuple(rng.uniform(-0.3, 1.0, 2 * n_muscles))
            got = bm._crank_torque_raw(config, bm._muscle_terms(muscles), theta, omega, acts)
            assert got == reference_torque(config, muscles, theta, omega, acts)


class TestCrankTorque:
    def test_zero_activations(self, nominal_3m):
        muscles = bm.default_muscle_set(nominal_3m)
        terms = bm._muscle_terms(muscles)
        assert bm._crank_torque_raw(nominal_3m, terms, 1.2, 0.0, (0.0,) * 6) == 0.0

    def test_matches_virtual_work_finite_differences(self, nominal_3m):
        cfg = nominal_3m
        muscles = bm.default_muscle_set(cfg)
        rng = np.random.default_rng(11)
        h = 1e-6
        checked = 0
        for _ in range(300):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            omega = rng.uniform(-8.0, 8.0)
            acts = tuple(rng.uniform(0.0, 1.0, 6))
            analytic = bm._crank_torque_raw(cfg, bm._muscle_terms(muscles), theta, omega, acts)
            estimate = 0.0
            for li, side in enumerate((bm.RIGHT, bm.LEFT)):
                jp = bm.solve_leg_ik(cfg, theta + h, side)
                jm = bm.solve_leg_ik(cfg, theta - h, side)
                j0 = bm.solve_leg_ik(cfg, theta, side)
                fd_hip = (jp.hip - jm.hip) / (2.0 * h)
                fd_knee = (jp.knee - jm.knee) / (2.0 * h)
                for mi, mp in enumerate(muscles):
                    a = acts[li * 3 + mi]
                    th, tk = bm.muscle_joint_torques(
                        mp, a, j0, (fd_hip * omega, fd_knee * omega)
                    )
                    estimate += th * fd_hip + tk * fd_knee
            if abs(estimate) > 1e-6:
                assert analytic == pytest.approx(estimate, rel=1e-4)
                checked += 1
        assert checked > 250

    def test_mirrored_state_gives_identical_torque(self, nominal_3m):
        muscles = bm.default_muscle_set(nominal_3m)
        acts = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
        swapped = (0.4, 0.5, 0.6, 0.1, 0.2, 0.3)
        terms = bm._muscle_terms(muscles)
        for theta in (0.3, 1.0, 2.7, 5.1):
            t1 = bm._crank_torque_raw(nominal_3m, terms, theta, 3.0, acts)
            t2 = bm._crank_torque_raw(nominal_3m, terms, (theta + math.pi) % (2 * math.pi),
                                      3.0, swapped)
            assert t1 == pytest.approx(t2, abs=1e-12)


def quad_positive_angle(config, muscles, cadence=0.0):
    """A crank angle where right-quadriceps stimulation alone clearly drives
    the crank forward (torque above the Coulomb level)."""
    n = len(muscles)
    best, best_torque = None, 0.0
    for deg in range(360):
        acts = [0.0] * (2 * n)
        acts[0] = 1.0
        torque = bm._crank_torque_raw(config, bm._muscle_terms(muscles), math.radians(deg),
                                      cadence, acts)
        if torque > best_torque:
            best, best_torque = math.radians(deg), torque
    assert best_torque > config.resistance_coulomb * 2.0
    return best


class TestSimStep:
    def test_rest_stays_at_rest(self, nominal_2m):
        muscles = bm.default_muscle_set(nominal_2m)
        state = bm.initial_state(nominal_2m, 0.7)
        nxt = bm.sim_step(nominal_2m, muscles, state, [0.0] * 4)
        assert nxt.cadence == 0.0
        assert nxt.crank_angle == state.crank_angle

    def test_coasting_decays(self, nominal_2m):
        muscles = bm.default_muscle_set(nominal_2m)
        state = bm.SimState(0.3, 6.0, (0.0,) * 4)
        nxt = bm.sim_step(nominal_2m, muscles, state, [0.0] * 4)
        assert 0.0 < nxt.cadence < 6.0

    def test_passive_kinetic_energy_never_increases(self, nominal_2m):
        muscles = bm.default_muscle_set(nominal_2m)
        state = bm.SimState(1.1, 7.0, (0.0,) * 4)
        prev = 0.5 * nominal_2m.crank_inertia * state.cadence**2
        for _ in range(200):
            state = bm.sim_step(nominal_2m, muscles, state, [0.0] * 4)
            ke = 0.5 * nominal_2m.crank_inertia * state.cadence**2
            assert ke <= prev + 1e-12
            prev = ke
        assert state.cadence == 0.0

    def test_quadriceps_drive_spins_up(self, nominal_2m):
        muscles = bm.default_muscle_set(nominal_2m)
        theta = quad_positive_angle(nominal_2m, muscles)
        state = bm.initial_state(nominal_2m, theta)
        controls = [1.0, 0.0, 0.0, 0.0]
        nxt = bm.sim_step(nominal_2m, muscles, state, controls)
        assert nxt.cadence > 0.0
        prev = nxt.cadence
        for _ in range(4):
            nxt = bm.sim_step(nominal_2m, muscles, nxt, controls)
            assert nxt.cadence > prev
            prev = nxt.cadence

    def test_bit_identical_trajectories(self, nominal_3m):
        muscles = bm.default_muscle_set(nominal_3m)
        rng = np.random.default_rng(9)
        controls = rng.uniform(0.0, 1.0, size=(50, 6))

        def run():
            state = bm.initial_state(nominal_3m, 0.25)
            trail = []
            for u in controls:
                state = bm.sim_step(nominal_3m, muscles, state, u)
                trail.append((state.crank_angle, state.cadence, state.activations))
            return trail

        assert run() == run()

    def test_crank_angle_stays_wrapped(self, nominal_2m):
        muscles = bm.default_muscle_set(nominal_2m)
        state = bm.SimState(6.2, 8.0, (0.0,) * 4)
        for _ in range(100):
            state = bm.sim_step(nominal_2m, muscles, state, [1.0, 0.0, 1.0, 0.0])
            assert 0.0 <= state.crank_angle < 2.0 * math.pi

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4), min_size=1, max_size=12))
    def test_activations_bounded_for_any_controls(self, nominal_2m, control_seq):
        muscles = bm.default_muscle_set(nominal_2m)
        state = bm.initial_state(nominal_2m, 1.0)
        for u in control_seq:
            state = bm.sim_step(nominal_2m, muscles, state, u)
            assert all(0.0 <= a <= 1.0 for a in state.activations)

    def test_wrong_control_width_rejected(self, nominal_2m):
        muscles = bm.default_muscle_set(nominal_2m)
        with pytest.raises(ValueError):
            bm.sim_step(nominal_2m, muscles, bm.initial_state(nominal_2m), [0.0] * 6)

    def test_interaction_counter_ticks(self, nominal_2m):
        muscles = bm.default_muscle_set(nominal_2m)
        before = bm.sim_step_count()
        bm.sim_step(nominal_2m, muscles, bm.initial_state(nominal_2m), [0.0] * 4)
        assert bm.sim_step_count() == before + 1
