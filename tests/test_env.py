import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fescycle import biomech as bm
from fescycle.env import (BETA, DISCOUNT, CyclingEnv, EpisodeConfig, drive, make_observation,
                          reward)

# chi-square 99th percentile, 35 degrees of freedom
CHI2_CRIT_35_P01 = 57.342


def make_env(config, seed=0, **kw):
    return CyclingEnv(config, episode=EpisodeConfig(seed=seed, **kw))


class TestObservation:
    def test_right_at_quarter_turn(self, nominal_2m):
        state = bm.SimState(math.pi / 2.0, 0.0, (0.0,) * 4)
        obs = make_observation(state, np.zeros(2), bm.RIGHT)
        np.testing.assert_allclose(obs[:2], [1.0, 0.0], atol=1e-15)

    def test_left_flips_signs(self, nominal_2m):
        state = bm.SimState(math.pi / 2.0, 0.0, (0.0,) * 4)
        obs = make_observation(state, np.zeros(2), bm.LEFT)
        np.testing.assert_allclose(obs[:2], [-1.0, 0.0], atol=1e-15)

    def test_left_equals_right_half_turn_ahead(self, nominal_2m):
        prev = np.array([0.3, 0.6])
        for theta in np.linspace(0.0, 2.0 * math.pi, 25):
            s1 = bm.SimState(theta, 2.0, (0.0,) * 4)
            s2 = bm.SimState((theta + math.pi) % (2 * math.pi), 2.0, (0.0,) * 4)
            left = make_observation(s1, prev, bm.LEFT)
            right = make_observation(s2, prev, bm.RIGHT)
            np.testing.assert_allclose(left, right, atol=1e-12)

    @given(theta=st.floats(0.0, 2.0 * math.pi, exclude_max=True))
    def test_unit_circle_invariant(self, theta):
        state = bm.SimState(theta, 1.0, (0.0,) * 4)
        obs = make_observation(state, np.zeros(2), bm.RIGHT)
        assert abs(obs[0] ** 2 + obs[1] ** 2 - 1.0) <= 1e-12


class TestReward:
    def test_single_full_stim(self):
        assert reward(5.0, np.array([1.0, 0.0])) == pytest.approx(4.0)

    def test_zero_action_passes_cadence_through(self):
        assert reward(3.7, np.zeros(3)) == 3.7

    def test_three_half_intensities(self):
        assert reward(5.0, np.array([0.5, 0.5, 0.5])) == pytest.approx(4.25)

    @given(
        w=st.floats(-5.0, 10.0),
        a=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
        b=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
    )
    def test_reward_difference_depends_only_on_penalties(self, w, a, b):
        a = np.array(a)
        b = np.array(b)
        diff = reward(w, a) - reward(w, b)
        assert diff == pytest.approx(BETA * (np.sum(b * b) - np.sum(a * a)), abs=1e-9)


def first_obs(config, seed):
    """The first observation the policy of a fresh env's first episode sees."""
    seen = []

    def policy(obs):
        seen.append(obs)
        return np.zeros(2)

    make_env(config, seed=seed, steps=1).rollout(policy)
    return seen[0]


class TestReset:
    def test_fixed_seed_reproduces_start(self, nominal_2m):
        s1 = make_env(nominal_2m, seed=17).reset()
        s2 = make_env(nominal_2m, seed=17).reset()
        o1 = first_obs(nominal_2m, 17)
        o2 = first_obs(nominal_2m, 17)
        assert s1 == s2
        np.testing.assert_array_equal(o1, o2)

    def test_initial_cadence_and_activations_zero(self, nominal_2m):
        state = make_env(nominal_2m, seed=3).reset()
        obs = first_obs(nominal_2m, 3)
        assert state.cadence == 0.0
        assert obs[2] == 0.0
        assert state.activations == (0.0,) * 4
        np.testing.assert_array_equal(obs[3:], 0.0)
        assert obs.tobytes() == make_observation(state, np.zeros(2), bm.RIGHT).tobytes()

    def test_start_angles_uniform(self, nominal_2m):
        env = make_env(nominal_2m, seed=2024)
        n, bins = 10_000, 36
        counts = np.zeros(bins)
        for _ in range(n):
            state = env.reset()
            assert 0.0 <= state.crank_angle < 2.0 * math.pi
            counts[int(state.crank_angle / (2.0 * math.pi) * bins)] += 1
        expected = n / bins
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < CHI2_CRIT_35_P01


def one_step(config, seed, a_r, a_l):
    """Transitions of a one-step episode whose policy answers a_r for the
    right leg and a_l for the left, and the plant state after that step."""
    env = make_env(config, seed=seed, steps=1)
    legs = iter([a_r, a_l])
    _, transitions = env.rollout(lambda obs: next(legs))
    start = make_env(config, seed=seed).reset()
    after = bm.sim_step(config, env.muscles, start, np.concatenate([a_r, a_l]))
    return transitions, after


class TestDrive:
    def test_rows_follow_the_sim_step_chain(self, nominal_3m):
        """drive queries control once per step with the state before it and
        records that state chain as sim_step builds it."""
        muscles = bm.default_muscle_set(nominal_3m)
        start = bm.SimState(1.0, 2.5, (0.0,) * 6, 0.0)
        rng = np.random.default_rng(4)
        rows = rng.uniform(0.0, 1.0, (12, 6))
        seen = []

        def control(state):
            seen.append(state)
            return rows[len(seen) - 1]

        final, times, angles, cadences, controls = drive(nominal_3m, muscles, start, 12, control)
        states = [start]
        for row in rows:
            states.append(bm.sim_step(nominal_3m, muscles, states[-1], row))
        assert seen == states[:-1]
        assert final == states[-1]
        assert controls.tobytes() == rows.tobytes()
        for got, field in ((times, "sim_time"), (angles, "crank_angle"), (cadences, "cadence")):
            assert got.tobytes() == np.array([getattr(s, field) for s in states]).tobytes()


class TestEnvStep:
    def test_zero_actions_from_rest_give_zero_rewards(self, nominal_2m):
        (_, _, rew, _), _ = one_step(nominal_2m, 5, np.zeros(2), np.zeros(2))
        np.testing.assert_array_equal(rew, [0.0, 0.0])

    def test_reward_split_between_legs(self, nominal_2m):
        a_r = np.array([0.9, 0.1])
        a_l = np.array([0.2, 0.5])
        (_, _, rew, _), _ = one_step(nominal_2m, 5, a_r, a_l)
        want = 1.0 * (np.sum(a_l**2) - np.sum(a_r**2))
        assert rew[0] - rew[1] == pytest.approx(want, abs=1e-12)

    def test_mirrored_tuple_structure(self, nominal_2m):
        a_r = np.array([0.7, 0.2])
        a_l = np.array([0.1, 0.8])
        (obs, act, _, next_obs), state = one_step(nominal_2m, 8, a_r, a_l)
        np.testing.assert_allclose(obs[1, :2], -obs[0, :2], atol=1e-12)
        assert obs[1, 2] == obs[0, 2]
        np.testing.assert_array_equal(act[0], a_r)
        np.testing.assert_array_equal(act[1], a_l)
        np.testing.assert_array_equal(next_obs[0, 3:], a_r)
        np.testing.assert_array_equal(next_obs[1, 3:], a_l)
        assert next_obs[0, 2] == state.cadence

    @pytest.mark.parametrize("n", [2, 3])
    def test_tuple_rewards_recomputable(self, n, nominal_2m, nominal_3m):
        env = make_env(nominal_2m if n == 2 else nominal_3m, seed=21, steps=30)
        rng = np.random.default_rng(0)
        _, (_, act, rew, next_obs) = env.rollout(lambda obs: rng.uniform(0.0, 1.0, n))
        for i in range(len(rew)):
            assert rew[i] == reward(next_obs[i][2], act[i])

    @pytest.mark.parametrize("n", [2, 3])
    def test_rows_match_scalar_reference(self, n, nominal_2m, nominal_3m):
        """Each row is byte-equal to make_observation and reward applied to
        that step and leg, the previous action chaining through the steps,
        with the policy's out-of-range actions clipped to [0, 1]."""
        config = nominal_2m if n == 2 else nominal_3m
        env = make_env(config, seed=3, steps=40)
        rng = np.random.default_rng(1)
        answers = []

        def policy(obs):
            answers.append(rng.uniform(-0.2, 1.2, n))
            return answers[-1]

        _, (obs, act, rew, next_obs) = env.rollout(policy)
        acts = [(np.clip(a_r, 0.0, 1.0), np.clip(a_l, 0.0, 1.0))
                for a_r, a_l in zip(answers[0::2], answers[1::2])]
        assert len(acts) == 40
        # the reference: the scalar plant from the same start
        states = [make_env(config, seed=3).reset()]
        for legs in acts:
            states.append(bm.sim_step(config, env.muscles, states[-1], np.concatenate(legs)))
        prev = (np.zeros(n), np.zeros(n))
        for t, (before, after, legs) in enumerate(zip(states, states[1:], acts)):
            for leg, side in enumerate((bm.RIGHT, bm.LEFT)):
                row = 2 * t + leg
                want = make_observation(before, prev[leg], side)
                assert obs[row].tobytes() == want.tobytes()
                assert act[row].tobytes() == legs[leg].tobytes()
                assert rew[row] == reward(after.cadence, legs[leg])
                want = make_observation(after, legs[leg], side)
                assert next_obs[row].tobytes() == want.tobytes()
            prev = legs

    def test_hundred_steps_give_two_hundred_tuples(self, nominal_2m):
        env = make_env(nominal_2m, seed=2)
        _, (obs, act, rew, next_obs) = env.rollout(lambda obs: np.full(2, 0.3))
        assert len(obs) == len(act) == len(rew) == len(next_obs) == 200


class TestRollout:
    def test_zero_policy_returns_zero(self, nominal_2m):
        env = make_env(nominal_2m, seed=4)
        total, (_, _, rew, _) = env.rollout(lambda obs: np.zeros(2))
        assert total == 0.0
        assert np.all(rew == 0.0)

    def test_deterministic_policy_reproducible(self, nominal_2m):
        def policy(obs):
            return np.array([0.5 + 0.5 * obs[0], 0.25])

        r1, t1 = make_env(nominal_2m, seed=77).rollout(policy)
        r2, t2 = make_env(nominal_2m, seed=77).rollout(policy)
        assert r1 == r2
        for a, b in zip(t1, t2):
            assert a.tobytes() == b.tobytes()

    def test_return_is_discounted_right_leg_sum(self, nominal_2m):
        env = make_env(nominal_2m, seed=6)
        total, (_, _, rew, _) = env.rollout(lambda obs: np.full(2, 0.4))
        right = rew[0::2]
        want = sum(r * DISCOUNT**i for i, r in enumerate(right))
        assert total == pytest.approx(want, abs=1e-9)

    def test_episode_length_fixed_no_hidden_termination(self, nominal_2m):
        env = make_env(nominal_2m, seed=6, steps=37)
        _, (obs, *_) = env.rollout(lambda obs: np.full(2, 1.0))
        assert len(obs) == 2 * 37

    def test_unit_circle_holds_for_emitted_observations(self, nominal_2m):
        env = make_env(nominal_2m, seed=10)
        rng = np.random.default_rng(1)
        _, (obs, _, _, next_obs) = env.rollout(lambda obs: rng.uniform(0, 1, 2))
        for o in (obs, next_obs):
            assert np.all(np.abs(o[:, 0] ** 2 + o[:, 1] ** 2 - 1.0) <= 1e-12)


class TestMirrorConsistency:
    def test_policy_sees_identical_streams(self, nominal_2m):
        """A fixed policy fed the mirrored observation stream produces the
        left-leg schedule equal to the right-leg one rotated a half turn:
        thresholded ON/OFF marks agree exactly on a one-degree grid."""
        rng = np.random.default_rng(99)
        w = rng.standard_normal((5, 2))

        def policy(obs):
            return 1.0 / (1.0 + np.exp(-(obs @ w)))

        prev = np.zeros(2)
        right_sched = {}
        left_sched = {}
        for deg in range(0, 360):
            theta = math.radians(deg)
            state = bm.SimState(theta, 4.0, (0.0,) * 4)
            right_sched[deg] = policy(make_observation(state, prev, bm.RIGHT))
            left_sched[deg] = policy(make_observation(state, prev, bm.LEFT))
        for deg in range(0, 360):
            rotated = right_sched[(deg + 180) % 360]
            np.testing.assert_allclose(left_sched[deg], rotated, atol=1e-12)
            np.testing.assert_array_equal(left_sched[deg] > 0.5, rotated > 0.5)
