"""RL environment around the cycling plant, and the one loop that steps it.

drive() steps the plant under a per-step control callback; training
episodes (CyclingEnv.rollout, closed loop through the policy) and pattern
sessions and trials (offline, open loop) both run through it.

Observations are [sin(crank_angle), cos(crank_angle), cadence, previous
action]; one physical step yields two transitions, the right-leg one and a
mirrored left-leg one whose observation negates sine and cosine (the left
leg sees the crank half a turn ahead).  Reward is next-step cadence minus a
quadratic action penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import biomech
from .biomech import LEFT, RIGHT, CyclingConfig, SimState

DISCOUNT = 0.99
BETA = 1.0  # weight of the quadratic action penalty in the reward


@dataclass(frozen=True)
class EpisodeConfig:
    steps: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


def make_observation(state: SimState, prev_action, side: str) -> np.ndarray:
    s = math.sin(state.crank_angle)
    c = math.cos(state.crank_angle)
    if side == LEFT:
        s, c = -s, -c
    return np.array([s, c, state.cadence, *prev_action], dtype=float)


def reward(cadence_next: float, action) -> float:
    a = np.asarray(action, dtype=float)
    return float(cadence_next - BETA * np.sum(a * a))


def mirrored_transitions(angles, cadences, controls):
    """Right-leg and mirrored left-leg transitions of one trajectory.

    `angles` and `cadences` hold the trajectory's T+1 crank angles and
    cadences, `controls` the T control rows applied between them, right-leg
    muscles first.  Returns (obs, act, rew, next_obs) with 2T rows: step t's
    right-leg transition is row 2t and its mirrored left-leg twin row 2t+1,
    each what make_observation and reward give for that leg.  The previous
    action before step 0 is zero.  obs and next_obs are views of one array
    (next_obs row r is obs row r + 2), and act is a view of float64 controls.
    """
    cadences = np.asarray(cadences, dtype=float)
    controls = np.asarray(controls, dtype=float)
    steps, width = controls.shape
    n = width // 2
    sin, cos = np.sin(angles), np.cos(angles)
    # the observation at each of the T+1 instants, indexed [instant, leg]
    obs = np.empty((steps + 1, 2, 3 + n))
    obs[:, 0, 0], obs[:, 0, 1] = sin, cos
    obs[:, 1, 0], obs[:, 1, 1] = -sin, -cos
    obs[:, :, 2] = cadences[:, None]
    obs[0, :, 3:] = 0.0
    obs[1:, :, 3:] = controls.reshape(steps, 2, n)
    act = controls.reshape(2 * steps, n)
    rew = np.repeat(cadences[1:], 2) - BETA * np.sum(act * act, axis=1)
    return obs[:-1].reshape(2 * steps, -1), act, rew, obs[1:].reshape(2 * steps, -1)


def drive(config: CyclingConfig, muscles, state: SimState, steps: int, control):
    """Step the plant `steps` control intervals from `state`, applying
    `control(state)`, a 2n-wide row with right-leg muscles first, at each
    step.

    Returns (final state, times, angles, cadences, controls): the steps + 1
    sim times, crank angles and cadences from `state` on, and the steps
    control rows applied between them.
    """
    times = np.empty(steps + 1)
    angles = np.empty(steps + 1)
    cadences = np.empty(steps + 1)
    controls = np.empty((steps, 2 * config.n_muscles_per_leg))
    times[0], angles[0], cadences[0] = state.sim_time, state.crank_angle, state.cadence
    for t in range(steps):
        controls[t] = control(state)
        state = biomech.sim_step(config, muscles, state, controls[t])
        times[t + 1], angles[t + 1], cadences[t + 1] = (
            state.sim_time, state.crank_angle, state.cadence)
    return state, times, angles, cadences, controls


class CyclingEnv:
    """Episodic wrapper: seeded start states and whole-episode rollouts."""

    def __init__(self, config: CyclingConfig, episode: EpisodeConfig | None = None):
        self.config = biomech.validate_config(config)
        self.muscles = biomech.default_muscle_set(config)
        self.episode = episode or EpisodeConfig()
        self.rng = np.random.default_rng(self.episode.seed)
        self.n_actions = config.n_muscles_per_leg
        self.obs_dim = 3 + self.n_actions

    def reset(self) -> SimState:
        """A rest state at a uniform random crank angle drawn from the env's
        own stream."""
        return biomech.initial_state(self.config, float(self.rng.uniform(0.0, biomech.TWO_PI)))

    def rollout(self, policy):
        """Run one fixed-length episode from reset(), querying
        `policy(obs)` for the right leg and then the left at each step; each
        leg's action, clipped to [0, 1], is its previous action at the next.

        Returns (discounted right-leg return, (obs, act, rew, next_obs)), the
        arrays being the episode's mirrored_transitions.
        """
        prev = [np.zeros(self.n_actions), np.zeros(self.n_actions)]

        def control(state):
            for leg, side in enumerate((RIGHT, LEFT)):
                prev[leg] = np.clip(policy(make_observation(state, prev[leg], side)), 0.0, 1.0)
            return np.concatenate(prev)

        _, _, angles, cadences, controls = drive(
            self.config, self.muscles, self.reset(), self.episode.steps, control)
        transitions = mirrored_transitions(angles, cadences, controls)
        episode_return = 0.0
        discount = 1.0
        for r in transitions[2][0::2].tolist():
            episode_return += discount * r
            discount *= DISCOUNT
        return episode_return, transitions
