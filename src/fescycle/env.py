"""RL environment around the cycling plant.

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


@dataclass(frozen=True)
class EpisodeConfig:
    steps: int = 100
    dt: float = 0.05
    beta: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")


def make_observation(state: SimState, prev_action, side: str) -> np.ndarray:
    s = math.sin(state.crank_angle)
    c = math.cos(state.crank_angle)
    if side == LEFT:
        s, c = -s, -c
    return np.array([s, c, state.cadence, *prev_action], dtype=float)


def reward(cadence_next: float, action, beta: float) -> float:
    a = np.asarray(action, dtype=float)
    return float(cadence_next - beta * np.sum(a * a))


def mirrored_transitions(angles, cadences, controls, beta: float):
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
    rew = np.repeat(cadences[1:], 2) - beta * np.sum(act * act, axis=1)
    return obs[:-1].reshape(2 * steps, -1), act, rew, obs[1:].reshape(2 * steps, -1)


class CyclingEnv:
    """Episodic wrapper: seeded resets, stepping, whole-episode rollouts."""

    def __init__(self, config: CyclingConfig, muscles=None, episode: EpisodeConfig | None = None):
        self.config = biomech.validate_config(config)
        self.muscles = tuple(muscles) if muscles is not None else biomech.default_muscle_set(config)
        if len(self.muscles) != config.n_muscles_per_leg:
            raise ValueError("muscle set size does not match config.n_muscles_per_leg")
        self.episode = episode or EpisodeConfig()
        self.rng = np.random.default_rng(self.episode.seed)
        self.n_actions = config.n_muscles_per_leg
        self.obs_dim = 3 + self.n_actions
        self.state: SimState | None = None
        self._prev_right = np.zeros(self.n_actions)
        self._prev_left = np.zeros(self.n_actions)

    def reset(self, seed: int | None = None) -> tuple[SimState, np.ndarray]:
        rng = np.random.default_rng(seed) if seed is not None else self.rng
        angle = float(rng.uniform(0.0, biomech.TWO_PI))
        self.state = biomech.initial_state(self.config, angle)
        self._prev_right = np.zeros(self.n_actions)
        self._prev_left = np.zeros(self.n_actions)
        return self.state, make_observation(self.state, self._prev_right, RIGHT)

    def observe(self, side: str) -> np.ndarray:
        prev = self._prev_right if side == RIGHT else self._prev_left
        return make_observation(self.state, prev, side)

    def step(self, a_right, a_left) -> SimState:
        """Apply both legs' stimulation, clipped to [0, 1], for one control
        interval; returns the new state."""
        if self.state is None:
            raise RuntimeError("reset() the environment before stepping")
        a_right = np.clip(np.asarray(a_right, dtype=float), 0.0, 1.0)
        a_left = np.clip(np.asarray(a_left, dtype=float), 0.0, 1.0)
        self.state = biomech.sim_step(
            self.config, self.muscles, self.state, np.concatenate([a_right, a_left]),
            self.episode.dt,
        )
        self._prev_right = a_right
        self._prev_left = a_left
        return self.state

    def rollout(self, policy, seed: int | None = None):
        """Run one fixed-length episode from reset(seed), querying
        `policy(obs)` once per leg per step.

        Returns (discounted right-leg return, (obs, act, rew, next_obs)), the
        arrays being the episode's mirrored_transitions.
        """
        state, _ = self.reset(seed=seed)
        ec, n = self.episode, self.n_actions
        angles = np.empty(ec.steps + 1)
        cadences = np.empty(ec.steps + 1)
        controls = np.empty((ec.steps, 2 * n))
        angles[0], cadences[0] = state.crank_angle, state.cadence
        for t in range(ec.steps):
            state = self.step(policy(self.observe(RIGHT)), policy(self.observe(LEFT)))
            angles[t + 1], cadences[t + 1] = state.crank_angle, state.cadence
            controls[t, :n], controls[t, n:] = self._prev_right, self._prev_left
        transitions = mirrored_transitions(angles, cadences, controls, ec.beta)
        episode_return = 0.0
        discount = 1.0
        for r in transitions[2][0::2].tolist():
            episode_return += discount * r
            discount *= DISCOUNT
        return episode_return, transitions
