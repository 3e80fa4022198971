"""Episodic model-based training: SAC against the cycling environment, with
periodic greedy test episodes and a plateau stopping rule."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import sac
from .env import CyclingEnv
from .errors import InsufficientData, InvalidArgument

PLATEAU_PATIENCE = 10  # test episodes without a >2% best-return improvement
PLATEAU_REL_GAIN = 0.02


@dataclass
class CurvePoint:
    episode: int
    train_return: float
    test_return: float | None = None


def train_agent(env: CyclingEnv, tc: sac.TrainConfig, max_episodes: int = 200,
                test_every: int = 5, test_episodes=None, plateau_stop: bool = True):
    """Train until plateau or max_episodes; returns (agent, curve points).

    Test episodes run the deterministic policy with no exploration and do not
    feed the buffer.  `test_episodes` may give an explicit set of episode
    numbers to test at, otherwise every `test_every`-th episode is tested.
    The returned agent is the checkpoint with the highest test return (late
    training can wander off the plateau); the curve records the raw sequence.
    """
    if max_episodes < 1:
        raise InvalidArgument("max_episodes must be >= 1")
    if test_episodes is None and test_every < 1:
        raise InvalidArgument("test_every must be >= 1")
    agent = sac.SacAgent(env.obs_dim, env.n_actions, tc)
    buffer = sac.ReplayBuffer(env.obs_dim, env.n_actions)

    curve: list[CurvePoint] = []
    best_test = -np.inf
    best_agent = None
    tests_since_gain = 0
    for episode in range(1, max_episodes + 1):
        train_return, transitions = env.rollout(agent.act)
        buffer.extend(*transitions)
        try:
            sac.sac_update(agent, buffer, tc)
        except InsufficientData:
            pass  # first episodes may not fill one batch yet

        point = CurvePoint(episode, train_return)
        do_test = (
            episode in test_episodes
            if test_episodes is not None
            else episode % test_every == 0
        )
        if do_test:
            test_return, _ = env.rollout(lambda obs: agent.act(obs, deterministic=True))
            point.test_return = test_return
            if test_return > best_test + PLATEAU_REL_GAIN * abs(best_test):
                tests_since_gain = 0
            else:
                tests_since_gain += 1
            if test_return > best_test:
                best_test = test_return
                best_agent = sac.clone_agent(agent)
        curve.append(point)
        if plateau_stop and do_test and tests_since_gain >= PLATEAU_PATIENCE:
            break
    if best_agent is not None:
        agent = best_agent
    return agent, curve


def normalized_test_returns(curve) -> dict[int, float]:
    """Test returns scaled by the plateau level.

    The plateau is the median of the last five test returns; dead-angle test
    starts throw occasional near-zero returns even after convergence, and the
    median keeps them from distorting the scale.
    """
    tested = [(p.episode, p.test_return) for p in curve if p.test_return is not None]
    if not tested:
        return {}
    tail = [r for _, r in tested[-5:]]
    plateau = float(np.median(tail))
    if plateau == 0.0:
        plateau = 1.0
    return {ep: r / plateau for ep, r in tested}


def write_curve_csv(path, curve) -> None:
    norm = normalized_test_returns(curve)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "train_return", "test_return", "norm_test_return"])
        for p in curve:
            test = "" if p.test_return is None else f"{p.test_return:.9g}"
            norm_v = "" if p.episode not in norm else f"{norm[p.episode]:.9g}"
            writer.writerow([p.episode, f"{p.train_return:.9g}", test, norm_v])
