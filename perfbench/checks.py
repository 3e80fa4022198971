"""Output checks.  Each check is one benchmark operation: it raises
CheckFailed (or any error) when the program's output is wrong."""

from __future__ import annotations

import csv
import hashlib
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from fescycle import env, offline, sac

CONTROL_DT = 0.05  # s, control interval of collect and evaluate


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def checkpoint(path, n_actions: int) -> None:
    """The checkpoint reloads with finite parameters shaped for the rig."""
    agent = sac.load_agent(path)
    obs_dim = 3 + n_actions
    require((agent.obs_dim, agent.n_actions) == (obs_dim, n_actions),
            f"{path}: obs_dim/n_actions {agent.obs_dim}/{agent.n_actions}")
    nets = {"actor": (agent.actor.trunk, obs_dim, 2 * n_actions)}
    for name in ("q1", "q2", "q1_target", "q2_target"):
        nets[name] = (getattr(agent, name), obs_dim + n_actions, 1)
    for name, (net, n_in, n_out) in nets.items():
        sizes = net.layer_sizes
        require((sizes[0], sizes[-1]) == (n_in, n_out), f"{path}: {name} sizes {sizes}")
        for i, (a, b) in enumerate(zip(sizes, sizes[1:])):
            w, bias = net.params[2 * i], net.params[2 * i + 1]
            require(w.shape == (a, b) and bias.shape == (b,), f"{path}: {name} layer {i} shape")
            require(np.isfinite(w).all() and np.isfinite(bias).all(),
                    f"{path}: {name} layer {i} not finite")
    require(np.isfinite(agent.log_alpha).all(), f"{path}: log_alpha not finite")


@contextmanager
def replay_buffers(sac_module):
    """Collects every ReplayBuffer created inside the block, so a check can
    read how many tuples training pushed."""
    created = []
    init = sac_module.ReplayBuffer.__init__

    def watched(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(self)

    sac_module.ReplayBuffer.__init__ = watched
    try:
        yield created
    finally:
        sac_module.ReplayBuffer.__init__ = init


def read_curve(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def best_test_return(path) -> float:
    tests = [float(row["test_return"]) for row in read_curve(path) if row["test_return"]]
    require(bool(tests) and all(map(math.isfinite, tests)), f"{path}: no finite test return")
    return max(tests)


def train_tuples(curve_path, train_sim_steps: int, pushed: int) -> None:
    """Training pushed two mirrored tuples per training (non-test) sim step."""
    n_test = sum(1 for row in read_curve(curve_path) if row["test_return"])
    steps = train_sim_steps - n_test * env.EpisodeConfig().steps
    require(pushed == 2 * steps, f"pushed {pushed} tuples for {steps} training sim steps")


def session_dataset(log_dir, sessions: int, duration_s: float, discard_s: float) -> None:
    """Logs convert into 2 tuples per kept transition, all finite."""
    paths = sorted(Path(log_dir).glob("session*.csv"))
    require(len(paths) == sessions, f"{log_dir}: {len(paths)} logs, expected {sessions}")
    steps = round(duration_s / CONTROL_DT)
    logs = [offline.load_session_log(p) for p in paths]
    for path, log in zip(paths, logs):
        require(len(log) == steps + 1, f"{path}: {len(log)} rows, expected {steps + 1}")
    dataset = offline.logs_to_dataset(logs, discard_first_s=discard_s)
    expected = 2 * sessions * (steps - round(discard_s / CONTROL_DT))
    require(len(dataset) == expected, f"dataset has {len(dataset)} tuples, expected {expected}")
    for name in ("obs", "act", "rew", "next_obs"):
        require(np.isfinite(getattr(dataset, name)).all(), f"dataset {name} not finite")


def eval_csv(path, trials: int, duration_s: float) -> None:
    """The RPM trace has trials x steps rows, all finite."""
    steps = round(duration_s / CONTROL_DT)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    require(rows[0] == ["trial", "step", "time_s", "rpm"], f"{path}: header {rows[0]}")
    body = rows[1:]
    require(len(body) == trials * steps, f"{path}: {len(body)} rows, expected {trials * steps}")
    values = np.array(body, dtype=float)
    require(np.isfinite(values).all(), f"{path}: non-finite values")
    require((values[:, 0] == np.repeat(np.arange(trials), steps)).all()
            and (values[:, 1] == np.tile(np.arange(steps), trials)).all(),
            f"{path}: trial/step columns out of order")


def output_hashes(directory) -> dict[str, str]:
    """SHA-256 of every output file under `directory`; manifests record wall
    time, so they are left out."""
    hashes = {}
    for path in sorted(Path(directory).rglob("*")):
        if path.is_file() and not path.name.endswith("manifest.json"):
            hashes[str(path.relative_to(directory))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def fingerprint(hashes: dict[str, str]) -> str:
    blob = "".join(f"{name}\0{digest}\n" for name, digest in sorted(hashes.items()))
    return hashlib.sha256(blob.encode()).hexdigest()
