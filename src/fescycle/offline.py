"""Fine-tuning phase: pattern-driven data collection, conversion of session
logs into mirrored experience datasets, conservative offline training, and
open-loop pattern evaluation.

The deployment rig is emulated by a perturbed copy of the simulator (scaled
peak torques, shifted torque-profile centres, heavier rolling resistance), so
an improvement from fine-tuning is measurable on the bench.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from . import biomech, pattern as patterns, sac
from .biomech import LEFT, RIGHT, CyclingConfig
from .env import drive, mirrored_transitions
from .errors import (InconsistentConfig, InsufficientData, InvalidArgument, NonFiniteState,
                     ShapeMismatch)
from .pattern import PatternPerturbation, StimulationPattern, pattern_control
from .sac import OfflineDataset

RPM_PER_RAD_S = 60.0 / (2.0 * math.pi)


@dataclass(frozen=True)
class RealityGapConfig:
    """Ranges for the simulator perturbation standing in for the real rig."""

    t_max_range: float = 0.2
    q_opt_shift_deg: float = 15.0
    resistance_scale: float = 1.3
    seed: int = 0


_GAP_FIELDS = tuple(f.name for f in fields(RealityGapConfig))


def gap_from_dict(data: dict) -> RealityGapConfig:
    unknown = sorted(set(data) - set(_GAP_FIELDS))
    if unknown:
        raise ValueError(f"unknown reality-gap keys: {', '.join(unknown)}")
    return RealityGapConfig(**data)


def apply_reality_gap(config: CyclingConfig, muscles, gap: RealityGapConfig):
    """Perturbed (config, muscles) drawn deterministically from gap.seed."""
    rng = np.random.default_rng(gap.seed)
    shift = math.radians(gap.q_opt_shift_deg)
    new_muscles = []
    for mp in muscles:
        scale = 1.0 + rng.uniform(-gap.t_max_range, gap.t_max_range)
        dq = rng.uniform(-shift, shift)
        new_muscles.append(
            replace(
                mp,
                t_max=mp.t_max * scale,
                hip_opt=mp.hip_opt + dq,
                knee_opt=mp.knee_opt + dq,
            )
        )
    new_config = replace(
        config,
        resistance_coulomb=config.resistance_coulomb * gap.resistance_scale,
        resistance_viscous=config.resistance_viscous * gap.resistance_scale,
        perturbation_seed=gap.seed,
    )
    return biomech.validate_config(new_config), tuple(new_muscles)


def config_fingerprint(config: CyclingConfig, muscles) -> str:
    blob = biomech.config_to_json(config) + json.dumps([astuple(m) for m in muscles])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SessionLog:
    """One pattern-driven cycling session sampled at the control rate.

    Row k holds the state at t_k and the binary control applied at t_k; the
    final row's control is the one that would have been applied next, so a
    log of N+1 rows yields N transitions.
    """

    pattern_id: str
    config_hash: str
    dt: float
    times: np.ndarray
    crank_angles: np.ndarray
    cadences: np.ndarray
    controls: np.ndarray  # (rows, 2n), right-leg muscles first

    def __len__(self) -> int:
        return len(self.times)

    @property
    def duration_s(self) -> float:
        return float(self.times[-1])


# collect's sessions in order: the base pattern first, then small rotations
# and arc-size tweaks around it
SESSION_SCHEDULE = (
    None,
    PatternPerturbation(patterns.ROTATE, 10.0),
    PatternPerturbation(patterns.ROTATE, -10.0),
    PatternPerturbation(patterns.ROTATE, 20.0),
    PatternPerturbation(patterns.ROTATE, -20.0),
    PatternPerturbation(patterns.SHRINK, 10.0),
    PatternPerturbation(patterns.EXTEND, 10.0),
    PatternPerturbation(patterns.ROTATE, 15.0),
    PatternPerturbation(patterns.ROTATE, -15.0),
    PatternPerturbation(patterns.EXTEND, 20.0),
)


def _describe(pert: PatternPerturbation | None) -> str:
    if pert is None:
        return "base"
    target = pert.muscle or "all"
    return f"{pert.kind}{pert.magnitude_deg:+g}:{target}"


def _run_drives(jobs) -> list:
    """[_drive(job) for job in jobs], with the jobs side by side in forked
    worker processes when more than one CPU is usable.

    One worker per usable CPU (os.sched_getaffinity; one where the platform
    lacks it), at most one per job; with fewer than two the jobs run in this
    process.  Results come back in job order and every worker has exited
    when this returns, so outputs are the same bytes whichever path runs.
    A drive's sim_step calls count in biomech.sim_step_count() of the
    process that ran it.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(jobs), cpus)
    if workers < 2:
        return [_drive(job) for job in jobs]
    # imported here: they cost about 20 ms, which one-drive commands skip
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork: a worker starts in milliseconds with the modules loaded, where
    # spawn would import numpy and fescycle again in each; the drives make
    # no BLAS call, so a BLAS thread pool in the parent cannot leave them
    # waiting on a lock
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        return list(pool.map(_drive, jobs))
    finally:
        pool.shutdown(cancel_futures=True)


ASSIST_CADENCE = 3.0  # rad/s handed to the crank at session start (the push a
                      # helper or motor gives before stimulation takes over)
MAX_START_CADENCE = 4.0 * math.pi  # rad/s (120 RPM)


def _drive_steps(duration_s: float, dt: float, start_cadence: float) -> int:
    """Control steps in a drive of duration_s; InvalidArgument unless the
    duration is finite and holds at least one step and the starting push
    lies in [0, MAX_START_CADENCE]."""
    if not 0.0 <= start_cadence <= MAX_START_CADENCE:
        raise InvalidArgument(f"start cadence {start_cadence:g} rad/s must lie in "
                              f"[0, {MAX_START_CADENCE:g}] rad/s (0-120 RPM)")
    steps = duration_s / dt
    if not (math.isfinite(steps) and round(steps) >= 1):
        raise InvalidArgument(f"duration {duration_s:g} s must be finite and hold at least "
                              f"one {dt:g} s control step")
    return round(steps)


def _drive(job):
    """An open-loop drive of pattern `pat` from `start_angle` with the
    starting push `start_cadence`: the steps + 1 rows of time, crank angle,
    cadence and control that a SessionLog holds."""
    config, muscles, pat, start_angle, start_cadence, steps, dt = job

    def control(state):
        return np.concatenate([pattern_control(pat, state.crank_angle, RIGHT),
                               pattern_control(pat, state.crank_angle, LEFT)])

    state = replace(biomech.initial_state(config, start_angle), cadence=start_cadence)
    state, times, angles, cadences, controls = drive(config, muscles, state, steps, dt, control)
    return times, angles, cadences, np.vstack([controls, control(state)])


def collect_sessions(config: CyclingConfig, muscles, base_pattern: StimulationPattern,
                     n_sessions: int = 10, duration_s: float = 10.0,
                     seed: int = 0, dt: float = 0.05,
                     start_cadence: float = ASSIST_CADENCE) -> list[SessionLog]:
    """Drive the simulator open loop with perturbed copies of the pattern.

    Session k follows SESSION_SCHEDULE[k].  Each session resets to a random
    crank angle with an assisted starting push and logs state and controls at
    the control rate; the assisted early portion is what logs_to_dataset's
    discard window is for.  Sessions run side by side as in _run_drives; the
    start angles are drawn up front, in session order, so the logs do not
    depend on how many run at once.
    """
    if not 1 <= n_sessions <= len(SESSION_SCHEDULE):
        raise InvalidArgument(f"n_sessions must lie in 1..{len(SESSION_SCHEDULE)}, "
                              f"got {n_sessions}")
    steps = _drive_steps(duration_s, dt, start_cadence)
    rng = np.random.default_rng(seed)
    fingerprint = config_fingerprint(config, muscles)
    perts = SESSION_SCHEDULE[:n_sessions]
    jobs = [
        (config, muscles,
         base_pattern if pert is None else patterns.perturb_pattern(base_pattern, pert),
         float(rng.uniform(0.0, biomech.TWO_PI)), start_cadence, steps, dt)
        for pert in perts
    ]
    return [
        SessionLog(
            pattern_id=f"session{k:02d}:{_describe(pert)}",
            config_hash=fingerprint,
            dt=dt,
            times=times,
            crank_angles=angles,
            cadences=cadences,
            controls=controls,
        )
        for k, (pert, (times, angles, cadences, controls))
        in enumerate(zip(perts, _run_drives(jobs)))
    ]


def logs_to_dataset(logs, beta: float = 1.0, discard_first_s: float = 0.0) -> OfflineDataset:
    """Mirrored transitions from consecutive log rows.

    Each pair of consecutive rows yields a right-leg transition and its
    mirrored left-leg twin (env.mirrored_transitions); the last row of a
    session only serves as a next state.  Transitions from rows earlier than
    discard_first_s are dropped to cut spin-up transients.
    """
    if not logs:
        raise InsufficientData("no session logs given")
    fingerprints = {log.config_hash for log in logs}
    if len(fingerprints) != 1:
        raise InconsistentConfig(f"logs from different simulators: {sorted(fingerprints)}")
    first = logs[0]
    for log in logs[1:]:
        if log.dt != first.dt:
            raise InconsistentConfig(f"session {log.pattern_id}: dt {log.dt} s differs from "
                                     f"{first.dt} s in session {first.pattern_id}")
        if log.controls.shape[1] != first.controls.shape[1]:
            raise ShapeMismatch(f"session {log.pattern_id}: {log.controls.shape[1]} control "
                                f"columns, session {first.pattern_id} has "
                                f"{first.controls.shape[1]}")

    blocks = []
    for log in logs:
        obs, act, rew, next_obs = mirrored_transitions(
            log.crank_angles, log.cadences, log.controls[:-1], beta)
        keep = np.repeat(log.times[:-1] >= discard_first_s, 2)
        blocks.append((obs[keep], act[keep], rew[keep], next_obs[keep]))
    return OfflineDataset(*(np.concatenate(column) for column in zip(*blocks)))


def finetune(agent: sac.SacAgent, dataset: OfflineDataset, tc: sac.TrainConfig,
             epochs: int = 100) -> sac.SacAgent:
    """Conservative offline updates from the fixed dataset only.

    One epoch runs tc.grad_steps_per_episode gradient steps; nothing here
    touches the simulator, which biomech.sim_step_count() can prove.
    """
    if epochs < 1:
        raise InvalidArgument(f"epochs must be >= 1, got {epochs}")
    if len(dataset) < tc.batch:
        raise InsufficientData(
            f"dataset has {len(dataset)} tuples, need at least {tc.batch}"
        )
    for _ in range(epochs):
        sac.sac_update(agent, dataset, tc)
    return agent


def evaluate_pattern(config: CyclingConfig, muscles, p: StimulationPattern,
                     duration_s: float = 30.0, n_trials: int = 5, seed: int = 0,
                     transient_s: float = 5.0, dt: float = 0.05,
                     start_cadence: float = ASSIST_CADENCE) -> dict:
    """Open-loop pattern drive from random start angles.

    Each trial begins with the assisted starting push from a start angle
    drawn from default_rng([seed, trial]); its RPM trace is the cadence after
    each step, and the mean RPM is taken after the transient window so the
    push itself does not count.  Trials run side by side as in _run_drives.
    """
    if n_trials < 1:
        raise InvalidArgument(f"n_trials must be >= 1, got {n_trials}")
    steps = _drive_steps(duration_s, dt, start_cadence)
    skip = round(transient_s / dt)
    if steps <= skip:
        raise InvalidArgument(f"duration {duration_s:g} s leaves no step after the "
                              f"{transient_s:g} s transient")
    jobs = [(config, muscles, p,
             float(np.random.default_rng([seed, trial]).uniform(0.0, biomech.TWO_PI)),
             start_cadence, steps, dt)
            for trial in range(n_trials)]
    traces = [cadences[1:] * RPM_PER_RAD_S for _, _, cadences, _ in _run_drives(jobs)]
    trials = [
        {
            "start_seed": [seed, trial],
            "mean_rpm": float(np.mean(rpm_trace[skip:])),
            "final_rpm": float(rpm_trace[-1]),
            "rpm_trace": rpm_trace,
        }
        for trial, rpm_trace in enumerate(traces)
    ]
    return {
        "mean_rpm": float(np.mean([t["mean_rpm"] for t in trials])),
        "trials": trials,
        "duration_s": duration_s,
        "transient_s": transient_s,
        "dt": dt,
    }


SIDECAR_KEYS = ("pattern_id", "config_hash", "dt", "rows")


def _log_header(n_controls: int) -> list[str]:
    return ["time_s", "crank_angle_rad", "cadence_rad_s"] + [f"u{i}" for i in range(n_controls)]


def save_session_log(log: SessionLog, csv_path) -> None:
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_log_header(log.controls.shape[1]))
        for i in range(len(log)):
            writer.writerow(
                [f"{log.times[i]:.9g}", f"{log.crank_angles[i]:.9g}",
                 f"{log.cadences[i]:.9g}"]
                + [f"{v:.9g}" for v in log.controls[i]]
            )
    sidecar = {
        "pattern_id": log.pattern_id,
        "config_hash": log.config_hash,
        "dt": log.dt,
        "rows": len(log),
    }
    with open(str(csv_path) + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")


def _read_sidecar(path: str) -> dict:
    """The sidecar at `path`, checked as load_session_log describes."""
    with open(path) as fh:
        try:
            sidecar = json.load(fh)
        except json.JSONDecodeError as exc:
            raise json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc, exc.pos) from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(sidecar, dict):
        raise ValueError(f"{path}: sidecar is not a JSON object")
    missing = [key for key in SIDECAR_KEYS if key not in sidecar]
    if missing:
        raise ValueError(f"{path}: sidecar lacks key {', '.join(map(repr, missing))}")
    for key in ("pattern_id", "config_hash"):
        if type(sidecar[key]) is not str:
            raise ValueError(f"{path}: sidecar {key} must be a string, got {sidecar[key]!r}")
    dt, rows = sidecar["dt"], sidecar["rows"]
    if not (type(dt) in (int, float) and 0 < dt <= sys.float_info.max):
        non_finite = type(dt) is float and not math.isfinite(dt)
        raise (NonFiniteState if non_finite else ValueError)(
            f"{path}: sidecar dt must be a finite number > 0, got {dt!r}")
    if not (type(rows) is int and rows >= 0):
        raise ValueError(f"{path}: sidecar rows must be an integer >= 0, got {rows!r}")
    return sidecar


def _read_table(csv_path) -> tuple[np.ndarray, list[str]]:
    """The rows below the header of the log CSV at `csv_path`, as one array,
    and the header, checked as load_session_log describes."""
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{csv_path}: the file is empty, with no header row")
            n_controls = len(header) - 3
            if n_controls < 2 or n_controls % 2 or header != _log_header(n_controls):
                raise ValueError(
                    f"{csv_path}: header {','.join(header)!r} is not time_s,crank_angle_rad,"
                    f"cadence_rad_s followed by control columns u0,u1,..., as many for "
                    f"each leg")
            table = []
            for k, row in enumerate(reader, 1):
                if len(row) != len(header):
                    raise ValueError(f"{csv_path}: row {k} has {len(row)} cells, "
                                     f"the header has {len(header)}")
                try:
                    table.append([float(v) for v in row])
                except ValueError:
                    col = next(c for c, v in enumerate(row) if not _is_float(v))
                    raise ValueError(f"{csv_path}: row {k}, column {header[col]}: "
                                     f"{row[col]!r} is not a number") from None
        except csv.Error as exc:
            raise ValueError(f"{csv_path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{csv_path}: {exc}") from None
    return np.array(table, dtype=float).reshape(-1, len(header)), header


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def load_session_log(csv_path) -> SessionLog:
    """Read a log written by save_session_log.

    Raises ValueError, naming the sidecar, unless it is a JSON object with
    every one of SIDECAR_KEYS, string pattern_id and config_hash, a number
    dt > 0 and an integer rows >= 0 (NonFiniteState for a NaN or infinite
    dt); ValueError, naming the CSV and the row where there is one, unless
    its header is time_s, crank_angle_rad, cadence_rad_s and the control
    columns u0, u1, ... (the same number for each leg) and every row holds
    one number per header column; ShapeMismatch when the CSV's row count
    differs from the sidecar's; InsufficientData when it holds no row; and
    NonFiniteState, naming the row and column, on any non-finite value.
    """
    sidecar = _read_sidecar(f"{csv_path}.json")
    table, header = _read_table(csv_path)
    if len(table) != sidecar["rows"]:
        raise ShapeMismatch(
            f"{csv_path}: sidecar lists {sidecar['rows']} rows, the CSV has {len(table)}"
        )
    if not len(table):
        raise InsufficientData(f"{csv_path}: the log holds no rows")
    bad = np.argwhere(~np.isfinite(table))
    if len(bad):
        row, col = bad[0]
        raise NonFiniteState(
            f"{csv_path}: row {row + 1}, column {header[col]}: "
            f"{table[row, col]} is not finite"
        )
    return SessionLog(
        pattern_id=sidecar["pattern_id"],
        config_hash=sidecar["config_hash"],
        dt=sidecar["dt"],
        times=table[:, 0],
        crank_angles=table[:, 1],
        cadences=table[:, 2],
        controls=table[:, 3:],
    )
