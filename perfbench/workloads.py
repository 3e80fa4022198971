"""The benchmark workloads.

Each workload generates its inputs (configs, gap files, base patterns, train
configs) from the workload seed in `prepare`, then runs a fixed chain of
`fescycle` CLI commands in `job`, the way scripts/run_pipeline.py drives the
pipeline.  Every job does fixed work: episode, epoch, session and trial
counts are set here, so no job's length depends on how learning goes.
"""

from __future__ import annotations

import io
import json
import re
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from typing import NamedTuple

import numpy as np

import checks
from fescycle import biomech, cli
from fescycle.pattern import StimulationPattern, save_pattern

TRIALS = 5  # evaluate: trials of DURATION_S each (the CLI defaults)
DURATION_S = 30.0
SESSIONS = 10  # collect: sessions of SESSION_S each (the CLI defaults)
SESSION_S = 10.0
DISCARD_S = 1.0  # finetune's default --discard-first-s

# a pattern that turns the crank on every rig and gap tried; seeds move it
BASE_ON = {biomech.QUADRICEPS: (30.0, 170.0), biomech.HAMSTRINGS: (190.0, 330.0),
           biomech.GLUTEUS: (200.0, 320.0)}


class Command(NamedTuple):
    name: str
    rc: int
    sim_steps: int  # biomech.sim_step calls the command made
    stdout: str


class Chain:
    """Runs one job's CLI commands and output checks, counting each as an
    operation; a non-zero exit code or a failed check is a failure."""

    def __init__(self, tracer=None, out_dir: Path | None = None, buffers=()):
        self.tracer = tracer
        self.out_dir = out_dir
        self.buffers = buffers  # replay buffers created while the chain ran
        self.ops = 0
        self.failures: list[str] = []
        self.commands: list[Command] = []

    def _op(self, ok: bool, message: str) -> None:
        self.ops += 1
        if not ok:
            self.failures.append(message)

    def cli(self, *argv) -> None:
        argv = [str(a) for a in argv]
        name = argv[0]
        out = io.StringIO()
        traced = self.tracer is not None
        bytes_before = _dir_bytes(self.out_dir) if traced else 0
        steps_before = biomech.sim_step_count()
        try:
            with redirect_stdout(out):
                rc = (self.tracer.timed(f"cli.{name}", cli.main, (argv,)) if traced
                      else cli.main(argv))
        except Exception:
            rc = -1
            out.write(traceback.format_exc())
        steps = biomech.sim_step_count() - steps_before
        if traced:
            self.tracer.count["cli.bytes_written"] += _dir_bytes(self.out_dir) - bytes_before
            self.tracer.errors[f"cli.{name}"] += rc != 0
        self.commands.append(Command(name, rc, steps, out.getvalue()))
        self._op(rc == 0, f"{' '.join(argv)} exited {rc}: {out.getvalue().strip()[-300:]}")

    def check(self, name: str, thunk) -> None:
        try:
            thunk()
            self._op(True, name)
        except Exception as exc:  # a crashing check is a failed check
            self._op(False, f"check {name}: {type(exc).__name__}: {exc}")

    def sim_steps(self, command: str) -> int:
        return sum(c.sim_steps for c in self.commands if c.name == command)

    def eval_rpms(self) -> list[float]:
        """The mean RPM each evaluate command printed."""
        found = (re.search(r"mean RPM (\S+)", c.stdout) for c in self.commands
                 if c.name == "evaluate")
        return [float(m.group(1)) for m in found if m]


def _dir_bytes(directory) -> int:
    if directory is None or not Path(directory).exists():
        return 0
    return sum(p.stat().st_size for p in Path(directory).rglob("*") if p.is_file())


def seeded_pattern(rng: np.random.Generator, n_muscles: int) -> StimulationPattern:
    """BASE_ON rotated by up to +-20 deg, each arc resized by up to +-15 deg."""
    names = biomech.MUSCLE_NAMES[:n_muscles]
    shift = rng.uniform(-20.0, 20.0)
    intervals = []
    for name in names:
        on, off = BASE_ON[name]
        widen = rng.uniform(-15.0, 15.0)
        intervals.append((((on + shift - widen / 2) % 360.0, (off + shift + widen / 2) % 360.0),))
    return StimulationPattern(tuple(names), tuple(intervals), source="benchmark")


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def write_rig(chain: Chain, d: Path, n_muscles: int) -> Path:
    path = d / f"config{n_muscles}.json"
    path.write_text(biomech.config_to_json(biomech.nominal_config(n_muscles)))
    chain.cli("validate", path)
    return path


# collect and evaluate run their command and return its output check, which
# the caller runs after the timed job

def evaluate(chain: Chain, config, pattern, out: Path, seed: int, gap=None, trials=TRIALS):
    gap_args = ["--gap", gap] if gap else []
    chain.cli("evaluate", config, pattern, *gap_args, "--out", out, "--trials", trials,
              "--duration", DURATION_S, "--seed", seed)
    return f"eval_csv {out.name}", lambda: checks.eval_csv(out, trials, DURATION_S)


def collect(chain: Chain, config, pattern, gap, out: Path, seed: int):
    chain.cli("collect", config, pattern, "--gap", gap, "--out", out, "--sessions", SESSIONS,
              "--duration", SESSION_S, "--seed", seed)
    return (f"dataset {out.name}",
            lambda: checks.session_dataset(out, SESSIONS, SESSION_S, DISCARD_S))


class Train:
    """SAC training on the nominal 2-muscle rig with test episodes, then
    extract and evaluate of the returned pattern."""

    name = "train"
    EPISODES = 6  # far below where the plateau stop can fire (10 tests without gain)
    TEST_EVERY = 2
    # one trial: evaluating a learned pattern costs more the longer its muscles
    # are ON, and that seed-dependent share of the job is kept small here
    TRIALS = 1

    def prepare(self, chain: Chain, d: Path, seed: int):
        return {"config": write_rig(chain, d, 2)}, []

    def job(self, chain: Chain, inp: dict, d: Path, seed: int):
        agent, curve, pattern = d / "agent.json", d / "curve.csv", d / "pattern.json"
        chain.cli("train", inp["config"], "--out", agent, "--curve", curve,
                  "--max-episodes", self.EPISODES, "--test-every", self.TEST_EVERY,
                  "--seed", seed)
        chain.cli("extract", agent, inp["config"], "--out", pattern)
        evaluated = evaluate(chain, inp["config"], pattern, d / "eval.csv", seed,
                             trials=self.TRIALS)
        return [
            ("checkpoint agent.json", lambda: checks.checkpoint(agent, 2)),
            ("curve has finite test returns", lambda: checks.best_test_return(curve)),
            ("train tuples", lambda: checks.train_tuples(
                curve, chain.sim_steps("train"), sum(b.inserted for b in chain.buffers))),
            evaluated,
        ]


class Finetune:
    """Sessions on a seed-drawn reality-gap rig under a benchmark-written base
    pattern, CQL fine-tuning of a briefly trained agent, then extract and
    evaluate of the fine-tuned pattern on the gap rig."""

    name = "finetune"
    START_EPISODES = 2  # the starting agent: one episode fills the batch, one updates
    START_STEPS = 200
    GRAD_STEPS = 250
    EPOCHS = 2

    def prepare(self, chain: Chain, d: Path, seed: int):
        rng = np.random.default_rng(seed)
        config = write_rig(chain, d, 2)
        base = d / "base_pattern.json"
        save_pattern(seeded_pattern(rng, 2), base)
        gap = write_json(d / "gap.json", {"seed": int(rng.integers(1, 1_000_000))})
        start_tc = write_json(d / "start_train.json", {"grad_steps_per_episode": self.START_STEPS})
        tc = write_json(d / "finetune.json",
                        {"grad_steps_per_episode": self.GRAD_STEPS, "cql_weight": 5.0})
        agent = d / "start_agent.json"
        chain.cli("train", config, start_tc, "--out", agent, "--curve", d / "start_curve.csv",
                  "--max-episodes", self.START_EPISODES, "--test-every", self.START_EPISODES,
                  "--seed", seed)
        inputs = {"config": config, "base": base, "gap": gap, "tc": tc, "agent": agent}
        return inputs, [("checkpoint start_agent.json", lambda: checks.checkpoint(agent, 2))]

    def job(self, chain: Chain, inp: dict, d: Path, seed: int):
        logs, agent, pattern = d / "logs", d / "agent_ft.json", d / "pattern_ft.json"
        collected = collect(chain, inp["config"], inp["base"], inp["gap"], logs, seed)
        chain.cli("finetune", inp["agent"], logs, inp["tc"], "--out", agent,
                  "--epochs", self.EPOCHS, "--discard-first-s", DISCARD_S, "--seed", seed)
        chain.cli("extract", agent, inp["config"], "--out", pattern)
        evaluated = evaluate(chain, inp["config"], pattern, d / "eval.csv", seed, inp["gap"])
        steps = chain.sim_steps("finetune")
        return [
            collected,
            ("finetune runs no simulator step",
             lambda: checks.require(steps == 0, f"finetune ran {steps} sim steps")),
            ("checkpoint agent_ft.json", lambda: checks.checkpoint(agent, 2)),
            evaluated,
        ]


class Sessions:
    """collect and evaluate of seed-generated patterns over several gap seeds
    on the 2- and 3-muscle rigs; no network runs."""

    name = "sessions"
    GAPS_PER_RIG = 2

    def prepare(self, chain: Chain, d: Path, seed: int):
        rng = np.random.default_rng(seed)
        cases = []
        for n in (2, 3):
            config = write_rig(chain, d, n)
            for g in range(self.GAPS_PER_RIG):
                pattern = d / f"pattern{n}_{g}.json"
                save_pattern(seeded_pattern(rng, n), pattern)
                gap = write_json(d / f"gap{n}_{g}.json", {"seed": int(rng.integers(1, 1_000_000))})
                cases.append((f"{n}m_gap{g}", config, pattern, gap))
        return {"cases": cases}, []

    def job(self, chain: Chain, inp: dict, d: Path, seed: int):
        deferred = []
        for tag, config, pattern, gap in inp["cases"]:
            deferred.append(collect(chain, config, pattern, gap, d / f"logs_{tag}", seed))
            deferred.append(evaluate(chain, config, pattern, d / f"eval_{tag}.csv", seed, gap))
        return deferred


WORKLOADS = {w.name: w for w in (Train(), Finetune(), Sessions())}
