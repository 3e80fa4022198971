"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of the fescycle modules at their module or
class attribute; nothing inside src/ changes.  Every span keeps only per-name
counters (calls, inclusive seconds, self seconds) plus a bounded log-bin
histogram for the hot inner spans, so memory stays flat however long a run
is.  Self time is a span's duration minus the durations of the spans it
directly encloses.  The wrappers read array shapes and file sizes only: they
draw no random numbers and write no arrays, which the traced run checks by
comparing output hashes with an untraced run.
"""

from __future__ import annotations

import math
import os
import time
from collections import defaultdict

import numpy as np

perf = time.perf_counter

# extract's ON threshold; a step "stimulates" when any command of either leg exceeds it
ON_THRESHOLD = 0.5


class LogHist:
    """Histogram with 1%-wide logarithmic bins; quantiles within 1%."""

    LOW = 1e-7
    STEP = math.log(1.01)

    def __init__(self):
        self.bins = defaultdict(int)
        self.n = 0

    def add(self, x: float) -> None:
        self.bins[int(math.log(max(x, self.LOW) / self.LOW) / self.STEP)] += 1
        self.n += 1

    def quantile(self, q: float) -> float:
        if not self.n:
            return 0.0
        rank = q * (self.n - 1)
        seen = 0
        for idx in sorted(self.bins):
            seen += self.bins[idx]
            if seen > rank:
                return self.LOW * math.exp((idx + 0.5) * self.STEP)
        return 0.0


def _rows(x) -> int:
    shape = np.shape(x)
    return 1 if len(shape) < 2 else shape[0]


def _matmul_macs(net) -> int:
    sizes = net.layer_sizes
    return sum(a * b for a, b in zip(sizes, sizes[1:]))


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.count = defaultdict(float)
        self.hist = defaultdict(LogHist)
        self._stack = []  # child-time accumulator of each open span
        self._undo = []
        self._step_mark = None

    # -- wrapping ---------------------------------------------------------

    def timed(self, label, fn, args=(), kwargs=None, hist=False):
        """Call fn(*args, **kwargs) as a span named `label`."""
        stack = self._stack
        frame = [0.0]
        stack.append(frame)
        t0 = perf()
        try:
            return fn(*args, **(kwargs or {}))
        except Exception:
            self.errors[label] += 1
            raise
        finally:
            dt = perf() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dt
            self.calls[label] += 1
            self.total[label] += dt
            self.self_s[label] += dt - frame[0]
            if hist:
                self.hist[label].add(dt)

    def wrap(self, owner, attr, name, before=None, after=None, hist=False):
        """Replace owner.attr by a span named `name` (or `name(args)`).

        before(args, kwargs) -> token runs untimed before the call and
        after(token, args, kwargs, result) untimed after it.  An attribute
        the program no longer has is skipped, so its metrics read zero.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            return

        def span(*args, **kwargs):
            label = name(args) if callable(name) else name
            token = before(args, kwargs) if before is not None else None
            result = self.timed(label, fn, args, kwargs, hist)
            if after is not None:
                after(token, args, kwargs, result)
            return result

        span.__wrapped__ = fn
        setattr(owner, attr, span)
        self._undo.append((owner, attr, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    # -- installation -----------------------------------------------------

    def install(self, fes) -> None:
        """Wrap the layer boundaries of the fescycle package `fes`."""
        biomech, nets, sac, pattern = fes.biomech, fes.nets, fes.sac, fes.pattern
        offline, training = fes.offline, fes.training
        count = self.count

        self.wrap(biomech, "sim_step", "biomech.sim_step", hist=True)

        def fwd_name(args):
            return "nets.forward_1row" if _rows(args[1]) == 1 else "nets.forward"

        def fwd_after(_, args, kwargs, result):
            rows = _rows(args[1])
            count["nets.forward.rows" if rows > 1 else "nets.forward_1row.rows"] += rows
            count["nets.flop"] += 2 * rows * _matmul_macs(args[0])

        def bwd_after(_, args, kwargs, result):
            rows = _rows(args[2])
            count["nets.backward.rows"] += rows
            # parameter gradients plus the delta (and input-gradient) products
            count["nets.flop"] += 4 * rows * _matmul_macs(args[0])

        self.wrap(nets.Mlp, "forward_cached", fwd_name, after=fwd_after)
        self.wrap(nets.Mlp, "backward", "nets.backward", after=bwd_after)
        self.wrap(nets.Adam, "step", "nets.adam")

        # one gradient step runs from the end of one batch sample to the end
        # of the next (the last ends when sac_update returns)
        def mark_step(*_):
            now = perf()
            if self._step_mark is not None:
                self.hist["sac.grad_step"].add(now - self._step_mark)
            self._step_mark = now

        def update_before(args, kwargs):
            self._step_mark = None
            return (self.calls["nets.forward"] + self.calls["nets.forward_1row"],
                    self.calls["nets.backward"], self.hist["sac.grad_step"].n)

        def update_after(token, args, kwargs, result):
            mark_step()
            self._step_mark = None
            fwd0, bwd0, steps0 = token
            count["sac.update.forwards"] += (
                self.calls["nets.forward"] + self.calls["nets.forward_1row"] - fwd0)
            count["sac.update.backwards"] += self.calls["nets.backward"] - bwd0
            count["sac.update.steps"] += self.hist["sac.grad_step"].n - steps0

        self.wrap(sac, "sac_update", "sac.update", before=update_before, after=update_after)
        for fn in ("critic_loss", "actor_loss", "cql_regularizer"):
            self.wrap(sac, fn, f"sac.{fn}")
        for store in (sac.ReplayBuffer, offline.OfflineDataset):
            self.wrap(store, "sample", "sac.sample", after=mark_step)
        self.wrap(sac.ReplayBuffer, "push_tuple", "sac.push")
        self.wrap(sac.SacAgent, "act", "sac.act")

        def file_bytes(key, arg_index, sidecar=False):
            def after(_, args, kwargs, result):
                path = str(args[arg_index])
                count[key] += os.path.getsize(path)
                if sidecar:
                    count[key] += os.path.getsize(path + ".json")
            return after

        self.wrap(sac, "save_agent", "sac.checkpoint_write",
                  after=file_bytes("sac.checkpoint_write.bytes", 1))
        self.wrap(sac, "load_agent", "sac.checkpoint_read")
        self.wrap(sac, "agent_to_json", "sac.agent_to_json")
        self.wrap(sac, "agent_from_json", "sac.agent_from_json")

        def extract_after(acts_before, args, kwargs, result):
            count["pattern.extract.policy_calls"] += self.calls["sac.act"] - acts_before

        self.wrap(pattern, "extract_pattern", "pattern.extract",
                  before=lambda args, kwargs: self.calls["sac.act"], after=extract_after)
        self.wrap(offline, "pattern_control", "pattern.control")

        self.wrap(offline, "collect_sessions", "offline.collect")

        def evaluate_after(_, args, kwargs, result):
            count["offline.evaluate.trials"] += len(result["trials"])

        self.wrap(offline, "evaluate_pattern", "offline.evaluate", after=evaluate_after)

        def dataset_after(_, args, kwargs, result):
            count["offline.dataset.tuples"] += len(result)

        self.wrap(offline, "logs_to_dataset", "offline.dataset", after=dataset_after)
        self.wrap(offline, "save_session_log", "offline.log_io",
                  after=file_bytes("offline.log_io.bytes", 1, sidecar=True))
        self.wrap(offline, "load_session_log", "offline.log_io",
                  after=file_bytes("offline.log_io.bytes", 0, sidecar=True))

        def episode_after(_, args, kwargs, result):
            tuples = result[1]
            count["env.tuples"] += len(tuples)
            actions = np.array([t.action for t in tuples])
            per_step = (actions > ON_THRESHOLD).any(axis=1).reshape(-1, 2).any(axis=1)
            count["env.steps"] += len(per_step)
            count["env.stim_steps"] += int(per_step.sum())

        self.wrap(training, "run_episode", "env.run_episode", after=episode_after)

        # totals at the start of train_agent, to split its time afterwards
        train_parts = ("training.train_agent", "env.run_episode", "sac.update",
                       "biomech.sim_step", "sac.agent_to_json", "sac.agent_from_json")

        def train_before(args, kwargs):
            return [self.total[n] for n in train_parts[:4]] + [
                self.calls[n] for n in train_parts[4:]]

        def train_after(token, args, kwargs, result):
            _, curve = result
            train_s, rollout_s, grad_s, physics_s, snaps, restores = (
                now - then for now, then in zip(train_before(None, None), token))
            count["training.s"] += train_s
            count["training.rollout_s"] += rollout_s
            count["training.grad_s"] += grad_s
            count["training.physics_s"] += physics_s
            count["training.snapshots"] += snaps
            count["training.restores"] += restores
            count["training.episodes"] += len(curve)
            count["training.test_episodes"] += sum(p.test_return is not None for p in curve)

        self.wrap(training, "train_agent", "training.train_agent",
                  before=train_before, after=train_after)

    # -- per-layer metrics ------------------------------------------------

    def metrics(self, reps: int, job_s: float) -> dict:
        """Per-layer metrics averaged per job over `reps` traced jobs whose
        median traced wall time is `job_s`."""
        c, t, s, k = self.calls, self.total, self.self_s, self.count

        def per(x):
            return x / reps

        def ratio(a, b):
            return a / b if b else 0.0

        sim = self.hist["biomech.sim_step"]
        step = self.hist["sac.grad_step"]
        nets_self = s["nets.forward"] + s["nets.forward_1row"] + s["nets.backward"]
        cli_names = ("train", "extract", "collect", "finetune", "evaluate")
        m = {
            "biomech.sim_step.calls": per(c["biomech.sim_step"]),
            "biomech.sim_step.self_s": per(s["biomech.sim_step"]),
            "biomech.sim_step.us.p50": sim.quantile(0.5) * 1e6,
            "biomech.sim_step.us.p99": sim.quantile(0.99) * 1e6,
            "env.run_episode.calls": per(c["env.run_episode"]),
            "env.run_episode.self_s": per(s["env.run_episode"]),
            "env.tuples": per(k["env.tuples"]),
            "env.stim_fraction": ratio(k["env.stim_steps"], k["env.steps"]),
            "nets.forward.calls": per(c["nets.forward"]),
            "nets.forward.rows": per(k["nets.forward.rows"]),
            "nets.forward.self_s": per(s["nets.forward"]),
            "nets.forward_1row.calls": per(c["nets.forward_1row"]),
            "nets.forward_1row.self_s": per(s["nets.forward_1row"]),
            "nets.backward.calls": per(c["nets.backward"]),
            "nets.backward.rows": per(k["nets.backward.rows"]),
            "nets.backward.self_s": per(s["nets.backward"]),
            "nets.adam.calls": per(c["nets.adam"]),
            "nets.adam.self_s": per(s["nets.adam"]),
            "nets.gflop": per(k["nets.flop"]) / 1e9,
            "nets.gflop_per_s": ratio(k["nets.flop"] / 1e9, nets_self),
            "sac.grad_steps": per(step.n),
            "sac.grad_step_ms.p50": step.quantile(0.5) * 1e3,
            "sac.grad_step_ms.p99": step.quantile(0.99) * 1e3,
            "sac.forwards_per_grad_step": ratio(k["sac.update.forwards"], k["sac.update.steps"]),
            "sac.backwards_per_grad_step": ratio(k["sac.update.backwards"], k["sac.update.steps"]),
            "sac.update.self_s": per(s["sac.update"]),
        }
        for name in ("critic_loss", "cql_regularizer", "actor_loss", "sample", "push", "act"):
            m[f"sac.{name}.self_s"] = per(s[f"sac.{name}"])
        m.update({
            "sac.act.calls": per(c["sac.act"]),
            "sac.checkpoint_write.calls": per(c["sac.checkpoint_write"]),
            "sac.checkpoint_write.s": per(t["sac.checkpoint_write"]),
            "sac.checkpoint_write.bytes": per(k["sac.checkpoint_write.bytes"]),
            "sac.checkpoint_read.calls": per(c["sac.checkpoint_read"]),
            "sac.checkpoint_read.s": per(t["sac.checkpoint_read"]),
            "pattern.extract.calls": per(c["pattern.extract"]),
            "pattern.extract.s": per(t["pattern.extract"]),
            "pattern.extract.policy_calls": per(k["pattern.extract.policy_calls"]),
            "pattern.control.calls": per(c["pattern.control"]),
            "pattern.control.self_s": per(s["pattern.control"]),
            "offline.collect.self_s": per(s["offline.collect"]),
            "offline.evaluate.self_s": per(s["offline.evaluate"]),
            "offline.dataset.s": per(t["offline.dataset"]),
            "offline.dataset.tuples": per(k["offline.dataset.tuples"]),
            "offline.log_io.s": per(t["offline.log_io"]),
            "offline.log_io.bytes": per(k["offline.log_io.bytes"]),
            "training.episodes": per(k["training.episodes"]),
            "training.test_episodes": per(k["training.test_episodes"]),
            "training.updates_skipped": per(self.errors["sac.update"]),
            "training.snapshots": per(k["training.snapshots"]),
            "training.snapshot_useful_ratio": ratio(k["training.restores"], k["training.snapshots"]),
            "training.rollout_share": ratio(k["training.rollout_s"], k["training.s"]),
            "training.grad_share": ratio(k["training.grad_s"], k["training.s"]),
            "training.physics_share": ratio(k["training.physics_s"], k["training.s"]),
        })
        for name in cli_names:
            m[f"cli.{name}.s"] = per(t[f"cli.{name}"])
            m[f"cli.{name}.failed"] = per(self.errors[f"cli.{name}"])
        m["cli.self_s"] = per(sum(s[f"cli.{name}"] for name in cli_names))
        m["cli.bytes_written"] = per(k["cli.bytes_written"])
        m["trace_self_share"] = ratio(per(sum(s.values())), job_s)
        return m

    def roadmap(self, workload: str) -> list[tuple[str, str, str]]:
        """ROADMAP item-3 baselines next to this run's layer equivalents."""
        c, t = self.calls, self.total

        def mean_ms(name, per=None):
            n = self.count[per] if per else c[name]
            return 1e3 * t[name] / n if n else None

        def fmt(value_ms):
            return "n/a" if value_ms is None else f"{value_ms:.3g} ms"

        step_ms = 1e3 * self.hist["sac.grad_step"].quantile(0.5) or None
        write, read = mean_ms("sac.checkpoint_write"), mean_ms("sac.checkpoint_read")
        rows = [
            ("sim_step (50 x 1 ms substeps)", "0.33 ms",
             fmt(1e3 * self.hist["biomech.sim_step"].quantile(0.5) or None)),
            ("100-step rollout (with policy queries)", "34 ms", fmt(mean_ms("env.run_episode"))),
            ("SAC step, batch 256", "1.31 ms", fmt(step_ms if workload == "train" else None)),
            ("SAC+CQL step, 10 samples", "7.0 ms",
             fmt(step_ms if workload == "finetune" else None)),
            ("30 s evaluation trial", "170 ms",
             fmt(mean_ms("offline.evaluate", per="offline.evaluate.trials"))),
            ("extract_pattern", "10 ms", fmt(mean_ms("pattern.extract"))),
            ("checkpoint JSON round trip", "46 ms",
             fmt(write + read if write and read else None)),
        ]
        if self.count["training.s"]:
            k = self.count
            rows.append(("train: gradient / physics share of train_agent", "97% / 3%",
                         f"{100 * k['training.grad_s'] / k['training.s']:.1f}% / "
                         f"{100 * k['training.physics_s'] / k['training.s']:.1f}%"))
        return rows
