"""Acceptance gate.

Each test prints one PASS/FAIL line per criterion (run with -s to watch).
Training-based criteria run real seeded agents, so this module dominates the
suite's runtime; workers parallelize across the available cores.
"""

import math
import multiprocessing as mp
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from conftest import finite_difference, vector_rel_err
from fescycle import biomech as bm
from fescycle import offline, sac
from fescycle.env import CyclingEnv, EpisodeConfig
from fescycle.pattern import extract_pattern, interval_arc, mirror_pattern, pattern_control
from fescycle.training import normalized_test_returns, train_agent

TRAIN_EPISODES = 40
TEST_EPISODES = (1, 2, 3, 4, 5, 10, 15, 20, 25, 30, 35, 40)
FINETUNE_EPOCHS = 15
GAP_SEEDS = (1, 2, 3, 4, 5)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{criterion}: {detail}"


def draw_config(seed: int, n_muscles: int) -> bm.CyclingConfig:
    rng = np.random.default_rng([77, seed])
    return bm.CyclingConfig(
        crank_hip_dx=float(rng.uniform(0.42, 0.52)),
        crank_hip_dy=float(rng.uniform(0.22, 0.32)),
        crank_arm=float(rng.uniform(0.15, 0.17)),
        thigh_len=float(rng.uniform(0.42, 0.46)),
        shank_len=float(rng.uniform(0.41, 0.45)),
        seat_angle=float(rng.uniform(-0.2, 0.5)),
        n_muscles_per_leg=n_muscles,
    )


def _train_worker(job):
    """Train one agent; returns curve norms and the agent checkpoint."""
    kind, config_seed, n_muscles, train_seed = job
    started = time.time()
    if kind == "nominal":
        config = bm.nominal_config(n_muscles)
    else:
        config = draw_config(config_seed, n_muscles)
    bm.validate_config(config)
    env = CyclingEnv(config, episode=EpisodeConfig(seed=train_seed))
    tc = sac.TrainConfig(seed=train_seed)
    agent, curve = train_agent(
        env, tc, max_episodes=TRAIN_EPISODES, test_episodes=set(TEST_EPISODES),
        plateau_stop=False,
    )
    return {
        "kind": kind,
        "config_seed": config_seed,
        "n_muscles": n_muscles,
        "norms": normalized_test_returns(curve),
        "agent_json": sac.agent_to_json(agent),
        "config_json": bm.config_to_json(config),
        "runtime_s": time.time() - started,
    }


def _finetune_worker(job):
    """Model-based vs fine-tuned evaluation on one reality-gap rig."""
    gap_seed, agent_json, eval_seed = job
    started = time.time()
    config = bm.nominal_config(2)
    muscles = bm.default_muscle_set(config)
    base_agent = sac.agent_from_json(agent_json)
    base_pattern = extract_pattern(base_agent, config)

    gap = offline.RealityGapConfig(seed=gap_seed)
    gap_config, gap_muscles = offline.apply_reality_gap(config, muscles, gap)
    mb = offline.evaluate_pattern(gap_config, gap_muscles, base_pattern,
                                  n_trials=5, seed=eval_seed)

    logs = offline.collect_sessions(gap_config, gap_muscles, base_pattern,
                                    seed=300 + gap_seed)
    dataset = offline.logs_to_dataset(logs, discard_first_s=1.0)

    agent = sac.agent_from_json(agent_json)
    tc = sac.TrainConfig(seed=70 + gap_seed, cql_weight=5.0)
    agent.reconfigure(tc)
    sim_steps_before = bm.sim_step_count()
    offline.finetune(agent, dataset, tc, epochs=FINETUNE_EPOCHS)
    sim_steps_during_finetune = bm.sim_step_count() - sim_steps_before

    ft_pattern = extract_pattern(agent, gap_config, source="fine_tuned")
    ft = offline.evaluate_pattern(gap_config, gap_muscles, ft_pattern,
                                  n_trials=5, seed=eval_seed)
    return {
        "gap_seed": gap_seed,
        "mb_rpm": mb["mean_rpm"],
        "ft_rpm": ft["mean_rpm"],
        "dataset_tuples": len(dataset),
        "sim_steps_during_finetune": sim_steps_during_finetune,
        "runtime_s": time.time() - started,
    }


def _pool():
    # a worker that dies (out of memory, a signal) breaks the executor with an
    # error, where multiprocessing.Pool.map would wait for its result forever
    return ProcessPoolExecutor(2, mp_context=mp.get_context("fork"))


@pytest.fixture(scope="module")
def nominal_agents():
    jobs = [("nominal", -1, 2, 100), ("nominal", -1, 3, 100)]
    with _pool() as pool:
        results = list(pool.map(_train_worker, jobs))
    return {r["n_muscles"]: r for r in results}


@pytest.fixture(scope="module")
def curve_study():
    jobs = [
        ("study", config_seed, n_muscles, 1000 + 10 * config_seed + n_muscles)
        for config_seed in range(5)
        for n_muscles in (2, 3)
    ]
    with _pool() as pool:
        results = list(pool.map(_train_worker, jobs))
    return results


def first_crossing(norms: dict, level: float = 0.5) -> int:
    for ep in sorted(norms):
        if norms[ep] > level:
            return ep
    return 10 * TRAIN_EPISODES  # never crossed


class TestCriterion1LearningCurves:
    def test_learning_curve_shape(self, curve_study):
        failures = []
        crossings = {2: [], 3: []}
        for run in curve_study:
            label = f"config{run['config_seed']}/{run['n_muscles']}m"
            norms = run["norms"]
            early = [norms[ep] for ep in (1, 2, 3, 4)]
            if not all(v < 0.2 for v in early):
                failures.append(f"{label} early returns {[round(v, 2) for v in early]}")
            best = max(norms[ep] for ep in norms if ep <= 40)
            if best < 0.8:
                failures.append(f"{label} best normalized {best:.2f} < 0.8")
            if run["runtime_s"] > 900.0:
                failures.append(f"{label} took {run['runtime_s']:.0f}s")
            crossings[run["n_muscles"]].append(first_crossing(norms))
        mean2 = float(np.mean(crossings[2]))
        mean3 = float(np.mean(crossings[3]))
        if mean2 > mean3:
            failures.append(f"2-muscle crossing {mean2:.1f} later than 3-muscle {mean3:.1f}")
        report(
            "AC1 learning-curve shape",
            not failures,
            f"crossing 2m {mean2:.1f} vs 3m {mean3:.1f} episodes; "
            f"runtimes {[round(r['runtime_s']) for r in curve_study]}s"
            + ("; " + "; ".join(failures) if failures else ""),
        )


class TestCriterion2PatternWellFormedness:
    def test_extracted_patterns_are_well_formed(self, nominal_agents):
        failures = []
        details = []
        for n_muscles, run in sorted(nominal_agents.items()):
            agent = sac.agent_from_json(run["agent_json"])
            config = bm.config_from_json(run["config_json"])
            pattern = extract_pattern(agent, config, threshold=0.5)
            low = extract_pattern(agent, config, threshold=0.4)
            high = extract_pattern(agent, config, threshold=0.6)
            for name, ivs in zip(pattern.muscle_names, pattern.intervals):
                if len(ivs) != 1:
                    failures.append(f"{n_muscles}m {name}: {len(ivs)} intervals")
                    continue
                if interval_arc(ivs[0]) >= 360.0:
                    failures.append(f"{n_muscles}m {name}: full-circle arc")
            drift = 0.0
            for ivs_lo, ivs_hi in zip(low.intervals, high.intervals):
                if len(ivs_lo) != 1 or len(ivs_hi) != 1:
                    drift = math.inf
                    break
                for a, b in zip(ivs_lo[0], ivs_hi[0]):
                    drift = max(drift, abs((a - b + 180.0) % 360.0 - 180.0))
            details.append(f"{n_muscles}m drift {drift:.1f} deg")
            if not drift < 10.0:
                failures.append(f"{n_muscles}m threshold drift {drift:.1f} deg")
        report(
            "AC2 pattern well-formedness",
            not failures,
            "; ".join(details) + ("; " + "; ".join(failures) if failures else ""),
        )


class TestCriterion3MirroredControls:
    def test_left_controls_equal_rotated_right_controls(self, nominal_agents):
        run = nominal_agents[2]
        agent = sac.agent_from_json(run["agent_json"])
        config = bm.config_from_json(run["config_json"])
        pattern = extract_pattern(agent, config)
        mirrored = mirror_pattern(pattern)

        mismatches = 0
        cadence = 5.0
        prev = np.zeros(2)
        right_marks = {}
        left_marks = {}
        for deg in range(360):
            theta = math.radians(deg)
            state = bm.SimState(theta, cadence, (0.0,) * 4)
            from fescycle.env import make_observation

            right_marks[deg] = tuple(
                agent.act(make_observation(state, prev, bm.RIGHT), deterministic=True) > 0.5
            )
            left_marks[deg] = tuple(
                agent.act(make_observation(state, prev, bm.LEFT), deterministic=True) > 0.5
            )
        for deg in range(360):
            if left_marks[deg] != right_marks[(deg + 180) % 360]:
                mismatches += 1
            lhs = pattern_control(pattern, math.radians(deg), bm.LEFT)
            rhs = pattern_control(mirrored, math.radians(deg), bm.RIGHT)
            if not np.array_equal(lhs, rhs):
                mismatches += 1
            rot = pattern_control(pattern, math.radians(deg - 180.0), bm.RIGHT)
            if not np.array_equal(rhs, rot):
                mismatches += 1
        report(
            "AC3 mirrored-control correctness",
            mismatches == 0,
            f"{mismatches} mismatching grid points out of 360",
        )


class TestCriterion4FinetuningImprovement:
    @pytest.fixture(scope="class")
    def finetune_results(self, nominal_agents):
        agent_json = nominal_agents[2]["agent_json"]
        jobs = [(gap_seed, agent_json, 900 + gap_seed) for gap_seed in GAP_SEEDS]
        with _pool() as pool:
            return list(pool.map(_finetune_worker, jobs))

    def test_fine_tuned_pattern_improves_on_gap_rig(self, finetune_results):
        mb = [r["mb_rpm"] for r in finetune_results]
        ft = [r["ft_rpm"] for r in finetune_results]
        ratios = [f / m for f, m in zip(ft, mb)]
        gains = sum(1 for r in ratios if r >= 1.02)
        regressions = sum(1 for r in ratios if r < 0.95)
        ok = (
            float(np.median(ft)) >= float(np.median(mb))
            and gains >= 3
            and regressions == 0
        )
        detail = ", ".join(
            f"seed {r['gap_seed']}: {r['mb_rpm']:.1f}->{r['ft_rpm']:.1f}"
            for r in finetune_results
        )
        report(
            "AC4 fine-tuning improvement",
            ok,
            f"{detail}; median {np.median(mb):.1f}->{np.median(ft):.1f}, "
            f">=2% gains {gains}/5, regressions {regressions}; "
            f"runtimes {[round(r['runtime_s']) for r in finetune_results]}s",
        )

    def test_offline_purity_during_pipeline(self, finetune_results):
        touched = [r["sim_steps_during_finetune"] for r in finetune_results]
        report(
            "AC6 offline purity",
            all(t == 0 for t in touched),
            f"simulator steps during fine-tuning: {touched}",
        )

    def test_dataset_volume(self, finetune_results):
        tuples = sorted({r["dataset_tuples"] for r in finetune_results})
        report(
            "AC7 data-volume bookkeeping (pipeline)",
            tuples == [3600],
            f"pipeline datasets {tuples} tuples after 1 s discard",
        )


class TestCriterion5NumericalCore:
    def test_gradient_checks(self):
        rng = np.random.default_rng(7)
        tc = sac.TrainConfig(seed=3, batch=3, cql_num_samples=4)
        agent = sac.SacAgent(5, 2, tc)
        batch = {
            "obs": rng.standard_normal((3, 5)),
            "act": rng.uniform(0, 1, (3, 2)),
            "rew": rng.standard_normal(3),
            "next_obs": rng.standard_normal((3, 5)),
        }
        worst = {}

        net = agent.q1
        x = rng.standard_normal((4, 5 + 2))
        g_out = rng.standard_normal((4, 1))
        _, cache = net.forward_cached(x)
        grads, _ = net.backward(cache, g_out)
        fd = finite_difference(
            net.params, lambda: float(np.sum(net.forward(x) * g_out)), h=1e-5
        )
        worst["mlp"] = vector_rel_err(grads, fd)

        noise = rng.standard_normal((3, 2))
        _, (g1, g2), _ = sac.critic_loss(agent, batch, tc, next_noise=noise)
        fd = finite_difference(
            agent.q1.params + agent.q2.params,
            lambda: sac.critic_loss(agent, batch, tc, next_noise=noise)[0],
            h=1e-5,
        )
        worst["critic"] = vector_rel_err(list(g1) + list(g2), fd)

        anoise = rng.standard_normal((3, 2))
        _, ga, _ = sac.actor_loss(agent, batch, tc, noise=anoise)
        fd = finite_difference(
            agent.actor.trunk.params,
            lambda: sac.actor_loss(agent, batch, tc, noise=anoise)[0],
            h=1e-5,
        )
        worst["actor"] = vector_rel_err(ga, fd)

        rand_actions = rng.uniform(size=(3, 4, 2))
        pol_noise = rng.standard_normal((12, 2))
        _, (c1, c2) = sac.cql_regularizer(
            agent, batch, tc, rand_actions=rand_actions, pol_noise=pol_noise
        )
        fd = finite_difference(
            agent.q1.params + agent.q2.params,
            lambda: sac.cql_regularizer(
                agent, batch, tc, rand_actions=rand_actions, pol_noise=pol_noise
            )[0],
            h=1e-6,
        )
        worst["cql"] = vector_rel_err(list(c1) + list(c2), fd)

        ok = all(v < 1e-4 for v in worst.values())
        report(
            "AC5 gradient checks",
            ok,
            ", ".join(f"{k} {v:.2e}" for k, v in worst.items()),
        )

    def test_kinematics(self):
        config = bm.nominal_config(3)
        rng = np.random.default_rng(2)
        worst_closure = 0.0
        worst_jac = 0.0
        h = 1e-6
        for _ in range(1000):
            theta = rng.uniform(0.0, 2 * math.pi)
            side = bm.RIGHT if rng.random() < 0.5 else bm.LEFT
            joints = bm.solve_leg_ik(config, theta, side)
            got = bm.leg_forward_kinematics(config, joints, side)
            want = bm.pedal_position(config, theta, side)
            worst_closure = max(worst_closure, math.hypot(got[0] - want[0], got[1] - want[1]))
            dhip, dknee = bm.joint_jacobian(config, theta, side)
            jp = bm.solve_leg_ik(config, theta + h, side)
            jm = bm.solve_leg_ik(config, theta - h, side)
            for got_d, fd in ((dhip, (jp.hip - jm.hip) / (2 * h)),
                              (dknee, (jp.knee - jm.knee) / (2 * h))):
                worst_jac = max(worst_jac, abs(got_d - fd) / max(abs(fd), 1e-6))
        ok = worst_closure <= 1e-9 and worst_jac < 1e-5
        report(
            "AC5 kinematic closure and Jacobian",
            ok,
            f"closure {worst_closure:.2e} m, jacobian rel err {worst_jac:.2e}",
        )

    def test_bandit_convergence(self):
        tc = sac.TrainConfig(gamma=0.0, seed=11, batch=256, grad_steps_per_episode=100)
        agent = sac.SacAgent(obs_dim=1, n_actions=1, tc=tc)
        buf = sac.ReplayBuffer(1, 1, capacity=100_000)
        obs = np.zeros(1)
        steps = 0
        for round_ in range(20):
            for _ in range(256 if round_ == 0 else 100):
                a = agent.act(obs)
                buf.push(obs, a, -(a[0] - 0.7) ** 2, obs)
            sac.sac_update(agent, buf, tc)
            steps += tc.grad_steps_per_episode
        final = float(agent.actor.deterministic(obs)[0])
        ok = abs(final - 0.7) <= 0.05 and steps <= 2000
        report(
            "AC5 bandit convergence",
            ok,
            f"deterministic action {final:.3f} after {steps} gradient steps",
        )


class TestCriterion6OfflinePurityStandalone:
    def test_finetune_never_steps_simulator(self, nominal_agents):
        config = bm.nominal_config(2)
        muscles = bm.default_muscle_set(config)
        agent = sac.agent_from_json(nominal_agents[2]["agent_json"])
        pattern = extract_pattern(agent, config)
        logs = offline.collect_sessions(config, muscles, pattern, n_sessions=3,
                                        duration_s=5.0, seed=4)
        dataset = offline.logs_to_dataset(logs)
        tc = sac.TrainConfig(seed=1, batch=64, cql_weight=5.0,
                             grad_steps_per_episode=20, cql_num_samples=4)
        agent.reconfigure(tc)
        before = bm.sim_step_count()
        offline.finetune(agent, dataset, tc, epochs=1)
        delta = bm.sim_step_count() - before
        report("AC6 offline purity (standalone)", delta == 0,
               f"{delta} simulator steps during finetune")


class TestCriterion7DataVolume:
    def test_default_collection_counts(self, nominal_agents):
        config = bm.nominal_config(2)
        muscles = bm.default_muscle_set(config)
        agent = sac.agent_from_json(nominal_agents[2]["agent_json"])
        pattern = extract_pattern(agent, config)
        logs = offline.collect_sessions(config, muscles, pattern, seed=5)
        steps = sum(len(log) - 1 for log in logs)
        seconds = steps * 0.05
        untrimmed = len(offline.logs_to_dataset(logs))
        trimmed = len(offline.logs_to_dataset(logs, discard_first_s=1.0))
        ok = seconds == pytest.approx(100.0) and untrimmed == 4000 and trimmed == 3600
        report(
            "AC7 data-volume bookkeeping",
            ok,
            f"{seconds:.0f} s of data, {untrimmed} mirrored tuples "
            f"({trimmed} after the 1 s assisted-start discard)",
        )
