import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import finite_difference, vector_rel_err
from fescycle import sac
from fescycle.nets import ADAM_STATE_KEYS
from fescycle.errors import InsufficientData, NonFiniteState, ShapeMismatch

KS_CRIT_P01 = 1.62762  # Kolmogorov critical value at alpha = 0.01, large n


def traced_peak(fn, *args) -> int:
    """Peak bytes tracemalloc traces while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_agent(obs_dim=5, n_actions=2, **tc_kw):
    tc = sac.TrainConfig(**{"seed": 3, **tc_kw})
    return sac.SacAgent(obs_dim, n_actions, tc), tc


def make_batch(rng, bsize, obs_dim=5, n_actions=2):
    return {
        "obs": rng.standard_normal((bsize, obs_dim)),
        "act": rng.uniform(0.0, 1.0, (bsize, n_actions)),
        "rew": rng.standard_normal(bsize),
        "next_obs": rng.standard_normal((bsize, obs_dim)),
    }


def pin_actor_heads(agent, mu, log_std_raw):
    """Zero the trunk and write the output biases, fixing mean and log-std."""
    for p in agent.actor.trunk.params:
        p[:] = 0.0
    n = agent.n_actions
    agent.actor.trunk.params[-1][:n] = mu
    agent.actor.trunk.params[-1][n:] = log_std_raw


class TestPolicySample:
    def test_mean_zero_tiny_std_gives_half(self):
        agent, _ = make_agent(n_actions=3)
        pin_actor_heads(agent, 0.0, -20.0)  # raw clamps to -5, sigma ~ 6.7e-3
        rng = np.random.default_rng(0)
        action, _ = agent.actor.sample_cached(
            np.zeros((64, 5)), rng.standard_normal((64, agent.n_actions)))[:2]
        np.testing.assert_allclose(action, 0.5, atol=0.05)
        det = agent.actor.deterministic(np.zeros(5))
        np.testing.assert_array_equal(det, 0.5)

    def test_deterministic_mode_repeatable(self):
        agent, _ = make_agent()
        obs = np.array([0.1, -0.4, 2.0, 0.3, 0.9])
        a1 = agent.act(obs, deterministic=True)
        a2 = agent.act(obs, deterministic=True)
        np.testing.assert_array_equal(a1, a2)

    def test_actions_strictly_inside_unit_cube(self):
        agent, _ = make_agent()
        rng = np.random.default_rng(5)
        obs = rng.standard_normal((500, 5))
        action, _ = agent.actor.sample_cached(obs, rng.standard_normal((500, agent.n_actions)))[:2]
        assert np.all(action > 0.0)
        assert np.all(action < 1.0)

    def test_log_prob_matches_density_of_samples(self):
        """Monte-Carlo density oracle for the 1-D squashed Gaussian.

        The sampler's empirical CDF must match the CDF obtained by
        numerically integrating exp(log_prob), and the returned log_prob must
        match an independent change-of-variables formula at the samples.
        """
        mu, log_std = 0.3, -0.5
        agent, _ = make_agent(obs_dim=1, n_actions=1)
        pin_actor_heads(agent, mu, log_std)
        sigma = math.exp(log_std)

        rng = np.random.default_rng(1234)
        n_total = 1_000_000
        samples = np.empty(n_total)
        logps = np.empty(n_total)
        chunk = 100_000
        obs = np.zeros((chunk, 1))
        for i in range(0, n_total, chunk):
            a, lp = agent.actor.sample_cached(obs, rng.standard_normal((chunk, 1)))[:2]
            samples[i : i + chunk] = a[:, 0]
            logps[i : i + chunk] = lp

        def logit(x):
            return np.log(x) - np.log1p(-x)

        # independent density formula (Gaussian in pre-squash space divided
        # by the sigmoid Jacobian a(1-a))
        def log_density(x):
            pre = logit(x)
            return (
                -0.5 * ((pre - mu) / sigma) ** 2
                - math.log(sigma)
                - 0.5 * math.log(2 * math.pi)
                - np.log(x)
                - np.log1p(-x)
            )

        assert np.max(np.abs(logps - log_density(samples))) < 1e-9

        grid = np.linspace(1e-6, 1.0 - 1e-6, 20_001)
        dens = np.exp(log_density(grid))
        cdf_grid = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(grid))])
        assert cdf_grid[-1] == pytest.approx(1.0, abs=1e-4)
        cdf_grid /= cdf_grid[-1]

        samples.sort()
        model_cdf = np.interp(samples, grid, cdf_grid)
        i = np.arange(1, n_total + 1)
        ks = max(
            np.max(i / n_total - model_cdf),
            np.max(model_cdf - (i - 1) / n_total),
        )
        assert ks < KS_CRIT_P01 / math.sqrt(n_total)


class TestCriticLoss:
    def test_degenerate_target_reduces_to_reward(self):
        agent, tc = make_agent(gamma=0.0)
        agent.log_alpha[0] = -np.inf  # alpha = 0 exactly
        rng = np.random.default_rng(2)
        batch = make_batch(rng, 6)
        loss, _, aux = sac.critic_loss(agent, batch, tc)
        np.testing.assert_array_equal(aux["target"], batch["rew"])
        want = np.mean((aux["q1"] - batch["rew"]) ** 2) + np.mean((aux["q2"] - batch["rew"]) ** 2)
        assert loss == pytest.approx(want)

    def test_gradients_match_finite_differences(self):
        agent, tc = make_agent()
        rng = np.random.default_rng(7)
        batch = make_batch(rng, 3)
        noise = rng.standard_normal((3, 2))
        _, (g1, g2), _ = sac.critic_loss(agent, batch, tc, next_noise=noise)

        def value():
            loss, _, _ = sac.critic_loss(agent, batch, tc, next_noise=noise)
            return loss

        fd = finite_difference(agent.q1.params + agent.q2.params, value, h=1e-5)
        assert vector_rel_err(list(g1) + list(g2), fd) < 1e-4

    def test_duplicated_rows_weight_the_loss(self):
        agent, tc = make_agent()
        rng = np.random.default_rng(9)
        single = make_batch(rng, 1)
        noise1 = rng.standard_normal((1, 2))
        doubled = {k: np.repeat(v, 2, axis=0) for k, v in single.items()}
        l1, _, _ = sac.critic_loss(agent, single, tc, next_noise=noise1)
        l2, _, _ = sac.critic_loss(agent, doubled, tc, next_noise=np.repeat(noise1, 2, axis=0))
        assert l2 == pytest.approx(l1, rel=1e-12)


class TestActorLoss:
    def test_zero_critic_leaves_pure_entropy_term(self):
        agent, tc = make_agent()
        for net in (agent.q1, agent.q2):
            for p in net.params:
                p[:] = 0.0
        rng = np.random.default_rng(3)
        batch = make_batch(rng, 8)
        noise = rng.standard_normal((8, 2))
        loss, _, logp = sac.actor_loss(agent, batch, tc, noise=noise)
        assert loss == pytest.approx(agent.alpha * float(np.mean(logp)))

    def test_gradients_match_finite_differences(self):
        agent, tc = make_agent()
        rng = np.random.default_rng(4)
        batch = make_batch(rng, 3)
        noise = rng.standard_normal((3, 2))
        _, grads, _ = sac.actor_loss(agent, batch, tc, noise=noise)

        def value():
            loss, _, _ = sac.actor_loss(agent, batch, tc, noise=noise)
            return loss

        fd = finite_difference(agent.actor.trunk.params, value, h=1e-5)
        assert vector_rel_err(grads, fd) < 1e-4

    def test_one_gradient_step_descends(self):
        agent, tc = make_agent()
        rng = np.random.default_rng(6)
        batch = make_batch(rng, 16)
        noise = rng.standard_normal((16, 2))
        before, grads, _ = sac.actor_loss(agent, batch, tc, noise=noise)
        agent.actor.trunk.flat -= 1e-3 * grads
        after, _, _ = sac.actor_loss(agent, batch, tc, noise=noise)
        assert after < before


class TestCqlRegularizer:
    def test_constant_q_has_constant_penalty_and_no_gradient(self):
        rng = np.random.default_rng(8)
        batch = make_batch(rng, 5)
        rand_actions = rng.uniform(size=(5, 10, 2))
        pol_noise = rng.standard_normal((50, 2))
        values = []
        for const in (0.0, 5.0):
            agent, tc = make_agent()
            for net in (agent.q1, agent.q2):
                for p in net.params:
                    p[:] = 0.0
                net.params[-1][:] = const  # output bias only: Q == const
            loss, (g1, g2) = sac.cql_regularizer(
                agent, batch, tc, rand_actions=rand_actions, pol_noise=pol_noise
            )
            values.append(loss)
            flat = np.concatenate([g.ravel() for g in list(g1) + list(g2)])
            assert np.max(np.abs(flat)) < 1e-12
        assert values[0] == pytest.approx(values[1], abs=1e-9)

    def test_gradients_match_finite_differences(self):
        agent, tc = make_agent(cql_num_samples=4)
        rng = np.random.default_rng(12)
        batch = make_batch(rng, 3)
        rand_actions = rng.uniform(size=(3, 4, 2))
        pol_noise = rng.standard_normal((12, 2))
        _, (g1, g2) = sac.cql_regularizer(
            agent, batch, tc, rand_actions=rand_actions, pol_noise=pol_noise
        )

        def value():
            loss, _ = sac.cql_regularizer(
                agent, batch, tc, rand_actions=rand_actions, pol_noise=pol_noise
            )
            return loss

        # h=1e-6: the exp inside logsumexp makes larger steps truncation-bound
        fd = finite_difference(agent.q1.params + agent.q2.params, value, h=1e-6)
        assert vector_rel_err(list(g1) + list(g2), fd) < 1e-4

    def test_reused_data_forward_gives_identical_result(self):
        agent, tc = make_agent(cql_num_samples=4)
        rng = np.random.default_rng(13)
        batch = make_batch(rng, 6)
        rand_actions = rng.uniform(size=(6, 2, 2))
        pol_noise = rng.standard_normal((12, 2))
        _, _, aux = sac.critic_loss(agent, batch, tc, next_noise=rng.standard_normal((6, 2)))
        alone = sac.cql_regularizer(agent, batch, tc, rand_actions=rand_actions,
                                    pol_noise=pol_noise)
        reused = sac.cql_regularizer(agent, batch, tc, rand_actions=rand_actions,
                                     pol_noise=pol_noise, q_data=aux["q_data"])
        assert reused[0] == alone[0]
        for a, b in zip(reused[1], alone[1]):
            np.testing.assert_array_equal(a, b)

    def test_logsumexp_estimator_matches_dense_grid(self):
        """Importance-corrected sampled estimator vs direct integration of
        exp(Q) over the 1-D action interval, on a critic with a realistic
        value scale and real action sensitivity."""
        agent, tc = make_agent(obs_dim=2, n_actions=1)
        agent.q1.params[0][2, :] *= 40.0  # action input column
        agent.q1.params[-1][:] += 3.0
        rng = np.random.default_rng(23)
        obs = rng.standard_normal((4, 2))
        n_samples = 64

        rand_actions = rng.uniform(size=(4, n_samples, 1))
        obs_rep = np.repeat(obs, n_samples, axis=0)
        pol_noise = rng.standard_normal((4 * n_samples, 1))
        a_pol, logp_pol, _ = agent.actor.sample_cached(obs_rep, pol_noise)
        pool = np.concatenate([rand_actions, a_pol.reshape(4, n_samples, 1)], axis=1)
        log_dens = np.concatenate(
            [np.zeros((4, n_samples)), logp_pol.reshape(4, n_samples)], axis=1
        )
        lse, _, _ = sac.cql_logsumexp(agent.q1, obs, pool, log_dens)
        estimate = lse - math.log(2 * n_samples)

        grid = np.linspace(1e-4, 1.0 - 1e-4, 4001)
        for b in range(4):
            inputs = np.concatenate(
                [np.tile(obs[b], (grid.size, 1)), grid[:, None]], axis=1
            )
            q = agent.q1.forward(inputs)[:, 0]
            dense = math.log(np.trapezoid(np.exp(q), grid))
            assert estimate[b] == pytest.approx(dense, rel=0.05)

    def test_offline_training_is_conservative(self):
        """After conservative updates, data actions score at least as high as
        uniform random actions at the same states."""
        rng = np.random.default_rng(77)
        n_rows = 512
        obs = rng.standard_normal((n_rows, 3))
        act = np.clip(0.7 + 0.05 * rng.standard_normal((n_rows, 1)), 0.0, 1.0)
        rew = 1.0 - (act[:, 0] - 0.7) ** 2
        data = {
            "obs": obs,
            "act": act,
            "rew": rew,
            "next_obs": obs,
        }

        class FixedData:
            def __len__(self):
                return n_rows

            def sample(self, batch, rng):
                idx = rng.integers(0, n_rows, batch)
                return {k: v[idx] for k, v in data.items()}

        tc = sac.TrainConfig(seed=5, gamma=0.0, batch=64, cql_weight=5.0,
                             grad_steps_per_episode=300, cql_num_samples=4)
        agent = sac.SacAgent(3, 1, tc)
        sac.sac_update(agent, FixedData(), tc)

        q_data = agent.q1.forward(np.concatenate([obs, act], axis=1))[:, 0]
        q_rand = agent.q1.forward(
            np.concatenate([obs, rng.uniform(0, 1, (n_rows, 1))], axis=1)
        )[:, 0]
        assert np.mean(q_data) >= np.mean(q_rand)


class TestReplayBuffer:
    def test_contents_are_last_k_inserted(self):
        buf = sac.ReplayBuffer(2, 1, capacity=8)
        for i in range(5):
            buf.push([i, i], [i], float(i), [i + 1, i + 1])
        assert len(buf) == 5
        got = buf.sample(1000, np.random.default_rng(0))
        assert set(got["rew"]) == {0.0, 1.0, 2.0, 3.0, 4.0}
        np.testing.assert_array_equal(got["obs"], np.repeat(got["rew"][:, None], 2, axis=1))
        np.testing.assert_array_equal(got["act"][:, 0], got["rew"])
        np.testing.assert_array_equal(got["next_obs"], got["obs"] + 1)

    def test_ring_overwrites_oldest(self):
        buf = sac.ReplayBuffer(1, 1, capacity=4)
        for i in range(7):
            buf.push([i], [0.5], float(i), [i])
        assert len(buf) == 4
        assert set(buf.sample(1000, np.random.default_rng(0))["rew"]) == {3.0, 4.0, 5.0, 6.0}
        assert buf.inserted == 7

    @pytest.mark.parametrize("blocks", [(3, 4, 2), (5, 6), (13,), (1, 11, 1)])
    def test_block_write_equals_row_pushes(self, blocks):
        """Blocks written across the ring boundary (or longer than the ring)
        store the same rows in the same slots as row-by-row pushes."""
        rows = sum(blocks)
        rng = np.random.default_rng(3)
        obs = rng.standard_normal((rows, 2))
        act = rng.uniform(0, 1, (rows, 1))
        rew = rng.standard_normal(rows)
        next_obs = rng.standard_normal((rows, 2))
        by_row = sac.ReplayBuffer(2, 1, capacity=5)
        by_block = sac.ReplayBuffer(2, 1, capacity=5)
        start = 0
        for k in blocks:
            for i in range(start, start + k):
                by_row.push(obs[i], act[i], rew[i], next_obs[i])
            part = slice(start, start + k)
            by_block.extend(obs[part], act[part], rew[part], next_obs[part])
            start += k
            assert (len(by_block), by_block.inserted) == (len(by_row), by_row.inserted)
            a = by_row.sample(64, np.random.default_rng(k))
            b = by_block.sample(64, np.random.default_rng(k))
            for name in a:
                assert a[name].tobytes() == b[name].tobytes()
        assert by_block.inserted == rows
        # the ring holds the last five rows
        assert set(by_block.sample(500, np.random.default_rng(0))["rew"]) == set(rew[-5:])

    def test_uniform_sampling_within_three_sigma(self):
        buf = sac.ReplayBuffer(1, 1, capacity=64)
        k = 40
        for i in range(k):
            buf.push([i], [0.5], float(i), [i])
        rng = np.random.default_rng(2)
        draws = 100_000
        got = buf.sample(draws, rng)["rew"]
        counts = np.bincount(got.astype(int), minlength=k)
        p = 1.0 / k
        sigma = math.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) <= 3 * sigma)

    def test_update_requires_enough_data(self):
        agent, tc = make_agent()
        buf = sac.ReplayBuffer(5, 2)
        for _ in range(tc.batch - 1):
            buf.push(np.zeros(5), np.zeros(2), 0.0, np.zeros(5))
        with pytest.raises(InsufficientData):
            sac.sac_update(agent, buf, tc)


class TestSacUpdate:
    def _filled_buffer(self, rng, obs_dim=5, n_actions=2, n=600):
        buf = sac.ReplayBuffer(obs_dim, n_actions)
        for _ in range(n):
            buf.push(
                rng.standard_normal(obs_dim),
                rng.uniform(0, 1, n_actions),
                rng.standard_normal(),
                rng.standard_normal(obs_dim),
            )
        return buf

    def test_polyak_tracking(self):
        agent, tc = make_agent()
        rng = np.random.default_rng(0)
        buf = self._filled_buffer(rng)
        before = [p.copy() for p in agent.q1_target.params]
        online_before = [p.copy() for p in agent.q1.params]
        sac.sac_update(agent, buf, tc, n_steps=1)
        # the target moved toward the *updated* online params by factor tau
        tau = tc.polyak
        for t_now, t_old, q_now in zip(agent.q1_target.params, before, agent.q1.params):
            np.testing.assert_allclose(
                t_now, (1 - tau) * t_old + tau * q_now, rtol=0, atol=1e-12
            )
        assert any(
            not np.array_equal(a, b) for a, b in zip(agent.q1.params, online_before)
        )

    def test_flat_polyak_bitwise_equals_per_array_reference(self):
        agent, tc = make_agent()
        agent.q1.flat += 0.1
        want = [p.copy() for p in agent.q1_target.params]
        for pt, po in zip(want, agent.q1.params):
            pt *= 1.0 - tc.polyak
            pt += tc.polyak * po
        sac._polyak_update(agent.q1_target, agent.q1, tc.polyak)
        for got, ref in zip(agent.q1_target.params, want):
            np.testing.assert_array_equal(got, ref)

    def test_fixed_seed_reproduces_parameters(self):
        def run():
            rng = np.random.default_rng(1)
            agent, tc = make_agent(seed=42)
            buf = self._filled_buffer(rng)
            sac.sac_update(agent, buf, tc, n_steps=20)
            return agent

        a1 = run()
        a2 = run()
        for p1, p2 in zip(a1.actor.trunk.params, a2.actor.trunk.params):
            np.testing.assert_array_equal(p1, p2)
        for p1, p2 in zip(a1.q1.params, a2.q1.params):
            np.testing.assert_array_equal(p1, p2)
        assert a1.log_alpha[0] == a2.log_alpha[0]

    def test_alpha_moves_toward_entropy_target(self):
        agent, tc = make_agent()
        rng = np.random.default_rng(1)
        buf = self._filled_buffer(rng)
        before = agent.alpha
        sac.sac_update(agent, buf, tc, n_steps=50)
        assert agent.alpha != before
        assert math.isfinite(agent.alpha)


class TestWorkingCopies:
    def test_float32_gradients_match_float64(self):
        agent, tc = make_agent(cql_num_samples=4)
        work = sac.working_copy(agent, np.float32)
        rng = np.random.default_rng(21)
        batch = make_batch(rng, 256)
        next_noise = rng.standard_normal((256, 2))
        noise = rng.standard_normal((256, 2))
        rand_actions = rng.uniform(size=(256, 2, 2))
        pol_noise = rng.standard_normal((512, 2))
        grads = {}
        for name, net_agent in (("f64", agent), ("f32", work)):
            _, g_critic, _ = sac.critic_loss(net_agent, batch, tc, next_noise=next_noise)
            _, g_actor, _ = sac.actor_loss(net_agent, batch, tc, noise=noise)
            _, g_cql = sac.cql_regularizer(net_agent, batch, tc, rand_actions=rand_actions,
                                           pol_noise=pol_noise)
            grads[name] = (g_critic, [g_actor], g_cql)
            assert all(g.dtype == np.dtype(name.replace("f", "float"))
                       for group in grads[name] for g in group)
        for g64, g32 in zip(grads["f64"], grads["f32"]):
            assert vector_rel_err(g32, g64) < 1e-4

    def test_step_updates_float64_masters_and_refreshes_copies(self):
        agent, tc = make_agent()
        rng = np.random.default_rng(0)
        buf = TestSacUpdate()._filled_buffer(rng)
        work = sac.working_copy(agent, np.float32)
        before = agent.q1_target.flat.copy()
        sac._gradient_step(agent, work, buf.sample(tc.batch, agent.rng), tc)
        assert not np.array_equal(agent.q1_target.flat, before)
        for name in ("q1", "q2", "q1_target", "q2_target"):
            master, copy = getattr(agent, name), getattr(work, name)
            assert master.flat.dtype == np.float64
            np.testing.assert_array_equal(copy.flat, master.flat.astype(np.float32))
        np.testing.assert_array_equal(work.actor.trunk.flat,
                                      agent.actor.trunk.flat.astype(np.float32))
        assert work.log_alpha is agent.log_alpha and work.rng is agent.rng

    def test_checkpoint_after_float32_steps_is_float64(self):
        agent, tc = make_agent()
        rng = np.random.default_rng(0)
        buf = TestSacUpdate()._filled_buffer(rng)
        sac.sac_update(agent, buf, tc, n_steps=5)
        # the masters keep float64 detail a float32 round trip would lose
        flat = agent.q1.flat
        assert flat.dtype == np.float64
        assert np.any(flat != flat.astype(np.float32).astype(np.float64))
        assert agent.opt_q1.m.dtype == np.float64
        text = sac.agent_to_json(agent)
        again = sac.agent_from_json(text)
        np.testing.assert_array_equal(again.q1.flat, agent.q1.flat)
        np.testing.assert_array_equal(again.opt_actor.v, agent.opt_actor.v)
        assert sac.agent_to_json(again) == text


def reference_update(agent, data, tc, n_steps):
    """sac_update with a fresh, buffer-free working copy for every step."""
    for _ in range(n_steps):
        batch = data.sample(tc.batch, agent.rng)
        sac._gradient_step(agent, sac.working_copy(agent, sac.WORK_DTYPE), batch, tc)


class TestReusedWorkingBuffers:
    @pytest.mark.parametrize("n_muscles", [2, 3])
    @pytest.mark.parametrize("cql_weight", [0.0, 5.0])
    def test_update_bit_equal_to_fresh_working_copies(self, n_muscles, cql_weight):
        obs_dim = 3 + n_muscles
        rng = np.random.default_rng(n_muscles)
        buf = TestSacUpdate()._filled_buffer(rng, obs_dim, n_muscles)
        agents = []
        for update in (sac.sac_update, reference_update):
            agent, tc = make_agent(obs_dim, n_muscles, cql_weight=cql_weight)
            update(agent, buf, tc, 30)
            agents.append(agent)
        got, want = agents
        for net_got, net_want in zip(sac._nets(got), sac._nets(want)):
            np.testing.assert_array_equal(net_got.flat, net_want.flat)
        for name in ("opt_actor", "opt_q1", "opt_q2", "opt_alpha"):
            opt_got, opt_want = getattr(got, name), getattr(want, name)
            assert opt_got.t == opt_want.t == 30
            np.testing.assert_array_equal(opt_got.m, opt_want.m)
            np.testing.assert_array_equal(opt_got.v, opt_want.v)
        np.testing.assert_array_equal(got.log_alpha, want.log_alpha)
        assert got.rng.bit_generator.state == want.rng.bit_generator.state

    def test_policy_pool_trunk_runs_on_unique_rows(self):
        agent, _ = make_agent()
        work = sac.working_copy(agent, sac.WORK_DTYPE)
        work.actor.trunk.reuse_buffers({})
        obs = np.random.default_rng(30).standard_normal((256, 5)).astype(sac.WORK_DTYPE)
        unique = np.repeat(work.actor.trunk.forward(obs), 5, axis=0)
        repeated = work.actor.trunk.forward(np.repeat(obs, 5, axis=0))
        np.testing.assert_array_equal(unique, repeated)

    def test_cql_update_memory_peak(self):
        """The critics' 2,560-row pool passes share one set of activation
        buffers: two SAC+CQL steps trace under 4.6 MB (one set per critic
        took about 5.5 MB)."""
        agent, tc = make_agent(cql_weight=5.0, cql_num_samples=10, batch=256)
        buf = TestSacUpdate()._filled_buffer(np.random.default_rng(32))
        assert traced_peak(sac.sac_update, agent, buf, tc, 2) < 4.6e6

    def test_masters_keep_allocating(self):
        agent, tc = make_agent(cql_weight=1.0, cql_num_samples=4, batch=64)
        buf = TestSacUpdate()._filled_buffer(np.random.default_rng(31), n=100)
        sac.sac_update(agent, buf, tc, n_steps=2)
        assert all(net.scratch is None and net._acts is None for net in sac._nets(agent))


class TestNonFiniteGuard:
    def _data(self, rng, n=300, bad_reward=None):
        buf = TestSacUpdate()._filled_buffer(rng, n=n)
        if bad_reward is not None:
            buf.rew[:] = bad_reward
        return buf

    def test_infinite_reward_names_step_and_critic(self):
        agent, tc = make_agent(batch=32)
        data = self._data(np.random.default_rng(0), bad_reward=np.inf)
        before = agent.q1.flat.copy()
        with pytest.raises(NonFiniteState, match=r"gradient step 1 of 1000: critic"):
            sac.sac_update(agent, data, tc)
        np.testing.assert_array_equal(agent.q1.flat, before)

    def test_cql_term_is_named(self, monkeypatch):
        agent, tc = make_agent(batch=32, cql_weight=1.0, cql_num_samples=2)
        data = self._data(np.random.default_rng(0))
        real = sac.cql_logsumexp

        def overflowing(net, obs, actions, log_dens):
            lse, weights, cache = real(net, obs, actions, log_dens)
            return np.full_like(lse, np.inf), weights, cache

        # finite TD loss, overflowing log-sum-exp over the sampled pool
        monkeypatch.setattr(sac, "cql_logsumexp", overflowing)
        with pytest.raises(NonFiniteState, match=r"gradient step 1 of 3: cql"):
            sac.sac_update(agent, data, tc, n_steps=3)


class TestCheckpoint:
    def test_round_trip_is_byte_stable(self, tmp_path):
        agent, tc = make_agent()
        rng = np.random.default_rng(0)
        buf = TestSacUpdate()._filled_buffer(rng)
        sac.sac_update(agent, buf, tc, n_steps=3)

        text1 = sac.agent_to_json(agent)
        again = sac.agent_from_json(text1)
        text2 = sac.agent_to_json(again)
        assert text1 == text2

        obs = np.array([0.5, -1.0, 2.0, 0.1, 0.9])
        np.testing.assert_array_equal(
            agent.act(obs, deterministic=True), again.act(obs, deterministic=True)
        )

    def test_loaded_agent_continues_training_identically(self, tmp_path):
        rng = np.random.default_rng(0)
        agent, tc = make_agent(seed=9)
        buf = TestSacUpdate()._filled_buffer(rng)
        sac.sac_update(agent, buf, tc, n_steps=5)
        path = tmp_path / "agent.json"
        sac.save_agent(agent, path)
        loaded = sac.load_agent(path)
        for p1, p2 in zip(agent.q1.params, loaded.q1.params):
            np.testing.assert_array_equal(p1, p2)
        assert loaded.opt_q1.t == agent.opt_q1.t

    def test_clone_equals_json_round_trip(self):
        agent, tc = make_agent()
        buf = TestSacUpdate()._filled_buffer(np.random.default_rng(0))
        sac.sac_update(agent, buf, tc, n_steps=3)
        text = sac.agent_to_json(agent)
        clone = sac.clone_agent(agent)
        loaded = sac.agent_from_json(text)
        assert sac.agent_to_json(clone) == text
        assert clone.rng.bit_generator.state == loaded.rng.bit_generator.state
        # the clone shares no array with the agent
        sac.sac_update(agent, buf, tc, n_steps=1)
        assert sac.agent_to_json(clone) == text

    def test_rejects_non_checkpoint(self):
        with pytest.raises(ValueError):
            sac.agent_from_json(json.dumps({"format": "something-else"}))

    def test_rejects_json_that_is_not_an_object(self):
        with pytest.raises(ValueError, match="^not an agent checkpoint: format=None$"):
            sac.agent_from_json("[1.0, 2.0]")

    def _trained_agent(self, n_actions):
        obs_dim = 3 + n_actions
        agent, tc = make_agent(obs_dim=obs_dim, n_actions=n_actions)
        buf = TestSacUpdate()._filled_buffer(np.random.default_rng(0), obs_dim, n_actions)
        sac.sac_update(agent, buf, tc, n_steps=3)
        assert agent.opt_q1.t == 3 and np.any(agent.opt_q1.m != 0.0)
        return agent

    @pytest.mark.parametrize("n_actions", [2, 3])
    def test_save_agent_writes_agent_to_json_bytes(self, tmp_path, n_actions):
        agent = self._trained_agent(n_actions)
        path = tmp_path / "agent.json"
        sac.save_agent(agent, path)
        assert path.read_bytes() == sac.agent_to_json(agent).encode()

    def test_save_agent_memory_stays_below_a_quarter_of_the_file(self, tmp_path):
        """The writer streams, and the encoder turns one array at a time into
        Python floats: its traced peak is neither the text (as large as the
        file) nor the whole document as lists (about 1.2x the file)."""
        agent = self._trained_agent(2)
        path = tmp_path / "agent.json"
        peak = traced_peak(sac.save_agent, agent, path)
        assert peak < 0.25 * path.stat().st_size

    def test_load_agent_memory_stays_below_2_3_times_the_file(self, tmp_path):
        """The decoder turns each net's and optimizer's arrays into float64
        as it finishes them: the traced peak is the text plus the arrays, not
        the text plus the whole document as lists (about 2.6x the file)."""
        path = tmp_path / "agent.json"
        sac.save_agent(self._trained_agent(2), path)
        peak = traced_peak(sac.load_agent, path)
        assert peak < 2.3 * path.stat().st_size

    def test_adam_state_keys_are_what_to_state_writes(self):
        agent, _ = make_agent()
        assert tuple(agent.opt_q1.to_state()) == ADAM_STATE_KEYS

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["nets"]["actor"]["params"][0][2].__setitem__(5, math.nan),
         "net actor: parameter array 0 has a non-finite value"),
        (lambda doc: doc["nets"]["q1_target"]["params"][5].__setitem__(0, -math.inf),
         "net q1_target: parameter array 5 has a non-finite value"),
        (lambda doc: doc["optimizers"]["q2"]["v"][1].__setitem__(7, math.inf),
         "optimizer q2: moment v array 1 has a non-finite value"),
        (lambda doc: doc.update(log_alpha=math.nan), "log_alpha has a non-finite value"),
    ])
    def test_non_finite_value_rejected(self, edit, message):
        doc = json.loads(sac.agent_to_json(self._trained_agent(2)))
        edit(doc)
        with pytest.raises(NonFiniteState, match=f"^{message}$"):
            sac.agent_from_json(json.dumps(doc))

    @pytest.mark.parametrize("key, value, error, rule", [
        ("t", math.nan, NonFiniteState, "a non-negative integer"),
        ("t", -3, ValueError, "a non-negative integer"),
        ("t", 2.5, ValueError, "a non-negative integer"),
        ("t", True, ValueError, "a non-negative integer"),
        ("lr", -1, ValueError, "a finite number > 0"),
        ("lr", math.inf, NonFiniteState, "a finite number > 0"),
        ("eps", 0.0, ValueError, "a finite number > 0"),
        ("beta1", "x", ValueError, "a finite number in [0, 1)"),
        ("beta2", 1.0, ValueError, "a finite number in [0, 1)"),
        ("beta2", math.nan, NonFiniteState, "a finite number in [0, 1)"),
    ])
    def test_bad_optimizer_scalar_is_named(self, key, value, error, rule):
        doc = json.loads(sac.agent_to_json(make_agent()[0]))
        doc["optimizers"]["q1"][key] = value
        message = f"optimizer q1: {key} must be {rule}, got {value!r}"
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            sac.agent_from_json(json.dumps(doc))

    @pytest.mark.parametrize("key, value", [("obs_dim", 5.0), ("obs_dim", "5"),
                                            ("obs_dim", 0), ("n_actions", -2),
                                            ("n_actions", True)])
    def test_dimension_must_be_positive_integer(self, key, value):
        doc = json.loads(sac.agent_to_json(make_agent()[0]))
        doc[key] = value
        message = f"{key} must be a positive integer, got {value!r}"
        with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
            sac.agent_from_json(json.dumps(doc))

    @pytest.mark.parametrize("key", ["obs_dim", "log_alpha", "train_config.gamma",
                                     "nets.q2_target", "nets.actor.layer_sizes",
                                     "optimizers", "optimizers.alpha.t"])
    def test_missing_key_named(self, key):
        doc = json.loads(sac.agent_to_json(make_agent()[0]))
        *parents, last = key.split(".")
        node = doc
        for name in parents:
            node = node[name]
        del node[last]
        with pytest.raises(ValueError, match=f"^ckpt.json: checkpoint lacks key '{key}'$"):
            sac.agent_from_json(json.dumps(doc), "ckpt.json")
