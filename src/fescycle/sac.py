"""Soft actor-critic with twin critics, auto-tuned temperature, and an
optional conservative regulariser for offline training.

The actor is a diagonal Gaussian squashed through a sigmoid so stimulation
intensities always land in (0, 1); its log-density carries the corresponding
log a(1-a) change-of-variables term.  All gradients are assembled by hand on
top of nets.Mlp.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, NonFiniteState, ShapeMismatch
from .nets import ADAM_STATE_KEYS, Adam, Mlp, fill_from_doc

HIDDEN = (64, 64)
LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
LOG_2PI = math.log(2.0 * math.pi)
# dtype of the working copies the gradient steps compute on; the master
# parameters, optimizer moments and checkpoints stay float64
WORK_DTYPE = np.float32


@dataclass(frozen=True)
class TrainConfig:
    gamma: float = 0.99
    lr: float = 3e-4
    batch: int = 256
    polyak: float = 0.005
    alpha_init: float = 0.2
    target_entropy_per_dim: float = -2.0
    cql_weight: float = 0.0
    grad_steps_per_episode: int = 1000
    cql_num_samples: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.batch < 1 or self.grad_steps_per_episode < 0 or self.cql_num_samples < 1:
            raise ValueError("batch, grad steps and cql_num_samples must be positive")
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError("gamma must lie in [0, 1)")
        if self.lr <= 0 or self.polyak <= 0 or self.alpha_init <= 0 or self.cql_weight < 0:
            raise ValueError("lr, polyak and alpha_init must be positive; cql_weight >= 0")


_TRAIN_FIELDS = tuple(f.name for f in dataclasses.fields(TrainConfig))


def train_config_from_dict(data: dict) -> TrainConfig:
    unknown = sorted(set(data) - set(_TRAIN_FIELDS))
    if unknown:
        raise ValueError(f"unknown train config keys: {', '.join(unknown)}")
    return TrainConfig(**data)


def _softplus(x):
    # log(1 + e^x) = max(x, 0) + log1p(e^{-|x|}); much faster here than
    # np.logaddexp and just as stable
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


class SquashedGaussianActor:
    """MLP trunk emitting per-dimension mean and log-std, sigmoid squash."""

    def __init__(self, obs_dim: int, n_actions: int, rng: np.random.Generator):
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        self.trunk = Mlp([obs_dim, *HIDDEN, 2 * n_actions], rng)

    def sample_cached(self, obs: np.ndarray, noise: np.ndarray):
        """Reparameterised sample with everything the backward pass needs."""
        out, trunk_cache = self.trunk.forward_cached(obs)
        action, log_prob, cache = self.squash(out, noise)
        cache["trunk"] = trunk_cache
        return action, log_prob, cache

    def squash(self, out: np.ndarray, noise: np.ndarray):
        """Sample, log-density and backward cache (without the trunk's) from
        trunk outputs `out`, the per-dimension means then raw log-stds."""
        noise = np.asarray(noise, dtype=out.dtype)
        n = self.n_actions
        mu = out[..., :n]
        raw = out[..., n:]
        log_std = np.clip(raw, LOG_STD_MIN, LOG_STD_MAX)
        std = np.exp(log_std)
        pre = mu + std * noise
        action = _sigmoid(pre)
        log_prob = np.sum(
            -0.5 * noise * noise - log_std - 0.5 * LOG_2PI
            + _softplus(pre) + _softplus(-pre),
            axis=-1,
        )
        cache = {
            "raw": raw,
            "std": std,
            "noise": noise,
            "action": action,
        }
        return action, log_prob, cache

    def deterministic(self, obs: np.ndarray) -> np.ndarray:
        out = self.trunk.forward(obs)
        return _sigmoid(out[..., : self.n_actions])

    def backward_sample(self, cache, grad_pre, grad_log_std_direct):
        """Backprop through the squashed sample into trunk parameter space.

        grad_pre is dLoss/d(pre-squash sample); grad_log_std_direct collects
        loss terms that touch log_std without going through the sample.
        """
        raw = cache["raw"]
        std = cache["std"]
        noise = cache["noise"]
        grad_mu = grad_pre
        grad_log_std = grad_pre * std * noise + grad_log_std_direct
        clip_mask = (raw > LOG_STD_MIN) & (raw < LOG_STD_MAX)
        grad_out = np.concatenate([grad_mu, grad_log_std * clip_mask], axis=-1)
        grads, _ = self.trunk.backward(cache["trunk"], grad_out, input_grad=False)
        return grads


class OfflineDataset:
    """Transitions as row-aligned obs, act, rew and next_obs arrays, exactly
    len(self) rows each; batches are drawn uniformly with replacement."""

    def __init__(self, obs, act, rew, next_obs):
        self.obs = obs
        self.act = act
        self.rew = rew
        self.next_obs = next_obs

    def __len__(self) -> int:
        return len(self.rew)

    def sample(self, batch_size: int, rng: np.random.Generator) -> dict:
        idx = rng.integers(0, len(self.rew), size=batch_size)
        return {
            "obs": self.obs[idx],
            "act": self.act[idx],
            "rew": self.rew[idx],
            "next_obs": self.next_obs[idx],
        }


class ReplayBuffer(OfflineDataset):
    """Ring of the last `capacity` transitions.

    The rows live in backing arrays that start at 1024 rows and double as
    rows arrive, up to `capacity`; the public arrays are views of their
    first len(self) rows.
    """

    def __init__(self, obs_dim: int, n_actions: int, capacity: int = 1_000_000):
        super().__init__(np.empty((0, obs_dim)), np.empty((0, n_actions)), np.empty(0),
                         np.empty((0, obs_dim)))
        self.capacity = capacity
        self.inserted = 0
        self._next = 0
        self._rows = (self.obs, self.act, self.rew, self.next_obs)

    def extend(self, obs, act, rew, next_obs) -> None:
        """Store a block of rows, oldest first; once the ring is full each
        row overwrites the oldest one stored."""
        rew = np.asarray(rew, dtype=float)
        k, size = len(rew), len(self)
        alloc = len(self._rows[0])
        if self._next + k > alloc and alloc < self.capacity:
            # the ring has not wrapped yet, so the rows stored are the first `size`
            alloc = max(1024, alloc)
            while alloc < self._next + k:
                alloc *= 2
            alloc = min(alloc, self.capacity)

            def grown(old):
                arr = np.empty((alloc, *old.shape[1:]))
                arr[:size] = old[:size]
                return arr

            self._rows = tuple(grown(old) for old in self._rows)
        first = max(k - self.capacity, 0)  # earlier rows would be overwritten
        idx = (self._next + np.arange(first, k)) % self.capacity
        for rows, block in zip(self._rows, (obs, act, rew, next_obs)):
            rows[idx] = np.asarray(block)[first:]
        self.inserted += k
        self._next = (self._next + k) % self.capacity
        size = min(size + k, self.capacity)
        self.obs, self.act, self.rew, self.next_obs = (rows[:size] for rows in self._rows)

    def push(self, obs, action, rew, next_obs) -> None:
        self.extend([obs], [action], [rew], [next_obs])


class SacAgent:
    def __init__(self, obs_dim: int, n_actions: int, tc: TrainConfig):
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        self.tc = tc
        self.rng = np.random.default_rng(tc.seed)
        self.actor = SquashedGaussianActor(obs_dim, n_actions, self.rng)
        q_sizes = [obs_dim + n_actions, *HIDDEN, 1]
        self.q1 = Mlp(q_sizes, self.rng)
        self.q2 = Mlp(q_sizes, self.rng)
        self.q1_target = self.q1.copy()
        self.q2_target = self.q2.copy()
        self.log_alpha = np.array([math.log(tc.alpha_init)])
        self.target_entropy = tc.target_entropy_per_dim * float(n_actions)
        self.opt_actor = Adam(self.actor.trunk.shapes, tc.lr)
        self.opt_q1 = Adam(self.q1.shapes, tc.lr)
        self.opt_q2 = Adam(self.q2.shapes, tc.lr)
        self.opt_alpha = Adam([self.log_alpha.shape], tc.lr)

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha[0]))

    def reconfigure(self, tc: TrainConfig) -> None:
        """Adopt new training hyperparameters for a loaded agent, keeping
        network parameters and optimizer moments (used by fine-tuning)."""
        self.tc = tc
        self.target_entropy = tc.target_entropy_per_dim * float(self.n_actions)
        self.rng = np.random.default_rng(tc.seed)
        for opt in (self.opt_actor, self.opt_q1, self.opt_q2, self.opt_alpha):
            opt.lr = tc.lr

    def act(self, obs, deterministic: bool = False) -> np.ndarray:
        obs = np.asarray(obs, dtype=float)
        if deterministic:
            return self.actor.deterministic(obs)
        noise = self.rng.standard_normal(self.n_actions)
        action, _, _ = self.actor.sample_cached(obs[None, :], noise[None, :])
        return action[0]


def _q_forward(net: Mlp, obs: np.ndarray, act: np.ndarray, shared: bool = False):
    value, cache = net.forward_cached(np.concatenate([obs, act], axis=-1), shared=shared)
    return value[:, 0], cache


def critic_loss(agent: SacAgent, batch: dict, tc: TrainConfig, next_noise=None):
    """Twin-critic TD loss against the entropy-regularised target.

    Target: r + gamma * (min target-Q(s', a') - alpha * log pi(a'|s')) with
    a' drawn fresh from the current policy; no gradient flows into the target.
    Returns (loss, (grads_q1, grads_q2), aux); aux["q_data"] holds each
    critic's (values, forward cache) on the data actions.
    """
    obs, act = batch["obs"], batch["act"]
    rew, next_obs = batch["rew"], batch["next_obs"]
    bsize = obs.shape[0]
    if next_noise is None:
        next_noise = agent.rng.standard_normal((bsize, agent.n_actions))

    a_next, logp_next, _ = agent.actor.sample_cached(next_obs, next_noise)
    q1t, _ = _q_forward(agent.q1_target, next_obs, a_next)
    q2t, _ = _q_forward(agent.q2_target, next_obs, a_next)
    y = rew + tc.gamma * (np.minimum(q1t, q2t) - agent.alpha * logp_next)

    q1, c1 = _q_forward(agent.q1, obs, act)
    q2, c2 = _q_forward(agent.q2, obs, act)
    e1 = q1 - y
    e2 = q2 - y
    loss = float(np.mean(e1 * e1) + np.mean(e2 * e2))
    _require_finite("critic", loss)
    g1, _ = agent.q1.backward(c1, (2.0 * e1 / bsize)[:, None], input_grad=False)
    g2, _ = agent.q2.backward(c2, (2.0 * e2 / bsize)[:, None], input_grad=False)
    return loss, (g1, g2), {"target": y, "q1": q1, "q2": q2, "q_data": ((q1, c1), (q2, c2))}


def actor_loss(agent: SacAgent, batch: dict, tc: TrainConfig, noise=None):
    """Reparameterised policy loss mean(alpha * log pi(a|s) - min Q(s, a)).

    Gradients flow through the sampled action into the trunk; the critics'
    parameters only supply dQ/da and are left untouched.
    Returns (loss, actor_grads, log_probs).
    """
    obs = batch["obs"]
    bsize = obs.shape[0]
    if noise is None:
        noise = agent.rng.standard_normal((bsize, agent.n_actions))
    alpha = agent.alpha

    action, log_prob, cache = agent.actor.sample_cached(obs, noise)
    q1, c1 = _q_forward(agent.q1, obs, action)
    q2, c2 = _q_forward(agent.q2, obs, action)
    q_min = np.minimum(q1, q2)
    loss = float(np.mean(alpha * log_prob - q_min))
    _require_finite("actor", loss)

    pick1 = (q1 <= q2).astype(float)
    grad_q_out1 = (-pick1 / bsize)[:, None]
    grad_q_out2 = (-(1.0 - pick1) / bsize)[:, None]
    _, din1 = agent.q1.backward(c1, grad_q_out1, param_grad=False)
    _, din2 = agent.q2.backward(c2, grad_q_out2, param_grad=False)
    dloss_da = din1[:, agent.obs_dim:] + din2[:, agent.obs_dim:]

    a = cache["action"]
    grad_pre = (alpha / bsize) * (2.0 * a - 1.0) + dloss_da * a * (1.0 - a)
    grad_log_std_direct = np.full_like(a, -alpha / bsize)
    grads = agent.actor.backward_sample(cache, grad_pre, grad_log_std_direct)
    return loss, grads, log_prob


def cql_logsumexp(net: Mlp, obs: np.ndarray, actions: np.ndarray, log_dens: np.ndarray):
    """Importance-corrected log-sum-exp of Q over sampled actions.

    actions: (B, N, n) with per-sample log proposal densities (B, N); returns
    (lse (B,), softmax weights (B, N), flat forward cache) so callers can
    backpropagate.  The pool pass computes into the scratch the working
    critics share (Mlp.forward_cached(shared=True)), so the cache is spent
    by the next pool pass of either critic.
    """
    bsize, n_samp, _ = actions.shape
    obs_rep = np.repeat(obs, n_samp, axis=0)
    q_flat, cache = _q_forward(net, obs_rep, actions.reshape(bsize * n_samp, -1), shared=True)
    adjusted = q_flat.reshape(bsize, n_samp) - log_dens
    peak = adjusted.max(axis=1, keepdims=True)
    lse = peak[:, 0] + np.log(np.sum(np.exp(adjusted - peak), axis=1))
    weights = np.exp(adjusted - lse[:, None])
    return lse, weights, cache


def cql_regularizer(agent: SacAgent, batch: dict, tc: TrainConfig,
                    rand_actions=None, pol_noise=None, q_data=None):
    """Conservative penalty: push Q down on sampled actions, up on data actions.

    Per critic: mean_s[ logsumexp_a(Q(s,a) - log q(a)) - Q(s, a_data) ].  The
    cql_num_samples action pool is split between uniform draws over [0,1]^n
    (density 1, so zero log correction) and current-policy draws corrected by
    their log-density.  The policy samples are treated as constants; only
    critic gradients come back.  q_data may pass in each critic's (values,
    forward cache) on the data actions, as critic_loss returns them for the
    same batch and parameters.  Returns (penalty, (grads_q1, grads_q2)).

    The critics' pool passes share one set of activation buffers
    (cql_logsumexp), so each critic's pool forward, log-sum-exp, finiteness
    check and backward passes finish before the next critic's pool forward.
    """
    obs, act = batch["obs"], batch["act"]
    bsize = obs.shape[0]
    n = agent.n_actions
    n_rand = max(1, tc.cql_num_samples // 2)
    n_pol = max(1, tc.cql_num_samples - n_rand)
    if rand_actions is None:
        # drawn in float64 so the random stream does not depend on the
        # critics' dtype, then cast once instead of inside every pool pass
        rand_actions = agent.rng.uniform(size=(bsize, n_rand, n)).astype(
            agent.q1.flat.dtype, copy=False)
    else:
        n_rand = rand_actions.shape[1]
    if pol_noise is None:
        pol_noise = agent.rng.standard_normal((bsize * n_pol, n))
    else:
        n_pol = pol_noise.shape[0] // bsize

    # the n_pol draws for one state share its trunk output, so the trunk
    # runs once per state and its output rows are repeated
    out = agent.actor.trunk.forward(obs)
    a_pol, logp_pol, _ = agent.actor.squash(np.repeat(out, n_pol, axis=0), pol_noise)
    pool = np.concatenate([rand_actions, a_pol.reshape(bsize, n_pol, n)], axis=1)
    log_dens = np.concatenate(
        [np.zeros((bsize, n_rand)), logp_pol.reshape(bsize, n_pol)], axis=1
    )

    nets = (agent.q1, agent.q2)
    if q_data is None:
        q_data = [_q_forward(net, obs, act) for net in nets]
    total = 0.0
    grads_out = []
    for net, (q, cache_data) in zip(nets, q_data):
        lse, weights, cache = cql_logsumexp(net, obs, pool, log_dens)
        term = float(np.mean(lse - q))
        _require_finite("cql", term)
        total += term
        g_pool, _ = net.backward(cache, (weights / bsize).reshape(-1, 1), input_grad=False)
        g_data, _ = net.backward(cache_data, np.full((bsize, 1), -1.0 / bsize),
                                 input_grad=False)
        grads_out.append(g_pool + g_data)
    return total, tuple(grads_out)


def _polyak_update(target: Mlp, online: Mlp, tau: float) -> None:
    target.flat *= 1.0 - tau
    target.flat += tau * online.flat


def _require_finite(term: str, *values) -> None:
    """NonFiniteState unless every loss or gradient in `values` is finite."""
    if not all(np.isfinite(v).all() for v in values):
        raise NonFiniteState(f"{term} loss or gradient is not finite")


def _nets(agent: SacAgent) -> tuple[Mlp, ...]:
    return (agent.actor.trunk, agent.q1, agent.q2, agent.q1_target, agent.q2_target)


def working_copy(agent: SacAgent, dtype) -> SacAgent:
    """Shallow copy of `agent` whose five nets compute in `dtype`.

    It shares the agent's rng, log_alpha and configuration, so the loss
    functions draw the same random numbers from it as from the agent.
    """
    work = copy.copy(agent)
    work.actor = copy.copy(agent.actor)
    work.actor.trunk = agent.actor.trunk.copy(dtype)
    for name in ("q1", "q2", "q1_target", "q2_target"):
        setattr(work, name, getattr(agent, name).copy(dtype))
    return work


def sac_update(agent: SacAgent, data, tc: TrainConfig) -> SacAgent:
    """Run tc.grad_steps_per_episode gradient steps from uniformly sampled
    batches; InsufficientData when `data` holds fewer than tc.batch rows.

    One step = critic step (TD loss, plus the weighted conservative term and
    the 1/2 TD scaling when cql_weight > 0), actor step, temperature step
    toward the entropy target, then Polyak target tracking.

    Losses and gradients are computed on WORK_DTYPE working copies of the
    nets; Adam and Polyak update the float64 masters, and each working copy
    is refreshed from its master right after the master changes.  The
    working copies reuse their buffers from step to step (Mlp.reuse_buffers;
    _gradient_step's call order keeps every forward cache valid until its
    backward), which gives the same values as fresh arrays.  Each net keeps
    its own batch-size activations, since critic_loss and actor_loss hold
    both critics' caches at once; the critics' CQL pool passes share one set
    in the common scratch, which cql_regularizer spends one critic at a
    time.  A non-finite loss or gradient raises NonFiniteState before it
    reaches the parameters.
    """
    if len(data) < tc.batch:
        raise InsufficientData(
            f"need at least {tc.batch} tuples, have {len(data)}"
        )
    steps = tc.grad_steps_per_episode
    work = working_copy(agent, WORK_DTYPE)
    scratch = {}
    for net in _nets(work):
        net.reuse_buffers(scratch)
    for step in range(1, steps + 1):
        try:
            _gradient_step(agent, work, data.sample(tc.batch, agent.rng), tc)
        except NonFiniteState as exc:
            raise NonFiniteState(f"gradient step {step} of {steps}: {exc}") from None
    return agent


def _gradient_step(agent: SacAgent, work: SacAgent, batch: dict, tc: TrainConfig) -> None:
    batch = {key: np.asarray(value, dtype=WORK_DTYPE) for key, value in batch.items()}
    # the loss functions have checked their losses; the gradients are checked here
    _, (g1, g2), aux = critic_loss(work, batch, tc)
    _require_finite("critic", g1, g2)
    if tc.cql_weight > 0.0:
        _, (c1, c2) = cql_regularizer(work, batch, tc, q_data=aux["q_data"])
        _require_finite("cql", c1, c2)
        g1 = tc.cql_weight * c1 + 0.5 * g1
        g2 = tc.cql_weight * c2 + 0.5 * g2
    agent.opt_q1.step(agent.q1.flat, g1)
    agent.opt_q2.step(agent.q2.flat, g2)
    work.q1.flat[...] = agent.q1.flat
    work.q2.flat[...] = agent.q2.flat

    _, ga, log_prob = actor_loss(work, batch, tc)
    _require_finite("actor", ga)
    agent.opt_actor.step(agent.actor.trunk.flat, ga)
    work.actor.trunk.flat[...] = agent.actor.trunk.flat

    grad_log_alpha = np.array([-float(np.mean(log_prob + agent.target_entropy))])
    _require_finite("alpha", grad_log_alpha)
    agent.opt_alpha.step(agent.log_alpha, grad_log_alpha)

    _polyak_update(agent.q1_target, agent.q1, tc.polyak)
    _polyak_update(agent.q2_target, agent.q2, tc.polyak)
    work.q1_target.flat[...] = agent.q1_target.flat
    work.q2_target.flat[...] = agent.q2_target.flat


def _net_to_doc(net: Mlp) -> dict:
    return {
        "layer_sizes": net.layer_sizes,
        "params": net.params,
    }


def _array_to_list(obj):
    """JSON encoder default: an array as nested lists, made only when the
    encoder reaches it, so one array's Python floats exist at a time."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _lists_to_arrays(obj: dict) -> dict:
    """JSON decoder object_hook: a net's "params" and an optimizer's "m" and
    "v" become float64 arrays as soon as the decoder has parsed their
    object, so one object's Python floats exist at a time.  An array it
    cannot convert stays as parsed, for fill_from_doc to report."""
    for key in ("params", "m", "v"):
        arrays = obj.get(key)
        if isinstance(arrays, list):
            obj[key] = [_float_array(values) for values in arrays]
    return obj


def _float_array(values):
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return values


def _net_from_doc(doc: dict, name: str, n_in: int, n_out: int) -> Mlp:
    """The checkpoint's net `name`; ShapeMismatch unless it maps n_in inputs
    to n_out outputs and every parameter array has its layer's size,
    NonFiniteState on a NaN or infinite parameter."""
    sizes = doc["layer_sizes"]
    if not all(type(n) is int and n > 0 for n in sizes):
        raise ShapeMismatch(f"net {name}: layer sizes {sizes} are not positive integers")
    if len(sizes) < 2 or sizes[0] != n_in or sizes[-1] != n_out:
        raise ShapeMismatch(f"net {name}: layer sizes {sizes} do not map "
                            f"{n_in} inputs to {n_out} outputs")
    net = Mlp(sizes)
    if len(doc["params"]) != len(net.params):
        raise ShapeMismatch(f"net {name}: {len(doc['params'])} parameter arrays, "
                            f"expected {len(net.params)}")
    for k, (view, values) in enumerate(zip(net.params, doc["params"])):
        fill_from_doc(view, values, f"net {name}: parameter array {k}")
    return net


# the keys of a fescycle-agent-v1 checkpoint below "format"; None marks a leaf
_CHECKPOINT_KEYS = {
    "obs_dim": None,
    "n_actions": None,
    "train_config": dict.fromkeys(_TRAIN_FIELDS),
    "log_alpha": None,
    "nets": {name: dict.fromkeys(("layer_sizes", "params"))
             for name in ("actor", "q1", "q2", "q1_target", "q2_target")},
    "optimizers": {name: dict.fromkeys(ADAM_STATE_KEYS)
                   for name in ("actor", "q1", "q2", "alpha")},
}


def _missing_key(doc: dict, keys: dict, prefix: str = "") -> str | None:
    """Dotted name of the first key in `keys` that `doc` lacks, or None."""
    for key, below in keys.items():
        if key not in doc:
            return prefix + key
        if below is not None:
            missing = _missing_key(doc[key], below, f"{prefix}{key}.")
            if missing:
                return missing
    return None


def _agent_doc(agent: SacAgent) -> dict:
    """The fescycle-agent-v1 document of `agent`, as both writers encode it
    (with _array_to_list); its arrays are views of the agent's."""
    return {
        "format": "fescycle-agent-v1",
        "obs_dim": agent.obs_dim,
        "n_actions": agent.n_actions,
        "train_config": {name: getattr(agent.tc, name) for name in _TRAIN_FIELDS},
        "log_alpha": float(agent.log_alpha[0]),
        "nets": {
            "actor": _net_to_doc(agent.actor.trunk),
            "q1": _net_to_doc(agent.q1),
            "q2": _net_to_doc(agent.q2),
            "q1_target": _net_to_doc(agent.q1_target),
            "q2_target": _net_to_doc(agent.q2_target),
        },
        "optimizers": {
            "actor": agent.opt_actor.to_state(),
            "q1": agent.opt_q1.to_state(),
            "q2": agent.opt_q2.to_state(),
            "alpha": agent.opt_alpha.to_state(),
        },
    }


def agent_to_json(agent: SacAgent) -> str:
    return json.dumps(_agent_doc(agent), indent=1, default=_array_to_list) + "\n"


def agent_from_json(text: str, source: str = "<string>") -> SacAgent:
    """The agent a checkpoint's text holds.

    ValueError, naming `source` and the dotted key, when a key is missing;
    ShapeMismatch, naming the key, unless obs_dim and n_actions are positive
    integers, and when a net or moment does not fit the agent's dimensions;
    NonFiniteState, naming the net or optimizer and the array, on a NaN or
    infinite parameter, Adam moment or log_alpha; Adam.from_state's errors
    on a bad optimizer scalar.
    """
    doc = json.loads(text, object_hook=_lists_to_arrays)
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != "fescycle-agent-v1":
        raise ValueError(f"not an agent checkpoint: format={fmt!r}")
    missing = _missing_key(doc, _CHECKPOINT_KEYS)
    if missing:
        raise ValueError(f"{source}: checkpoint lacks key {missing!r}")
    tc = train_config_from_dict(doc["train_config"])
    obs_dim, n_actions = doc["obs_dim"], doc["n_actions"]
    for key, size in (("obs_dim", obs_dim), ("n_actions", n_actions)):
        if not (type(size) is int and size > 0):
            raise ShapeMismatch(f"{key} must be a positive integer, got {size!r}")
    agent = SacAgent(obs_dim, n_actions, tc)
    nets = doc["nets"]
    agent.actor.trunk = _net_from_doc(nets["actor"], "actor", obs_dim, 2 * n_actions)
    for name in ("q1", "q2", "q1_target", "q2_target"):
        setattr(agent, name, _net_from_doc(nets[name], name, obs_dim + n_actions, 1))
    fill_from_doc(agent.log_alpha, [doc["log_alpha"]], "log_alpha")
    for name, shapes in (("actor", agent.actor.trunk.shapes), ("q1", agent.q1.shapes),
                         ("q2", agent.q2.shapes), ("alpha", [agent.log_alpha.shape])):
        setattr(agent, f"opt_{name}", Adam.from_state(doc["optimizers"][name], shapes, name))
    return agent


def clone_agent(agent: SacAgent) -> SacAgent:
    """In-memory copy of the nets, the Adam states and log_alpha.

    Equal to agent_from_json(agent_to_json(agent)): the copy is a fresh
    SacAgent, so its rng starts where a loaded checkpoint's does.
    """
    clone = SacAgent(agent.obs_dim, agent.n_actions, agent.tc)
    clone.actor.trunk = agent.actor.trunk.copy()
    for name in ("q1", "q2", "q1_target", "q2_target"):
        setattr(clone, name, getattr(agent, name).copy())
    clone.log_alpha = agent.log_alpha.copy()
    for name in ("opt_actor", "opt_q1", "opt_q2", "opt_alpha"):
        setattr(clone, name, copy.deepcopy(getattr(agent, name)))
    return clone


def save_agent(agent: SacAgent, path) -> None:
    """Write agent_to_json(agent) to `path`, streaming the encoder's chunks
    into the file so the whole text is never held in memory."""
    with open(path, "w") as fh:
        json.dump(_agent_doc(agent), fh, indent=1, default=_array_to_list)
        fh.write("\n")


def load_agent(path) -> SacAgent:
    with open(path) as fh:
        return agent_from_json(fh.read(), str(path))
