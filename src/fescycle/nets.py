"""Small fully-connected networks with hand-written reverse-mode gradients.

Everything the agent trains runs through Mlp (ReLU hidden layers, linear
output) and Adam below; no autodiff framework is involved, so gradient
correctness is pinned by finite-difference tests instead.

Each net keeps its parameters in one contiguous vector, and parameter
gradients come back as a vector of the same layout, so the optimizer and
target tracking are a few elementwise operations per net.

A net may also compute into buffers it reuses across calls (reuse_buffers),
so a hot training loop does not allocate, and page-fault in, its large
per-call temporaries again on every step.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import NonFiniteState, ShapeMismatch

# the keys of Adam.to_state, in the order it writes them
ADAM_STATE_KEYS = ("lr", "beta1", "beta2", "eps", "t", "m", "v")


def _positive(v) -> bool:
    return type(v) in (int, float) and 0 < v <= sys.float_info.max


def _unit_interval(v) -> bool:
    return type(v) in (int, float) and 0 <= v < 1


# Adam.from_state's rule for each scalar of a saved state
_ADAM_SCALAR_RULES = (
    ("lr", "a finite number > 0", _positive),
    ("beta1", "a finite number in [0, 1)", _unit_interval),
    ("beta2", "a finite number in [0, 1)", _unit_interval),
    ("eps", "a finite number > 0", _positive),
    # a larger t overflows beta1**t in Adam.step
    ("t", "an integer in [0, 2**63)", lambda v: type(v) is int and 0 <= v < 2**63),
)


def split(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of `flat`, one per shape (C order)."""
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(flat[start:stop].reshape(shape))
        start = stop
    if start != flat.size:
        raise ShapeMismatch(f"{flat.size} values do not split into shapes {list(shapes)}")
    return views


def fill_from_doc(view: np.ndarray, values, what: str) -> None:
    """Copy the JSON array `values` (nested lists, or an array made from
    them) into `view`; ShapeMismatch unless it holds view.size numbers,
    NonFiniteState on a NaN or infinite one.  `what` names the array in the
    error."""
    try:
        values = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what}: {exc}") from None
    if values.size != view.size:
        raise ShapeMismatch(f"{what} has {values.size} values, expected {view.size}")
    if not np.isfinite(values).all():
        raise NonFiniteState(f"{what} has a non-finite value")
    view[...] = values.reshape(view.shape)


def _buffer(store: dict | None, key, shape, dtype, fill=None) -> np.ndarray:
    """store[key], made with `shape` on first use; a fresh array when store is
    None.  The key must determine the shape."""
    buf = None if store is None else store.get(key)
    if buf is None:
        buf = np.empty(shape, dtype) if fill is None else np.full(shape, fill, dtype)
        if store is not None:
            store[key] = buf
    return buf


class Mlp:
    """Feedforward net over one parameter vector `flat`.

    `params` holds views of it in the interleaved order [W1, b1, W2, b2, ...],
    so writing into either one changes both.  A net computes in the dtype of
    its vector: float64, or whatever copy(dtype) gave it.
    """

    # set by reuse_buffers; None means every call allocates its temporaries
    _acts = None
    scratch = None

    def __init__(self, layer_sizes, rng: np.random.Generator | None = None):
        self.layer_sizes = list(int(n) for n in layer_sizes)
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        # shapes of the arrays in `params`, in order
        self.shapes = []
        for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            self.shapes += [(fan_in, fan_out), (fan_out,)]
        self.flat = np.empty(sum(math.prod(s) for s in self.shapes))
        self.params = split(self.flat, self.shapes)
        rng = rng or np.random.default_rng(0)
        for i, fan_in in enumerate(self.layer_sizes[:-1]):
            bound = 1.0 / np.sqrt(fan_in)
            for p in self.params[2 * i : 2 * i + 2]:
                p[...] = rng.uniform(-bound, bound, size=p.shape)

    def reuse_buffers(self, scratch: dict) -> None:
        """Compute into buffers kept across calls instead of fresh arrays.

        Hidden activations go to buffers this net keeps per (layer, rows), so
        a forward cache stays valid only until the next forward of this net
        at the same row count.  A forward with shared=True puts them in
        `scratch` instead, under keys of their own, so its cache stays valid
        only until the next shared forward at the same row count of any net
        using that scratch.  backward's deltas, ReLU masks and ones vector go
        to `scratch`, which nets of one dtype may share as long as their
        backward calls never nest.  Outputs and the parameter and input
        gradients are always fresh arrays, so callers may keep them.
        """
        self._acts = {}
        self.scratch = scratch

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    def forward(self, x: np.ndarray) -> np.ndarray:
        y, _ = self.forward_cached(x)
        return y

    def forward_cached(self, x: np.ndarray, shared: bool = False):
        """Output and backward cache for input rows `x`; shared=True computes
        the hidden activations into the shared scratch (see reuse_buffers)."""
        x = np.asarray(x, dtype=self.flat.dtype)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.shape[1] != self.layer_sizes[0]:
            raise ShapeMismatch(
                f"expected input dim {self.layer_sizes[0]}, got {x.shape[1]}"
            )
        # hidden activations are computed in place (ReLU over the
        # pre-activation buffer); a unit is active where its activation is
        # positive, so backward derives the ReLU masks from the cache
        store = self.scratch if shared else self._acts
        rows = x.shape[0]
        h = x
        hiddens = [x]
        for i in range(self.n_layers - 1):
            w = self.params[2 * i]
            shape = (rows, w.shape[1])
            z = np.matmul(h, w, out=_buffer(store, ("hidden", i, shape), shape, w.dtype))
            z += self.params[2 * i + 1]
            np.maximum(z, 0.0, out=z)
            h = z
            hiddens.append(h)
        out = h @ self.params[-2]
        out += self.params[-1]
        if squeeze:
            return out[0], (hiddens, True)
        return out, (hiddens, False)

    def backward(self, cache, grad_out: np.ndarray, param_grad: bool = True,
                 input_grad: bool = True):
        """Gradients of sum(grad_out * output) w.r.t. params and input.

        Returns (flat parameter gradient, input gradient); a part not asked
        for is None and costs nothing.
        """
        hiddens, squeezed = cache
        delta = np.asarray(grad_out, dtype=self.flat.dtype)
        if squeezed:
            delta = delta[None, :]
        rows = delta.shape[0]
        scratch = self.scratch
        grad = np.empty_like(self.flat) if param_grad else None
        grads = split(grad, self.shapes) if param_grad else None
        # bias gradients as ones @ delta: a GEMV, several times faster here
        # than delta.sum(axis=0)
        ones = _buffer(scratch, ("ones", rows), rows, delta.dtype, fill=1.0)
        for i in range(self.n_layers - 1, -1, -1):
            if param_grad:
                np.matmul(hiddens[i].T, delta, out=grads[2 * i])
                np.matmul(ones, delta, out=grads[2 * i + 1])
            if i > 0:
                shape = (rows, self.layer_sizes[i])
                delta = _back_through(delta, self.params[2 * i],
                                      _buffer(scratch, ("delta", i, shape), shape, delta.dtype))
                delta *= np.greater(hiddens[i], 0.0,
                                    out=_buffer(scratch, ("mask", shape), shape, bool))
        if not input_grad:
            return grad, None
        grad_input = _back_through(delta, self.params[0])
        if squeezed:
            grad_input = grad_input[0]
        return grad, grad_input

    def copy(self, dtype=None) -> "Mlp":
        clone = Mlp.__new__(Mlp)
        clone.layer_sizes = list(self.layer_sizes)
        clone.shapes = list(self.shapes)
        clone.flat = self.flat.astype(dtype or self.flat.dtype)
        clone.params = split(clone.flat, clone.shapes)
        return clone


def _back_through(delta: np.ndarray, w: np.ndarray, out=None) -> np.ndarray:
    """delta @ w.T, into `out` if given; a width-1 layer is an outer product,
    where a broadcast multiply gives the same values for less than the GEMM
    costs."""
    if w.shape[1] == 1:
        return np.multiply(delta, w[:, 0], out=out)
    return np.matmul(delta, w.T, out=out)


class Adam:
    """Standard Adam with bias correction over one flat parameter vector.

    `shapes` splits the vector into the arrays the serialized moments list,
    one per parameter array.
    """

    def __init__(self, shapes, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.shapes = [tuple(s) for s in shapes]
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        size = sum(math.prod(s) for s in self.shapes)
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """One in-place update of the vector `params` from `grads`."""
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        g = np.asarray(grads, dtype=self.m.dtype)
        m, v = self.m, self.v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * (g * g)
        params -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)

    def to_state(self) -> dict:
        """The scalars, and the moments m and v as one view per shape (they
        change when the optimizer steps)."""
        return {
            "lr": self.lr,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
            "t": self.t,
            "m": split(self.m, self.shapes),
            "v": split(self.v, self.shapes),
        }

    @classmethod
    def from_state(cls, state: dict, shapes, name: str) -> "Adam":
        """The optimizer `name` of a checkpoint.

        ValueError unless lr and eps are numbers > 0, beta1 and beta2
        numbers in [0, 1) and t an integer in [0, 2**63) (NonFiniteState
        where the value is NaN or infinite); ShapeMismatch unless each moment
        lists one array of the right size per shape, NonFiniteState on a NaN
        or infinite moment.  Errors name the optimizer and the key.
        """
        for key, rule, valid in _ADAM_SCALAR_RULES:
            value = state[key]
            if not valid(value):
                non_finite = type(value) is float and not math.isfinite(value)
                raise (NonFiniteState if non_finite else ValueError)(
                    f"optimizer {name}: {key} must be {rule}, got {value!r}")
        opt = cls(shapes, state["lr"], state["beta1"], state["beta2"], state["eps"])
        opt.t = state["t"]
        for key, moment in (("m", opt.m), ("v", opt.v)):
            arrays = state[key]
            if len(arrays) != len(opt.shapes):
                raise ShapeMismatch(f"optimizer {name}: moment {key} has {len(arrays)} "
                                    f"arrays, expected {len(opt.shapes)}")
            for k, (view, values) in enumerate(zip(split(moment, opt.shapes), arrays)):
                fill_from_doc(view, values, f"optimizer {name}: moment {key} array {k}")
        return opt
