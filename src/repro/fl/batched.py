"""Vectorized execution of many clients' local solves at once.

The per-client loop in :mod:`repro.fl.round_runner` evaluates the same
small network dozens of times per global iteration — once per client for
the local gradient, then ``sgd_steps`` minibatch gradients plus
``sgd_steps`` full-batch surrogate values inside every DANE solve.  Each
evaluation is a handful of tiny GEMMs, so the run is dominated by Python
and BLAS call overhead rather than arithmetic.

:class:`BatchedClientEngine` stacks the participants' datasets into one
contiguous ``(K, n_max, D)`` tensor (zero-padded to the largest local
dataset) and drives all K solves step-synchronously through
:class:`BatchedSequentialKernel`, a batched re-implementation of the
``Sequential`` forward/backward for dense networks.  Every numpy batched
op used here is *per-slice bit-identical* to its loop equivalent:

* GEMMs never see padded rows: clients are regrouped into equal-length
  sub-batches before any ``np.matmul``, because BLAS derives its panel
  blocking (and hence the floating-point accumulation grouping) from the
  matrix shape — padding the sample axis changes low-order bits even for
  rows that carry real data;
* ``np.matmul`` on exact-length stacked operands computes each slice
  with the same GEMM as the sequential 2-D call;
* elementwise ops and per-row reductions (``max``/``sum``/``exp`` along
  the class axis) do not mix rows;
* scalar reductions (the CE mean over samples, the bias-gradient sum)
  are taken over per-client contiguous slices.

Per-client RNG streams are preserved exactly: each client draws its own
minibatch indices from its own generator in step order, and a client that
early-stops (reached ``target_eta``) simply leaves the active set, so its
draw count matches the sequential loop.

The engine only supports shared-model ``Sequential`` stacks of ``Linear``
and elementwise activations with 2-D inputs (``logreg``/``mlp``); the
round runner falls back to the loop for anything else (CNNs).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fl.convergence import estimate_local_accuracy
from repro.nn.activations import ReLU, Sigmoid, Tanh
from repro.nn.linear import Linear
from repro.nn.models import ClassifierModel
from repro.nn.module import Sequential

__all__ = ["BatchedSequentialKernel", "BatchedClientEngine", "batched_local_losses"]

_ACTIVATIONS = {ReLU: "relu", Tanh: "tanh", Sigmoid: "sigmoid"}

#: Read-only ``np.arange`` tables keyed by length: the label gather in
#: :meth:`BatchedSequentialKernel._evaluate_exact` rebuilds the same small
#: index base tens of thousands of times per experiment.
_ARANGE_CACHE: Dict[int, np.ndarray] = {}


def _flat_arange(size: int) -> np.ndarray:
    """Memoized read-only ``np.arange(size)``."""
    ar = _ARANGE_CACHE.get(size)
    if ar is None:
        ar = np.arange(size)
        ar.setflags(write=False)
        _ARANGE_CACHE[size] = ar
    return ar


class BatchedSequentialKernel:
    """Batched loss/gradient evaluation for a dense ``Sequential`` network.

    Evaluates F(w) = mean-CE + (reg/2)‖w‖² and ∇F for K clients at once,
    at either one shared parameter vector ``w ∈ R^P`` or per-client rows
    ``w ∈ R^{K×P}``, bit-identical to K sequential
    :meth:`repro.nn.models.ClassifierModel.loss_and_grad` calls.
    """

    def __init__(self, network: Sequential) -> None:
        if not self.supports(network):
            raise ValueError("network not supported by the batched kernel")
        self.specs: List[Tuple] = []
        offset = 0
        for layer in network.layers:
            if isinstance(layer, Linear):
                din, dout = layer.weight.value.shape
                w_off = offset
                b_off = offset + din * dout
                self.specs.append(("linear", din, dout, w_off, b_off))
                offset = b_off + dout
            else:
                self.specs.append((_ACTIVATIONS[type(layer)],))
        self.num_params = offset

    @staticmethod
    def supports(network) -> bool:
        """True when every layer is Linear or an elementwise activation."""
        if not isinstance(network, Sequential):
            return False
        for layer in network.layers:
            if not isinstance(layer, (Linear, ReLU, Tanh, Sigmoid)):
                return False
        return isinstance(network.layers[0], Linear)

    # -- forward / backward ----------------------------------------------------

    def _weights(self, w: np.ndarray, spec: Tuple) -> Tuple[np.ndarray, np.ndarray]:
        _, din, dout, w_off, b_off = spec
        if w.ndim == 1:
            return w[w_off:b_off].reshape(din, dout), w[b_off : b_off + dout]
        return (
            w[:, w_off:b_off].reshape(-1, din, dout),
            w[:, b_off : b_off + dout],
        )

    def _forward(
        self, w: np.ndarray, x: np.ndarray, need_cache: bool
    ) -> Tuple[np.ndarray, List[Tuple]]:
        shared = w.ndim == 1
        h = x
        caches: List[Tuple] = []
        for spec in self.specs:
            kind = spec[0]
            if kind == "linear":
                weight, bias = self._weights(w, spec)
                if need_cache:
                    caches.append((h, weight))
                h = np.matmul(h, weight)
                # In-place broadcast add: same elementwise op as `+ bias`.
                h += bias if shared else bias[:, None, :]
            elif kind == "relu":
                mask = h > 0
                if need_cache:
                    caches.append((mask,))
                h = np.where(mask, h, 0.0)
            elif kind == "tanh":
                h = np.tanh(h)
                if need_cache:
                    caches.append((h,))
            else:  # sigmoid
                out = np.empty_like(h, dtype=float)
                pos = h >= 0
                out[pos] = 1.0 / (1.0 + np.exp(-h[pos]))
                ex = np.exp(h[~pos])
                out[~pos] = ex / (1.0 + ex)
                if need_cache:
                    caches.append((out,))
                h = out
        return h, caches

    def evaluate(
        self,
        w: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        lengths: np.ndarray,
        reg: float,
        want_grad: bool = True,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Batched F / ∇F over K padded client stacks.

        ``x`` is ``(K, n_pad, D)`` with rows ``lengths[k]:`` ignored,
        ``y`` is ``(K, n_pad)`` int labels (pad entries must be valid
        class indices; they never contribute).  Returns ``(loss, grad)``
        with ``loss`` of shape ``(K,)`` and ``grad`` of shape ``(K, P)``
        (``None`` when ``want_grad`` is false).

        Clients are processed in equal-length sub-batches so that no GEMM
        ever sees a padded sample axis: BLAS picks its panel blocking from
        the matrix shape, so both reducing over *and* carrying padded rows
        can regroup the floating-point accumulation of the real entries.
        With exact lengths every batched matmul is per-slice bit-identical
        to the sequential 2-D call.
        """
        w = np.asarray(w, dtype=float)
        lengths = np.asarray(lengths)
        length0 = int(lengths[0])
        if np.all(lengths == length0):
            # Uniform lengths (the common minibatch case): no regrouping.
            return self._evaluate_exact(
                w, x[:, :length0], y[:, :length0], reg, want_grad
            )
        k_count = x.shape[0]
        losses = np.empty(k_count)
        flat = np.empty((k_count, self.num_params)) if want_grad else None
        for length in np.unique(lengths):
            idx = np.flatnonzero(lengths == length)
            w_sub = w if w.ndim == 1 else w[idx]
            l_sub, g_sub = self._evaluate_exact(
                w_sub, x[idx, :length], y[idx, :length], reg, want_grad
            )
            losses[idx] = l_sub
            if want_grad:
                flat[idx] = g_sub
        return losses, flat

    def evaluate_sorted(
        self,
        w: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        buckets: Sequence[Tuple[int, int, int]],
        reg: float,
        want_grad: bool = True,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """:meth:`evaluate` for a length-sorted stack.

        ``buckets`` lists the contiguous equal-length row ranges
        ``(start, end, length)``; each is evaluated through zero-copy
        views.  Sub-batch membership — and therefore every GEMM shape and
        result — matches the length-dispatch of :meth:`evaluate`.
        """
        k_count = x.shape[0]
        losses = np.empty(k_count)
        flat = np.empty((k_count, self.num_params)) if want_grad else None
        for s, e, ln in buckets:
            w_sub = w if w.ndim == 1 else w[s:e]
            l_sub, g_sub = self._evaluate_exact(
                w_sub, x[s:e, :ln], y[s:e, :ln], reg, want_grad
            )
            losses[s:e] = l_sub
            if want_grad:
                flat[s:e] = g_sub
        return losses, flat

    def _evaluate_exact(
        self,
        w: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        reg: float,
        want_grad: bool,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """F / ∇F for clients sharing one exact sample count (no padding)."""
        k_count, n, _ = x.shape
        logits, caches = self._forward(w, x, need_cache=want_grad)
        # Row-stable softmax pieces, identical to losses.softmax_cross_entropy.
        z = logits - logits.max(axis=2, keepdims=True)
        # Flat elementwise gather of z[k, i, y[k, i]] (pure indexing, no
        # arithmetic — values identical to take_along_axis).
        num_classes = z.shape[2]
        flat_pick = _flat_arange(k_count * n) * num_classes + y.ravel()
        picked = z.reshape(-1)[flat_pick].reshape(k_count, n)
        # exp/softmax computed in place on z (picked was gathered above, so
        # z is otherwise dead); elementwise values unchanged.
        e = np.exp(z, out=z)
        se = e.sum(axis=2)
        lse = np.log(se)
        diff = lse - picked
        # Reducing the last axis of a contiguous 2-D array applies the same
        # pairwise summation per row as the loop's 1-D np.mean — bitwise
        # identical to per-client means.
        losses = diff.mean(axis=1)
        if reg > 0.0:
            if w.ndim == 1:
                losses = losses + 0.5 * reg * float(w @ w)
            else:
                for k in range(k_count):
                    losses[k] += 0.5 * reg * float(w[k] @ w[k])
        if not want_grad:
            return losses, None
        probs = np.divide(e, se[:, :, None], out=e)
        # One label per row, so the flat scatter matches the loop's
        # probs[arange(n), y] -= 1 (no duplicate index pairs).
        probs.reshape(-1)[flat_pick] -= 1.0
        g = np.divide(probs, float(n), out=probs)
        flat = np.empty((k_count, self.num_params))
        for i in range(len(self.specs) - 1, -1, -1):
            spec, cache = self.specs[i], caches[i]
            kind = spec[0]
            if kind == "linear":
                _, din, dout, w_off, b_off = spec
                h_in, weight = cache
                wgrad = np.matmul(h_in.transpose(0, 2, 1), g)
                flat[:, w_off:b_off] = wgrad.reshape(k_count, din * dout)
                # Last-axis-contiguous reduction: per-slice bitwise equal
                # to each client's g[k].sum(axis=0).
                flat[:, b_off : b_off + dout] = g.sum(axis=1)
                if i > 0:
                    if weight.ndim == 2:
                        g = np.matmul(g, weight.T)
                    else:
                        g = np.matmul(g, weight.transpose(0, 2, 1))
            elif kind == "relu":
                g = np.where(cache[0], g, 0.0)
            elif kind == "tanh":
                g = g * (1.0 - cache[0] ** 2)
            else:  # sigmoid
                g = g * cache[0] * (1.0 - cache[0])
        if reg > 0.0:
            flat = flat + reg * w
        return losses, flat


class _ClientGroup:
    """Participants sharing one set of local-solver hyper-parameters.

    Members are stored sorted by local dataset size, so every equal-length
    sub-batch occupies a contiguous row range (``buckets``) of the padded
    stack and can be evaluated through zero-copy views.  The sort is pure
    bookkeeping: sub-batch *membership* (and hence every GEMM shape) is
    exactly what the unsorted length-dispatch would produce, only the slice
    order inside each batched call changes — and batched ops are computed
    per slice.
    """

    __slots__ = ("positions", "clients", "x", "y", "lengths", "buckets")

    def __init__(self, positions: List[int], clients: List) -> None:
        order = sorted(range(len(clients)), key=lambda j: clients[j].num_samples)
        self.positions = [positions[j] for j in order]
        self.clients = [clients[j] for j in order]
        n_max = max(c.num_samples for c in clients)
        dim = clients[0].data.x.shape[1]
        self.x = np.zeros((len(clients), n_max, dim))
        self.y = np.zeros((len(clients), n_max), dtype=np.int64)
        self.lengths = np.empty(len(clients), dtype=np.int64)
        for j, c in enumerate(self.clients):
            n = c.num_samples
            self.x[j, :n] = c.data.x
            self.y[j, :n] = c.data.y
            self.lengths[j] = n
        # Contiguous equal-length row ranges [(start, end, length), ...].
        self.buckets: List[Tuple[int, int, int]] = []
        start = 0
        for j in range(1, len(self.clients) + 1):
            if j == len(self.clients) or self.lengths[j] != self.lengths[start]:
                self.buckets.append((start, j, int(self.lengths[start])))
                start = j


def batched_local_losses(
    model: ClassifierModel, clients: Sequence, w: np.ndarray
) -> np.ndarray:
    """Per-client ``F_{t,k}(w)`` for many clients in one batched sweep."""
    kernel = BatchedSequentialKernel(model.network)
    group = _ClientGroup(list(range(len(clients))), list(clients))
    sorted_losses, _ = kernel.evaluate_sorted(
        np.asarray(w, dtype=float),
        group.x,
        group.y,
        group.buckets,
        model.l2_reg,
        want_grad=False,
    )
    losses = np.empty(len(clients))
    losses[group.positions] = sorted_losses
    return losses


class BatchedClientEngine:
    """Round-scoped vectorized executor for one participant set."""

    def __init__(self, model: ClassifierModel, participants: Sequence) -> None:
        self.model = model
        self.kernel = BatchedSequentialKernel(model.network)
        self.participants = list(participants)
        by_key: Dict[Tuple, List[int]] = {}
        for pos, c in enumerate(self.participants):
            key = (
                c.sgd_steps,
                c.sgd_lr,
                c.sigma1,
                c.sigma2,
                c.batch_size,
                c.local_solver,
                c.momentum,
            )
            by_key.setdefault(key, []).append(pos)
        self.groups = [
            _ClientGroup(positions, [self.participants[p] for p in positions])
            for positions in by_key.values()
        ]
        # (w, per-group (loss, grad)) of the last local_grads() sweep, so the
        # solve at the same broadcast point reuses it instead of recomputing.
        self._eval_cache: Optional[Tuple[np.ndarray, List[Tuple]]] = None

    @staticmethod
    def supported(model, participants: Sequence) -> bool:
        """True when every participant can run through the batched kernel."""
        if not isinstance(model, ClassifierModel):
            return False
        if not BatchedSequentialKernel.supports(model.network):
            return False
        for c in participants:
            if c.model is not model:
                return False
            if c.data.x.ndim != 2:
                return False
        return True

    # -- full-batch gradients at a shared point ---------------------------------

    def local_grads(self, w: np.ndarray) -> List[np.ndarray]:
        """``[∇F_{t,k}(w)]`` in participant order (single batched sweep)."""
        w = np.asarray(w, dtype=float)
        per_group: List[Tuple] = []
        grads: List[Optional[np.ndarray]] = [None] * len(self.participants)
        for group in self.groups:
            losses, flat = self.kernel.evaluate_sorted(
                w, group.x, group.y, group.buckets, self.model.l2_reg
            )
            per_group.append((losses, flat))
            for j, pos in enumerate(group.positions):
                grads[pos] = flat[j]
        self._eval_cache = (w.copy(), per_group)
        return grads  # type: ignore[return-value]

    # -- one global iteration ----------------------------------------------------

    def train_iteration_all(
        self,
        w_global: np.ndarray,
        global_grad: np.ndarray,
        target_eta: Optional[float] = None,
    ) -> List[Tuple[np.ndarray, float, List[float]]]:
        """All participants' DANE solves at the broadcast point.

        Returns ``(d, η̂, trajectory)`` per participant, matching
        :meth:`repro.fl.client.FLClient.train_iteration` bit-for-bit.
        """
        w_global = np.asarray(w_global, dtype=float)
        global_grad = np.asarray(global_grad, dtype=float)
        cache = self._eval_cache
        reuse = cache is not None and np.array_equal(cache[0], w_global)
        out: List[Optional[Tuple]] = [None] * len(self.participants)
        for gi, group in enumerate(self.groups):
            if reuse:
                f0, g0 = cache[1][gi]
            else:
                f0, g0 = self.kernel.evaluate_sorted(
                    w_global, group.x, group.y, group.buckets, self.model.l2_reg
                )
            ds, etas, trajs = self._solve_group(
                group, w_global, global_grad, target_eta, f0, g0
            )
            for j, pos in enumerate(group.positions):
                out[pos] = (ds[j], etas[j], trajs[j])
        return out  # type: ignore[return-value]

    def _solve_group(
        self,
        group: _ClientGroup,
        w_global: np.ndarray,
        global_grad: np.ndarray,
        target_eta: Optional[float],
        f0: np.ndarray,
        g0: np.ndarray,
    ) -> Tuple[np.ndarray, List[float], List[List[float]]]:
        c0 = group.clients[0]
        k_count = len(group.clients)
        p = w_global.size
        sigma1 = c0.sigma1
        lr = c0.sgd_lr
        momentum = c0.momentum
        max_steps = c0.sgd_steps
        batch_size = c0.batch_size
        if c0.local_solver == "dane":
            lt = g0 - c0.sigma2 * global_grad[None, :]
        else:  # fedprox: the gradient-correction linear term is dropped
            lt = np.zeros((k_count, p))
        d = np.zeros((k_count, p))
        velocity = np.zeros((k_count, p)) if momentum > 0.0 else None
        # trajectory[k][0] = G(0) = F(w) + σ1/2·0 − lt·0, as in the loop.
        trajs: List[List[float]] = [
            [float(f0[j]) + 0.5 * sigma1 * 0.0 - 0.0] for j in range(k_count)
        ]
        active = list(range(k_count))
        bss = np.minimum(batch_size, group.lengths)
        subsamples = bool(np.any(bss < group.lengths))
        reg = self.model.l2_reg
        kernel = self.kernel

        def bucket_eval(wrows, acts_arr, xs_full, ys_full, lens, want_grad):
            """Equal-length sub-batch sweep over contiguous views.

            ``acts_arr`` is sorted and the group rows are length-sorted, so
            every sub-batch is a contiguous range of both ``wrows`` and the
            (sliced) data stack — the same member sets the length-dispatch
            in :meth:`BatchedSequentialKernel.evaluate` would form, minus
            the fancy-index copies.
            """
            k_act = acts_arr.size
            losses = np.empty(k_act)
            grads = np.empty((k_act, p)) if want_grad else None
            lo_i = 0
            while lo_i < k_act:
                ln = int(lens[lo_i])
                hi_i = int(np.searchsorted(lens, ln, side="right"))
                sel = acts_arr[lo_i:hi_i]
                contiguous = int(sel[-1]) - int(sel[0]) + 1 == hi_i - lo_i
                if contiguous:
                    s = int(sel[0])
                    xs, ys = xs_full[s : s + hi_i - lo_i, :ln], ys_full[s : s + hi_i - lo_i, :ln]
                else:
                    xs, ys = xs_full[sel, :ln], ys_full[sel, :ln]
                l_sub, g_sub = kernel._evaluate_exact(
                    wrows[lo_i:hi_i], xs, ys, reg, want_grad
                )
                losses[lo_i:hi_i] = l_sub
                if want_grad:
                    grads[lo_i:hi_i] = g_sub
                lo_i = hi_i
            return losses, grads

        for step in range(max_steps):
            if not active:
                break
            acts = np.asarray(active)
            w_eval = w_global[None, :] + d[acts]
            if subsamples:
                bs_act = bss[acts]
                bs_pad = int(bs_act[-1])        # lengths (hence bss) sorted
                xb = np.zeros((len(acts), bs_pad, group.x.shape[2]))
                yb = np.zeros((len(acts), bs_pad), dtype=np.int64)
                for j, k in enumerate(active):
                    n_k = int(group.lengths[k])
                    bs_k = int(bss[k])
                    idx = (
                        group.clients[k].rng.choice(n_k, size=bs_k, replace=False)
                        if bs_k < n_k
                        else np.arange(n_k)
                    )
                    xb[j, :bs_k] = group.x[k, idx]
                    yb[j, :bs_k] = group.y[k, idx]
                _, gb = bucket_eval(
                    w_eval, np.arange(len(acts)), xb, yb, bs_act, True
                )
            else:
                # Full-batch steps everywhere: the loop draws nothing from
                # any client RNG, so the stacked slices are the minibatches.
                _, gb = bucket_eval(
                    w_eval, acts, group.x, group.y, group.lengths[acts], True
                )
            grad = gb + sigma1 * d[acts] - lt[acts]
            if momentum > 0.0:
                velocity[acts] = momentum * velocity[acts] - lr * grad
                d[acts] = d[acts] + velocity[acts]
            else:
                d[acts] = d[acts] - lr * grad
            fb, _ = bucket_eval(
                w_global[None, :] + d[acts],
                acts,
                group.x,
                group.y,
                group.lengths[acts],
                False,
            )
            still: List[int] = []
            for j, k in enumerate(active):
                dd = float(d[k] @ d[k])
                ltd = float(lt[k] @ d[k])
                trajs[k].append(float(fb[j]) + 0.5 * sigma1 * dd - ltd)
                if (
                    target_eta is not None
                    and step >= 1
                    and estimate_local_accuracy(trajs[k]) <= target_eta
                ):
                    continue
                still.append(k)
            active = still
        etas = [estimate_local_accuracy(trajs[j]) for j in range(k_count)]
        return d, etas, trajs
