"""Outside-in span tracing of the ``repro`` layers.

:func:`install` wraps the public functions and methods at each layer
boundary and records one span per call: name, start, end, parent span
and epoch.  Counts are recorded at the same boundaries.  Wrappers go on
classes and modules, never on instances: policies pickled into snapshots
then hold no wrapper, and forked live workers inherit the wrapped
classes with recording switched off.  Spans stay in memory until the run
ends.  The program's files are not modified; :meth:`Installed.remove`
restores every wrapped attribute.

An epoch opens when its environment is drawn (the availability sample,
step 1 of the epoch loop); every span until the next draw carries that
epoch's index.  Spans before the first draw carry epoch -1.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import weakref
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Span record layout: [name, start, end, parent index (-1 = none), epoch].
NAME, START, END, PARENT, EPOCH = range(5)


class Tracer:
    """In-memory span and count recorder for one traced run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.epoch = -1
        self.active = True
        self._stack: List[int] = []
        self._last_recv_n = 0
        # A forked child (live worker) inherits the wrappers; its calls
        # are not the parent's work, so its copy stops recording.
        ref = weakref.ref(self)
        os.register_at_fork(after_in_child=functools.partial(_deactivate, ref))

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.epoch])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, at: Optional[float] = None) -> None:
        self.spans[idx][END] = perf_counter() if at is None else at
        self._stack.pop()


def _deactivate(ref) -> None:
    tracer = ref()
    if tracer is not None:
        tracer.active = False


# -- boundary table ----------------------------------------------------------
#
# (owner, attribute, span name or None for count-only, hook).  ``owner``
# is "module" or "module:Class".  A module-level function is rebound in
# every ``repro`` module that imported it by name ("all" scope), except
# where only the defining module's binding is the parent-side boundary.


def _tick_epoch(tr: Tracer, args, kwargs, out) -> None:
    tr.epoch += 1


def _count(key: str, fn: Callable) -> Callable:
    def hook(tr: Tracer, args, kwargs, out) -> None:
        tr.counts[key] += fn(args, kwargs, out)

    return hook


def _quarantined(tr: Tracer, args, kwargs, out) -> None:
    if out.defense is not None:
        tr.counts["fl.quarantined_updates"] += out.defense.total_rejected


def _snapshot_bytes(tr: Tracer, args, kwargs, out) -> None:
    tr.counts["ckpt.bytes"] += sum(
        p.stat().st_size for p in Path(out).rglob("*") if p.is_file()
    )


def _live_outcome(tr: Tracer, args, kwargs, out) -> None:
    tr.counts["live.solve_wall_s"] += float(sum(out.solve_wall_s.values()))
    tr.counts["live.retries"] += out.num_retries
    tr.counts["live.worker_restarts"] += out.worker_restarts


def _remember_recv(tr: Tracer, args, kwargs, out) -> None:
    tr._last_recv_n = len(out)


def _frame_recv(tr: Tracer, args, kwargs, out) -> None:
    if out is not None:
        # The last exact read of a frame is its body; 4 bytes of header.
        tr.counts["live.frames_recv"] += 1
        tr.counts["live.bytes_recv"] += 4 + tr._last_recv_n


@dataclass(frozen=True)
class Boundary:
    owner: str
    attr: str
    span: Optional[str]
    hook: Optional[Callable] = None
    before: bool = False          # run the hook before the call
    scope: str = "all"            # "all" | "module" (functions only)


BOUNDARIES: Tuple[Boundary, ...] = (
    # env
    Boundary("repro.env.availability:AvailabilityProcess", "sample", "env.sample",
             _tick_epoch, before=True),
    Boundary("repro.env.availability:MarkovAvailabilityProcess", "sample",
             "env.sample", _tick_epoch, before=True),
    Boundary("repro.env.dynamics:PriceProcess", "step_into", "env.sample"),
    Boundary("repro.env.dynamics:DataVolumeProcess", "sample_into", "env.sample"),
    Boundary("repro.net.channel:ChannelModel", "sample", "env.sample"),
    # datasets
    Boundary("repro.datasets.streams:ClientDataStream", "draw", "datasets.draw",
             _count("datasets.samples_drawn", lambda a, k, o: len(o))),
    Boundary("repro.fl.client:FLClient", "set_data", "fl.set_data"),
    # net
    Boundary("repro.experiments.runner:Simulation", "realized_tau", "net.realized_tau"),
    # selection (the policy's own select/update are added per run)
    Boundary("repro.core.online_learner:OnlineLearner", "descent_step",
             "select.descent"),
    Boundary("repro.solvers.projected_gradient", "projected_gradient",
             "select.solver",
             _count("select.solver_iters", lambda a, k, o: int(o.iterations))),
    Boundary("repro.core.rounding", "rdcs_round", "select.rounding"),
    Boundary("repro.core.online_learner:OnlineLearner", "dual_ascent", "update.dual"),
    # fl (round)
    Boundary("repro.fl.round_runner", "run_federated_round", "fl.round", _quarantined),
    Boundary("repro.fl.batched:BatchedClientEngine", "train_iteration_all",
             "fl.local_solve",
             _count("fl.local_solves", lambda a, k, o: len(o))),
    Boundary("repro.fl.client:FLClient", "train_iteration", "fl.local_solve",
             _count("fl.local_solves", lambda a, k, o: 1)),
    Boundary("repro.fl.batched:BatchedClientEngine", "local_grads", "fl.grads"),
    Boundary("repro.fl.client:FLClient", "local_grad", "fl.grads"),
    Boundary("repro.fl.defense", "screen_updates", "fl.screen"),
    Boundary("repro.fl.server:FLServer", "aggregate_updates", "fl.aggregate"),
    Boundary("repro.fl.server:FLServer", "apply_delta", "fl.aggregate"),
    Boundary("repro.fl.defense", "robust_aggregate", "fl.aggregate"),
    Boundary("repro.fl.hierarchy", "shard_combine", "fl.aggregate"),
    Boundary("repro.fl.batched", "batched_local_losses", "fl.eval_sweep",
             _count("fl.eval_clients", lambda a, k, o: len(o))),
    Boundary("repro.fl.client:FLClient", "local_loss", "fl.eval_sweep",
             _count("fl.eval_clients", lambda a, k, o: 1)),
    Boundary("repro.fl.server:FLServer", "test_accuracy", "fl.test_eval"),
    Boundary("repro.fl.server:FLServer", "test_loss", "fl.test_eval"),
    # sim
    Boundary("repro.sim.entities", "simulate_round", "sim.round"),
    # checkpoint
    Boundary("repro.checkpoint.snapshot", "write_snapshot", "ckpt.write",
             _snapshot_bytes),
    # live (parent side)
    Boundary("repro.live.runtime:LiveRuntime", "install_data", "live.install_data"),
    Boundary("repro.live.runtime:LiveRound", "run_iteration", "live.iteration_wait"),
    Boundary("repro.live.runtime:LiveRound", "finish", None, _live_outcome),
    Boundary("repro.live.protocol:FrameStream", "send", None,
             _count("live.frames_sent", lambda a, k, o: 1)),
    Boundary("repro.live.protocol", "encode_payload", None,
             _count("live.bytes_sent", lambda a, k, o: 4 + len(o)), scope="module"),
    Boundary("repro.live.protocol:FrameStream", "recv", None, _frame_recv),
    Boundary("repro.live.protocol", "recv_exact", None, _remember_recv,
             scope="module"),
)


def _wrap(tr: Tracer, fn: Callable, b: Boundary) -> Callable:
    span, hook, before = b.span, b.hook, b.before

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tr.active:
            return fn(*args, **kwargs)
        if before:
            hook(tr, args, kwargs, None)
        if span is None:
            out = fn(*args, **kwargs)
        else:
            idx = tr.begin(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.end(idx)
        if hook is not None and not before:
            hook(tr, args, kwargs, out)
        return out

    return traced


class Installed:
    """The wrappers one :func:`install` put in place; ``remove`` restores."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _resolve(owner: str):
    mod_name, _, cls_name = owner.partition(":")
    mod = importlib.import_module(mod_name)
    return mod, (getattr(mod, cls_name) if cls_name else None)


def install(tr: Tracer, policy_cls: type) -> Installed:
    """Wrap every boundary (plus ``policy_cls.select``/``update``) so
    calls record into ``tr``.  Call ``remove()`` on the result to undo."""
    inst = Installed()
    owner = f"{policy_cls.__module__}:{policy_cls.__qualname__}"
    policy = (Boundary(owner, "select", "select"), Boundary(owner, "update", "update"))
    try:
        for b in BOUNDARIES + policy:
            mod, cls = _resolve(b.owner)
            if cls is not None:
                if b.attr not in vars(cls):
                    raise AttributeError(f"{b.owner} defines no {b.attr}")
                inst.set(cls, b.attr, _wrap(tr, vars(cls)[b.attr], b))
                continue
            orig = getattr(mod, b.attr)
            wrapped = _wrap(tr, orig, b)
            targets = [mod] if b.scope == "module" else [
                m for name, m in list(sys.modules.items())
                if (name == "repro" or name.startswith("repro.")) and m is not None
            ]
            for m in targets:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        inst.set(m, name, wrapped)
    except BaseException:
        inst.remove()
        raise
    return inst


# -- span arithmetic -----------------------------------------------------------


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered = 0.0
        cursor = start
        for lo, hi in sorted(
            (spans[c][START], spans[c][END]) for c in children.get(i, ())
        ):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def totals(spans: Sequence[Sequence]) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
    """Per span name: summed duration, summed self time, call count."""
    dur: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for s, st in zip(spans, self_times(spans)):
        dur[s[NAME]] += s[END] - s[START]
        own[s[NAME]] += st
        calls[s[NAME]] += 1
    return dur, own, calls


def write_spans(path: Path, spans: Sequence[Sequence], meta: dict) -> None:
    """Write the spans as JSON: ``meta`` plus one row per span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(
            {
                "meta": meta,
                "fields": ["name", "start_s", "end_s", "parent", "epoch"],
                "spans": [list(s) for s in spans],
            },
            fh,
        )
    os.replace(tmp, path)
