"""Call tracing from outside the program.

The tracer replaces, for the duration of a ``with`` block, the names that
softshare modules look up when they call one another (``softshare.train``'s
``prior_grads``, ``softshare.codec``'s ``huffman_decode``, the ``step``
method on ``softshare.train.AdamState``, ...) with wrappers that time each
call. Nothing inside ``src/`` changes.

Every call is a span. Spans nest through a stack, so a span's self time is
its duration minus the time its child spans cover. Spans are aggregated in
memory per layer name; optional counters (elements, symbols, bytes) are taken
from each call's arguments and result.

A target whose module, class or attribute no longer exists is recorded as
absent and skipped, so a change that deletes or fuses a function leaves the
benchmark running. Every replaced name is restored on exit, also when the
traced code raises.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Target:
    site: str                 # module whose global (or class) is replaced
    attr: str                 # "name" or "Class.method"
    layer: str                # metric prefix, "<module>.<function>"
    count: Optional[Callable] = None  # (args, kwargs, result) -> {counter: n}


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _prior_elements(args, kwargs, result):
    w, m = args[0], args[1]
    return {"elements": int(getattr(w, "size", len(w))) * m.n_components}


def _huffman_encode_symbols(args, kwargs, result):
    return {"symbols": len(args[0])}


def _huffman_decode_symbols(args, kwargs, result):
    return {"symbols": len(result)}


def _saved_bytes(args, kwargs, result):
    return {"bytes": _file_bytes(args[1])}


def _loaded_bytes(args, kwargs, result):
    return {"bytes": _file_bytes(args[0])}


def _encoded(args, kwargs, result):
    blob, report = result
    return {"blob_bytes": len(blob), "nnz": report.total_nnz,
            "entries": sum(l.n_entries for l in report.layers)}


def _targets(site: str, names: dict) -> list:
    out = []
    for attr, spec in names.items():
        layer, count = spec if isinstance(spec, tuple) else (spec, None)
        out.append(Target(site, attr, layer, count))
    return out


# Each name is wrapped in the module that looks it up, so calls between
# softshare modules are seen; the same function reached through two modules
# gets two targets sharing one layer name.
TARGETS = (
    _targets("softshare.pipeline", {
        "run_pipeline": "pipeline.run_pipeline",
        "pretrain_network": "pipeline.pretrain_network",
        "synthetic_digits": "data.synthetic_digits",
        "init_mixture": "mixture.init_mixture",
        "retrain": "train.retrain",
        "error_loss_and_grad": "net.error_loss_and_grad",
        "evaluate": "net.evaluate",
        "merge_pass": "postprocess.merge_pass",
        "quantize": "postprocess.quantize",
        "save_quantized": "postprocess.save_quantized",
        "load_quantized": "postprocess.load_quantized",
        "encode_network": ("codec.encode_network", _encoded),
        "decode_network": "codec.decode_network",
        "save_checkpoint": ("checkpoint.save_checkpoint", _saved_bytes),
        "load_checkpoint": ("checkpoint.load_checkpoint", _loaded_bytes),
    })
    + _targets("softshare.train", {
        "prior_grads": ("mixture.prior_grads", _prior_elements),
        "complexity_loss": "train.complexity_loss",
        "log_prior": "mixture.log_prior",
        "error_loss_and_grad": "net.error_loss_and_grad",
        "evaluate": "net.evaluate",
        "AdamState.step": "train.AdamState.step",
    })
    + _targets("softshare.postprocess", {
        "responsibilities": "mixture.responsibilities",
    })
    + _targets("softshare.codec", {
        "encode_network": ("codec.encode_network", _encoded),
        "decode_network": "codec.decode_network",
        "rel_encode": "codec.rel_encode",
        "huffman_encode": ("codec.huffman_encode", _huffman_encode_symbols),
        "huffman_decode": ("codec.huffman_decode", _huffman_decode_symbols),
    })
    + _targets("softshare.checkpoint", {
        "save_checkpoint": ("checkpoint.save_checkpoint", _saved_bytes),
        "load_checkpoint": ("checkpoint.load_checkpoint", _loaded_bytes),
    })
    + _targets("softshare.net", {"evaluate": "net.evaluate"})
    + _targets("softshare.data", {"synthetic_digits": "data.synthetic_digits"})
)


class Tracer:
    """Context manager that wraps every target and aggregates its spans."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats: dict[str, LayerStats] = {}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.absent = []
        try:
            for t in self.targets:
                self._install(t)
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._uninstall()

    def _install(self, t: Target) -> None:
        try:
            owner = importlib.import_module(t.site)
        except ImportError:
            owner = None
        *path, name = t.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, name, None)
        if owner is None or not callable(fn):
            self.absent.append(f"{t.site}.{t.attr}")
            return
        self._restore.append((owner, name, fn))
        setattr(owner, name, self._wrap(fn, t))

    def _uninstall(self) -> None:
        while self._restore:
            owner, name, fn = self._restore.pop()
            setattr(owner, name, fn)

    def _wrap(self, fn, t: Target):
        stats = self.stats.setdefault(t.layer, LayerStats())
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - children[0]
                stats.durations.append(dt)
            if t.count is not None:
                for key, n in t.count(args, kwargs, result).items():
                    stats.counters[key] = stats.counters.get(key, 0) + n
            return result

        return traced

    def self_total(self) -> float:
        return sum(s.self_s for s in self.stats.values())

    def layer_metric(self, name: str, per: int) -> float:
        """Value of ``<layer>.<stat>`` averaged over ``per`` traced bodies;
        0 for a layer that was never called."""
        layer, stat = name.rsplit(".", 1)
        s = self.stats.get(layer, LayerStats())
        if stat == "calls":
            return s.calls / per
        if stat == "s":
            return s.total_s / per
        if stat == "self_s":
            return s.self_s / per
        if stat in ("ms_p50", "ms_p90"):
            q = 0.5 if stat == "ms_p50" else 0.9
            return 1e3 * float(np.quantile(s.durations, q)) if s.durations else 0.0
        return s.counters.get(stat, 0) / per
