"""Per-layer self-time ledger for a traced campaign process.

Installed by ``sitecustomize.py`` in this directory when
``CAMPAIGNBENCH_TRACE_DIR`` is set.  It wraps public functions and
methods of the ``repro`` modules from the outside, as each module
finishes importing, so nothing inside ``src/`` is instrumented.  Every
process of the campaign (the CLI and each worker) keeps its own ledger
and writes it to ``<trace dir>/<pid>.json`` at exit.

A wrapped call opens a frame on a per-thread stack.  Its *self* time is
its duration minus the time of the wrapped calls nested inside it, so
the layer times of one process add up to at most its wall time.
Reference counts are taken only at the outermost frame of a layer, so a
streamed ``run`` that feeds chunks back through ``run`` counts each
reference once.

Simulator calls made while the kernel guard is on the stack are its
shadow-verify replays: they are charged to ``mem.kernels.guard_s`` and
their references are not counted again.
"""

from __future__ import annotations

import atexit
import functools
import importlib.abc
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

GUARD = "mem.kernels.guard_s"

#: Every key a merged ledger can hold.  ``guard_refs`` and
#: ``verified_refs`` are the two sides of ``verified_refs_frac``.
METRICS = (
    *(f"apps.{app}.{m}" for app in ("lu", "cg", "fft", "barnes_hut", "volrend") for m in ("gen_s", "refs")),
    *(
        f"mem.{sim}.{m}"
        for sim in ("stack_distance", "cache", "setassoc", "hierarchy", "multiproc")
        for m in ("sim_s", "refs")
    ),
    *(
        f"mem.kernels.{m}"
        for m in (
            "kernel_s", "state_s", "guard_s", "chunks", "verified_chunks",
            "fallback_chunks", "guard_refs", "verified_refs",
        )
    ),
    "mem.shards.write_s", "mem.shards.read_s", "mem.shards.bytes", "mem.streamsim.checkpoint_s",
    "obs.timeline.record_s", "obs.timeline.rows", "obs.tracing.span_s", "obs.tracing.spans",
    "runtime.checkpoint.write_s", "runtime.journal.append_s", "core.curves_s",
)


class Ledger:
    """Self time per layer metric plus counters, for one process."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self, layer: str) -> bool:
        return any(frame[0] == layer for frame in self._stack())

    def call(self, layer: str, func: Callable, *args, **kwargs):
        """Run ``func`` as one frame of ``layer``."""
        stack = self._stack()
        frame = [layer, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += duration
            with self._lock:
                self.seconds[layer] += duration - frame[1]

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] += amount

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {"seconds": dict(self.seconds), "counts": dict(self.counts)}


LEDGER = Ledger()


def _timed(layer: str, func: Callable, count: Optional[Callable] = None) -> Callable:
    """Wrap ``func`` as a frame of ``layer``.

    ``count(args, kwargs)`` runs before the call and returns a callback
    ``(result) -> None`` that records the call's counters, or ``None``.
    Simulator calls made under the kernel guard are charged to it.
    """
    replayable = layer.endswith(".sim_s")

    def wrapper(*args, **kwargs):
        if replayable and LEDGER.active(GUARD):
            return func(*args, **kwargs)
        after = count(args, kwargs) if count is not None else None
        result = LEDGER.call(layer, func, *args, **kwargs)
        if after is not None:
            after(result)
        return result

    return functools.wraps(func)(wrapper)


def _timed_generator(layer: str, func: Callable) -> Callable:
    """Wrap a generator function: each ``next()`` is one frame."""

    def wrapper(*args, **kwargs):
        gen = LEDGER.call(layer, func, *args, **kwargs)
        try:
            while True:
                try:
                    item = LEDGER.call(layer, next, gen)
                except StopIteration:
                    return
                yield item
        finally:
            gen.close()

    return functools.wraps(func)(wrapper)


# -- counters -----------------------------------------------------------------


def _layer_of(key: str) -> str:
    """The time metric of the layer a ``<layer>.refs`` counter belongs to."""
    prefix = key.rsplit(".", 1)[0]
    return prefix + (".gen_s" if prefix.startswith("apps.") else ".sim_s")


def _refs_of_result(key: str) -> Callable:
    layer = _layer_of(key)

    def count(args, kwargs):
        if LEDGER.active(layer):
            return None
        return lambda result: LEDGER.add(key, len(result))

    return count


def _refs_of_arg(key: str, index: int = 1) -> Callable:
    layer = _layer_of(key)

    def count(args, kwargs):
        if LEDGER.active(layer):
            return None
        refs = len(args[index] if len(args) > index else kwargs["trace"])
        return lambda result: LEDGER.add(key, refs)

    return count


def _multiproc_refs(args, kwargs):
    if LEDGER.active("mem.multiproc.sim_s"):
        return None
    memory = args[0]
    before = sum(s.accesses for s in memory.stats)
    return lambda result: LEDGER.add(
        "mem.multiproc.refs", sum(s.accesses for s in memory.stats) - before
    )


def _shard_bytes(args, kwargs):
    writer = args[0]

    def after(entry):
        LEDGER.add("mem.shards.bytes", (writer.directory / entry["name"]).stat().st_size)

    return after


def _timeline_rows(args, kwargs):
    return lambda row: LEDGER.add("obs.timeline.rows", row is not None)


def _spans_written(args, kwargs):
    return lambda result: LEDGER.add("obs.tracing.spans", 1)


def _guard_counts(kernels_module) -> Callable:
    def count(args, kwargs):
        if LEDGER.active(GUARD):
            return None  # the oracle replay re-entering the guard
        kind, trace = args[0], args[2]
        before = kernels_module.kernel_state(kind)

        def after(ran):
            now = kernels_module.kernel_state(kind)
            refs = len(trace)
            verified = now["verified"] - before["verified"]
            LEDGER.add("mem.kernels.guard_refs", refs)
            LEDGER.add("mem.kernels.chunks", now["chunks"] - before["chunks"])
            LEDGER.add("mem.kernels.verified_chunks", verified)
            LEDGER.add("mem.kernels.verified_refs", refs if verified else 0)
            LEDGER.add(
                "mem.kernels.fallback_chunks",
                now["fallback_chunks"] - before["fallback_chunks"],
            )

        return after

    return count


# -- what to wrap, per module ---------------------------------------------------


def _patch_method(cls, name: str, layer: str, count: Optional[Callable] = None) -> None:
    raw = cls.__dict__[name]
    if isinstance(raw, classmethod):
        setattr(cls, name, classmethod(_timed(layer, raw.__func__, count)))
    else:
        setattr(cls, name, _timed(layer, raw, count))


def _patch_function(module, name: str, layer: str, count: Optional[Callable] = None) -> None:
    setattr(module, name, _timed(layer, getattr(module, name), count))


def _apps(class_name: str, app: str, methods=("trace_for_processor",)) -> Callable:
    def patch(module) -> None:
        cls = getattr(module, class_name)
        for method in methods:
            _patch_method(cls, method, f"apps.{app}.gen_s", _refs_of_result(f"apps.{app}.refs"))

    return patch


def _simulator(class_name: str, layer: str, methods=("run",)) -> Callable:
    def patch(module) -> None:
        cls = getattr(module, class_name)
        for method in methods:
            _patch_method(cls, method, f"mem.{layer}.sim_s", _refs_of_arg(f"mem.{layer}.refs"))
        for method in ("state_dict", "load_state_dict"):
            _patch_method(cls, method, "mem.kernels.state_s")

    return patch


def _stack_distance(module) -> None:
    _simulator("StackDistanceRun", "stack_distance", ("feed",))(module)
    _patch_method(
        module.StackDistanceProfiler,
        "profile",
        "mem.stack_distance.sim_s",
        _refs_of_arg("mem.stack_distance.refs"),
    )
    _patch_function(
        module,
        "profile_trace",
        "mem.stack_distance.sim_s",
        _refs_of_arg("mem.stack_distance.refs", 0),
    )


def _multiproc(module) -> None:
    _patch_method(module.MultiprocessorMemory, "run", "mem.multiproc.sim_s", _multiproc_refs)


def _kernels(module) -> None:
    for kind, func in list(module.KERNELS.items()):
        wrapped = _timed("mem.kernels.kernel_s", func)
        module.KERNELS[kind] = wrapped
        setattr(module, func.__name__, wrapped)
    _patch_function(module, "guard_run", GUARD, _guard_counts(module))


def _shards(module) -> None:
    _patch_method(module.ShardWriter, "write_shard", "mem.shards.write_s", _shard_bytes)
    _patch_method(module.ShardWriter, "finalize", "mem.shards.write_s")
    streaming = module.StreamingTrace
    streaming.iter_chunks = _timed_generator("mem.shards.read_s", streaming.__dict__["iter_chunks"])
    _patch_method(streaming, "load", "mem.shards.read_s")
    _patch_function(module, "read_manifest", "mem.shards.read_s")
    for name in ("save_sim_checkpoint", "load_sim_checkpoint"):
        _patch_function(module, name, "mem.streamsim.checkpoint_s")


def _timeline(module) -> None:
    _patch_method(module.TimelineRecorder, "record", "obs.timeline.record_s", _timeline_rows)
    _patch_function(module, "record_cache_chunk", "obs.timeline.record_s")


def _tracing(module) -> None:
    _patch_method(module.SpanWriter, "write", "obs.tracing.span_s", _spans_written)
    _patch_method(module.Tracer, "ingest", "obs.tracing.span_s")
    _patch_method(module.Tracer, "record", "obs.tracing.span_s")


def _checkpoint(module) -> None:
    for name in ("save_outcome", "save_failure", "write_manifest", "write_summary"):
        _patch_method(module.CheckpointStore, name, "runtime.checkpoint.write_s")


def _journal(module) -> None:
    _patch_method(module.Journal, "append", "runtime.journal.append_s")


def _curves(module) -> None:
    for name in ("from_model", "from_profile", "knees"):
        _patch_method(module.MissRateCurve, name, "core.curves_s")


PATCHES: Dict[str, Callable] = {
    "repro.apps.lu.trace": _apps("LUTraceGenerator", "lu"),
    "repro.apps.cg.trace": _apps("CGTraceGenerator", "cg"),
    "repro.apps.fft.trace": _apps("FFTTraceGenerator", "fft"),
    "repro.apps.barnes_hut.trace": _apps(
        "BarnesHutTraceGenerator",
        "barnes_hut",
        ("trace_for_processor", "build_trace_for_processor", "moments_trace_for_processor"),
    ),
    "repro.apps.volrend.trace": _apps("VolrendTraceGenerator", "volrend"),
    "repro.mem.stack_distance": _stack_distance,
    "repro.mem.cache": _simulator("FullyAssociativeCache", "cache"),
    "repro.mem.setassoc": _simulator("SetAssociativeCache", "setassoc"),
    "repro.mem.hierarchy": lambda m: _patch_method(
        m.CacheHierarchy, "run", "mem.hierarchy.sim_s", _refs_of_arg("mem.hierarchy.refs")
    ),
    "repro.mem.multiproc": _multiproc,
    "repro.mem.kernels": _kernels,
    "repro.mem.shards": _shards,
    "repro.obs.timeline": _timeline,
    "repro.obs.tracing": _tracing,
    "repro.runtime.checkpoint": _checkpoint,
    "repro.runtime.journal": _journal,
    "repro.core.curves": _curves,
}


class _PatchingLoader(importlib.abc.Loader):
    """Delegates to the real loader, then wraps the module's layer API."""

    def __init__(self, loader, patch: Callable) -> None:
        self._loader = loader
        self._patch = patch

    def __getattr__(self, name: str):
        return getattr(self._loader, name)

    def create_module(self, spec):
        return self._loader.create_module(spec)

    def exec_module(self, module) -> None:
        self._loader.exec_module(module)
        self._patch(module)


class _PatchingFinder(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        patch = PATCHES.get(name)
        if patch is None:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                spec.loader = _PatchingLoader(spec.loader, patch)
                return spec
        return None


def install(trace_dir: str) -> None:
    """Wrap every layer module as it loads; dump the ledger at exit."""
    already = [name for name in PATCHES if name in sys.modules]
    if already:
        raise RuntimeError(f"layer modules imported before tracing: {already}")
    sys.meta_path.insert(0, _PatchingFinder())
    out = Path(trace_dir) / f"{os.getpid()}.json"
    atexit.register(lambda: out.write_text(json.dumps(LEDGER.to_dict())))


def merge(trace_dir: Path) -> Dict[str, float]:
    """Sum the ledgers every process of one campaign left in ``trace_dir``."""
    totals: Dict[str, float] = defaultdict(float)
    for path in sorted(Path(trace_dir).glob("*.json")):
        ledger = json.loads(path.read_text())
        for part in ("seconds", "counts"):
            for key, value in ledger[part].items():
                totals[key] += value
    return dict(totals)
