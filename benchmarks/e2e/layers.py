"""Charge host time to this repo's layers from a cProfile run.

The layers are the modules of ``src/repro``.  A profiled function is
charged to the layer of the file it is defined in.  Builtins are not
profiled separately (``cProfile.Profile(builtins=False)``), so their
time is already part of the calling function's self time; stdlib and
harness frames have no layer of their own and their self time is split
over their callers in proportion to the time each caller spent in them.
What still has no layer (a cycle, or the top of the stack) is ``other``.
The ``obs`` package is the tracing instrument itself; its frames are
charged to ``trace`` and kept out of the shares.
"""

from __future__ import annotations

import os

#: The declared layers, in stack order.  Each gets ``<layer>.self_s``,
#: ``<layer>.share`` and ``<layer>.calls_in``.
LAYERS = (
    "sim", "mpiio",
    "core.middleware", "core.redirector", "core.identifier",
    "core.cost_model", "core.tables", "core.space", "core.rebuilder",
    "pfs.client", "pfs.layout", "pfs.oscache", "pfs.server", "pfs.filesystem",
    "network", "devices", "intervals", "kvstore", "workloads", "iosig",
    "cluster", "other",
)
TRACE = "trace"

#: Whole packages (every submodule) -> layer.
PACKAGE_LAYERS = {
    "sim": "sim",
    "mpiio": "mpiio",
    "network": "network",
    "devices": "devices",
    "kvstore": "kvstore",
    "workloads": "workloads",
    "iosig": "iosig",
    "cluster": "cluster",
    "obs": TRACE,
    # Tooling that never runs inside a measured campaign.
    "analysis": "other",
    "bench": "other",
    "experiments": "other",
    "parallel": "other",
}

#: Single modules -> layer.  ``core`` and ``pfs`` are split module by
#: module, so a new module there must be given a layer here.
MODULE_LAYERS = {
    "core": "core.middleware",
    "core.middleware": "core.middleware",
    "core.metrics": "core.middleware",
    # Alternative I/O layers of the core package (CARL, memory cache).
    "core.carl": "core.middleware",
    "core.memcache": "core.middleware",
    "core.redirector": "core.redirector",
    "core.identifier": "core.identifier",
    "core.policy": "core.identifier",
    "core.cost_model": "core.cost_model",
    "core.tables": "core.tables",
    "core.space": "core.space",
    "core.rebuilder": "core.rebuilder",
    "pfs": "pfs.filesystem",
    "pfs.client": "pfs.client",
    "pfs.layout": "pfs.layout",
    "pfs.oscache": "pfs.oscache",
    "pfs.server": "pfs.server",
    "pfs.filesystem": "pfs.filesystem",
    "pfs.content": "pfs.filesystem",
    "intervals": "intervals",
    # Package root, entry points and shared helpers.
    "": "other",
    "__main__": "other",
    "_version": "other",
    "cliutil": "other",
    "errors": "other",
    "units": "other",
}


def layer_of_module(module: str) -> str | None:
    """Layer of a module named relative to ``repro`` (``"pfs.oscache"``)."""
    if module in MODULE_LAYERS:
        return MODULE_LAYERS[module]
    return PACKAGE_LAYERS.get(module.split(".")[0])


def module_of_file(path: str, repro_dir: str) -> str | None:
    """Dotted module name of ``path`` relative to ``repro_dir``, if inside."""
    rel = os.path.relpath(os.path.realpath(path), repro_dir)
    if rel.startswith("..") or not rel.endswith(".py"):
        return None
    parts = rel[:-3].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def attribute(stats: dict, repro_dir: str) -> dict[str, float]:
    """Per-layer metrics from ``pstats.Stats(...).stats``.

    Returns ``<layer>.self_s``, ``<layer>.share`` and ``<layer>.calls_in``
    for every declared layer, plus ``trace.self_s``.  ``calls_in`` counts
    calls into the layer from a frame outside it.
    """
    repro_dir = os.path.realpath(repro_dir)
    own = {}
    for func in stats:
        module = module_of_file(func[0], repro_dir)
        own[func] = None if module is None else layer_of_module(module) or "other"

    memo: dict = {}

    def split(func, active: set) -> dict[str, float]:
        """Fractions of ``func``'s self time owed to each layer."""
        layer = own.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        if func in active or func not in stats:
            return {"other": 1.0}
        callers = stats[func][4]
        total = sum(entry[2] for entry in callers.values())
        if total <= 0:
            return {"other": 1.0}
        active.add(func)
        out: dict[str, float] = {}
        for caller, entry in callers.items():
            weight = entry[2] / total
            for layer, frac in split(caller, active).items():
                out[layer] = out.get(layer, 0.0) + frac * weight
        active.discard(func)
        memo[func] = out
        return out

    self_s = dict.fromkeys((*LAYERS, TRACE), 0.0)
    calls_in = dict.fromkeys(LAYERS, 0)
    for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
        for layer, frac in split(func, set()).items():
            self_s[layer] += tottime * frac
        layer = own[func]
        if layer in calls_in:
            for caller, entry in callers.items():
                if own.get(caller) != layer:
                    calls_in[layer] += entry[0]

    total = sum(self_s[layer] for layer in LAYERS)
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.share"] = self_s[layer] / total if total else 0.0
        metrics[f"{layer}.calls_in"] = calls_in[layer]
    metrics[f"{TRACE}.self_s"] = self_s[TRACE]
    return metrics
