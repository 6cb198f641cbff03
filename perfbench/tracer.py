"""Spans around calls into unirdc's public functions, recorded from outside.

Each wrapped function records a span (name, start, end, parent) in memory.
A function is wrapped at every name it is looked up by: the tracer replaces
the original object wherever a ``unirdc`` module binds it, so calls through
``from .universal import sphere_mass`` are caught as well as calls through
``universal.sphere_mass``. Functions called once per codeword draw
(``distortion``, ``sampler.draw``) are not wrapped; the benchmark takes
their counts from the outputs (the indices on the wire). The few hooks here
count work fixed by a call's arguments: table and sphere sizes, covering
pairs, and the largest enumeration.
"""
from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from time import perf_counter


def _add(key: str, value_of):
    def hook(counters, args, result):
        counters[key] += value_of(args, result)

    return hook


def _enum_max(counters, args, result):
    counters["core.enum_max"] = max(counters["core.enum_max"], args[0])


def _covering_hook(counters, args, result):
    source_class, spec = args[0], args[2]
    n = source_class.distribution.n
    counters["converse.covering_pairs"] += spec.repro_size**n * source_class.cardinality


# (module, function, span name, hook run on the arguments and result)
TARGETS = [
    ("unirdc.core", "check_enumerable", None, _enum_max),
    ("unirdc.lz78", "lz_parse", "lz78.parse", None),
    ("unirdc.universal", "build_universal_table", "universal.table",
     _add("universal.table_blocks", lambda a, r: r.size)),
    ("unirdc.universal", "sphere_mass", "universal.sphere",
     _add("universal.sphere_blocks_scanned", lambda a, r: a[3].size)),
    ("unirdc.distortion", "find_witness", "distortion.witness", None),
    ("unirdc.codec", "encode", "codec.encode", None),
    ("unirdc.codec", "decode", "codec.decode", None),
    ("unirdc.codec", "write_container", "codec.container_write", None),
    ("unirdc.codec", "read_container", "codec.container_read", None),
    ("unirdc.converse", "enumerate_type_class", "converse.type_class", None),
    ("unirdc.converse", "covering_lower_bound", "converse.covering", _covering_hook),
    ("unirdc.converse", "greedy_cover", "converse.greedy", None),
    ("unirdc.converse", "double_counting_check", "converse.double_count", None),
    ("unirdc.converse", "converse_length_bound", "converse.length_bound", None),
    ("unirdc.experiments", "run_experiment", "experiments.run", None),
    ("unirdc.experiments", "achievability_experiment", "experiments.achievability", None),
    ("unirdc.experiments", "converse_experiment", "experiments.converse", None),
]


class Tracer:
    """In-memory span recorder with install/uninstall of function wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: defaultdict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; the benchmark uses this for ``cli.run``."""
        i = len(self.start)
        self.name_id.append(self._name(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, hook):
        counters = self.counters

        if name is None:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(counters, args, result)
                return result
        elif hook is None:
            def wrapper(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                result = self.span(name, fn, *args, **kwargs)
                hook(counters, args, result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "unirdc" or k.startswith("unirdc.")]
        for module_name, attr, name, hook in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    # -- analysis ------------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        i = self._ids.get(name)
        return [e - s for n, s, e in zip(self.name_id, self.start, self.end) if n == i]

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: call count, inclusive seconds and self seconds.

        Self time is a span's duration minus the time its child spans cover;
        children run inside their parent on one thread, so their durations
        simply add.
        """
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: defaultdict[str, int] = defaultdict(int)
        inclusive: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        for i, nid in enumerate(self.name_id):
            name = self.names[nid]
            d = self.end[i] - self.start[i]
            calls[name] += 1
            inclusive[name] += d
            own[name] += d - child[i]
        return calls, inclusive, own

    def write(self, path) -> None:
        """Write every span as CSV: id, name, parent id, start and end seconds."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("span,name,parent,start_s,end_s\n")
            for i, (nid, p, s, e) in enumerate(zip(self.name_id, self.parent, self.start, self.end)):
                f.write(f"{i},{self.names[nid]},{p},{s:.9f},{e:.9f}\n")
