"""Per-layer counters for divmono, installed from outside the package.

Every public function of the layer modules is wrapped, and the wrapper is
bound in place of the original under every name that any divmono module
holds for it, so calls between modules go through it too. No file of the
package changes. A wrapper counts calls, total time, self time (the part
of its span not covered by spans of other layers) and, for integer
results, their bit length. Hit rates come from cache_info() of every
functools cache found in the package.
"""

from __future__ import annotations

import importlib
import sys
import time

PACKAGE = "divmono"
LAYERS = ("arith", "gl2", "frobenius", "obstruction", "curves", "cli")
# functions whose distinct argument tuples are counted, to show repeated work
DISTINCT_ARGS = {"curves.count_points"}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


def _short(obj) -> str:
    module = getattr(obj, "__module__", "") or ""
    return f"{module.removeprefix(PACKAGE + '.')}.{obj.__qualname__}"


def find_caches() -> dict:
    """Every functools cache held by a divmono module or by a class defined
    in one, keyed by layer-qualified name."""
    found = {}
    for mod in _package_modules():
        spaces = [vars(mod)]
        spaces += [vars(v) for v in vars(mod).values()
                   if isinstance(v, type) and v.__module__ == mod.__name__]
        for space in spaces:
            for obj in space.values():
                obj = getattr(obj, "__func__", obj)  # staticmethod, classmethod
                if callable(getattr(obj, "cache_clear", None)) and \
                        callable(getattr(obj, "cache_info", None)):
                    found.setdefault(_short(obj), obj)
    return found


class Tracer:
    """Counters for one workload process; install() once, before any call."""

    def __init__(self, caches: dict):
        self.caches = caches
        self.stats = {}  # name -> [calls, total ns, self ns, result bits]
        self.lookups = {name: [0, 0] for name in caches}  # hits, misses
        self.distinct = {name: 0 for name in DISTINCT_ARGS}
        self._seen = {name: set() for name in DISTINCT_ARGS}
        self._stack = []

    def install(self):
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not callable(obj) or isinstance(obj, type)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{name}", layer, obj))
        for mod in _package_modules():
            for name, obj in list(vars(mod).items()):
                original, wrapper = wrapped.get(id(obj), (None, None))
                if original is obj:
                    setattr(mod, name, wrapper)

    def _wrap(self, name, layer, fn):
        stat = self.stats.setdefault(name, [0, 0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns
        seen = self._seen.get(name)

        def traced(*args, **kwargs):
            frame = [layer, 0]  # this span's layer, ns covered by other layers
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += frame[1] if parent[0] == layer else elapsed
            if type(result) is int:
                stat[3] += result.bit_length()
            if seen is not None:
                seen.add(_key(args, kwargs))
            return result

        return traced

    def end_epoch(self):
        """Harvest cache statistics and distinct-argument sets; called just
        before every cache clear and once at the end."""
        for name, cache in self.caches.items():
            info = cache.cache_info()
            self.lookups[name][0] += info.hits
            self.lookups[name][1] += info.misses
        for name, seen in self._seen.items():
            self.distinct[name] += len(seen)
            seen.clear()

    def report(self, rounds: int) -> dict:
        """Per-function counters per round, keyed '<layer>.<function>.<field>'."""
        out = {}
        for name, (calls, total, own, bits) in self.stats.items():
            out[f"{name}.calls"] = calls / rounds
            out[f"{name}.s"] = total / 1e9 / rounds
            out[f"{name}.self_s"] = own / 1e9 / rounds
            out[f"{name}.bits"] = bits / rounds
        for name, (hits, misses) in self.lookups.items():
            out[f"{name}.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
        for name, count in self.distinct.items():
            calls = self.stats.get(name, [0])[0]
            out[f"{name}.unique_frac"] = count / calls if calls else 0.0
        return out


def _key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key
