"""Outside-in per-layer tracing of hermk.

A layer is one hermk module. The tracer wraps every public function,
public method and public-class constructor defined in each layer, and
rebinds the wrapper in every hermk namespace that holds the original
(cli binds `from .koszul import ...`, linalg calls its own globals).
hermk itself is not changed; uninstall() restores every binding.

Each wrapped call records a span (name, start, end, parent, request
id) in memory. A span's self time is its duration minus the time its
child spans cover, including the tracer's own work around them, so the
bookkeeping lands in no layer. A name's busy time counts only its
outermost spans, so recursion is not counted twice.

linalg.q, linalg.vec and linalg.shape are not wrapped: each makes more
than 300k calls per pass, and their cost lands in the caller's self
time instead.
"""

from __future__ import annotations

import gzip
import itertools
import sys
import time
import types
from array import array
from fractions import Fraction

LAYERS = (
    "_qkernels",
    "linalg",
    "core",
    "multilinear",
    "koszul",
    "symfun",
    "homology",
    "cubes",
    "instances",
    "cli",
)
UNWRAPPED = {"linalg.q", "linalg.vec", "linalg.shape"}
# id, name, start, end, parent id, request, outer flags, extent
SPAN_FIELDS = 8


def _freeze(rows) -> tuple:
    return tuple(tuple(r) for r in rows)


def _size(m) -> int:
    return len(m) * (len(m[0]) if m else 0)


def _space_key(v) -> tuple:
    return (v.labels, v.gram)


# name -> (metric, function of the call's args giving the input key);
# the metric is the share of calls whose key was already seen earlier
# in the same request, i.e. wasted work. The key functions read fields
# directly: calling a wrapped method (such as .key()) from here would
# record spans that the program never made.
REPEAT_KEYS = {
    "linalg.rref": ("repeat_frac", lambda a: _freeze(a[0])),
    "linalg.in_span": ("repeat_basis_frac", lambda a: _freeze(a[0])),
    "multilinear.tensor_power": ("repeat_frac", lambda a: (_space_key(a[0]), a[1])),
    "multilinear.sym_power": ("repeat_frac", lambda a: (_space_key(a[0]), a[1])),
    "multilinear.ext_power": ("repeat_frac", lambda a: (_space_key(a[0]), a[1])),
    "homology.homology": (
        "repeat_frac",
        lambda a: (
            tuple(sorted(a[0].dims.items())),
            tuple(sorted((n, _freeze(m)) for n, m in a[0].diffs.items())),
            a[1],
        ),
    ),
    "cubes.cub": ("repeat_frac", lambda a: (_space_key(a[0].ambient), a[0].chain)),
}

# name -> (metric, function of the call's args giving an entry count)
CELLS = {
    "_qkernels.matmul": ("cells", lambda a: _size(a[0]) + _size(a[1])),
    "_qkernels.rref": ("cells", lambda a: _size(a[0])),
    "_qkernels.det": ("cells", lambda a: _size(a[0])),
    "_qkernels.permanent": ("cells", lambda a: _size(a[0])),
    "linalg.kron": ("cells_out", lambda a: _size(a[0]) * _size(a[1])),
}


class Tracer:
    """Wraps hermk's layers and records spans while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        # SPAN_FIELDS floats per span, kept out of the garbage
        # collector's sight: a list of tuples made full collections scan
        # every recorded span and doubled the tracing overhead
        self.spans = array("d")
        self._ids = itertools.count()
        self.request = -1
        self.counts: dict[str, dict[str, int]] = {}
        self._seen: dict[int, set] = {}
        self._rebound: list = []
        self._stack = [-1]
        self._active: dict[int, int] = {}

    # -- installation -------------------------------------------------

    def _targets(self):
        """(owner, attribute, layer, name) for every wrapped callable."""
        for lid, layer in enumerate(LAYERS):
            mod = sys.modules[f"hermk.{layer}"]
            prefix = mod.__name__
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                home = getattr(obj, "__module__", None) or ""
                if home != prefix and not home.startswith(prefix + "."):
                    continue
                if isinstance(obj, type):
                    for mattr, meth in sorted(vars(obj).items()):
                        if mattr == "__init__":
                            yield obj, mattr, lid, f"{layer}.{attr}.init"
                        elif not mattr.startswith("_") and isinstance(
                            meth, (types.FunctionType, staticmethod, classmethod)
                        ):
                            yield obj, mattr, lid, f"{layer}.{attr}.{mattr}"
                elif callable(obj) and f"{layer}.{attr}" not in UNWRAPPED:
                    yield mod, attr, lid, f"{layer}.{attr}"

    def install(self) -> None:
        import hermk  # noqa: F401  (loads every layer)

        wrapped: dict[int, object] = {}
        for owner, attr, lid, name in self._targets():
            orig = vars(owner)[attr]
            if isinstance(orig, (staticmethod, classmethod)):
                new = type(orig)(self._wrap(orig.__func__, lid, name))
            else:
                new = self._wrap(orig, lid, name)
                if isinstance(owner, types.ModuleType):
                    wrapped[id(orig)] = (orig, new)
                    continue
            self._rebound.append((owner, attr, orig))
            setattr(owner, attr, new)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "hermk" or modname.startswith("hermk.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._rebound.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._rebound):
            setattr(owner, attr, orig)
        self._rebound.clear()

    def begin_request(self, rid: int) -> None:
        self.request = rid
        self._seen = {}

    # -- the wrapper --------------------------------------------------

    def _wrap(self, fn, lid: int, name: str):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(lid)
        record, stack, active = self.spans.extend, self._stack, self._active
        ids = self._ids
        clock = time.perf_counter
        repeat_key = REPEAT_KEYS.get(name, (None, None))[1]
        cell_metric, cells = CELLS.get(name, (None, None))
        is_mat = name == "linalg.mat"
        is_mul = name == "symfun.MonoPoly.mul"
        # every counter starts at 0, so metrics() emits it even if the
        # wrapped callable is never called
        counts = self.counts.setdefault(name, {})
        if repeat_key is not None:
            counts["repeats"] = 0
        if cells is not None:
            counts[cell_metric] = 0
        if is_mul:
            counts["terms_out"] = 0
        if is_mat:
            counts.update(entries=0, already_q=0)
        tracer = self

        def wrapper(*args, **kw):
            t_in = clock()
            if repeat_key is not None:
                seen = tracer._seen.setdefault(nid, set())
                key = hash(repeat_key(args))
                if key in seen:
                    counts["repeats"] += 1
                seen.add(key)
            if cells is not None:
                counts[cell_metric] += cells(args)
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            outer = not active.get(nid)
            active[nid] = active.get(nid, 0) + 1
            layer_outer = not active.get(~lid)
            active[~lid] = active.get(~lid, 0) + 1
            t0, t1 = clock(), None
            try:
                if is_mat:
                    # la.mat's rows may be generators; consume them here,
                    # inside its span as la.mat would, to count entries
                    rows = [tuple(r) for r in args[0]]
                    args = (rows,) + args[1:]
                result = fn(*args, **kw)
                t1 = clock()
                if is_mul:
                    counts["terms_out"] += len(result.terms)
                if is_mat:
                    counts["entries"] += sum(map(len, rows))
                    already = sum(isinstance(x, Fraction) for r in rows for x in r)
                    counts["already_q"] += already
            finally:
                if t1 is None:
                    t1 = clock()
                stack.pop()
                active[nid] -= 1
                active[~lid] -= 1
                flags = outer + 2 * layer_outer
                record((sid, nid, t0, t1, parent, tracer.request, flags, clock() - t_in))
            return result

        return wrapper

    # -- results ------------------------------------------------------

    def _records(self):
        columns = [self.spans[i::SPAN_FIELDS] for i in range(SPAN_FIELDS)]
        for sid, nid, t0, t1, parent, req, flags, extent in zip(*columns):
            yield int(sid), int(nid), t0, t1, int(parent), int(req), int(flags), extent

    def metrics(self) -> dict[str, float]:
        """Aggregate the recorded spans into per-name and per-layer
        calls, self_s and busy_s, plus the hook counters."""
        child: dict[int, float] = {}
        for _, _, _, _, parent, _, _, extent in self._records():
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + extent
        n = len(self.names)
        calls, self_s, busy = [0] * n, [0.0] * n, [0.0] * n
        layer_busy = [0.0] * len(LAYERS)
        for sid, nid, t0, t1, _, _, flags, _ in self._records():
            dur = t1 - t0
            calls[nid] += 1
            self_s[nid] += dur - child.get(sid, 0.0)
            if flags & 1:
                busy[nid] += dur
            if flags & 2:
                layer_busy[self.layer_of[nid]] += dur
        out: dict[str, float] = {}
        for lid, layer in enumerate(LAYERS):
            mine = [i for i in range(n) if self.layer_of[i] == lid]
            out[f"{layer}.calls"] = sum(calls[i] for i in mine)
            out[f"{layer}.self_s"] = sum(self_s[i] for i in mine)
            out[f"{layer}.busy_s"] = layer_busy[lid]
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
            out[f"{name}.busy_s"] = busy[nid]
            c = self.counts[name]
            for key, v in c.items():
                out[f"{name}.{key}"] = v
            if name in REPEAT_KEYS:
                metric = REPEAT_KEYS[name][0]
                out[f"{name}.{metric}"] = c["repeats"] / calls[nid] if calls[nid] else 0.0
            if "entries" in c:
                out[f"{name}.already_q_frac"] = c["already_q"] / c["entries"] if c["entries"] else 0.0
        return out

    def dump(self, path: str, tag: str) -> None:
        """Append the recorded spans to a gzip file as tab-separated
        lines: tag, request, span id, parent id, name, start, end."""
        with gzip.open(path, "at", encoding="utf-8", compresslevel=1) as fh:
            for sid, nid, t0, t1, parent, req, _, _ in self._records():
                fh.write(f"{tag}\t{req}\t{sid}\t{parent}\t{self.names[nid]}\t{t0:.9f}\t{t1:.9f}\n")
