"""Span tracer for the dgdescent benchmark.

The tracer lives only in the benchmark: `install` swaps wrappers in for
the public entry points of each layer (module) of the package, and
`uninstall` puts the originals back.  A module that imported a function
by name holds its own binding of it (``mcgauge.solve_affine`` is not
``linalg.solve_affine``), so every binding found in any ``dgdescent``
module is replaced, and `install` refuses to return while an original
is still reachable from a module or class namespace.

Each call becomes a span (name, start, end, parent).  Spans are kept in
flat arrays and summarised per pass: a span's self time is its duration
minus the durations of its direct children, and the pass root's self
time is the time no layer claimed ("unattributed").  Counters that the
hooks record (calls, system shapes, nonzeros, draws, distinct inputs)
depend only on the computation, so for a fixed seed they repeat exactly.
"""

import array
import functools
import gzip
import json
import sys
import time

ROOT = "pass"


class Tracer:
    def __init__(self):
        self.names = []
        self._name_index = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = []
        self.reset_counters()

    # -- spans -------------------------------------------------------------

    def name_id(self, name):
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name_id):
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(sid)
        return sid

    def close(self, sid):
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def graft(self, spans, parent):
        """Append spans recorded by another process under `parent`.

        perf_counter is CLOCK_MONOTONIC on Linux, so the child's times
        share the parent's time base."""
        base = len(self.start)
        for name, start, end, par in zip(spans["name"], spans["start"],
                                         spans["end"], spans["parent"]):
            self.name.append(self.name_id(spans["names"][name]))
            self.parent.append(parent if par < 0 else base + par)
            self.start.append(start)
            self.end.append(end)

    # -- counters ------------------------------------------------------------

    def reset_counters(self):
        self.counts = {}
        self.maxima = {}
        self.seen = {}

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def see(self, name, key, keep=None):
        """Record one input of `name`; `keep` is held so ids stay unique."""
        self.seen.setdefault(name, {})[key] = keep

    def counter_snapshot(self):
        out = dict(self.counts)
        for name, keys in self.seen.items():
            key = name + ".distinct"
            out[key] = out.get(key, 0) + len(keys)
        out.update(self.maxima)
        return out

    def merge_counters(self, snapshot):
        """Add the counters of a traced child process to this pass.

        Distinct inputs are counted per process, as a cache would be."""
        for key, val in snapshot.items():
            if key.startswith("linalg.dense.max_"):
                continue
            self.counts[key] = self.counts.get(key, 0) + val
        cells = snapshot.get("linalg.dense.max_cells", -1)
        if cells > self.maxima.get("linalg.dense.max_cells", -1):
            for key, val in snapshot.items():
                if key.startswith("linalg.dense.max_"):
                    self.maxima[key] = val

    # -- passes --------------------------------------------------------------

    def begin_pass(self):
        self.reset_counters()
        return self.open(self.name_id(ROOT))

    def end_pass(self, root):
        self.close(root)
        return self.summarise(root, len(self.start))

    def summarise(self, first, last):
        """Per-span-name calls and self time over spans [first, last)."""
        child = [0.0] * (last - first)
        for i in range(first + 1, last):
            p = self.parent[i]
            if p >= first:
                child[p - first] += self.end[i] - self.start[i]
        by_name = {}
        for i in range(first, last):
            name = self.names[self.name[i]]
            entry = by_name.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (self.end[i] - self.start[i]) - child[i - first]
        return {"wall_s": self.end[first] - self.start[first],
                "spans": by_name, "counters": self.counter_snapshot()}

    def dump(self, path, extra=None):
        """Write the spans as JSON, gzip-compressed if path ends in .gz."""
        data = {"names": self.names, "name": list(self.name),
                "parent": list(self.parent), "start": list(self.start),
                "end": list(self.end)}
        data.update(extra or {})
        opener = gzip.open if str(path).endswith(".gz") else open
        with opener(path, "wt") as fh:
            json.dump(data, fh)


# ---------------------------------------------------------------------------
# counter hooks: run inside the span, before the wrapped call


def _dense(tr, args, kwargs):
    A = args[0]
    rows = len(A)
    cols = len(A[0]) if A else 0
    tr.count("linalg.dense.cells", rows * cols)
    if rows * cols > tr.maxima.get("linalg.dense.max_cells", -1):
        tr.maxima["linalg.dense.max_cells"] = rows * cols
        tr.maxima["linalg.dense.max_rows"] = rows
        tr.maxima["linalg.dense.max_cols"] = cols
        tr.maxima["linalg.dense.max_nnz"] = sum(
            1 for row in A for x in row if x)


def _sparse(tr, args, kwargs):
    tr.count("linalg.sparse.nnz", sum(len(r) for r in args[0]))


def _pullback(tr, args, kwargs):
    u, omega = args[0], args[1]
    p = args[2] if len(args) > 2 else kwargs.get("p")
    tr.see("forms.pullback",
           (tuple(u), omega.n, frozenset(omega.terms.items()), p))


def _lcs(tr, args, kwargs):
    g = args[0]
    tr.see("dgla.lcs", id(g), g)


# result hooks: run after the span closed


def _nosolution(tr, result):
    if type(result).__name__ == "NoSolution":
        tr.count("linalg.nosolution")


def _basis_dim(tr, result):
    basis = result[0] if isinstance(result, tuple) else result
    tr.count("tot.basis.dim", len(basis))


def _search_unknown(tr, result):
    if result.status == "unknown":
        tr.count("mcgauge.gauge_search.unknown")


def _draw(tr, result):
    tr.count("cech.draws")
    if result is not None:
        tr.count("cech.accepted")


def _glued(tr, result):
    tr.count("cech.glued")


# exception hooks


def _obstructed(tr, exc):
    if type(exc).__name__ == "ObstructionUnsolvable":
        tr.count("mcgauge.mc_solve.obstructed")


# (module, attribute or Class.method, span name, before, after, failed)
TARGETS = [
    ("linalg", "rref", "linalg.dense", _dense, None, None),
    ("linalg", "sparse_eliminate", "linalg.sparse", _sparse, None, None),
    ("linalg", "solve_affine", "linalg.solve_affine", None, _nosolution,
     None),
    ("linalg", "sparse_solve_affine", "linalg.sparse_solve_affine", None,
     _nosolution, None),
    ("linalg", "kernel_basis", "linalg.kernel_basis", None, None, None),
    ("linalg", "span_basis", "linalg.span_basis", None, None, None),
    ("linalg", "coords_in_span", "linalg.coords_in_span", None, None, None),
    ("linalg", "intersect_spans", "linalg.intersect_spans", None, None,
     None),
    ("linalg", "sparse_kernel", "linalg.sparse_kernel", None, None, None),
    ("cochain", "Cochain.cohomology", "cochain.cohomology", None, None,
     None),
    ("cochain", "Cochain.cocycles", "cochain.cocycles", None, None, None),
    ("dgla", "lower_central_series", "dgla.lcs", _lcs, None, None),
    ("dgla", "DgLieAlgebra.validate", "dgla.validate", None, None, None),
    ("dgla", "DgCommAlgebra.validate", "dgla.validate", None, None, None),
    ("dgla", "tensor_lie", "dgla.tensor", None, None, None),
    ("dgla", "direct_product", "dgla.direct_product", None, None, None),
    ("forms", "omega_apply", "forms.pullback", _pullback, None, None),
    ("mcgauge", "constrained_mc_solve", "mcgauge.mc_solve", None, None,
     _obstructed),
    ("mcgauge", "gauge_act", "mcgauge.gauge_act", None, None, None),
    ("mcgauge", "bch", "mcgauge.bch", None, None, None),
    ("mcgauge", "staged_gauge_search", "mcgauge.gauge_search", None,
     _search_unknown, None),
    ("mcgauge", "gauge_equivalent", "mcgauge.gauge_equivalent", None, None,
     None),
    ("mcgauge", "mc_residual", "mcgauge.mc_residual", None, None, None),
    ("mcgauge", "holonomy", "mcgauge.holonomy", None, None, None),
    ("tot", "tot_lie", "tot.tot_lie", None, None, None),
    ("tot", "tot_cochain", "tot.tot_cochain", None, None, None),
    ("tot", "TotContext.tot_basis", "tot.basis", None, _basis_dim, None),
    ("tot", "TotContext.compatibility_defect", "tot.defect", None, None,
     None),
    ("tot", "tot_groupoid", "tot.groupoid", None, None, None),
    ("tot", "DescentGroupoid.verify_object", "tot.verify_object", None,
     None, None),
    ("tot", "DescentGroupoid.verify_morphism", "tot.verify_morphism", None,
     None, None),
    ("cech", "cech_cosimplicial", "cech.build", None, None, None),
    ("cech", "tensored_cover", "cech.tensored_cover", None, None, None),
    ("cech", "glue_descent_datum", "cech.glue", None, _glued, None),
    ("cech", "ComparisonFunctor.object_map", "cech.object_map", None, None,
     None),
    ("cech", "ComparisonFunctor.morphism_map", "cech.morphism_map", None,
     None, None),
    ("cech", "_sample_descent_datum", "cech.sample", None, _draw, None),
    ("cech", "find_descent_isomorphism", "cech.find_isomorphism", None,
     None, None),
    ("cech", "verify_descent", "cech.verify_descent", None, None, None),
    ("io", "load_record", "io.parse", None, None, None),
    ("io", "algebra_from_record", "io.parse", None, None, None),
    ("io", "artin_from_record", "io.parse", None, None, None),
    ("io", "cover_from_record", "io.parse", None, None, None),
    ("io", "cosimplicial_from_record", "io.parse", None, None, None),
    ("io", "instance_from_record", "io.parse", None, None, None),
    ("io", "element_from_record", "io.parse", None, None, None),
    ("io", "dump_record", "io.dump", None, None, None),
]


def _wrap(tr, fn, name, before, after, failed):
    sid_name = tr.name_id(name)
    counter = name + ".calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tr.open(sid_name)
        tr.counts[counter] = tr.counts.get(counter, 0) + 1
        try:
            if before is not None:
                before(tr, args, kwargs)
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tr.close(sid)
            if failed is not None:
                failed(tr, exc)
            raise
        tr.close(sid)
        if after is not None:
            after(tr, result)
        return result
    return wrapper


def _package_modules(package):
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))]


class Installation:
    """The wrappers installed by `install`; `uninstall` restores."""

    def __init__(self):
        self.patches = []   # (namespace object, attribute, original)

    def uninstall(self):
        for owner, attr, orig in reversed(self.patches):
            setattr(owner, attr, orig)
        self.patches = []


def _reachable(modules, originals):
    """Names under which an original is still reachable."""
    ids = {id(f) for f in originals}
    leaks = []
    for mod in modules:
        for attr, val in vars(mod).items():
            if id(val) in ids:
                leaks.append(f"{mod.__name__}.{attr}")
            elif isinstance(val, type):
                for a2, v2 in vars(val).items():
                    if id(v2) in ids:
                        leaks.append(f"{mod.__name__}.{attr}.{a2}")
            elif isinstance(val, (dict, list, tuple)):
                items = val.values() if isinstance(val, dict) else val
                if any(id(v) in ids for v in items):
                    leaks.append(f"{mod.__name__}.{attr}[...]")
    return leaks


def install(tr, package="dgdescent"):
    """Wrap every binding of every target in the imported package."""
    import importlib
    # every module that may hold a binding must be loaded before the scan
    for modname in {t[0] for t in TARGETS} | {"cli", "instances"}:
        importlib.import_module(f"{package}.{modname}")
    modules = _package_modules(package)
    inst = Installation()
    originals = []
    for modname, path, name, before, after, failed in TARGETS:
        mod = sys.modules[f"{package}.{modname}"]
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(mod, cls_name)
            orig = vars(owner)[attr]
            inst.patches.append((owner, attr, orig))
            setattr(owner, attr, _wrap(tr, orig, name, before, after,
                                       failed))
            originals.append(orig)
            continue
        orig = getattr(mod, path)
        wrapper = _wrap(tr, orig, name, before, after, failed)
        originals.append(orig)
        for m in modules:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    inst.patches.append((m, attr, orig))
                    setattr(m, attr, wrapper)
    leaks = _reachable(modules, originals)
    if leaks:
        inst.uninstall()
        raise RuntimeError("unwrapped bindings: " + ", ".join(leaks))
    return inst
