"""Layer tracing from outside the package.

``Tracer.install`` wraps the public functions and methods of every layer
module, and rebinds the names that sibling modules imported with
``from .x import y``, so calls made from inside ``matrices``, ``oracle``,
``transfer`` or ``cli`` are caught as well as the benchmark's own.

Every wrapped call is a span: name, start, end, parent span and problem id,
kept in flat arrays in memory and written out by ``write``.  Scalar
arithmetic runs millions of times per pass, so a scalar call is counted and
timed but not given a span: its time is folded into the enclosing span as
"leaf" time, and the scalars layer's self time is the sum of that leaf time.
A nested scalar call (``__truediv__`` calling ``__mul__``) is counted but not
timed again.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from collections import Counter

LAYERS = (
    "scalars",
    "series",
    "exactpoly",
    "ppoly",
    "goze",
    "matrices",
    "transfer",
    "oracle",
    "parsing",
    "cli",
)
LEAF_LAYERS = ("scalars",)
ARITHMETIC = frozenset(
    {
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__matmul__",
        "__divmod__", "__floordiv__", "__mod__",
    }
)


def _public_members(module):
    """(owner, attribute, function) for each public callable defined in module."""
    for name, value in list(vars(module).items()):
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield module, name, value
        elif inspect.isclass(value) and not issubclass(value, BaseException):
            for attr, member in list(vars(value).items()):
                if attr.startswith("_") and attr not in ARITHMETIC:
                    continue
                if isinstance(member, (staticmethod, classmethod)) or inspect.isfunction(member):
                    yield value, attr, member


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span; the span id is its index
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_problem = array("i")
        self.span_leaf = array("d")  # scalar time folded into the span
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()  # derived counts, set by the hooks
        self.leaf_self = 0.0  # scalar time outside every span
        self.problem = -1
        self._stack: list[list] = []  # open frames: [span id, leaf seconds]
        self._leaf_depth = [0]
        self._patches: list[tuple] = []

    # -- installation -----------------------------------------------------------

    def install(self, package="perturbalg") -> None:
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, module in modules.items():
            for owner, attr, member in _public_members(module):
                prefix = "" if owner is module else f"{owner.__qualname__}."
                qualname = f"{layer}:{prefix}{attr}"
                if isinstance(member, (staticmethod, classmethod)):
                    wrapper = type(member)(self._wrap(layer, qualname, member.__func__))
                else:
                    wrapper = self._wrap(layer, qualname, member)
                    replaced[id(member)] = (member, wrapper)
                self._patch(owner, attr, wrapper)
        # names bound by `from .module import name` in sibling modules
        siblings = list(modules.values()) + [importlib.import_module(package)]
        for module in siblings:
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, layer, qualname, fn):
        if layer in LEAF_LAYERS:
            return self._leaf_wrapper(qualname, fn)
        return self._span_wrapper(qualname, fn, HOOKS.get(qualname))

    def _leaf_wrapper(self, qualname, fn):
        calls, stack, depth, clock = self.calls, self._stack, self._leaf_depth, time.perf_counter
        tracer = self

        def leaf(*args, **kwargs):
            calls[qualname] += 1
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[0] = 0
                if stack:
                    stack[-1][1] += elapsed
                else:
                    tracer.leaf_self += elapsed

        leaf.__wrapped__ = fn
        return leaf

    def _span_wrapper(self, qualname, fn, hook):
        calls, stack, clock = self.calls, self._stack, time.perf_counter
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, problems, leaves = self.span_parent, self.span_problem, self.span_leaf
        name_id = self._name_id(qualname)
        tracer = self

        def span(*args, **kwargs):
            calls[qualname] += 1
            if hook is not None:
                hook.before(tracer, args)
            span_id = len(names)
            names.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            problems.append(tracer.problem)
            ends.append(0.0)
            leaves.append(0.0)
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if hook is not None:
                    hook.error(tracer, exc)
                raise
            finally:
                ends[span_id] = clock()
                stack.pop()
                leaves[span_id] = frame[1]
            if hook is not None:
                hook.after(tracer, result)
            return result

        span.__wrapped__ = fn
        return span

    # -- results ------------------------------------------------------------------

    def self_times(self) -> dict:
        """Seconds of self time per layer, computed from the recorded spans.

        A span's self time is its duration minus its child spans' durations
        and minus the scalar time folded into it.
        """
        import numpy as np

        out = dict.fromkeys(LAYERS, 0.0)
        count = len(self.span_name)
        if count:
            start = np.frombuffer(self.span_start, dtype=np.float64)
            end = np.frombuffer(self.span_end, dtype=np.float64)
            parent = np.frombuffer(self.span_parent, dtype=np.int64)
            leaf = np.frombuffer(self.span_leaf, dtype=np.float64)
            duration = end - start
            has_parent = parent >= 0
            child = np.bincount(
                parent[has_parent], weights=duration[has_parent], minlength=count
            )
            own = duration - child - leaf
            layer_of_name = np.array(
                [LAYERS.index(name.split(":", 1)[0]) for name in self.names]
            )
            layer = layer_of_name[np.frombuffer(self.span_name, dtype=np.int32)]
            per_layer = np.bincount(layer, weights=own, minlength=len(LAYERS))
            for index, name in enumerate(LAYERS):
                out[name] = float(per_layer[index])
            out["scalars"] += float(leaf.sum())
        out["scalars"] += self.leaf_self
        return out

    def write(self, path, meta: dict) -> None:
        """Write every span (and the name table) as one compressed .npz file."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            problem=np.frombuffer(self.span_problem, dtype=np.int32),
            leaf=np.frombuffer(self.span_leaf, dtype=np.float64),
            meta=np.array(repr(sorted(meta.items()))),
        )


# -- counts taken at layer boundaries --------------------------------------------------


class Hook:
    def before(self, tracer, args):
        pass

    def after(self, tracer, result):
        pass

    def error(self, tracer, exc):
        pass


class SeriesMulHook(Hook):
    """Term pairs a series product visits, and the share within the truncation."""

    def before(self, tracer, args):
        a, b = args
        a_degrees = Counter(sum(index) for index in a.terms)
        b_terms = getattr(b, "terms", None)
        if b_terms is None:  # scalar operand: a constant series of at most one term
            b_degrees = Counter({0: 1}) if b else Counter()
        else:
            b_degrees = Counter(sum(index) for index in b_terms)
        bound = a.ring.truncation
        pairs = sum(a_degrees.values()) * sum(b_degrees.values())
        useful = sum(
            ca * cb
            for da, ca in a_degrees.items()
            for db, cb in b_degrees.items()
            if da + db <= bound
        )
        tracer.counts["series.mul_term_pairs"] += pairs
        tracer.counts["series.mul_useful_pairs"] += useful


class CountResult(Hook):
    def __init__(self, key, measure=lambda result: 1):
        self.key, self.measure = key, measure

    def after(self, tracer, result):
        tracer.counts[self.key] += self.measure(result)


class OracleRootsHook(Hook):
    def error(self, tracer, exc):
        from perturbalg.errors import OracleError

        if isinstance(exc, OracleError):
            tracer.counts["oracle.roots_noconv"] += 1


class OracleVerifyHook(Hook):
    """Outcome of each verification: pass, fail, inconclusive or error."""

    def after(self, tracer, report):
        if report.verdict:
            tracer.counts["oracle.verify_pass"] += 1
        elif report.inconclusive:
            tracer.counts["oracle.inconclusive"] += 1
        else:
            tracer.counts["oracle.verify_fail"] += 1

    def error(self, tracer, exc):
        tracer.counts["oracle.verify_error"] += 1


HOOKS = {
    "series:TruncatedSeries.__mul__": SeriesMulHook(),
    "series:TruncatedSeries.__rmul__": SeriesMulHook(),
    "goze:decompose": CountResult("goze.levels", lambda result: len(result.levels)),
    "ppoly:root_correction": CountResult("ppoly.root_claims"),
    "ppoly:dominant_balance": CountResult("ppoly.root_claims", len),
    "oracle:poly_roots_numeric": OracleRootsHook(),
    "oracle:verify_root_asymptotics": OracleVerifyHook(),
    "oracle:verify_quadratic_balance": OracleVerifyHook(),
    "oracle:verify_pgcd": OracleVerifyHook(),
}
