"""Outside-in span tracing of the odesym layers.

The tracer rebinds public functions of each module to timing wrappers.
Modules import each other's functions by name (``from .exprcore import
canon``), so a function is rebound in every ``odesym`` module namespace
that holds it, not only where it is defined.  ``SourceContext.reduce`` and
``SourceContext.from_solutions`` are patched on the class.

Spans are kept in memory as ``[name, start, end, parent, request, self]``
and only while a request is open; work done by the benchmark's own output
checks is never traced.  Self time is the span's duration minus the time
its direct child spans cover.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

import sympy as sp

from odesym import casebook, cli, exprcore, grammar, jetcalc, maxsym, noether, transform

# (module, attribute, span name); the span name is the metric prefix.
FUNCTIONS = [
    (exprcore, "canon", "exprcore.canon"),
    (exprcore, "zero_test", "exprcore.zero_test"),
    (exprcore, "numeric_witness", "exprcore.numeric_witness"),
    (grammar, "parse", "grammar.parse"),
    (grammar, "render", "grammar.render"),
    (jetcalc, "total_derivative", "jetcalc.total_derivative"),
    (jetcalc, "euler", "jetcalc.euler"),
    (jetcalc, "prolong", "jetcalc.prolong"),
    (jetcalc, "substitute_solved", "jetcalc.substitute_solved"),
    (jetcalc, "inverse_total_derivative", "jetcalc.inverse_total_derivative"),
    (maxsym, "build_lode", "maxsym.build_lode"),
    (maxsym, "transformed_lagrangian", "maxsym.transformed_lagrangian"),
    (maxsym, "natural_lagrangian", "maxsym.natural_lagrangian"),
    (transform, "jet_substitution", "transform.jet_substitution"),
    (transform, "transform_equation", "transform.transform_equation"),
    (transform, "transform_lagrangian", "transform.transform_lagrangian"),
    (transform, "pushforward", "transform.pushforward"),
    (noether, "divergence_check", "noether.divergence_check"),
    (noether, "variational_check", "noether.variational_check"),
    (noether, "lie_symmetry_check", "noether.lie_symmetry_check"),
    (noether, "first_integral", "noether.first_integral"),
    (noether, "verify_first_integral", "noether.verify_first_integral"),
    (casebook, "numeric_validate", "casebook.numeric_validate"),
    (cli, "main", "cli.main"),
]

NAME, START, END, PARENT, REQUEST, SELF = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = None  # id of the open request; None means not tracing
        self._stack: list[list] = []  # [span index, child time]
        self._undo: list = []
        self.zero_test_terms: list[int] = []
        self.flags: dict[int, str] = {}  # span index -> sampled | hit | fail
        self.build_keys: set = set()
        self.build_repeats = 0

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name) -> int:
        idx = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, self.request, 0.0])
        self._stack.append([idx, 0.0])
        self.spans[idx][START] = time.perf_counter()
        return idx

    def _close(self, idx) -> None:
        end = time.perf_counter()
        span = self.spans[idx]
        span[END] = end
        _, child = self._stack.pop()
        dur = end - span[START]
        span[SELF] = dur - child
        if self._stack:
            self._stack[-1][1] += dur

    def wrap(self, fn, name, before=None, after=None):
        """Timing wrapper; ``before``/``after`` record per-call facts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx)
                if name.startswith("noether."):
                    self.flags[idx] = "fail"
                raise
            self._close(idx)
            if after is not None:
                after(idx, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def _rebind_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "odesym" or mod_name.startswith("odesym.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        hooks = {
            "exprcore.zero_test": (self._count_terms, None),
            "exprcore.numeric_witness": (None, self._witness_hit),
            "maxsym.build_lode": (self._build_key, None),
        }
        for mod, attr, name in FUNCTIONS:
            original = getattr(mod, attr)
            before, after = hooks.get(name, (None, None))
            self._rebind_everywhere(original, self.wrap(original, name, before, after))

        # zero_test asks is_rational_expr only for a nonzero canonical form;
        # a False answer sends it down the sampling path.
        original = exprcore.is_rational_expr

        def is_rational_expr(e):
            rational = original(e)
            if not rational and self.request is not None and self._stack:
                top = self._stack[-1][0]
                if self.spans[top][NAME] == "exprcore.zero_test":
                    self.flags[top] = "sampled"
            return rational

        self._rebind_everywhere(original, is_rational_expr)

        cls = maxsym.SourceContext
        reduce = cls.reduce
        sym_reduce = self.wrap(reduce, "maxsym.reduce_symbolic")
        con_reduce = self.wrap(reduce, "maxsym.reduce_concrete")

        def patched_reduce(ctx, e):
            return (sym_reduce if ctx.symbolic else con_reduce)(ctx, e)

        from_solutions = cls.__dict__["from_solutions"]
        cls.reduce = patched_reduce
        cls.from_solutions = staticmethod(
            self.wrap(from_solutions.__func__, "maxsym.from_solutions")
        )
        self._undo.append((cls, "reduce", reduce))
        self._undo.append((cls, "from_solutions", from_solutions))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    # -- per-call facts ---------------------------------------------------

    def _count_terms(self, args, kwargs):
        e = args[0] if args else kwargs["e"]
        numer = sp.fraction(sp.sympify(e))[0]
        self.zero_test_terms.append(len(sp.Add.make_args(numer)))

    def _witness_hit(self, idx, result):
        if result is not None:
            self.flags[idx] = "hit"

    def _build_key(self, args, kwargs):
        n = args[0] if args else kwargs["n"]
        ctx = args[1] if len(args) > 1 else kwargs.get("ctx")
        key = (n, ctx is None or ctx.symbolic)
        if key in self.build_keys:
            self.build_repeats += 1
        self.build_keys.add(key)


SELF_TIMES = [
    "exprcore.canon", "exprcore.zero_test", "exprcore.numeric_witness",
    "grammar.parse", "grammar.render",
    "jetcalc.total_derivative", "jetcalc.euler", "jetcalc.prolong",
    "jetcalc.substitute_solved", "jetcalc.inverse_total_derivative",
    "maxsym.reduce_symbolic", "maxsym.reduce_concrete", "maxsym.build_lode",
    "maxsym.transformed_lagrangian", "maxsym.natural_lagrangian", "maxsym.from_solutions",
    "transform.jet_substitution", "transform.transform_equation",
    "transform.transform_lagrangian", "transform.pushforward",
    "noether.verify_first_integral", "casebook.numeric_validate", "cli.main",
]
CALL_COUNTS = [
    "exprcore.canon", "exprcore.zero_test", "exprcore.numeric_witness",
    "grammar.parse", "grammar.render", "jetcalc.total_derivative",
    "maxsym.reduce_symbolic", "maxsym.reduce_concrete",
]
TOTAL_TIMES = [
    "noether.divergence_check", "noether.variational_check",
    "noether.lie_symmetry_check", "noether.first_integral",
]


def layer_metrics(tracer: Tracer, request_s: float, overhead_s: float) -> dict:
    """Per-layer metrics as {name: (value, unit)} from the recorded spans.

    ``request_s`` is the traced run's request time; ``overhead_s`` is that
    time minus the same requests' time in an untraced pass.
    """
    self_s = dict.fromkeys(SELF_TIMES, 0.0)
    calls = dict.fromkeys(SELF_TIMES + TOTAL_TIMES, 0)
    total_s = dict.fromkeys(TOTAL_TIMES, 0.0)
    root_s = 0.0
    for idx, span in enumerate(tracer.spans):
        name = span[NAME]
        calls[name] = calls.get(name, 0) + 1
        if name in self_s:
            self_s[name] += span[SELF]
        if name in total_s and not _nested_in_same(tracer.spans, idx):
            total_s[name] += span[END] - span[START]
        if span[PARENT] is None:
            root_s += span[END] - span[START]
    flags = list(tracer.flags.items())

    def share(flag, name):
        n = calls[name]
        hits = sum(1 for idx, f in flags if f == flag and tracer.spans[idx][NAME] == name)
        return hits / n if n else 0.0

    out = {f"{n}.self_s": (self_s[n], "s") for n in SELF_TIMES}
    out.update({f"{n}.calls": (calls[n], "count") for n in CALL_COUNTS})
    out.update({f"{n}.total_s": (total_s[n], "s") for n in TOTAL_TIMES})
    terms = tracer.zero_test_terms
    builds = calls["maxsym.build_lode"]
    out.update({
        "exprcore.zero_test.sampled_share": (share("sampled", "exprcore.zero_test"), "fraction"),
        "exprcore.numeric_witness.hit_share": (share("hit", "exprcore.numeric_witness"), "fraction"),
        "exprcore.residual_terms.p50": (statistics.median(terms) if terms else 0, "count"),
        "maxsym.build_lode.repeat_share": (tracer.build_repeats / builds if builds else 0.0, "fraction"),
        "noether.fail": (sum(1 for _, f in flags if f == "fail"), "count"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.unattributed_s": (request_s - root_s, "s"),
    })
    return out


def _nested_in_same(spans, idx) -> bool:
    name, parent = spans[idx][NAME], spans[idx][PARENT]
    while parent is not None:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
