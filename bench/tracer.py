"""Outside-in tracing of mvtlab for the benchmark's traced run.

Nothing inside the program changes. The tracer replaces public functions
at the binding each consumer module imported (``mvtlab.operators.integrate``,
``mvtlab.cli.verify_point``, ...) with timing wrappers, wraps
``OperatorValue.__init__``/``__call__`` on the class, and wraps the
callables ``compile_fn`` returns to consumer modules. ``mvtlab.expr.compile_fn``
itself is never rebound: it recurses through its module global, so
rebinding it would wrap every subtree.

Coarse boundaries (request, solver, solve_residual, refine_root,
OperatorValue build, verify_point, classify checkers, parse, differentiate,
compile_fn, smoothness checks) become spans: name, start, end, parent span,
request id. Hot boundaries (compiled-callable calls, integrate,
OperatorValue evaluations) are only counted and timed, into per-name totals
and into the enclosing span, so memory stays bounded. A boundary's self
time is its duration minus the time its child boundaries cover; the
tracer's own bookkeeping (tree-size walks) is excluded from every parent.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

import mvtlab.cli
import mvtlab.conditions
import mvtlab.expr
import mvtlab.flett
import mvtlab.generalized
import mvtlab.mvt_points
import mvtlab.numerics
import mvtlab.operators
import mvtlab.verify

_perf = time.perf_counter

# consumer modules of the expression layer and of the numerics kernels
_EXPR_CONSUMERS = (mvtlab.numerics, mvtlab.flett, mvtlab.mvt_points,
                   mvtlab.generalized, mvtlab.operators, mvtlab.conditions,
                   mvtlab.verify)
_SOLVER_MODULES = ("mvtlab.flett", "mvtlab.mvt_points", "mvtlab.generalized",
                   "mvtlab.operators")


def tree_size(e) -> int:
    """Node count of an expression tree, shared subtrees counted per use."""
    memo: dict[int, int] = {}
    todo = [(e, False)]
    while todo:
        node, ready = todo.pop()
        kids = [getattr(node, k) for k in getattr(node, "__dataclass_fields__", ())]
        kids = [k for k in kids if isinstance(k, mvtlab.expr.Expr)]
        if ready:
            memo[id(node)] = 1 + sum(memo[id(k)] for k in kids)
        elif id(node) not in memo:
            todo.append((node, True))
            todo.extend((k, False) for k in kids if id(k) not in memo)
    return memo[id(e)]


class Tracer:
    """Installs the wrappers, collects spans and totals, removes them again."""

    def __init__(self):
        self.spans: list[dict] = []
        # boundary name -> [calls, self seconds]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0])
        # (boundary name, direct parent boundary name) -> calls
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        # extra per-layer counts (F_evals, grid_points, node_evals, ...)
        self.counts: dict[str, list] = defaultdict(lambda: [0])
        self.request: int | None = None
        self.missing: list[str] = []
        self._stack = [["root", 0.0]]          # [name, child seconds]
        self._spans_open = [{"id": -1, "name": "root", "agg": {}}]
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapper factories -------------------------------------------------

    def span(self, name, fn, before=None, after=None, label=None):
        """Wrap fn as a span; before may rewrite (args, kwargs), after the result."""
        spans, stats, edges = self.spans, self.stats[name], self.edges
        stack, opened = self._stack, self._spans_open
        tracer = self

        def wrapper(*args, **kwargs):
            t_in = _perf()
            parent = stack[-1]
            rec = {"id": len(spans), "name": name, "parent": opened[-1]["id"],
                   "request": tracer.request, "agg": {}}
            if label:
                rec["fn"] = label
            spans.append(rec)
            frame = [name, 0.0]
            if before is not None:
                args, kwargs = before(args, kwargs)
            stack.append(frame)
            opened.append(rec)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stack.pop()
                opened.pop()
                own = t1 - t0 - frame[1]
                rec["start"], rec["end"], rec["self"] = t0, t1, own
                stats[0] += 1
                stats[1] += own
                edges[(name, parent[0])] += 1
                parent[1] += t1 - t_in
            if after is not None:
                result = after(args, kwargs, result)
                parent[1] += _perf() - t1
            return result

        return wrapper

    def hot(self, name, fn, cell=None, amount=0):
        """Wrap fn as a hot boundary: counted and timed, no span record."""
        stats, edges = self.stats[name], self.edges
        stack, opened = self._stack, self._spans_open

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _perf() - t0
                stack.pop()
                parent[1] += dur
                stats[0] += 1
                stats[1] += dur - frame[1]
                edges[(name, parent[0])] += 1
                if cell is not None:
                    cell[0] += amount
                agg = opened[-1]["agg"]
                a = agg.get(name)
                if a is None:
                    agg[name] = [1, dur]
                else:
                    a[0] += 1
                    a[1] += dur

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def install(self) -> None:
        counts = self.counts
        nodes_cell = counts["expr.eval.node_evals"]

        def wrap_compiled(fn, e):
            # runs as a span's after-hook, whose time no boundary is charged
            return self.hot("expr.eval", fn, nodes_cell, tree_size(e))

        def wrap_evaluate(orig):
            inner = self.hot("expr.eval", orig)

            def evaluate(e, x):
                t0 = _perf()
                nodes_cell[0] += tree_size(e)
                # the tree walk is tracer work: charge it to no boundary
                self._stack[-1][1] += _perf() - t0
                return inner(e, x)
            return evaluate

        def out_nodes(args, kwargs, result):
            counts["expr.differentiate.out_nodes"][0] += tree_size(result)
            return result

        for mod in _EXPR_CONSUMERS:
            self._patch(mod, "compile_fn", lambda o: self.span(
                "expr.compile_fn", o,
                after=lambda args, kwargs, fn: wrap_compiled(fn, args[0])))
            self._patch(mod, "differentiate", lambda o: self.span(
                "expr.differentiate", o, after=out_nodes))
        for mod in (mvtlab.numerics, mvtlab.cli, mvtlab.conditions):
            self._patch(mod, "evaluate", wrap_evaluate)
        self._patch(mvtlab.cli, "parse", lambda o: self.span("expr.parse", o))

        self._install_numerics()
        self._install_operators()
        self._install_checkers()

        for name, obj in list(vars(mvtlab.cli).items()):
            mod = getattr(obj, "__module__", None)
            if inspect.isfunction(obj) and mod in _SOLVER_MODULES:
                layer = mod.split(".")[1] + ".solvers"
                self._patch(mvtlab.cli, name, lambda o, layer=layer, name=name:
                            self.span(layer, o, label=name))
        self._patch(mvtlab.conditions, "find_flett_points",
                    lambda o: self.span("flett.solvers", o, label="find_flett_points"))
        self._patch(mvtlab.cli, "verify_point",
                    lambda o: self.span("verify.verify_point", o))

    def _install_numerics(self) -> None:
        counts, opened = self.counts, self._spans_open
        f_all = counts["numerics.F_evals"]
        f_refine = counts["numerics.refine_root.F_evals"]
        terms_cell = counts["numerics.solve_residual.term_evals"]
        grid_cell = counts["numerics.solve_residual.grid_points"]
        points_cell = counts["numerics.solve_residual.points"]

        def counted_F(F):
            def residual(x):
                f_all[0] += 1
                return F(x)
            return residual

        def counted_term(t):
            def term(x):
                terms_cell[0] += 1
                return t(x)
            return term

        def make_solve_residual(orig):
            sig = inspect.signature(orig)

            def before(args, kwargs):
                ba = sig.bind(*args, **kwargs)
                F = ba.arguments.get("F")
                if F is not None:
                    wF = counted_F(F)
                    ba.arguments["F"] = wF
                    terms = ba.arguments.get("terms")
                    if terms:
                        # keep the identity solve_residual tests with `t is F`
                        ba.arguments["terms"] = tuple(
                            wF if t is F else counted_term(t) for t in terms)
                cfg = ba.arguments.get("cfg")
                grid_cell[0] += getattr(cfg, "scan_points", 0)
                return ba.args, ba.kwargs

            def after(args, kwargs, result):
                points_cell[0] += sum(1 for p in result if not p.degenerate)
                return result

            return self.span("numerics.solve_residual", orig, before, after)

        for mod in (mvtlab.mvt_points, mvtlab.flett, mvtlab.generalized,
                    mvtlab.operators):
            self._patch(mod, "solve_residual", make_solve_residual)

        def make_refine_root(orig):
            inner = self.span("numerics.refine_root", orig)

            def refine_root(*args, **kwargs):
                n0 = f_all[0]
                try:
                    return inner(*args, **kwargs)
                finally:
                    f_refine[0] += f_all[0] - n0
            return refine_root

        self._patch(mvtlab.numerics, "refine_root", make_refine_root)

        integrand_cell = counts["numerics.integrate.integrand_evals"]

        def make_integrate(orig):
            inner = self.hot("numerics.integrate", orig)

            def integrate(F, *rest, **kwargs):
                def integrand(x):
                    integrand_cell[0] += 1
                    return F(x)
                return inner(integrand, *rest, **kwargs)
            return integrate

        for mod in (mvtlab.operators, mvtlab.verify, mvtlab.mvt_points,
                    mvtlab.conditions):
            self._patch(mod, "integrate", make_integrate)

        in_classify = counts["conditions.differentiable_scans_in_classify"]

        def note_classify(args, kwargs):
            if any(s["name"] == "conditions.classify" for s in opened):
                in_classify[0] += 1
            return args, kwargs

        for mod in (mvtlab.mvt_points, mvtlab.conditions):
            self._patch(mod, "differentiable_on_interior", lambda o: self.span(
                "numerics.differentiable_on_interior", o, before=note_classify))
        for mod in (mvtlab.flett, mvtlab.generalized, mvtlab.operators,
                    mvtlab.conditions):
            self._patch(mod, "one_sided_derivative", lambda o: self.span(
                "numerics.one_sided_derivative", o))

    def _install_operators(self) -> None:
        cls = mvtlab.operators.OperatorValue
        self._patch(cls, "__init__",
                    lambda o: self.span("operators.OperatorValue.build", o))
        self._patch(cls, "__call__",
                    lambda o: self.hot("operators.OperatorValue.eval", o))

    def _install_checkers(self) -> None:
        self._patch(mvtlab.cli, "classify",
                    lambda o: self.span("conditions.classify", o))
        for name in ("check_flett_condition", "tong_means", "check_malesevic"):
            self._patch(mvtlab.conditions, name,
                        lambda o, name=name: self.span(f"conditions.{name}", o))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def request_span(self, fn, request_id: int):
        """Wrap the benchmark's call into ``main`` as the request span."""
        wrapped = self.span("cli.main", fn)

        def call(*args, **kwargs):
            self.request = request_id
            try:
                return wrapped(*args, **kwargs)
            finally:
                self.request = None
        return call

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        st, ed = self.stats, self.edges
        c = {k: v[0] for k, v in self.counts.items()}
        out: dict[str, tuple[float, str]] = {}

        def calls_self(layer):
            calls, own = st.get(layer, (0, 0.0))
            out[f"{layer}.calls"] = (calls, "count")
            out[f"{layer}.self_s"] = (own, "s")

        def count(name):
            out[name] = (c.get(name, 0), "count")

        def ratio(num, den):
            return num / den if den else 0.0

        calls_self("numerics.solve_residual")
        count("numerics.solve_residual.grid_points")
        out["numerics.solve_residual.F_evals"] = (
            c.get("numerics.F_evals", 0) - c.get("numerics.refine_root.F_evals", 0),
            "count")
        count("numerics.solve_residual.term_evals")
        calls_self("numerics.refine_root")
        count("numerics.refine_root.F_evals")
        out["numerics.bracket_yield"] = (ratio(
            c.get("numerics.solve_residual.points", 0),
            st.get("numerics.refine_root", (0,))[0]), "ratio")
        calls_self("numerics.integrate")
        count("numerics.integrate.integrand_evals")

        builds, build_s = st.get("operators.OperatorValue.build", (0, 0.0))
        evals, eval_s = st.get("operators.OperatorValue.eval", (0, 0.0))
        out["operators.OperatorValue.builds"] = (builds, "count")
        out["operators.OperatorValue.build_self_s"] = (build_s, "s")
        out["operators.OperatorValue.evals"] = (evals, "count")
        out["operators.OperatorValue.eval_self_s"] = (eval_s, "s")
        out["operators.OperatorValue.integrate_per_eval"] = (ratio(
            ed.get(("numerics.integrate", "operators.OperatorValue.eval"), 0),
            evals), "ratio")

        calls_self("verify.verify_point")
        out["verify.verify_point.integrate_calls"] = (
            ed.get(("numerics.integrate", "verify.verify_point"), 0), "count")

        calls_self("numerics.differentiable_on_interior")
        calls_self("numerics.one_sided_derivative")
        out["conditions.differentiable_scans_per_classify"] = (ratio(
            c.get("conditions.differentiable_scans_in_classify", 0),
            st.get("conditions.classify", (0,))[0]), "ratio")
        for name in ("classify", "check_flett_condition", "tong_means",
                     "check_malesevic"):
            calls_self(f"conditions.{name}")

        calls_self("cli.main")
        calls_self("expr.parse")
        calls_self("expr.differentiate")
        count("expr.differentiate.out_nodes")
        calls_self("expr.compile_fn")
        calls_self("expr.eval")
        count("expr.eval.node_evals")
        for mod in ("flett", "mvt_points", "generalized", "operators"):
            calls_self(f"{mod}.solvers")
        return out

    def dump(self, path) -> None:
        """Write spans (one JSON object per line) and the totals."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"totals": self.stats,
                                 "counts": {k: v[0] for k, v in self.counts.items()},
                                 "edges": [[a, b, n] for (a, b), n in self.edges.items()],
                                 "missing": self.missing}) + "\n")
