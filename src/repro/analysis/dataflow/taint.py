"""Conservative inter-procedural taint propagation.

RL101's question — "can a volatile value reach a cache-key
computation?" — is a reachability problem over value flows.  The engine
answers it with per-function summaries iterated to a fixpoint:

- **Labels.**  A taint label is either ``("src", description)`` for a
  concrete volatile source (``os.environ``, wall clock, ambient
  per-process module state) or ``("param", name)`` for "whatever the
  caller passes as this parameter".
- **Intra-procedural step.**  Within a function, a local name carries
  the union of the labels of all its definitions (flow-insensitive:
  branches over-approximate, but no definition is invented).  Container
  and attribute stores taint the base name — mutating a dict with a
  volatile value taints the dict.
- **Summaries.**  Each function exports which labels its return value
  carries and which *parameters* reach a sink call inside it
  (transitively).  Call sites substitute argument labels for parameter
  labels, so flows compose across the call graph; cycles converge
  because label sets only grow and the universe is finite.
- **Method calls** resolve within the enclosing class only; unresolved
  calls propagate taint from receiver/arguments to the result
  ("taint-through") but never introduce it.
- **Attribute state.**  ``self.x = <volatile>`` taints ``(Class, x)``
  project-wide; parameter labels are dropped at attribute stores (a
  per-instance flow the summary machinery cannot attribute to a single
  call site), which keeps the engine precise at the cost of missing
  exotic constructor-threaded flows — conservative in the
  no-false-positive direction, like the rest of the package.

Sinks are calls to the cache-key functions by bare name (``spec_key``,
``canonicalize_spec``); a hit is reported where the tainted value
enters the sink's argument list.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .callgraph import CallGraph, CallSite, FunctionInfo
from .defuse import FunctionFlow, build_flow
from .symbols import dotted_name

Label = tuple[str, str]

#: Volatile calls by absolute dotted name (``id`` is the bare builtin).
VOLATILE_CALLS = frozenset({
    "os.getenv", "os.getpid", "os.getppid", "os.getcwd", "os.uname",
    "os.cpu_count", "os.urandom",
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today",
    "uuid.uuid1", "uuid.uuid4", "socket.gethostname", "getpass.getuser",
    "secrets.token_bytes", "secrets.token_hex", "secrets.randbits",
    "secrets.randbelow", "secrets.choice",
    "random.random", "random.randint", "random.getrandbits",
    "random.choice", "random.randrange",
    "id",
})

#: Volatile call prefixes (every ``platform.*`` probe is machine state).
VOLATILE_CALL_PREFIXES = ("platform.",)

#: Volatile attribute reads.
VOLATILE_ATTRS = frozenset({"os.environ", "os.environb"})

#: Method names that dispatch work to an executor/pool.  The returned
#: future/result is a function of the *submitted callable and its
#: arguments*, not of the executor object's configuration, so these
#: calls do not taint-through their receiver (``ProcessPoolExecutor(
#: max_workers=os.cpu_count())`` must not taint every result it
#: carries).
EXECUTOR_DISPATCH = frozenset({"submit", "map", "starmap", "apply",
                               "apply_async", "imap", "imap_unordered"})

#: Bare names of the cache-key sink functions.
SINK_NAMES = frozenset({"spec_key", "canonicalize_spec"})

#: Functions whose *bodies* constitute cache-key computation: a volatile
#: source appearing lexically inside any of them is a finding on its
#: own, before any flow analysis.
KEY_FUNCTION_NAMES = frozenset({"spec_key", "canonicalize_spec",
                                "trace_spec"})


@dataclass(frozen=True)
class TaintHit:
    """One volatile-to-cache-key flow, anchored where it is visible."""

    display_path: str
    lineno: int
    col: int
    sink: str
    sources: tuple[str, ...]
    via: str | None = None       # callee carrying the flow, if indirect
    in_body: bool = False        # source lexically inside a key function


@dataclass
class _Summary:
    returns: frozenset[Label] = frozenset()
    #: param name -> sinks its value reaches inside the function body.
    param_sinks: dict[str, set[str]] = field(default_factory=dict)


class TaintEngine:
    def __init__(self, graph: CallGraph,
                 ambient_globals: dict[str, str] | None = None) -> None:
        """``ambient_globals`` maps ``module.name`` qualnames of mutable
        per-process state to human-readable source descriptions."""
        self._graph = graph
        self._ambient = dict(ambient_globals or {})
        self._flows: dict[str, FunctionFlow] = {}
        self._summaries: dict[str, _Summary] = {}
        self._hits: list[TaintHit] = []
        #: shared (class qualname, attr) -> src labels written into it.
        self.attr_taint: dict[tuple[str, str], frozenset[Label]] = {}
        self._run()

    def hits(self) -> list[TaintHit]:
        """All flow hits plus source-inside-key-function hits, deduped.

        One call site gets one hit: a direct sink flow shadows the
        via-summary flow the same call also produces (``spec_key(x)``
        would otherwise report both ``spec_key`` and its internal
        ``canonicalize_spec``).
        """
        best: dict[tuple[str, int, int], TaintHit] = {}
        for hit in self._hits:
            key = (hit.display_path, hit.lineno, hit.col)
            current = best.get(key)
            if current is None or (current.via is not None
                                   and hit.via is None):
                best[key] = hit
        return [best[key] for key in sorted(best)]

    # -- fixpoint ---------------------------------------------------------
    def _run(self) -> None:
        functions = self._graph.functions()
        for fn in functions:
            self._flows[fn.qualname] = build_flow(fn.node)
            self._summaries[fn.qualname] = _Summary()
        changed = True
        rounds = 0
        while changed and rounds < 50:
            changed = False
            rounds += 1
            for fn in functions:
                if self._analyze(fn, collect=False):
                    changed = True
        self._hits = []
        for fn in functions:
            self._analyze(fn, collect=True)
            self._key_function_scan(fn)

    def _analyze(self, fn: FunctionInfo, collect: bool) -> bool:
        flow = self._flows[fn.qualname]
        env: dict[str, frozenset[Label]] = {}
        for param in fn.param_names():
            env[param] = frozenset({("param", param)})
        calls_by_node = {site.node: site for site in fn.calls}

        evaluator = _Evaluator(self, fn, flow, env, calls_by_node,
                               collect=collect)
        for _ in range(20):  # inner fixpoint over local names
            stable = True
            for name, defs in flow.defs.items():
                labels = env.get(name, frozenset())
                if name in env and ("param", name) in env[name]:
                    labels = labels | {("param", name)}
                for definition in defs:
                    if definition.value is not None:
                        labels = labels | evaluator.labels(definition.value)
                if labels != env.get(name, frozenset()):
                    env[name] = labels
                    stable = False
            if stable:
                break

        evaluator.finalize = True
        returns: frozenset[Label] = frozenset()
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)) \
                    and node.value is not None:
                returns = returns | evaluator.labels(node.value)
        # Re-walk calls so sink hits / attr writes see the final env.
        for site in fn.calls:
            evaluator.observe_call(site)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign):
                evaluator.observe_attr_store(node.targets, node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                evaluator.observe_attr_store([node.target], node.value)

        summary = self._summaries[fn.qualname]
        changed = False
        if returns != summary.returns:
            summary.returns = returns
            changed = True
        if evaluator.param_sinks != summary.param_sinks:
            summary.param_sinks = evaluator.param_sinks
            changed = True
        if evaluator.attr_changed:
            changed = True
        return changed

    def _key_function_scan(self, fn: FunctionInfo) -> None:
        """A volatile source lexically inside a cache-key function."""
        if fn.name not in KEY_FUNCTION_NAMES:
            return
        for node in ast.walk(fn.node):
            desc: str | None = None
            if isinstance(node, ast.Call):
                desc = self._volatile_call_desc(fn, node)
            elif isinstance(node, ast.Attribute):
                resolved = self._graph.symbols.resolve_expr(fn.module, node)
                if resolved in VOLATILE_ATTRS:
                    desc = resolved
            if desc is not None:
                self._hits.append(TaintHit(
                    display_path=fn.module.display_path,
                    lineno=node.lineno, col=node.col_offset,
                    sink=fn.name, sources=(desc,), in_body=True))

    # -- shared lookups ---------------------------------------------------
    def _volatile_call_desc(self, fn: FunctionInfo,
                            node: ast.Call) -> str | None:
        dotted = dotted_name(node.func)
        if dotted is None:
            return None
        resolved = self._graph.symbols.resolve(fn.module, dotted) or dotted
        if resolved in VOLATILE_CALLS:
            return resolved
        if resolved.startswith(VOLATILE_CALL_PREFIXES):
            return resolved
        return None

    def ambient_desc(self, qualname: str | None) -> str | None:
        if qualname is None:
            return None
        return self._ambient.get(qualname)

    def record_hit(self, hit: TaintHit) -> None:
        self._hits.append(hit)


class _Evaluator:
    """Expression-label evaluation bound to one function's environment."""

    def __init__(self, engine: TaintEngine, fn: FunctionInfo,
                 flow: FunctionFlow, env: dict[str, frozenset[Label]],
                 calls_by_node: dict[ast.Call, CallSite],
                 collect: bool) -> None:
        self.engine = engine
        self.fn = fn
        self.flow = flow
        self.env = env
        self.calls = calls_by_node
        self.collect = collect
        self.finalize = False
        self.param_sinks: dict[str, set[str]] = {}
        self.attr_changed = False
        self._active: set[int] = set()

    # -- label computation ------------------------------------------------
    def labels(self, node: ast.expr) -> frozenset[Label]:
        if id(node) in self._active:
            return frozenset()
        self._active.add(id(node))
        try:
            return self._labels_inner(node)
        finally:
            self._active.discard(id(node))

    def _labels_inner(self, node: ast.expr) -> frozenset[Label]:
        engine = self.engine
        if isinstance(node, ast.Name):
            if node.id in self.env or node.id in self.flow.defs:
                return self.env.get(node.id, frozenset())
            qual = engine._graph.symbols.resolve(self.fn.module, node.id) \
                or f"{self.fn.module.name}.{node.id}"
            desc = engine.ambient_desc(qual)
            if desc is not None:
                return frozenset({("src", desc)})
            return frozenset()
        if isinstance(node, ast.Attribute):
            resolved = engine._graph.symbols.resolve_expr(self.fn.module,
                                                          node)
            if resolved in VOLATILE_ATTRS:
                return frozenset({("src", resolved)})
            desc = engine.ambient_desc(resolved)
            if desc is not None:
                return frozenset({("src", desc)})
            self_name = self.fn.self_name()
            if (self_name is not None and isinstance(node.value, ast.Name)
                    and node.value.id == self_name):
                cls = self.fn.qualname.rpartition(".")[0]
                return engine.attr_taint.get((cls, node.attr), frozenset())
            return self.labels(node.value)
        if isinstance(node, ast.Call):
            return self._call_labels(node)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            out: frozenset[Label] = frozenset()
            for elt in node.elts:
                out = out | self.labels(elt)
            return out
        if isinstance(node, ast.Dict):
            out = frozenset()
            for key in node.keys:
                if key is not None:
                    out = out | self.labels(key)
            for value in node.values:
                out = out | self.labels(value)
            return out
        if isinstance(node, ast.Constant):
            return frozenset()
        # Everything else: union over child expressions (BinOp, BoolOp,
        # JoinedStr, comparisons, subscripts, comprehensions, ...).
        out = frozenset()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out = out | self.labels(child)
            elif isinstance(child, ast.comprehension):
                out = out | self.labels(child.iter)
        return out

    def _call_args(self, node: ast.Call) -> list[tuple[str | None,
                                                       frozenset[Label]]]:
        out: list[tuple[str | None, frozenset[Label]]] = []
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                out.append((None, self.labels(arg.value)))
            else:
                out.append((None, self.labels(arg)))
        for kw in node.keywords:
            out.append((kw.arg, self.labels(kw.value)))
        return out

    def _map_args_to_params(self, site: CallSite,
                            fn: FunctionInfo) -> dict[str, frozenset[Label]]:
        params = fn.param_names()
        if fn.owner_class is not None and fn.self_name() is not None:
            params = params[1:]
        mapped: dict[str, frozenset[Label]] = {}
        positional = [a for a in site.node.args
                      if not isinstance(a, ast.Starred)]
        for i, arg in enumerate(positional):
            if i < len(params):
                mapped[params[i]] = self.labels(arg)
        for arg in site.node.args:
            if isinstance(arg, ast.Starred):
                # Position unknown: spread over all params, conservatively.
                labels = self.labels(arg.value)
                for param in params:
                    mapped[param] = mapped.get(param, frozenset()) | labels
        for kw in site.node.keywords:
            labels = self.labels(kw.value)
            if kw.arg is None:  # **kwargs spread
                for param in params:
                    mapped[param] = mapped.get(param, frozenset()) | labels
            else:
                mapped[kw.arg] = labels
        return mapped

    def _call_labels(self, node: ast.Call) -> frozenset[Label]:
        engine = self.engine
        site = self.calls.get(node)
        arg_labels: frozenset[Label] = frozenset()
        for _, labels in self._call_args(node):
            arg_labels = arg_labels | labels
        if site is not None and site.callee is not None:
            callee = engine._graph.function(site.callee)
            summary = engine._summaries.get(site.callee)
            if callee is not None and summary is not None:
                result: frozenset[Label] = frozenset(
                    label for label in summary.returns
                    if label[0] == "src")
                mapped = self._map_args_to_params(site, callee)
                param_returns = {label[1] for label in summary.returns
                                 if label[0] == "param"}
                for param, labels in mapped.items():
                    if param in param_returns:
                        result = result | labels
                return result
        desc = engine._volatile_call_desc(self.fn, node)
        if desc is not None:
            return arg_labels | frozenset({("src", desc)})
        if site is not None and site.external is not None:
            if site.external in VOLATILE_CALLS or \
                    site.external.startswith(VOLATILE_CALL_PREFIXES):
                return arg_labels | frozenset({("src", site.external)})
        # Unresolved/external: taint-through receiver and arguments.
        receiver: frozenset[Label] = frozenset()
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr not in EXECUTOR_DISPATCH:
            receiver = self.labels(node.func.value)
        return arg_labels | receiver

    # -- observation passes (final env only) ------------------------------
    def observe_call(self, site: CallSite) -> None:
        """Record sink hits and transitive param->sink flows."""
        engine = self.engine
        node = site.node
        sink_name = self._sink_name(site)
        if sink_name is not None:
            for arg_name, labels in self._call_args(node):
                del arg_name
                self._register_sink_flow(labels, sink_name, node, via=None)
        if site.callee is not None:
            callee = engine._graph.function(site.callee)
            summary = engine._summaries.get(site.callee)
            if callee is not None and summary is not None \
                    and summary.param_sinks:
                mapped = self._map_args_to_params(site, callee)
                # Sorted, not hash order: the first hit at a call site is
                # the one ``hits()`` keeps, so the order is the output.
                for param, sinks in sorted(summary.param_sinks.items()):
                    labels = mapped.get(param, frozenset())
                    for sink in sorted(sinks):
                        self._register_sink_flow(labels, sink, node,
                                                 via=callee.name)

    def _sink_name(self, site: CallSite) -> str | None:
        if site.callee is not None:
            name = site.callee.rpartition(".")[2]
            return name if name in SINK_NAMES else None
        dotted = dotted_name(site.node.func)
        if dotted is not None and dotted.rpartition(".")[2] in SINK_NAMES:
            return dotted.rpartition(".")[2]
        return None

    def _register_sink_flow(self, labels: frozenset[Label], sink: str,
                            node: ast.Call, via: str | None) -> None:
        sources = tuple(sorted(desc for kind, desc in labels
                               if kind == "src"))
        params = [name for kind, name in labels if kind == "param"]
        if sources and self.collect:
            self.engine.record_hit(TaintHit(
                display_path=self.fn.module.display_path,
                lineno=node.lineno, col=node.col_offset,
                sink=sink, sources=sources, via=via))
        for param in params:
            self.param_sinks.setdefault(param, set()).add(sink)

    def observe_attr_store(self, targets: list[ast.expr],
                           value: ast.expr) -> None:
        """``self.x = <expr>`` taints (Class, x) with src labels."""
        self_name = self.fn.self_name()
        if self_name is None:
            return
        for target in targets:
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == self_name):
                continue
            labels = frozenset(label for label in self.labels(value)
                               if label[0] == "src")
            if not labels:
                continue
            cls = self.fn.qualname.rpartition(".")[0]
            key = (cls, target.attr)
            current = self.engine.attr_taint.get(key, frozenset())
            merged = current | labels
            if merged != current:
                self.engine.attr_taint[key] = merged
                self.attr_changed = True
