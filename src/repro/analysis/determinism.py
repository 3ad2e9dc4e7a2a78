"""Determinism pass (rules D101-D105).

Campaign instances are pure functions of ``(config, index, seed)`` — the
parallel engine and every cached dataset depend on it.  This pass walks a
module's AST and flags the constructs that silently break that purity:

* **D101** — draws from the ``random`` module's global state
  (``random.random()``, ``random.choice(...)``, ...) or construction of an
  unseeded generator (``random.Random()`` with no arguments,
  ``random.SystemRandom(...)`` always).  Seeded construction
  (``random.Random(seed)``) and draws on instance variables (``rng.random()``)
  are fine.
* **D102** — numpy global-state RNG (``np.random.rand`` etc.).  Only
  ``np.random.default_rng(seed)`` with an explicit seed argument passes.
* **D103** — wall-clock reads: ``time.time`` / ``time.time_ns`` /
  ``time.monotonic`` / ``time.perf_counter`` / ``time.process_time`` and
  ``datetime.now`` / ``utcnow`` / ``today``.  Simulation code must take
  time from ``Simulator.now``.
* **D104** — iteration over a syntactic set expression (set literal, set
  comprehension, ``set(...)`` / ``frozenset(...)`` call) in a ``for``
  statement, comprehension, or an order-sensitive wrapper such as
  ``list()`` / ``tuple()`` / ``enumerate()``.  Wrap the set in
  ``sorted(...)`` instead; membership tests and ``len()`` are untouched.
* **D105** — module-level *mutable* state in ``repro/simnet/`` (a list /
  dict / set / comprehension / ``collections`` container bound to a
  module global).  Serial campaigns, pool workers and shards all run
  many sessions one after another in one process, so anything mutable at
  module scope survives from one session into the next: record ``i+1``
  would depend on what ran before it, breaking serial = workers = shards
  = resume.  Scope the state to the
  :class:`~repro.simnet.engine.Simulator` (or suppress with a
  justification for deliberately shared, value-safe pools).
  ``ALL_CAPS`` constants and dunders are exempt by convention; the rule
  only applies to files under a ``simnet`` directory.

The pass is import-alias aware: ``import random as rnd`` and
``from random import choice`` are both caught; a local variable that
happens to be called ``random`` is not (the name must be bound by an
import in the same module).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.findings import Finding

#: ``random``-module callables that draw from (or reseed) global state.
_STDLIB_DRAWS = {
    "random", "uniform", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "lognormvariate",
    "expovariate", "betavariate", "gammavariate", "paretovariate",
    "vonmisesvariate", "weibullvariate", "triangular", "getrandbits",
    "randbytes", "seed", "setstate", "binomialvariate",
}

#: wall-clock callables per module.
_CLOCK_CALLS = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns",
             "perf_counter", "perf_counter_ns", "process_time",
             "process_time_ns", "localtime", "gmtime"},
    "datetime": {"now", "utcnow", "today"},
    "date": {"today"},
}


class _ImportMap:
    """Which local names are bound to the modules we care about."""

    def __init__(self) -> None:
        #: alias -> canonical module ("random", "numpy", "numpy.random",
        #: "time", "datetime" the module, "datetime.datetime" the class, ...)
        self.aliases: Dict[str, str] = {}
        #: names imported directly from ``random`` (``from random import choice``)
        self.random_funcs: Set[str] = set()
        #: names imported directly from numpy.random
        self.np_random_funcs: Set[str] = set()
        #: names imported directly from ``time``
        self.time_funcs: Set[str] = set()

    def collect(self, tree: ast.AST) -> "_ImportMap":
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if alias.name in ("random", "numpy", "numpy.random",
                                      "time", "datetime"):
                        target = alias.name
                        if alias.asname is None and "." in alias.name:
                            # ``import numpy.random`` binds ``numpy``
                            target = alias.name.split(".")[0]
                        self.aliases[name] = target
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                for alias in node.names:
                    name = alias.asname or alias.name
                    if module == "random":
                        if alias.name in _STDLIB_DRAWS:
                            self.random_funcs.add(name)
                        elif alias.name in ("Random", "SystemRandom"):
                            self.aliases[name] = f"random.{alias.name}"
                    elif module in ("numpy.random", "numpy.random.mtrand"):
                        self.np_random_funcs.add(name)
                    elif module == "numpy" and alias.name == "random":
                        self.aliases[name] = "numpy.random"
                    elif module == "time":
                        if alias.name in _CLOCK_CALLS["time"]:
                            self.time_funcs.add(name)
                    elif module == "datetime":
                        # ``from datetime import datetime`` / ``date``
                        if alias.name in ("datetime", "date"):
                            self.aliases[name] = f"datetime.{alias.name}"
        return self


def _dotted(node: ast.expr) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` -> ("a", "b", "c"); None for anything fancier."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _is_set_expr(node: ast.expr) -> bool:
    """Syntactically certain to evaluate to an unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # set algebra keeps set-ness when either side is a set expression
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


#: wrappers through which set iteration order still reaches output
_ORDER_SENSITIVE_WRAPPERS = {"list", "tuple", "enumerate", "iter", "reversed"}

#: constructors that produce a mutable container (D105)
_MUTABLE_CONSTRUCTORS = {
    "list", "dict", "set", "bytearray",
    "defaultdict", "deque", "Counter", "OrderedDict", "ChainMap",
}


def _is_mutable_expr(node: ast.expr) -> bool:
    """Syntactically certain to evaluate to a mutable container."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        dotted = _dotted(node.func)
        if dotted and dotted[-1] in _MUTABLE_CONSTRUCTORS:
            return True
    return False


def _is_constant_name(name: str) -> bool:
    """``ALL_CAPS`` constants and dunders are exempt from D105."""
    if name.startswith("__") and name.endswith("__"):
        return True
    return name == name.upper()


class DeterminismVisitor(ast.NodeVisitor):
    """Collects D1xx findings for one module."""

    def __init__(self, path: str):
        self.path = path
        self.findings: List[Finding] = []
        self.imports = _ImportMap()

    # ------------------------------------------------------------- helpers

    def _add(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0) + 1,
                rule=rule,
                message=message,
            )
        )

    def _module_of(self, name: str) -> Optional[str]:
        return self.imports.aliases.get(name)

    # --------------------------------------------------------------- calls

    def visit_Call(self, node: ast.Call) -> None:
        self._check_call(node)
        self.generic_visit(node)

    def _check_call(self, node: ast.Call) -> None:
        func = node.func
        # from-imports called bare: ``choice(...)``, ``time(...)``
        if isinstance(func, ast.Name):
            if func.id in self.imports.random_funcs:
                self._add(node, "D101",
                          f"call to random.{func.id} drawn from the module-"
                          "level RNG; plumb a seeded random.Random through")
            elif func.id in self.imports.np_random_funcs:
                self._add(node, "D102",
                          f"call to numpy.random.{func.id} uses numpy's "
                          "global RNG state; use default_rng(seed)")
            elif func.id in self.imports.time_funcs:
                self._add(node, "D103",
                          f"wall-clock read time.{func.id}(); simulation "
                          "code must use the simulator clock")
            elif self._module_of(func.id) == "random.SystemRandom":
                self._add(node, "D101",
                          "SystemRandom is non-reproducible by design")
            elif self._module_of(func.id) == "random.Random" and not (
                node.args or node.keywords
            ):
                self._add(node, "D101",
                          "random.Random() without a seed argument")
            elif self._module_of(func.id) == "datetime.datetime":
                pass  # constructing datetime(...) from literals is fine
            return

        dotted = _dotted(func)
        if dotted is None:
            return
        head, rest = dotted[0], dotted[1:]
        module = self._module_of(head)
        if module is None:
            return

        if module == "random" and rest:
            self._check_stdlib_random(node, rest)
        elif module == "numpy" and len(rest) >= 2 and rest[0] == "random":
            self._check_numpy_random(node, rest[1:])
        elif module == "numpy.random" and rest:
            self._check_numpy_random(node, rest)
        elif module == "time" and rest and rest[0] in _CLOCK_CALLS["time"]:
            self._add(node, "D103",
                      f"wall-clock read time.{rest[0]}(); simulation code "
                      "must use the simulator clock")
        elif module in ("datetime", "datetime.datetime", "datetime.date"):
            self._check_datetime(node, module, rest)

    def _check_stdlib_random(self, node: ast.Call, rest: Tuple[str, ...]) -> None:
        attr = rest[0]
        if attr == "Random":
            if not (node.args or node.keywords):
                self._add(node, "D101",
                          "random.Random() without a seed argument")
        elif attr == "SystemRandom":
            self._add(node, "D101",
                      "random.SystemRandom is non-reproducible by design")
        elif attr in _STDLIB_DRAWS:
            self._add(node, "D101",
                      f"call to random.{attr} drawn from the module-level "
                      "RNG; plumb a seeded random.Random through")

    def _check_numpy_random(self, node: ast.Call, rest: Tuple[str, ...]) -> None:
        attr = rest[0]
        if attr == "default_rng":
            if not (node.args or node.keywords):
                self._add(node, "D102",
                          "default_rng() without a seed argument")
            return
        if attr in ("Generator", "SeedSequence", "PCG64", "Philox",
                    "MT19937", "SFC64", "BitGenerator"):
            return  # explicit generator plumbing
        self._add(node, "D102",
                  f"np.random.{attr} uses numpy's global RNG state; use "
                  "np.random.default_rng(seed)")

    def _check_datetime(self, node: ast.Call, module: str,
                        rest: Tuple[str, ...]) -> None:
        # ``datetime.now()`` via the class alias, ``datetime.datetime.now()``
        # via the module alias, ``date.today()`` ...
        if module == "datetime" and len(rest) >= 2:
            cls, meth = rest[0], rest[1]
            if cls in ("datetime", "date") and meth in _CLOCK_CALLS["datetime"]:
                self._add(node, "D103",
                          f"wall-clock read datetime.{cls}.{meth}()")
        elif module in ("datetime.datetime", "datetime.date") and rest:
            if rest[0] in _CLOCK_CALLS["datetime"]:
                self._add(node, "D103",
                          f"wall-clock read {module.split('.')[1]}.{rest[0]}()")

    # ----------------------------------------------------------- iteration

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _check_iter(self, iter_node: ast.expr) -> None:
        target = iter_node
        # peel order-sensitive wrappers: list(set(...)), enumerate(set(...))
        while (
            isinstance(target, ast.Call)
            and isinstance(target.func, ast.Name)
            and target.func.id in _ORDER_SENSITIVE_WRAPPERS
            and target.args
        ):
            target = target.args[0]
        if _is_set_expr(target):
            self._add(target, "D104",
                      "iteration over an unordered set; wrap it in "
                      "sorted(...) so downstream order is deterministic")

    # --------------------------------------------------- session isolation

    def _check_module_state(self, tree: ast.AST) -> None:
        """D105: module-level mutable containers in simnet leak across sessions."""
        for stmt in getattr(tree, "body", []):
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            if not _is_mutable_expr(value):
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if _is_constant_name(target.id):
                    continue
                self._add(
                    stmt, "D105",
                    f"module-level mutable state {target.id!r} outlives the "
                    "session and leaks into the next one the process runs; "
                    "scope it to the Simulator",
                )
                break

    def run(self, tree: ast.AST) -> List[Finding]:
        self.imports.collect(tree)
        self.visit(tree)
        if "simnet" in _path_parts(self.path):
            self._check_module_state(tree)
        return self.findings


def _path_parts(path: str) -> Tuple[str, ...]:
    return tuple(path.replace("\\", "/").split("/"))


def check_determinism(path: str, source: str) -> List[Finding]:
    """All D1xx findings for one module's source text."""
    tree = ast.parse(source, filename=path)
    visitor = DeterminismVisitor(path)
    return visitor.run(tree)
