"""Repro-specific AST lint pass.

Four rules keep the simulation deterministic and its kernel model honest,
complementing the trace-time direction scan in
:mod:`repro.analysis.direction`:

- ``wall-clock-time`` — no ``time.time()`` / ``perf_counter()`` /
  ``datetime.now()`` inside the simulation; virtual time comes from the
  simulator clock.  The benchmark harness (``bench/``) is exempt: measuring
  real wall-clock time is its job.
- ``unseeded-randomness`` — no module-level ``random.*`` /
  ``numpy.random.*`` calls; randomness must flow through seeded
  ``Random(seed)`` / ``default_rng(seed)`` instances so runs replay.
- ``unguarded-trace-emit`` — ``tracer.emit(...)`` must sit under an
  ``if tracer.enabled:`` guard (with a ``tick`` in the else arm), because
  ``emit`` on a disabled tracer still bumps event counters; exempt are
  emits that carry ``injected=True`` (fault-path events are always traced)
  and emits immediately followed by a ``raise`` (failure paths are rare and
  must be visible).
- ``unreleased-cookie-path`` — a function that binds a cookie from
  ``create_region`` / ``_register_or_degrade`` must either return it to its
  caller or release it in a ``finally`` block, so abort paths cannot leak
  pinned regions.

One repository-level rule rides along with the AST pass:

- ``tracked-bytecode`` — no ``.pyc`` file or ``__pycache__`` entry may be
  tracked by git.  Every run of the package writes them next to the
  sources, and a committed ``.pyc`` silently pins one host's bytecode over
  everyone else's source.

:func:`lint_paths` walks files (default: everything under ``src/repro``);
:func:`lint_source` checks one source string (used by tests);
:func:`lint_tracked_bytecode` asks git about the working tree.
"""

from __future__ import annotations

import ast
import subprocess
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.analysis.findings import ERROR, Finding

__all__ = ["lint_paths", "lint_source", "lint_tracked_bytecode"]

#: time/datetime attributes that read the host clock
_WALL_CLOCK = {
    ("time", "time"), ("time", "monotonic"), ("time", "perf_counter"),
    ("time", "process_time"), ("time", "thread_time"), ("time", "sleep"),
    ("time", "monotonic_ns"), ("time", "perf_counter_ns"),
    ("time", "time_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
}

#: module-level randomness calls that are fine (they take or carry a seed)
_SEEDED_RANDOM = {"default_rng", "Generator", "SeedSequence", "Random",
                  "seed", "getstate", "setstate"}

#: path fragments exempt from the wall-clock rule
_WALL_CLOCK_EXEMPT = ("/bench/", "/analysis/", "/chaos/", "/service/")

#: receivers treated as tracers for the emit rule
_TRACER_NAMES = {"tr", "tracer"}

#: releasing calls that satisfy the cookie rule inside ``finally``
_RELEASERS = {"reclaim", "destroy_region_safe", "destroy_region",
              "_release", "reclaim_owned"}

#: calls whose result binds a cookie
_COOKIE_SOURCES = {"create_region", "_register_or_degrade"}


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of an attribute chain (``a.b.c``)."""
    parts: "list[str]" = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, tree: ast.AST):
        self.path = path
        self.findings: "list[Finding]" = []
        #: local alias -> canonical module ("import numpy.random as npr")
        self.module_aliases: "dict[str, str]" = {}
        #: names imported from time/datetime/random modules
        self.from_imports: "dict[str, tuple[str, str]]" = {}
        self._parents: "dict[ast.AST, ast.AST]" = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    def finding(self, category: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 0)
        self.findings.append(Finding(
            checker="lint", category=category, severity=ERROR,
            message=f"{self.path}:{line}: {message}",
            details={"file": self.path, "line": line}))

    # -- imports ----------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.module_aliases[alias.asname or alias.name.split(".")[0]] = \
                alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if module in ("time", "datetime", "random", "numpy.random"):
            for alias in node.names:
                self.from_imports[alias.asname or alias.name] = \
                    (module, alias.name)
        self.generic_visit(node)

    # -- calls ------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self._check_wall_clock(node)
        self._check_randomness(node)
        self._check_trace_emit(node)
        self.generic_visit(node)

    def _check_wall_clock(self, node: ast.Call) -> None:
        if any(frag in self.path for frag in _WALL_CLOCK_EXEMPT):
            return
        func = node.func
        if isinstance(func, ast.Attribute):
            dotted = _dotted(func)
            head = dotted.split(".")[0]
            module = self.module_aliases.get(head, head)
            key = (module.split(".")[-1], func.attr)
            chain_key = (dotted.split(".")[-2] if "." in dotted else "",
                         func.attr)
            if key in _WALL_CLOCK or chain_key in _WALL_CLOCK:
                self.finding(
                    "wall-clock-time", node,
                    f"wall-clock call {dotted}(): simulation code must use "
                    f"the simulator clock, not host time")
        elif isinstance(func, ast.Name) and func.id in self.from_imports:
            module, original = self.from_imports[func.id]
            if (module.split(".")[-1], original) in _WALL_CLOCK \
                    or (module, original) in _WALL_CLOCK:
                self.finding(
                    "wall-clock-time", node,
                    f"wall-clock call {original}() (from {module}): "
                    f"simulation code must use the simulator clock")

    def _check_randomness(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            if isinstance(func, ast.Name) and func.id in self.from_imports:
                module, original = self.from_imports[func.id]
                if module in ("random", "numpy.random") \
                        and original not in _SEEDED_RANDOM:
                    self.finding(
                        "unseeded-randomness", node,
                        f"module-level {module}.{original}() call shares "
                        f"global RNG state; use a seeded Random/default_rng "
                        f"instance")
            return
        dotted = _dotted(func)
        head = dotted.split(".")[0]
        module = self.module_aliases.get(head, head)
        is_random = (module == "random" and dotted.count(".") == 1) \
            or dotted.startswith(("random.", "np.random.", "numpy.random."))
        if module == "numpy.random":
            is_random = True
        if is_random and func.attr not in _SEEDED_RANDOM:
            self.finding(
                "unseeded-randomness", node,
                f"module-level {dotted}() call shares global RNG state; "
                f"use a seeded Random/default_rng instance")

    # -- trace emits ------------------------------------------------------
    def _check_trace_emit(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr != "emit":
            return
        recv = func.value
        is_tracer = (isinstance(recv, ast.Name) and recv.id in _TRACER_NAMES) \
            or (isinstance(recv, ast.Attribute) and recv.attr == "tracer")
        if not is_tracer:
            return
        if self.path.endswith(("simtime/trace.py", "simtime\\trace.py")):
            return
        for kw in node.keywords:
            if kw.arg == "injected" and isinstance(kw.value, ast.Constant) \
                    and kw.value.value is True:
                return
        if self._guarded_by_enabled(node) or self._followed_by_raise(node):
            return
        self.finding(
            "unguarded-trace-emit", node,
            "tracer.emit() outside an `if tracer.enabled:` guard — emit on "
            "a disabled tracer still bumps counters; guard it and tick() in "
            "the else arm")

    def _guarded_by_enabled(self, node: ast.AST) -> bool:
        cur: Optional[ast.AST] = node
        while cur is not None:
            parent = self._parents.get(cur)
            if isinstance(parent, ast.If) and cur in parent.body:
                for sub in ast.walk(parent.test):
                    if isinstance(sub, ast.Attribute) \
                            and sub.attr == "enabled":
                        return True
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False
            cur = parent
        return False

    def _followed_by_raise(self, node: ast.AST) -> bool:
        # climb to the enclosing statement, then look a few siblings ahead
        stmt: Optional[ast.AST] = node
        while stmt is not None \
                and not isinstance(stmt, ast.stmt):
            stmt = self._parents.get(stmt)
        if stmt is None:
            return False
        parent = self._parents.get(stmt)
        for body in (getattr(parent, "body", None),
                     getattr(parent, "orelse", None),
                     getattr(parent, "finalbody", None)):
            if not body or stmt not in body:
                continue
            i = body.index(stmt)
            for sibling in body[i + 1:i + 4]:
                if isinstance(sibling, ast.Raise):
                    return True
                if any(isinstance(n, ast.Raise) for n in ast.walk(sibling)):
                    return True
        return False

    # -- cookie release on abort paths ------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_cookie_paths(node)
        self.generic_visit(node)

    def _check_cookie_paths(self, node: ast.FunctionDef) -> None:
        if node.name in _COOKIE_SOURCES:
            return  # the sources themselves hand the cookie to their caller
        bindings: "list[tuple[str, ast.AST]]" = []
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Assign) or len(sub.targets) != 1:
                continue
            target = sub.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = sub.value
            if isinstance(value, ast.YieldFrom):
                value = value.value
            if isinstance(value, ast.Call) \
                    and _call_name(value) in _COOKIE_SOURCES:
                bindings.append((target.id, sub))
        if not bindings:
            return
        returned = {
            n.value.id
            for n in ast.walk(node)
            if isinstance(n, ast.Return) and isinstance(n.value, ast.Name)
        }
        protected = self._finally_releases(node)
        for name, assign in bindings:
            if name in returned or protected:
                continue
            self.finding(
                "unreleased-cookie-path", assign,
                f"function {node.name}() binds cookie {name!r} from a "
                f"register call without a finally-block release or "
                f"returning it — an abort path leaks the pinned region")

    @staticmethod
    def _finally_releases(node: ast.FunctionDef) -> bool:
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Try) or not sub.finalbody:
                continue
            for stmt in sub.finalbody:
                for inner in ast.walk(stmt):
                    if isinstance(inner, ast.Call) \
                            and _call_name(inner) in _RELEASERS:
                        return True
        return False


def lint_source(source: str, path: str = "<memory>") -> "list[Finding]":
    """Lint one Python source string; returns findings."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(checker="lint", category="syntax-error",
                        severity=ERROR,
                        message=f"{path}:{exc.lineno}: {exc.msg}")]
    linter = _Linter(path.replace("\\", "/"), tree)
    linter.visit(tree)
    return linter.findings


def _default_paths() -> "list[Path]":
    root = Path(__file__).resolve().parents[3]  # .../src
    return sorted((root / "repro").rglob("*.py"))


def lint_paths(paths: "Optional[Iterable[Union[str, Path]]]" = None,
               ) -> "list[Finding]":
    """Lint files (default: every module under ``src/repro``)."""
    targets = [Path(p) for p in paths] if paths is not None \
        else _default_paths()
    findings: "list[Finding]" = []
    for target in targets:
        findings.extend(lint_source(target.read_text(encoding="utf-8"),
                                    path=str(target)))
    return findings


def lint_tracked_bytecode(root: "Union[str, Path, None]" = None,
                          ) -> "list[Finding]":
    """Flag git-tracked compiled artifacts (``.pyc`` / ``__pycache__``).

    Asks ``git ls-files`` in ``root`` (default: the current directory).
    Outside a git checkout — or without git on PATH — there is nothing to
    check and the rule passes vacuously.
    """
    try:
        out = subprocess.run(
            ["git", "ls-files", "-z", "--", "*.pyc", "*__pycache__*"],
            cwd=str(root) if root is not None else None,
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return []
    return [
        Finding(checker="lint", category="tracked-bytecode", severity=ERROR,
                message=f"{path}: compiled artifact tracked by git; "
                        f"bytecode belongs to the build, not the history "
                        f"(git rm --cached it and let .gitignore cover it)")
        for path in sorted(p for p in out.split("\0") if p)
    ]
