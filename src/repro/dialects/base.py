"""Dialect framework: what a simulated DBMS looks like to the harness.

A :class:`Dialect` owns a function registry (the shared reference library,
pruned/renamed to match the real system's inventory and patched with that
dialect's injected bugs), numeric limits, configuration defaults, a
documentation dump, and a regression test suite.  SOFT's collection step
consumes the last two, exactly as the paper scans real docs and test suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..engine.casting import TypeLimits
from ..engine.connection import Server
from ..engine.context import ExecutionContext
from ..engine.functions import FunctionRegistry, build_base_registry
from .bugs import declare_bugs, declare_logic_flaws, make_trigger
from .flaws import PREDICATE_KINDS, PREDICATE_KNOBS, install_flaw, install_logic_flaw


@dataclass(frozen=True)
class DocEntry:
    """One function's documentation entry."""

    name: str
    signature: str
    family: str
    doc: str


#: default seed argument lists per family used to auto-generate the
#: regression test suite (what a real suite's "basic usage" tests look like)
_FAMILY_SEED_ARGS: Dict[str, List[str]] = {
    "string": ["'abc'", "'abc', 'b'", "'abc', 1, 2", "'abc', 2, 'x', 'y'"],
    "math": ["2", "2, 3", "2, 3, 4"],
    "aggregate": ["1", "1, ','"],
    "date": ["'2020-05-06'", "'2020-05-06', '%Y'", "2020, 100"],
    "json": ["'{\"a\": 1}'", "'[1, 2]', '$[0]'", "'k', 1"],
    "xml": ["'<a><b>x</b></a>'", "'<a><b>x</b></a>', '/a/b'",
            "'<a><c></c></a>', '/a/c', '<b></b>'"],
    "array": ["[1, 2, 3]", "[1, 2, 3], 2", "[1, 2, 3], 1, 2"],
    "map": ["MAP {1: 'a'}", "MAP {1: 'a'}, 1", "[1], ['a']"],
    "spatial": ["'POINT(1 2)'", "1, 2", "'POINT(1 2)', 'POINT(3 4)'"],
    "inet": ["'127.0.0.1'", "2130706433"],
    "condition": ["1", "1, 2", "1, 2, 3", "1, 2, 3, 4"],
    "casting": ["'123'", "123.45, 2"],
    "system": ["", "'version'", "0", "10, 1"],
    "sequence": ["'s'", "'s', 5", ""],
}


class Dialect:
    """Base class for the seven simulated DBMSs."""

    #: dialect identifier used throughout campaigns and reports
    name = "generic"
    #: mimicked real-system version (per the paper's §7.2 setup)
    version = "1.0"
    #: simulated thread-stack depth
    stack_depth = 256
    #: injected-bug rows (see :func:`~repro.dialects.bugs.declare_bugs`)
    bug_rows: Sequence[tuple] = ()
    #: wrong-result / over-strict defect rows (see
    #: :func:`~repro.dialects.bugs.declare_logic_flaws`), installed only when
    #: a logic-bug oracle asks for them
    logic_flaw_rows: Sequence[tuple] = ()

    def __init__(self) -> None:
        self.limits = self.make_limits()
        self.config_defaults = self.make_config()
        self.registry = build_base_registry()
        self.customize_registry(self.registry)
        self.bugs = declare_bugs(self.name, self.bug_rows)
        self.inject_bugs(self.registry)
        # logic flaws are installed only on demand — the default crash-only
        # pipeline keeps this dialect's behaviour untouched
        self.logic_flaws = declare_logic_flaws(self.name, self.logic_flaw_rows)
        self._logic_flaws_installed = False
        self._predicate_flaws_installed: set = set()

    # -- extension points ---------------------------------------------------
    def make_limits(self) -> TypeLimits:
        return TypeLimits()

    def make_config(self) -> Dict[str, str]:
        return {"version": f"{self.name}-{self.version}"}

    def customize_registry(self, registry: FunctionRegistry) -> None:
        """Rename/remove/add functions to match the real system."""

    def inject_bugs(self, registry: FunctionRegistry) -> None:
        """Patch flawed implementations (the dialect's injected bugs)."""
        for bug in self.bugs:
            install_flaw(registry, bug.function, make_trigger(bug.trigger_spec), bug.crash)

    def install_logic_flaws(self, predicate_kinds: Sequence[str] = ()) -> None:
        """Patch the declared logic flaws into this instance's registry.

        Idempotent, and scoped to this instance: other instances of the
        same dialect (differential-oracle peers, minimizer probes) stay
        clean unless they install explicitly.

        Function-level flaws (kinds ``wrong``/``strict``) always install.
        Predicate-level flaws (kinds ``tlp``/``norec``) are engine knobs,
        not function patches, and only the kinds listed in
        *predicate_kinds* are switched on — the knob lands in
        ``config_defaults`` so every server subsequently created from this
        instance (campaign runner, oracle arms, minimizer probes) carries
        the defect.
        """
        if not self._logic_flaws_installed:
            for flaw in self.logic_flaws:
                if flaw.kind in PREDICATE_KINDS:
                    continue
                install_logic_flaw(
                    self.registry,
                    flaw.function,
                    make_trigger(flaw.trigger_spec),
                    flaw.kind,
                )
            self._logic_flaws_installed = True
        for kind in predicate_kinds:
            if kind in self._predicate_flaws_installed:
                continue
            if any(flaw.kind == kind for flaw in self.logic_flaws):
                self.config_defaults[PREDICATE_KNOBS[kind]] = "1"
            self._predicate_flaws_installed.add(kind)

    def install_context_hooks(self, ctx: ExecutionContext) -> None:
        """Install cast overrides and other per-process hooks."""

    # -- harness API ---------------------------------------------------------
    def make_context(self) -> ExecutionContext:
        ctx = ExecutionContext(
            registry=self.registry,
            limits=self.limits,
            config=dict(self.config_defaults),
            stack_depth=self.stack_depth,
        )
        self.install_context_hooks(ctx)
        return ctx

    def create_server(self) -> Server:
        return Server(self)

    def documentation(self) -> List[DocEntry]:
        """The dialect's function reference — SOFT's first seed source."""
        return [
            DocEntry(d.name, d.signature, d.family, d.doc)
            for d in self.registry
        ]

    def function_names(self) -> List[str]:
        return self.registry.names()

    def test_suite(self) -> List[str]:
        """The dialect's regression suite — SOFT's second seed source.

        Combines auto-generated basic-usage queries (one per function, using
        each function's documented examples when available) with the
        dialect's hand-written scenario queries.
        """
        queries: List[str] = []
        for definition in self.registry:
            if definition.examples:
                for example in definition.examples:
                    queries.append(f"SELECT {example};")
                continue
            for arg_list in _FAMILY_SEED_ARGS.get(definition.family, ["1"]):
                count = 0 if not arg_list else arg_list.count(",") + 1
                if count < definition.min_args:
                    continue
                if definition.max_args is not None and count > definition.max_args:
                    continue
                queries.append(f"SELECT {definition.name.upper()}({arg_list});")
                break
            else:
                pass
        queries.extend(self.scenario_queries())
        return queries

    def scenario_queries(self) -> List[str]:
        """Hand-written queries with tables, mirroring richer suite tests."""
        return [
            "DROP TABLE IF EXISTS t0;",
            "CREATE TABLE t0 (c0 INT, c1 VARCHAR(32), c2 DECIMAL(10, 2));",
            "INSERT INTO t0 VALUES (1, 'alpha', 1.25), (2, 'beta', -7.50), (3, NULL, 0);",
            "SELECT c0, UPPER(c1) FROM t0 WHERE c2 > 0;",
            "SELECT COUNT(*), SUM(c2), AVG(c0) FROM t0 GROUP BY c0 > 1;",
            "SELECT CONCAT(c1, '-', c0) FROM t0 ORDER BY c0 DESC LIMIT 2;",
            "SELECT COALESCE(c1, 'missing'), LENGTH(COALESCE(c1, '')) FROM t0;",
            "SELECT t0.c0 FROM t0 WHERE c1 LIKE '%a%' AND c2 BETWEEN -10 AND 10;",
            "SELECT CAST(c0 AS VARCHAR(10)) FROM t0 UNION SELECT c1 FROM t0;",
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Dialect {self.name} v{self.version} ({len(self.registry)} functions)>"
