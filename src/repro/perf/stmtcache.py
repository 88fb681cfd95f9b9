"""Statement parse/plan cache for the execution hot path.

Profiling a BUDGET_24H campaign shows roughly half of ``Connection.execute``
is spent re-lexing/re-parsing/re-optimizing SQL text — yet the pattern
streams are highly repetitive in *shape*: P1.x/P2.3/P3.1 emit the same seed
skeleton with one literal swapped.  Only ~7-9% of statements repeat
byte-for-byte, so (as in production DBMS plan caches) an exact-match cache
alone buys little; the win comes from *parameterized* plan templates.

Two LRU tiers, both keyed under the dialect name:

* **exact tier** — ``(dialect, sql) → optimized statement``.  A hit skips
  lexing, parsing, and optimization entirely; the cached plan tree is
  re-executed as-is (execution never mutates ASTs in this engine).
* **template tier** — ``(dialect, fingerprint) → parse template``.  The
  fingerprint is the token stream with literal *values* masked (their
  lexical kinds kept), so ``SELECT ASIN(9999)`` and ``SELECT ASIN(-0.01)``
  share one parse.  On a hit the template's literal slots are rebound from
  the probe's literal tokens — no tree building.  Measured on the duckdb
  generation stream this tier alone serves >50% of statements.

Correctness machinery (a cached plan must be byte-identical in outcome to a
cold parse):

* A statement only becomes a template if its literal *tokens* correspond
  1:1, in order and by kind and value, to the literal *nodes* of its parse
  tree (``_template_slots``).  Statements where the parser consumes literal
  tokens without producing literal nodes (e.g. ``CAST(x AS DECIMAL(30,28))``
  — the 30/28 land in ``TypeName.params``) fail the check and stay
  exact-tier only.  Since rebinding only changes literal values, never
  token shapes, the correspondence proven at template creation holds for
  every later probe with the same fingerprint.
* The optimizer's rewrites fire at structurally-detectable sites (literal
  BinaryOp/UnaryOp, all-literal pure calls under ``fold_functions``,
  ``WHERE TRUE``) and rebinding never changes structure, so a template with
  no fold site (``needs_optimize=False``) provably optimizes to itself for
  *every* rebinding and is executed directly; otherwise the optimizer runs
  per hit on the rebound tree (its transform deep-rewrites into fresh
  nodes, leaving the template untouched).
* Only single-statement SELECT/set-operation text is cached.  Entries are
  inserted after parse+optimize succeed and *before* execution, so an
  execute-stage crash leaves a plan behind and its reconfirmation replays
  the identical plan, while parse/optimize-stage failures never populate
  the cache.
* Any non-SELECT statement (DDL, DML, ``SET`` — which can flip
  ``fold_functions``) and every server restart invalidate the whole cache.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..sqlast import nodes as n
from ..sqlast.lexer import LexError, tokenize
from ..sqlast.tokens import Token, TokenKind
from ..sqlast.visitor import walk

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.context import ExecutionContext

#: literal token kinds that are masked out of the fingerprint
_LITERAL_TOKENS = (TokenKind.INTEGER, TokenKind.DECIMAL, TokenKind.STRING)

#: default LRU capacities; generous because the template tier's value grows
#: with the number of distinct shapes it can hold
DEFAULT_EXACT_CAPACITY = 8_192
DEFAULT_TEMPLATE_CAPACITY = 16_384


def _fingerprint(tokens: Sequence[Token]) -> str:
    """Token stream with literal values masked, everything else verbatim.

    Two statements share a fingerprint iff they differ only in the values
    of INTEGER/DECIMAL/STRING literal tokens (kinds preserved — an integer
    and a string at the same position are different shapes, because the
    parser builds different node types for them).
    """
    parts: List[str] = []
    for token in tokens:
        kind = token.kind
        if kind is TokenKind.INTEGER:
            parts.append("\x00i")
        elif kind is TokenKind.DECIMAL:
            parts.append("\x00d")
        elif kind is TokenKind.STRING:
            parts.append("\x00s")
        elif kind is TokenKind.IDENT:
            parts.append(("\x01q" if token.quoted else "\x01") + token.text)
        elif kind is TokenKind.EOF:
            break
        else:  # OPERATOR / PARAM
            parts.append("\x02" + token.text)
    return "\x1f".join(parts)


def _literal_tokens(tokens: Sequence[Token]) -> List[Token]:
    return [t for t in tokens if t.kind in _LITERAL_TOKENS]


_SLOT_NODES = (n.IntegerLit, n.DecimalLit, n.StringLit)


def _template_slots(
    stmt: n.Statement, lit_tokens: Sequence[Token]
) -> Optional[List[n.Expr]]:
    """The statement's literal nodes, iff they correspond 1:1 to the
    literal tokens (same count, order, kind, and value); None otherwise.

    Preorder tree walk yields literal leaves in source order (every node
    type's children are stored in source order), and the value check makes
    the correspondence self-verifying: any statement whose parse does not
    line up — type parameters, lexer-normalized literals, anything
    surprising — is simply not parameterizable.
    """
    slots = [node for node in walk(stmt) if isinstance(node, _SLOT_NODES)]
    if len(slots) != len(lit_tokens):
        return None
    for node, token in zip(slots, lit_tokens):
        if isinstance(node, n.IntegerLit):
            if token.kind is not TokenKind.INTEGER or node.text != token.text:
                return None
        elif isinstance(node, n.DecimalLit):
            if token.kind is not TokenKind.DECIMAL or node.text != token.text:
                return None
        else:  # StringLit
            if token.kind is not TokenKind.STRING or node.value != token.text:
                return None
    return slots


def _has_fold_site(stmt: n.Statement, ctx: "ExecutionContext") -> bool:
    """Whether the optimizer could rewrite any node of *stmt*.

    Mirrors ``repro.engine.optimizer._fold``'s trigger conditions, which
    depend only on node types (and the registry / ``fold_functions``
    config), never on literal values — so this answer is invariant under
    literal rebinding.  Folding is bottom-up and can cascade, but a cascade
    needs an initial site; zero sites means optimize is the identity.
    """
    fold_functions = ctx.get_config("fold_functions") == "1"
    literal = (n.IntegerLit, n.DecimalLit, n.StringLit, n.NullLit, n.BooleanLit)
    for node in walk(stmt):
        if isinstance(node, n.BinaryOp):
            if isinstance(node.left, literal) and isinstance(node.right, literal):
                if node.op.upper() not in ("AND", "OR"):
                    return True
        elif isinstance(node, n.UnaryOp):
            if isinstance(node.operand, literal) and node.op != "NOT":
                return True
        elif isinstance(node, n.Select):
            if isinstance(node.where, n.BooleanLit):
                return True
        elif fold_functions and isinstance(node, n.FuncCall):
            if all(isinstance(a, literal) for a in node.args):
                try:
                    definition = ctx.registry.lookup(node.name)
                except Exception:
                    continue
                if definition.pure and not definition.is_aggregate:
                    return True
    return False


class _Template:
    """One parameterized parse template."""

    __slots__ = ("stmt", "slots", "needs_optimize", "_bound")

    def __init__(self, stmt: n.Statement, slots: List[n.Expr], needs_optimize: bool):
        self.stmt = stmt
        self.slots = slots
        self.needs_optimize = needs_optimize
        #: identity of the texts list currently spliced into the slots —
        #: a repeat of the same exact-tier entry skips the splice entirely
        self._bound: Optional[Sequence[str]] = None

    def rebind(self, lit_tokens: Sequence[Token]) -> n.Statement:
        """Splice the probe's literal values into the template in place.

        Safe because the template tree is owned by the cache: execution
        never mutates ASTs, and when optimization is needed it transforms
        into fresh nodes rather than editing these.
        """
        self._bound = None  # token lists are transient; no identity to keep
        for node, token in zip(self.slots, lit_tokens):
            if isinstance(node, n.StringLit):
                node.value = token.text
            else:  # IntegerLit / DecimalLit keep raw source text
                node.text = token.text
        return self.stmt

    def rebind_texts(self, texts: Sequence[str]) -> n.Statement:
        """Like :meth:`rebind`, from pre-extracted literal texts.

        Memoized on the identity of *texts*: each exact-tier
        ``_TemplateRef`` owns its texts list for life, so ``is`` means the
        slots already hold exactly these values.
        """
        if texts is self._bound:
            return self.stmt
        for node, text in zip(self.slots, texts):
            if isinstance(node, n.StringLit):
                node.value = text
            else:
                node.text = text
        self._bound = texts
        return self.stmt


class _TemplateRef:
    """An exact-tier entry that memoizes a template probe.

    Template hits promote into the exact tier as (template, literal texts)
    so a byte-identical repeat skips lexing and fingerprinting entirely —
    rebinding a handful of saved literal texts is all that's left.  Shares
    the template's tree; always consistent because both tiers are only
    ever invalidated together.
    """

    __slots__ = ("template", "texts")

    def __init__(self, template: _Template, texts: List[str]):
        self.template = template
        self.texts = texts


class Plan:
    """What a cache probe hands back to ``Connection.execute``."""

    __slots__ = ("stmt", "needs_optimize")

    def __init__(self, stmt: n.Statement, needs_optimize: bool):
        self.stmt = stmt
        self.needs_optimize = needs_optimize


class StatementCache:
    """Two-tier LRU parse/plan cache (see module docstring).

    Not thread-safe; one cache belongs to one simulated server, and each
    parallel campaign worker owns its server (and therefore its cache).
    """

    def __init__(
        self,
        capacity: int = DEFAULT_EXACT_CAPACITY,
        template_capacity: int = DEFAULT_TEMPLATE_CAPACITY,
    ) -> None:
        self.capacity = capacity
        self.template_capacity = template_capacity
        #: values are optimized trees, or _TemplateRefs for promoted
        #: template hits
        self._exact: "OrderedDict[Tuple[str, str], object]" = OrderedDict()
        self._templates: "OrderedDict[Tuple[str, str], _Template]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        #: always zero: plans are interpreted.  Kept only because the
        #: traced benchmark (perfbench/layers.py) reads them, until a
        #: benchmark change drops them.
        self.compile_fallbacks = 0
        self.compiled_executions = 0
        #: probe scratch carried from a miss into the following insert
        self._probe_sql: Optional[str] = None
        self._probe_tokens: Optional[List[Token]] = None
        self._probe_fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._exact) + len(self._templates)

    # ------------------------------------------------------------------
    def fetch(self, dialect: str, sql: str) -> Optional[Plan]:
        """Look *sql* up; None means the caller must parse (a miss)."""
        exact_key = (dialect, sql)
        entry = self._exact.get(exact_key)
        if entry is not None:
            # recency bookkeeping only matters once eviction is imminent
            if len(self._exact) >= self.capacity:
                self._exact.move_to_end(exact_key)
            self.hits += 1
            if entry.__class__ is _TemplateRef:
                template = entry.template
                return Plan(
                    template.rebind_texts(entry.texts), template.needs_optimize
                )
            return Plan(entry, needs_optimize=False)
        try:
            tokens = tokenize(sql)
        except LexError:
            self.misses += 1
            self._probe_sql = None
            return None
        fingerprint = _fingerprint(tokens)
        template = self._templates.get((dialect, fingerprint))
        if template is not None:
            self._templates.move_to_end((dialect, fingerprint))
            self.hits += 1
            lit_tokens = _literal_tokens(tokens)
            # promote into the exact tier: a byte-identical repeat of this
            # statement will skip lexing and fingerprinting entirely
            self._exact[exact_key] = _TemplateRef(
                template, [t.text for t in lit_tokens]
            )
            while len(self._exact) > self.capacity:
                self._exact.popitem(last=False)
            # with needs_optimize, per-rebinding optimization happens in the
            # connection (the fold must keep raising under stage="optimize")
            return Plan(template.rebind(lit_tokens), template.needs_optimize)
        self.misses += 1
        # stash the lex work for the caller's parse (probe_tokens) and the
        # following insert(), so a miss never lexes or fingerprints twice
        self._probe_sql = sql
        self._probe_tokens = tokens
        self._probe_fingerprint = fingerprint
        return None

    def probe_tokens(self, sql: str) -> Optional[List[Token]]:
        """The token stream lexed by the last (missing) :meth:`fetch`.

        Lets ``Connection.execute`` hand the probe's lex work straight to
        the parser instead of tokenizing the same text a second time.
        """
        if self._probe_sql == sql:
            return self._probe_tokens
        return None

    def insert(
        self,
        dialect: str,
        sql: str,
        parsed: n.Statement,
        optimized: n.Statement,
        ctx: "ExecutionContext",
    ) -> None:
        """Cache a freshly parsed+optimized single SELECT statement.

        Called between optimization and execution: an execute-stage crash
        must leave the plan cached (reconfirmation replays it identically),
        while parse/optimize failures never reach here.
        """
        exact_key = (dialect, sql)
        self._exact[exact_key] = optimized
        self._exact.move_to_end(exact_key)
        while len(self._exact) > self.capacity:
            self._exact.popitem(last=False)
        if self._probe_sql != sql or self._probe_tokens is None:
            return  # lexing failed or probe was for different text
        tokens = self._probe_tokens
        fingerprint = self._probe_fingerprint
        self._probe_sql = None
        self._probe_tokens = None
        self._probe_fingerprint = None
        slots = _template_slots(parsed, _literal_tokens(tokens))
        if slots is None:
            return  # not parameterizable; exact tier still serves repeats
        template = _Template(parsed, slots, _has_fold_site(parsed, ctx))
        template_key = (dialect, fingerprint)
        self._templates[template_key] = template
        self._templates.move_to_end(template_key)
        while len(self._templates) > self.template_capacity:
            self._templates.popitem(last=False)

    # ------------------------------------------------------------------
    def invalidate_all(self, reason: str = "") -> None:
        """Drop every entry (DDL ran, config changed, or server restarted).

        Hit/miss counters survive — they describe the workload, not the
        current contents.
        """
        if self._exact or self._templates:
            self.invalidations += 1
        self._exact.clear()
        self._templates.clear()
        self._probe_sql = None
        self._probe_tokens = None
        self._probe_fingerprint = None

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "invalidations": self.invalidations,
            "exact_entries": len(self._exact),
            "template_entries": len(self._templates),
        }
