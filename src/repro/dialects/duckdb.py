"""Simulated DuckDB.

DuckDB's rich array/map/JSON surface is where its 21 injected bugs cluster
(Table 4: nine in array functions alone).  DuckDB builds with assertions
enabled, which is why its dominant crash class is assertion failure (AF).
All 21 bugs were confirmed and fixed.
"""

from __future__ import annotations

from ..engine.casting import TypeLimits
from ..engine.functions import FunctionRegistry
from .base import Dialect

_BUG_ROWS = [
    # -- array (9): AF(5), HBOF(3), SO(1); P1.2(7), P1.4(1), P2.2(1)
    ("array_length", "array", "AF", "P1.2", ("null", 0),
     "SELECT ARRAY_LENGTH(NULL);",
     "D_ASSERT(vector.validity) fires for an untyped NULL list", True),
    ("array_append", "array", "AF", "P1.2", ("star",),
     "SELECT ARRAY_APPEND([1], *);",
     "the '*' marker is asserted to be a bound expression", True),
    ("array_position", "array", "AF", "P1.2", ("empty", 1),
     "SELECT ARRAY_POSITION([1], '');",
     "empty-string needles are asserted to have a non-zero hash", True),
    ("array_slice", "array", "HBOF", "P1.2", ("big", 99999, 1),
     "SELECT ARRAY_SLICE([1, 2], 99999, 3);",
     "the begin offset is clamped after the child-vector pointer is "
     "advanced", True),
    ("array_concat", "array", "HBOF", "P1.2", ("null", 1),
     "SELECT ARRAY_CONCAT([1], NULL);",
     "NULL second list contributes garbage length to the result "
     "allocation", True),
    ("array_reverse", "array", "AF", "P1.2", ("null", 0),
     "SELECT ARRAY_REVERSE(NULL);",
     "reverse asserts a materialised child vector", True),
    ("array_sum", "array", "HBOF", "P1.2", ("wide", 13, 0),
     "SELECT ARRAY_SUM(9999999999999);",
     "a wide scalar takes the flat-vector path sized for list entries", True),
    ("array_distinct", "array", "AF", "P1.4", ("double", "[", 2, 0),
     "SELECT ARRAY_DISTINCT('[[1, 2]');",
     "a malformed doubled-bracket list literal is asserted to have been "
     "rejected by the binder", True),
    ("array_sort", "array", "SO", "P2.2", ("arrarr", 0),
     "SELECT ARRAY_SORT((SELECT [1] UNION SELECT [2]));",
     "UNION-unified list-of-list values make the comparator recurse "
     "per nesting level with no depth guard", True),
    # -- date (1): SO; P3.1
    ("str_to_date", "date", "SO", "P3.1", ("long", 400, 0),
     "SELECT STR_TO_DATE(REPEAT('1-', 300), '%Y');",
     "the format matcher backtracks once per repeated separator", True),
    # -- map (3): AF(1), HBOF(2); P1.2(2), P2.1(1)
    ("map_keys", "map", "AF", "P1.2", ("null", 0),
     "SELECT MAP_KEYS(NULL);",
     "MAP_KEYS asserts the map vector is non-null", True),
    ("map_values", "map", "HBOF", "P1.2", ("star",),
     "SELECT MAP_VALUES(*);",
     "the '*' marker is copied as if it were a map payload", True),
    ("map_from_arrays", "map", "HBOF", "P2.1", ("castbin", 0),
     "SELECT MAP_FROM_ARRAYS(CAST('ab' AS BINARY), [1]);",
     "a blob where the key list is expected is measured in entries but "
     "copied in bytes", True),
    # -- json (1): AF; P1.2
    ("json_depth", "json", "AF", "P1.2", ("empty", 0),
     "SELECT JSON_DEPTH('');",
     "the yyjson root is asserted non-null; empty input has no root", True),
    # -- math (2): AF(1), HBOF(1); P1.2(1), P2.1(1)
    ("factorial", "math", "AF", "P1.2", ("neg", 0),
     "SELECT FACTORIAL(-99999);",
     "the operand is asserted non-negative before range checking", True),
    ("round", "math", "HBOF", "P2.1", ("castdec", 25, 0),
     "SELECT ROUND(CAST(1.5 AS DECIMAL(30, 28)), 2);",
     "the power-of-ten table for rescaling is indexed by a 28-digit "
     "scale", True),
    # -- string (4): AF(2), SEGV(2); P1.2(1), P1.3(1), P3.1(1), P3.3(1)
    ("left", "string", "AF", "P1.2", ("big", 9999, 1),
     "SELECT LEFT('abc', 99999);",
     "count is asserted to fit the subject's length class", True),
    ("right", "string", "AF", "P1.3", ("digitrun", 5, 0),
     "SELECT RIGHT('x99999', 2);",
     "inserted digit runs trip the numeric-suffix fast path assertion", True),
    ("repeat", "string", "SEGV", "P3.1", ("long", 1000, 0),
     "SELECT REPEAT(REPEAT('ab', 600), 2);",
     "the doubling copy loop overruns the source when the subject itself "
     "came from repetition", True),
    ("reverse", "string", "SEGV", "P3.3", ("njson", 0),
     "SELECT REVERSE(JSON_ARRAY(1, 2));",
     "grapheme iteration over a JSON document's inline representation", True),
    # -- system (1): AF; P2.1
    ("current_setting", "system", "AF", "P2.1", ("castbin", 0),
     "SELECT CURRENT_SETTING(CAST('a' AS BINARY));",
     "setting names are asserted to be inlined strings; blobs are not", True),
]


#: non-crashing defects for the logic-bug oracles (installed on demand only;
#: see Dialect.install_logic_flaws) — rows are (function, family, kind,
#: pattern, trigger_spec, poc, description)
_LOGIC_FLAW_ROWS = [
    ("floor", "math", "wrong", "P1.3", ("wide", 5, 0),
     "SELECT FLOOR(99999.8);",
     "the wide-decimal path rounds half-up before flooring, so FLOOR lands "
     "one above the correct integer for five-digit-and-wider inputs"),
    ("lower", "string", "wrong", "P1.3", ("digitrun", 5, 0),
     "SELECT LOWER('A99999B');",
     "the case-folding scratch buffer is sized before digit runs are "
     "copied, losing the final character of the result"),
    ("space", "string", "strict", "P1.2", ("big", 1, 0),
     "SELECT SPACE(4);",
     "the padding-length validation reuses the negative-count error path "
     "for every positive count"),
    ("is_null_test", "predicate", "tlp", "P1.1", (),
     "SELECT k, i, s, d FROM fuzz_t WHERE d < 1.5;",
     "the IS NULL test propagates the unknown instead of deciding it, so "
     "the three-way predicate partition loses every row whose predicate "
     "is NULL"),
    ("null_compare_fold", "predicate", "norec", "P1.1", (),
     "SELECT k, i, s, d FROM fuzz_t WHERE d = d AND NOT (NULL = 1);",
     "the constant folder rewrites comparisons against NULL to FALSE "
     "instead of NULL, so optimized plans flip NOT (... = NULL) from "
     "unknown to true"),
]


class DuckDBDialect(Dialect):
    name = "duckdb"
    version = "0.10.1"
    stack_depth = 256
    bug_rows = _BUG_ROWS
    logic_flaw_rows = _LOGIC_FLAW_ROWS

    def make_limits(self) -> TypeLimits:
        return TypeLimits(
            decimal_max_digits=38,
            decimal_max_scale=38,
            json_max_depth=None,   # yyjson parses iteratively, no guard
            xml_max_depth=64,
        )

    def customize_registry(self, registry: FunctionRegistry) -> None:
        # DuckDB naming: list_* synonyms for array functions
        registry.alias("array_length", "list_length", "array_size")
        registry.alias("array_append", "list_append")
        registry.alias("array_prepend", "list_prepend")
        registry.alias("array_concat", "list_concat", "list_cat")
        registry.alias("array_sort", "list_sort")
        registry.alias("array_distinct", "list_distinct")
        registry.alias("array_reverse", "list_reverse")
        registry.alias("array_sum", "list_sum")
        registry.alias("array_min", "list_min")
        registry.alias("array_max", "list_max")
        registry.alias("group_concat", "string_agg_duck")
        registry.alias("json_extract", "json_extract_path_duck")
        registry.alias("typeof", "typeof_duck")
        # no MySQL-isms / XML / dynamic columns
        for missing in ("updatexml", "extractvalue", "xml_valid", "xpath",
                        "xmlconcat", "xmlelement", "column_create",
                        "column_json", "column_get", "elt", "field",
                        "name_const", "get_lock", "release_lock",
                        "is_used_lock", "format_bytes", "benchmark",
                        "found_rows", "last_insert_id", "inet_aton",
                        "inet_ntoa", "inet6_aton", "inet6_ntoa",
                        "todecimalstring"):
            registry.remove(missing)
