"""Simulated MySQL.

Carries 16 injected bugs (Table 4): six in aggregates, one date, one
spatial, two string, five system, one XML.  Per the paper, MySQL confirmed
all of them but had fixed only one by publication time (releases lag bug
reports by months), so ``fixed`` is False for all but one system bug.
"""

from __future__ import annotations

from typing import List

from ..engine.casting import TypeLimits
from ..engine.context import ExecutionContext
from ..engine.errors import ValueError_
from ..engine.functions import FunctionRegistry
from ..engine.values import NULL, SQLString, SQLValue
from .base import Dialect

_BUG_ROWS = [
    # -- aggregate (6): NPD(4), SEGV(1), GBOF(1); P1.3(1), P3.3(4), P2.1(1)
    ("avg", "aggregate", "GBOF", "P1.3", ("wide", 20, 0),
     "SELECT AVG(1.29999999999999999999999999999999999999999999);",
     "an over-wide decimal literal exceeds the static digit buffer used to "
     "normalise AVG inputs (paper Listing 6)", False),
    ("sum", "aggregate", "NPD", "P3.3", ("nbytes", 0),
     "SELECT SUM(UNHEX('FF'));",
     "a binary value from a nested function has no numeric item descriptor; "
     "the NULL descriptor is dereferenced", False),
    ("max", "aggregate", "NPD", "P3.3", ("ngeom", 0),
     "SELECT MAX(POINT(1, 2));",
     "geometry comparator lookup returns NULL for MAX over points", False),
    ("min", "aggregate", "NPD", "P3.3", ("njson", 0),
     "SELECT MIN(JSON_ARRAY(1));",
     "JSON document reaches MIN's scalar comparator path", False),
    ("bit_and", "aggregate", "NPD", "P3.3", ("ndate", 0),
     "SELECT BIT_AND(DATE('2020-01-02'));",
     "temporal value has no integer image in the BIT_AND accumulator", False),
    ("group_concat", "aggregate", "SEGV", "P2.1", ("castbin", 0),
     "SELECT GROUP_CONCAT(CAST('a' AS BINARY));",
     "binary collation pointer is computed from a charset table the cast "
     "value does not carry", False),
    # -- date (1): SEGV(1); P3.3
    ("makedate", "date", "SEGV", "P3.3", ("ndate", 0),
     "SELECT MAKEDATE(DATE('2020-01-02'), 5);",
     "a DATE value where the year integer is expected walks the packed "
     "temporal representation as an offset", False),
    # -- spatial (1): UAF(1); P3.3
    ("st_centroid", "spatial", "UAF", "P3.3", ("nbytes", 0),
     "SELECT ST_CENTROID(INET6_ATON('::1'));",
     "the geometry temporary is freed on the failed-decode path but the "
     "centroid accumulator still points into it", False),
    # -- string (2): HBOF(2); P3.2(1), P3.3(1)
    ("lpad", "string", "HBOF", "P3.2", ("njson", 0),
     "SELECT LPAD(JSON_ARRAY('5'), 10, '0');",
     "pad-length measured on the inline JSON header but the full document "
     "is copied into the pad buffer", False),
    ("insert", "string", "HBOF", "P3.3", ("ngeom", 0),
     "SELECT INSERT(POINT(1, 2), 1, 1, 'x');",
     "geometry rendering is longer than the length field used for the "
     "splice buffer", False),
    # -- system (5): NPD(4), HBOF(1); P3.2(1), P3.3(4) — one fixed
    ("name_const", "system", "NPD", "P3.3", ("njson", 1),
     "SELECT NAME_CONST('n', JSON_OBJECT('a', 1));",
     "NAME_CONST only models literal values; a JSON document yields a NULL "
     "item pointer (fixed upstream)", True),
    ("get_lock", "system", "NPD", "P3.3", ("ndate", 1),
     "SELECT GET_LOCK('l', DATE('2020-01-02'));",
     "timeout extraction assumes a numeric item and dereferences the "
     "missing conversion result", False),
    ("release_lock", "system", "NPD", "P3.3", ("nbytes", 0),
     "SELECT RELEASE_LOCK(UNHEX('FF'));",
     "lock name hashing dereferences the NULL charset of a binary value", False),
    ("is_used_lock", "system", "NPD", "P3.3", ("ngeom", 0),
     "SELECT IS_USED_LOCK(POINT(1, 2));",
     "lock registry lookup with a non-string key returns NULL and is used "
     "unchecked", False),
    ("format_bytes", "system", "HBOF", "P3.2", ("ndate", 0),
     "SELECT FORMAT_BYTES(FROM_UNIXTIME(1048576));",
     "unit-suffix formatting measures the epoch integer but writes the "
     "full datetime rendering", False),
    # -- xml (1): UAF(1); P3.2
    ("updatexml", "xml", "UAF", "P3.2", ("foreign", ('"',), 0),
     "SELECT UPDATEXML(JSON_QUOTE('<a></a>'), '/a', '<b></b>');",
     "a JSON-quoted document fails the XML pre-scan, which frees the parse "
     "tree that the replacement step still walks", False),
]


#: non-crashing defects for the logic-bug oracles (installed on demand only;
#: see Dialect.install_logic_flaws) — rows are (function, family, kind,
#: pattern, trigger_spec, poc, description)
_LOGIC_FLAW_ROWS = [
    ("ascii", "string", "wrong", "P1.2", ("empty", 0),
     "SELECT ASCII('');",
     "the empty-string guard is off by one: ASCII('') reports code point 1 "
     "instead of 0"),
    ("sign", "math", "wrong", "P1.2", ("neg", 0),
     "SELECT SIGN(-2.5);",
     "the comparison runs on an unsigned image of the value, so negative "
     "arguments report 0 instead of -1"),
    ("chr", "string", "strict", "P1.2", ("big", 1, 0),
     "SELECT CHR(65);",
     "the code-point range check compares against the wrong constant and "
     "rejects every documented positive code point"),
    ("is_null_test", "predicate", "tlp", "P1.1", (),
     "SELECT k, i, s, d FROM fuzz_t WHERE i > 0;",
     "the IS NULL test propagates the unknown instead of deciding it, so "
     "the three-way predicate partition loses every row whose predicate "
     "is NULL"),
    ("null_compare_fold", "predicate", "norec", "P1.1", (),
     "SELECT k, i, s, d FROM fuzz_t WHERE i = i AND NOT (NULL = 0);",
     "the constant folder rewrites comparisons against NULL to FALSE "
     "instead of NULL, so optimized plans flip NOT (... = NULL) from "
     "unknown to true"),
]


class MySQLDialect(Dialect):
    name = "mysql"
    version = "8.3.0"
    stack_depth = 256
    bug_rows = _BUG_ROWS
    logic_flaw_rows = _LOGIC_FLAW_ROWS

    def make_limits(self) -> TypeLimits:
        return TypeLimits(
            decimal_max_digits=65,
            decimal_max_scale=30,
            json_max_depth=100,
            xml_max_depth=100,
        )

    def customize_registry(self, registry: FunctionRegistry) -> None:
        # MySQL has no first-class array/map constructors
        for missing in ("array_length", "cardinality", "len", "array_append",
                        "array_prepend", "array_concat", "array_cat",
                        "array_contains", "has", "list_contains",
                        "array_position", "indexof", "list_position",
                        "array_slice", "list_slice", "array_reverse",
                        "array_distinct", "array_sort", "element_at",
                        "array_extract", "list_extract", "arrayelement",
                        "array_sum", "array_min", "array_max", "range",
                        "generate_series", "sequence_array", "array_flatten",
                        "flatten", "map_keys", "map_values", "map_size",
                        "map_contains", "mapcontains", "map_from_arrays",
                        "map_entries", "map_concat", "xpath", "xmlconcat",
                        "xmlelement", "nextval", "currval", "setval",
                        "lastval", "split_part", "todecimalstring",
                        "starts_with", "ends_with", "initcap", "translate"):
            registry.remove(missing)

        define = registry.define

        @define("name_const", "system", min_args=2, max_args=2,
                signature="NAME_CONST(name, value)",
                doc="Return value under an explicit column name.",
                examples=["NAME_CONST('n', 1)"])
        def fn_name_const(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
            if args[0].is_null:
                raise ValueError_("NAME_CONST name must be a literal")
            return args[1]

        @define("get_lock", "system", min_args=2, max_args=2, pure=False,
                signature="GET_LOCK(name, timeout)",
                doc="Acquire a named user lock (always succeeds here).",
                examples=["GET_LOCK('l', 0)"])
        def fn_get_lock(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
            from ..engine.functions.helpers import need_string, out_int

            if args[0].is_null:
                return NULL
            name = need_string(args[0], "get_lock")
            ctx.set_config(f"lock::{name}", "1")
            return out_int(1)

        @define("release_lock", "system", min_args=1, max_args=1, pure=False,
                signature="RELEASE_LOCK(name)", doc="Release a named user lock.",
                examples=["RELEASE_LOCK('l')"])
        def fn_release_lock(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
            from ..engine.functions.helpers import need_string, out_int

            if args[0].is_null:
                return NULL
            name = need_string(args[0], "release_lock")
            held = ctx.get_config(f"lock::{name}") == "1"
            ctx.set_config(f"lock::{name}", "0")
            return out_int(1 if held else 0)

        @define("is_used_lock", "system", min_args=1, max_args=1, pure=False,
                signature="IS_USED_LOCK(name)",
                doc="Connection holding the lock, or NULL.",
                examples=["IS_USED_LOCK('l')"])
        def fn_is_used_lock(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
            from ..engine.functions.helpers import need_string, out_int

            if args[0].is_null:
                return NULL
            name = need_string(args[0], "is_used_lock")
            return out_int(1) if ctx.get_config(f"lock::{name}") == "1" else NULL

        @define("format_bytes", "system", min_args=1, max_args=1,
                signature="FORMAT_BYTES(count)",
                doc="Human-readable byte count.",
                examples=["FORMAT_BYTES(1048576)"])
        def fn_format_bytes(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
            from ..engine.functions.helpers import need_decimal, out_string

            if args[0].is_null:
                return NULL
            count = float(need_decimal(args[0], "format_bytes"))
            for unit in ("bytes", "KiB", "MiB", "GiB", "TiB"):
                if abs(count) < 1024 or unit == "TiB":
                    return out_string(f"{count:.2f} {unit}", "format_bytes")
                count /= 1024
            return out_string(f"{count:.2f} TiB", "format_bytes")  # pragma: no cover

        registry.alias("json_extract", "json_value_mysql")
        registry.alias("group_concat", "json_group_concat")
        registry.alias("now", "localtime", "localtimestamp")
        registry.alias("database", "schema_name")
        registry.alias("char_length", "character_length")
        registry.alias("lower", "lcase")
        registry.alias("upper", "ucase")
        registry.alias("strcmp", "str_compare")
        registry.alias("to_base64", "base64_encode")
        registry.alias("from_base64", "base64_decode")
