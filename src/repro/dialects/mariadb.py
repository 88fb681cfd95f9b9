"""Simulated MariaDB.

The biggest bug population among the studied DBMSs and the second biggest
among the newly tested ones: 24 injected bugs across aggregates, condition,
date, JSON (including dynamic columns), sequence, spatial, and string
functions.  Four were fixed by publication (three spatial, one string);
the rest remained confirmed-only, mirroring Table 4's status column.
"""

from __future__ import annotations

from ..engine.casting import TypeLimits
from ..engine.functions import FunctionRegistry
from .base import Dialect

_BUG_ROWS = [
    # -- aggregate (4): NPD(1), SEGV(2), SO(1); P1.2(3), P2.2(1)
    ("stddev", "aggregate", "SEGV", "P1.2", ("wide", 18, 0),
     "SELECT STDDEV(999999999999999999999);",
     "the running-moment buffer indexes by digit count, which a 19-digit "
     "literal walks out of", False),
    ("variance", "aggregate", "SEGV", "P2.2", ("unionarr", 0),
     "SELECT VARIANCE((SELECT 1 UNION SELECT 2));",
     "a multi-row UNION subquery arrives as a set value whose element "
     "stride is miscomputed", False),
    ("group_concat", "aggregate", "NPD", "P1.2", ("empty", 0),
     "SELECT GROUP_CONCAT('');",
     "the empty string contributes a NULL chunk pointer to the rope "
     "concatenator", False),
    ("median", "aggregate", "SO", "P1.2", ("wide", 15, 0),
     "SELECT MEDIAN(999999999999999);",
     "partition-exchange recursion never terminates when the pivot digit "
     "count overflows its counter", False),
    # -- condition (1): NPD(1); P2.2
    ("nullif", "condition", "NPD", "P2.2", ("unionarr", 0),
     "SELECT NULLIF((SELECT 1 UNION SELECT 2), 1);",
     "comparison item tree for a set value has no cached comparator", False),
    # -- date (3): NPD(2), GBOF(1); P1.2(1), P2.3(1), P3.3(1)
    ("last_day", "date", "NPD", "P1.2", ("empty", 0),
     "SELECT LAST_DAY('');",
     "the empty string parses to a zero-date whose month descriptor is "
     "NULL", False),
    ("datediff", "date", "NPD", "P2.3", ("foreign", ("$", "/"), 1),
     "SELECT DATEDIFF('2020-01-01', '$[0]');",
     "a path-shaped argument takes the cached-item fast path which was "
     "never populated", False),
    ("dayname", "date", "GBOF", "P3.3", ("ndate", 0),
     "SELECT DAYNAME(DATE('2020-01-02'));",
     "the weekday-name static table is indexed with the packed temporal "
     "value instead of the weekday number", False),
    # -- json (6): NPD(2), SEGV(1), AF(1), GBOF(2); P1.4(2), P2.3(1), P3.1(2), P3.3(1)
    ("json_length", "json", "GBOF", "P3.1", ("long", 200, 0),
     "SELECT JSON_LENGTH(REPEAT('[1,', 100), '$[2][1]');",
     "large nested array expressions overflow the static path-evaluation "
     "scratch buffer (paper Listing 10)", False),
    ("json_valid", "json", "GBOF", "P1.4", ("double", "{", 4, 0),
     "SELECT JSON_VALID('{{{{\"a\": 0}');",
     "repeated object openers overrun the fixed token-lookahead window", False),
    ("json_extract", "json", "NPD", "P1.4", ("double", "[", 4, 1),
     "SELECT JSON_EXTRACT('[1]', '$[[[[0]');",
     "doubled brackets in the path produce an empty leg whose node pointer "
     "is NULL", False),
    ("json_keys", "json", "NPD", "P2.3", ("foreign", ("/",), 1),
     "SELECT JSON_KEYS('{\"a\": 1}', '/a');",
     "an XPath-shaped path skips '$' validation and leaves the root cursor "
     "NULL", False),
    ("json_unquote", "json", "SEGV", "P3.1", ("long", 300, 0),
     "SELECT JSON_UNQUOTE(REPEAT('\"a', 200));",
     "unterminated-quote scanning runs past the value when the input is "
     "repetition-generated", False),
    ("json_contains", "json", "AF", "P3.3", ("njson", 1),
     "SELECT JSON_CONTAINS('[1]', JSON_ARRAY(1));",
     "the candidate is asserted to be a parsed-from-text document; nested "
     "function output violates the assertion", False),
    # -- sequence (1): NPD(1); P3.3
    ("nextval", "sequence", "NPD", "P3.3", ("njson", 0),
     "SELECT NEXTVAL(JSON_OBJECT('a', 1));",
     "sequence lookup by non-string key returns NULL and is dereferenced", False),
    # -- spatial (5): NPD(3), SEGV(1), SO(1); P3.2(1), P3.3(4) — three fixed
    ("boundary", "spatial", "NPD", "P3.3", ("nbytes", 0),
     "SELECT BOUNDARY(INET6_ATON('255.255.255.255'));",
     "a packed IPv6 address is decoded as a geometry blob; the failed "
     "decode leaves a NULL shape that boundary computation dereferences "
     "(paper Listing 11)", True),
    ("st_astext", "spatial", "SEGV", "P3.3", ("nbytes", 0),
     "SELECT ST_ASTEXT(INET6_ATON('255.255.255.255'));",
     "WKT rendering walks the coordinate array of a non-geometry blob", True),
    ("st_x", "spatial", "NPD", "P3.3", ("njson", 0),
     "SELECT ST_X(JSON_ARRAY(1));",
     "point accessor on a JSON document finds no coordinate vector", False),
    ("st_isclosed", "spatial", "NPD", "P3.2", ("njson", 0),
     "SELECT ST_ISCLOSED(JSON_ARRAY('LINESTRING(0 0, 1 1)'));",
     "a JSON-wrapped WKT value passes the cheap prefix probe and the ring "
     "cursor ends up NULL", True),
    ("st_npoints", "spatial", "SO", "P3.3", ("njson", 0),
     "SELECT ST_NPOINTS(JSON_OBJECT('a', 1));",
     "the point counter recurses into the document structure without a "
     "geometry terminator", False),
    # -- string (4): NPD(2), HBOF(1), SO(1); P1.2(2), P3.1(1), P3.3(1) — one fixed
    ("format", "string", "HBOF", "P1.2", ("big", 39, 1),
     "SELECT FORMAT('0', 50, 'de_DE');",
     "String::set_real falls back to scientific notation above 38 digits, "
     "shorter than the digits the format writer was promised "
     "(MDEV-23415 analogue)", True),
    ("reverse", "string", "NPD", "P1.2", ("empty", 0),
     "SELECT REVERSE('');",
     "in-place reversal takes a pointer to the last byte of an empty "
     "buffer", False),
    ("soundex", "string", "SO", "P3.1", ("long", 500, 0),
     "SELECT SOUNDEX(REPEAT('a', 600));",
     "the phonetic-code collapse recurses per repeated letter group", False),
    ("translate", "string", "NPD", "P3.3", ("njson", 2),
     "SELECT TRANSLATE('abc', 'ab', JSON_ARRAY(1));",
     "mapping-table construction from a non-string third argument leaves "
     "NULL slots that translation dereferences", False),
]


class MariaDBDialect(Dialect):
    name = "mariadb"
    version = "11.3.2"
    stack_depth = 256
    bug_rows = _BUG_ROWS

    def make_limits(self) -> TypeLimits:
        return TypeLimits(
            decimal_max_digits=65,
            decimal_max_scale=38,
            json_max_depth=32,
            xml_max_depth=100,
        )

    def customize_registry(self, registry: FunctionRegistry) -> None:
        # MariaDB: MySQL-compatible surface (no arrays/maps) plus dynamic
        # columns (already in the base library) and sequences.
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
                        "xmlelement", "todecimalstring", "starts_with",
                        "ends_with", "split_part"):
            registry.remove(missing)
        registry.alias("lower", "lcase")
        registry.alias("upper", "ucase")
        registry.alias("now", "localtime", "localtimestamp")
        registry.alias("char_length", "character_length")
        registry.alias("json_extract", "json_query_maria")
        registry.alias("group_concat", "json_group_concat")
