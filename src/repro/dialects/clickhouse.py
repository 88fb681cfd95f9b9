"""Simulated ClickHouse.

ClickHouse exposes by far the largest function inventory of the seven
systems (hundreds of typed conversion and array combinators), which is why
Table 5 shows SOFT triggering 711 functions there.  We model the inventory
with the camel-case ``toX``/``arrayX`` alias families.  Six injected bugs
(all fixed within days — the toDecimalString story of Listing 1).
"""

from __future__ import annotations

from dataclasses import replace

from ..engine.casting import TypeLimits
from ..engine.functions import FunctionRegistry
from .base import Dialect

_BUG_ROWS = [
    # -- aggregate (1): NPD; P1.2
    ("any_value", "aggregate", "NPD", "P1.2", ("null", 0),
     "SELECT ANY_VALUE(NULL);",
     "the single-value state is initialised lazily from the first row and "
     "never initialised for NULL", True),
    # -- array (1): NPD; P2.3
    ("element_at", "array", "NPD", "P2.3", ("foreign", ("$",), 1),
     "SELECT ELEMENT_AT([1, 2], '$[0]');",
     "a JSON-path index takes the by-name map branch with a NULL key "
     "hasher", True),
    # -- date (1): NPD; P1.2
    ("from_days", "date", "NPD", "P1.2", ("neg", 0),
     "SELECT FROM_DAYS(-99999);",
     "negative day counts index the era lookup table before its base "
     "pointer", True),
    # -- string (3): NPD(1), SEGV(2); P1.2(1), P2.3(1), P3.1(1)
    ("todecimalstring", "string", "NPD", "P1.2", ("star",),
     "SELECT TODECIMALSTRING('110'::Decimal256(45), *);",
     "the digit-count argument slot is NULL when '*' is smuggled in "
     "(paper Listing 1 — the bug the CTO ordered fixed immediately)", True),
    ("substring", "string", "SEGV", "P2.3", ("foreign", ("$",), 0),
     "SELECT SUBSTRING('$[0]', 1, 2);",
     "a JSON-path-shaped subject selects the UTF-8 offset cache of a "
     "different column type", True),
    ("concat", "string", "SEGV", "P3.1", ("long", 2000, 0),
     "SELECT CONCAT(REPEAT('a', 3000), 'b');",
     "the rope builder caches a chunk pointer that reallocation "
     "invalidates for repetition-scale inputs", True),
]

#: conversion-target suffixes for the toX() family
_TO_SUFFIXES = [
    "Int8", "Int16", "Int32", "Int64", "Int128", "Int256",
    "UInt8", "UInt16", "UInt32", "UInt64", "UInt128", "UInt256",
]


class ClickHouseDialect(Dialect):
    name = "clickhouse"
    version = "23.6.2.18"
    stack_depth = 256
    bug_rows = _BUG_ROWS

    def make_limits(self) -> TypeLimits:
        return TypeLimits(
            decimal_max_digits=76,   # Decimal256
            decimal_max_scale=76,
            json_max_depth=None,     # ClickHouse had no depth guard
            xml_max_depth=None,
        )

    def customize_registry(self, registry: FunctionRegistry) -> None:
        # camel-case conversion family
        for suffix in _TO_SUFFIXES:
            registry.alias("try_cast_int", f"to{suffix}")
            registry.alias("try_cast_int", f"to{suffix}OrZero")
            registry.alias("try_cast_int", f"to{suffix}OrNull")
        registry.alias("to_char", "toString")
        registry.alias("to_number", "toFloat32", "toFloat64",
                       "toFloat32OrZero", "toFloat64OrZero",
                       "toDecimal32", "toDecimal64", "toDecimal128",
                       "toDecimal256")
        registry.alias("to_date", "toDate", "toDate32", "toDateOrNull")
        registry.alias("timestamp", "toDateTime", "toDateTime64")
        registry.alias("year", "toYear")
        registry.alias("month", "toMonth")
        registry.alias("day", "toDayOfMonth")
        registry.alias("dayofweek", "toDayOfWeek")
        registry.alias("dayofyear", "toDayOfYear")
        registry.alias("hour", "toHour")
        registry.alias("minute", "toMinute")
        registry.alias("second", "toSecond")
        registry.alias("quarter", "toQuarter")
        registry.alias("week", "toWeek", "toISOWeek")
        registry.alias("unix_timestamp", "toUnixTimestamp")
        # array combinator family
        registry.alias("array_length", "arrayLength", "length_array")
        registry.alias("array_concat", "arrayConcat")
        registry.alias("array_contains", "arrayExists_eq")
        registry.alias("array_position", "arrayFirstIndex_eq")
        registry.alias("array_slice", "arraySlice")
        registry.alias("array_reverse", "arrayReverse")
        registry.alias("array_distinct", "arrayDistinct")
        registry.alias("array_sort", "arraySort")
        registry.alias("array_sum", "arraySum")
        registry.alias("array_min", "arrayMin")
        registry.alias("array_max", "arrayMax")
        registry.alias("array_flatten", "arrayFlatten")
        registry.alias("array_append", "arrayPushBack")
        registry.alias("array_prepend", "arrayPushFront")
        registry.alias("element_at", "arrayElement_at")
        registry.alias("range", "range_ch")
        # string family camel-case spellings
        for base_name, spellings in (
            ("length", ("lengthUTF8",)),
            ("lower", ("lowerUTF8",)),
            ("upper", ("upperUTF8",)),
            ("reverse", ("reverseUTF8",)),
            ("substring", ("substringUTF8",)),
            ("position", ("positionCaseInsensitive", "positionUTF8")),
            ("starts_with", ("startsWith",)),
            ("ends_with", ("endsWith",)),
            ("trim", ("trimBoth",)),
            ("ltrim", ("trimLeft",)),
            ("rtrim", ("trimRight",)),
            ("concat", ("concatAssumeInjective",)),
            ("repeat", ("repeat_ch",)),
            ("md5", ("MD5_ch", "halfMD5")),
            ("sha1", ("SHA1_ch",)),
            ("crc32", ("CRC32_ch", "CRC32IEEE", "CRC64")),
            ("hex", ("hex_ch",)),
            ("unhex", ("unhex_ch",)),
            ("to_base64", ("base64Encode",)),
            ("from_base64", ("base64Decode", "tryBase64Decode")),
            ("format", ("formatReadableQuantity",)),
            ("ascii", ("ascii_ch",)),
            ("chr", ("char_ch",)),
            ("json_valid", ("isValidJSON",)),
            ("json_extract", ("JSONExtractRaw", "JSONExtractString",
                              "JSONExtractInt", "JSONExtractFloat",
                              "JSONExtractBool", "JSONExtractArrayRaw")),
            ("json_length", ("JSONLength",)),
            ("json_type", ("JSONType",)),
            ("json_keys", ("JSONExtractKeys",)),
            ("map_keys", ("mapKeys",)),
            ("map_values", ("mapValues",)),
            ("map_contains", ("mapContains_ch",)),
            ("map_from_arrays", ("mapFromArrays",)),
            ("abs", ("abs_ch",)),
            ("sqrt", ("sqrt_ch",)),
            ("exp", ("exp_ch", "exp2", "exp10")),
            ("ln", ("log_ch",)),
            ("floor", ("floor_ch",)),
            ("ceil", ("ceil_ch",)),
            ("round", ("round_ch", "roundBankers", "roundToExp2")),
            ("sign", ("sign_ch",)),
            ("greatest", ("greatest_ch",)),
            ("least", ("least_ch",)),
            ("bit_count", ("bitCount",)),
            ("rand", ("rand_ch", "rand32", "rand64", "canonicalRand")),
            ("coalesce", ("coalesce_ch",)),
            ("ifnull", ("ifNull",)),
            ("nullif", ("nullIf",)),
            ("if", ("if_ch", "multiIf")),
            ("isnull", ("isNull_ch", "isNotNull_inv")),
            ("now", ("now_ch", "now64")),
            ("current_date", ("today_ch",)),
            ("version", ("version_ch",)),
            ("uuid", ("generateUUIDv4",)),
            ("typeof", ("toTypeName",)),
            ("inet_aton", ("IPv4StringToNum",)),
            ("inet_ntoa", ("IPv4NumToString",)),
            ("inet6_aton", ("IPv6StringToNum",)),
            ("inet6_ntoa", ("IPv6NumToString",)),
            ("is_ipv4", ("isIPv4String",)),
            ("is_ipv6", ("isIPv6String",)),
            ("st_astext", ("readWKT_inv",)),
            ("st_geomfromtext", ("readWKTPoint",)),
        ):
            registry.alias(base_name, *spellings)
        # ClickHouse spells toDecimalString camel-case and classifies it
        # with the string formatters; keep both spellings, family=string.
        original = registry.lookup("todecimalstring")
        registry.register(replace(original, family="string"))
        registry.register(replace(original, name="todecimalstring_alias",
                                  family="string"))
        # no XML or sequence support
        for missing in ("updatexml", "extractvalue", "xml_valid", "xpath",
                        "xmlconcat", "xmlelement", "nextval", "currval",
                        "setval", "lastval", "column_create", "column_json",
                        "column_get"):
            registry.remove(missing)
