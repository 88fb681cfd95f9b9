"""Simulated Virtuoso.

Virtuoso accounts for a third of the paper's new bugs (45 of 132), heavily
concentrated in its large bespoke ``system`` function surface (15 bugs) and
string functions (10).  The CONTAINS('x', 'x', *) segmentation violation of
Listing 7 lives here.  All 45 were confirmed and fixed.
"""

from __future__ import annotations

from typing import List

from ..engine.casting import TypeLimits
from ..engine.context import ExecutionContext
from ..engine.errors import ValueError_
from ..engine.functions import FunctionRegistry
from ..engine.values import NULL, SQLBytes, SQLInteger, SQLString, SQLValue
from .base import Dialect

_BUG_ROWS = [
    # -- aggregate (5): NPD(4), SEGV(1); P1.2(1), P3.2(1), P3.3(3)
    ("count", "aggregate", "NPD", "P1.2", ("empty", 0),
     "SELECT COUNT('');",
     "the empty string maps to the unset box tag whose counter slot is "
     "NULL", True),
    ("sum", "aggregate", "NPD", "P3.3", ("ngeom", 0),
     "SELECT SUM(POINT(1, 2));",
     "geometry boxes have no numeric promotion entry", True),
    ("avg", "aggregate", "NPD", "P3.3", ("ndate", 0),
     "SELECT AVG(DATE('2020-01-02'));",
     "datetime boxes reach the mean accumulator unconverted", True),
    ("group_concat", "aggregate", "NPD", "P3.3", ("njson", 0),
     "SELECT GROUP_CONCAT(JSON_ARRAY(1));",
     "document boxes have no string image in the concatenator", True),
    ("max", "aggregate", "SEGV", "P3.2", ("nbytes", 0),
     "SELECT MAX(UNHEX('FF'));",
     "blob comparison reads the box header as a length-prefixed string", True),
    # -- casting (2): AF(2); P1.2(2)
    ("to_number", "casting", "AF", "P1.2", ("empty", 0),
     "SELECT TO_NUMBER('');",
     "the numeric scanner asserts at least one input character", True),
    ("to_char", "casting", "AF", "P1.2", ("star",),
     "SELECT TO_CHAR(*);",
     "the '*' marker is asserted to be a bound column box", True),
    # -- condition (3): NPD(2), SEGV(1); P3.3(3)
    ("coalesce", "condition", "NPD", "P3.3", ("ngeom", 0),
     "SELECT COALESCE(POINT(1, 2));",
     "geometry boxes short-circuit the null test through an unset vtable", True),
    ("isnull", "condition", "NPD", "P3.3", ("njson", 0),
     "SELECT ISNULL(JSON_ARRAY(1));",
     "document boxes miss the is-null dispatch entry", True),
    ("if", "condition", "SEGV", "P3.3", ("nbytes", 1),
     "SELECT IF(1, UNHEX('FF'), 2);",
     "the then-branch blob is copied with the else-branch's length", True),
    # -- math (5): NPD(3), SEGV(1), DBZ(1); P1.2(2), P2.1(1), P2.2(1), P2.3(1)
    ("abs", "math", "NPD", "P1.2", ("wide", 30, 0),
     "SELECT ABS(999999999999999999999999999999);",
     "30-digit literals overflow into the bignum path whose context is "
     "NULL until first use", True),
    ("floor", "math", "NPD", "P1.2", ("wide", 25, 0),
     "SELECT FLOOR(9999999999999999999999999.5);",
     "same uninitialised bignum context on the rounding path", True),
    ("sqrt", "math", "NPD", "P2.1", ("castdec", 20, 0),
     "SELECT SQRT(CAST(2 AS DECIMAL(30, 25)));",
     "high-scale decimal casts carry no double image for the math "
     "library call", True),
    ("sign", "math", "SEGV", "P2.2", ("unionarr", 0),
     "SELECT SIGN((SELECT 1 UNION SELECT 2));",
     "a set value's first element is fetched through a vector descriptor "
     "belonging to the scalar path", True),
    ("mod", "math", "DBZ", "P2.3", ("zdiv", 1),
     "SELECT MOD(10, 0);",
     "the scale-normalisation divide runs before the zero check", True),
    # -- spatial (2): NPD(1), SEGV(1); P1.2(1), P2.1(1)
    ("st_x", "spatial", "NPD", "P1.2", ("empty", 0),
     "SELECT ST_X('');",
     "empty WKT yields a NULL shape that the accessor dereferences", True),
    ("st_geomfromtext", "spatial", "SEGV", "P2.1", ("castbin", 0),
     "SELECT ST_GEOMFROMTEXT(CAST('POINT(1 2)' AS BINARY));",
     "binary input takes the WKB branch and reads coordinates past the "
     "blob", True),
    # -- string (10): NPD(2), SEGV(6), SO(1), UAF(1);
    #    P1.2(5), P2.3(1), P3.1(3), P3.2(1)
    ("upper", "string", "SEGV", "P1.2", ("empty", 0),
     "SELECT UPPER('');",
     "the case-fold loop decrements the end pointer of an empty box "
     "below its start", True),
    ("lower", "string", "SEGV", "P1.2", ("star",),
     "SELECT LOWER(*);",
     "the '*' marker is dereferenced as a string box", True),
    ("ascii", "string", "NPD", "P1.2", ("empty", 0),
     "SELECT ASCII('');",
     "first-byte pointer of the empty box is NULL", True),
    ("space", "string", "SEGV", "P1.2", ("neg", 0),
     "SELECT SPACE(-99999);",
     "negative lengths wrap the allocation size and memset walks wild", True),
    ("chr", "string", "NPD", "P1.2", ("big", 1000000, 0),
     "SELECT CHR(99999999);",
     "out-of-plane code points index the encoding table past its end "
     "into a NULL page", True),
    ("strcmp", "string", "SEGV", "P2.3", ("foreign", ("$",), 1),
     "SELECT STRCMP('a', '$[0]');",
     "path-shaped operands divert into the vectored comparator with a "
     "scalar frame", True),
    ("concat", "string", "SO", "P3.1", ("long", 1200, 0),
     "SELECT CONCAT(REPEAT('x', 1500));",
     "the chunked copy recurses per 1KB chunk without a depth guard", True),
    ("replace", "string", "SEGV", "P3.1", ("long", 800, 1),
     "SELECT REPLACE('abc', REPEAT('a', 900), 'b');",
     "needle length is stored in a 16-bit field for Boyer-Moore tables", True),
    ("instr", "string", "SEGV", "P3.1", ("long", 700, 0),
     "SELECT INSTR(REPEAT('a', 800), 'a');",
     "the skip table is built on the stack sized for short subjects", True),
    ("trim", "string", "UAF", "P3.2", ("nbytes", 0),
     "SELECT TRIM(UNHEX('FF'));",
     "the blob temporary is freed after charset probing but trimmed "
     "afterwards", True),
    # -- xml (3): NPD(3); P1.2(3)
    ("extractvalue", "xml", "NPD", "P1.2", ("empty", 0),
     "SELECT EXTRACTVALUE('', '/a');",
     "empty documents have no root entity; the root pointer is NULL", True),
    ("xml_valid", "xml", "NPD", "P1.2", ("empty", 0),
     "SELECT XML_VALID('');",
     "the validity scan dereferences the first-tag pointer of an empty "
     "document", True),
    ("xmlconcat", "xml", "NPD", "P1.2", ("null", 0),
     "SELECT XMLCONCAT(NULL);",
     "NULL fragments contribute a NULL tree to the concatenation list", True),
    # -- system (15): NPD(8), SEGV(6), HBOF(1); P1.2(11), P3.1(3), P3.3(1)
    ("contains", "system", "SEGV", "P1.2", ("star",),
     "SELECT CONTAINS('x', 'x', *);",
     "the free-text option list is walked without checking for the '*' "
     "marker (paper Listing 7)", True),
    ("registry_get", "system", "NPD", "P1.2", ("empty", 0),
     "SELECT REGISTRY_GET('');",
     "empty registry keys hash to the unused bucket whose chain head is "
     "NULL", True),
    ("registry_set", "system", "NPD", "P1.2", ("null", 1),
     "SELECT REGISTRY_SET('k', NULL);",
     "NULL registry values are stored as NULL box pointers and "
     "re-serialised on write-back", True),
    ("connection_get", "system", "NPD", "P1.2", ("empty", 0),
     "SELECT CONNECTION_GET('');",
     "the client-state map has no entry object for the empty key", True),
    ("log_enable", "system", "SEGV", "P1.2", ("neg", 0),
     "SELECT LOG_ENABLE(-99999);",
     "negative log levels index the handler table before its base", True),
    ("trx_status", "system", "NPD", "P1.2", ("big", 99999, 0),
     "SELECT TRX_STATUS(99999);",
     "transaction slots above the table size return NULL and are "
     "dereferenced", True),
    ("blob_to_string", "system", "NPD", "P1.2", ("null", 0),
     "SELECT BLOB_TO_STRING(NULL);",
     "the blob handle of a NULL box is NULL", True),
    ("string_to_blob", "system", "SEGV", "P1.2", ("empty", 0),
     "SELECT STRING_TO_BLOB('');",
     "zero-length payloads skip page allocation but the directory entry "
     "is still written", True),
    ("iri_to_id", "system", "NPD", "P1.2", ("empty", 0),
     "SELECT IRI_TO_ID('');",
     "the IRI dictionary probe for '' returns the NULL sentinel", True),
    ("id_to_iri", "system", "SEGV", "P1.2", ("neg", 0),
     "SELECT ID_TO_IRI(-99999);",
     "negative IDs are used as dictionary page offsets", True),
    ("exec", "system", "SEGV", "P1.2", ("empty", 0),
     "SELECT EXEC('');",
     "the statement-text pointer of an empty string is advanced past the "
     "box before the emptiness check", True),
    ("crc32", "system", "NPD", "P3.1", ("long", 2000, 0),
     "SELECT CRC32(REPEAT('a', 2500));",
     "inputs above the streaming threshold use the chunk iterator whose "
     "first chunk is NULL", True),
    ("sleep", "system", "SEGV", "P3.1", ("long", 100, 0),
     "SELECT SLEEP(REPEAT('1', 200));",
     "a repetition-generated duration string overflows the atoi scratch "
     "buffer offset", True),
    ("benchmark", "system", "HBOF", "P3.1", ("long", 300, 1),
     "SELECT BENCHMARK(10, REPEAT('a', 400));",
     "the expression preview is copied into a 256-byte report buffer", True),
    ("checkpoint_interval", "system", "NPD", "P3.3", ("ndate", 0),
     "SELECT CHECKPOINT_INTERVAL(DATE('2020-01-02'));",
     "datetime boxes bypass integer coercion; the coerced-value pointer "
     "stays NULL", True),
]


class VirtuosoDialect(Dialect):
    name = "virtuoso"
    version = "7.2.12"
    stack_depth = 256
    bug_rows = _BUG_ROWS

    def make_limits(self) -> TypeLimits:
        return TypeLimits(
            decimal_max_digits=40,
            decimal_max_scale=15,
            json_max_depth=None,
            xml_max_depth=None,   # Virtuoso's XML stack had no guard
        )

    def customize_registry(self, registry: FunctionRegistry) -> None:
        define = registry.define

        @define("contains", "system", min_args=2,
                signature="CONTAINS(column, pattern[, options...])",
                doc="Free-text containment test.",
                examples=["CONTAINS('x', 'x')"])
        def fn_contains(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
            from ..engine.functions.helpers import need_string, out_int, reject_star

            reject_star(args, "contains")
            if args[0].is_null or args[1].is_null:
                return NULL
            subject = need_string(args[0], "contains")
            pattern = need_string(args[1], "contains")
            return out_int(1 if pattern in subject else 0)

        def _registry_key(name: str) -> str:
            return f"vregistry::{name}"

        @define("registry_get", "system", min_args=1, max_args=1, pure=False,
                signature="REGISTRY_GET(name)", doc="Read a registry entry.",
                examples=["REGISTRY_GET('k')"])
        def fn_registry_get(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
            from ..engine.functions.helpers import need_string, out_string

            if args[0].is_null:
                return NULL
            name = need_string(args[0], "registry_get")
            return out_string(ctx.get_config(_registry_key(name)), "registry_get")

        @define("registry_set", "system", min_args=2, max_args=2, pure=False,
                signature="REGISTRY_SET(name, value)", doc="Write a registry entry.",
                examples=["REGISTRY_SET('k', 'v')"])
        def fn_registry_set(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
            from ..engine.functions.helpers import need_string, out_int

            if args[0].is_null:
                return NULL
            name = need_string(args[0], "registry_set")
            ctx.set_config(_registry_key(name), args[1].render())
            return out_int(1)

        @define("connection_get", "system", min_args=1, max_args=1, pure=False,
                signature="CONNECTION_GET(name)",
                doc="Read a client-connection attribute.",
                examples=["CONNECTION_GET('client')"])
        def fn_connection_get(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
            from ..engine.functions.helpers import need_string, out_string

            if args[0].is_null:
                return NULL
            name = need_string(args[0], "connection_get")
            return out_string(ctx.get_config(f"conn::{name}"), "connection_get")

        @define("log_enable", "system", min_args=1, max_args=1, pure=False,
                signature="LOG_ENABLE(level)", doc="Set transaction logging mode.",
                examples=["LOG_ENABLE(1)"])
        def fn_log_enable(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
            from ..engine.functions.helpers import need_int, out_int

            if args[0].is_null:
                return NULL
            level = need_int(args[0], "log_enable")
            if level not in (0, 1, 2, 3):
                raise ValueError_(f"LOG_ENABLE level {level} out of range")
            previous = int(ctx.get_config("log_level", "1"))
            ctx.set_config("log_level", str(level))
            return out_int(previous)

        @define("trx_status", "system", min_args=1, max_args=1, pure=False,
                signature="TRX_STATUS(slot)", doc="Status of a transaction slot.",
                examples=["TRX_STATUS(1)"])
        def fn_trx_status(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
            from ..engine.functions.helpers import need_int, out_string

            if args[0].is_null:
                return NULL
            slot = need_int(args[0], "trx_status")
            if not 0 <= slot < 1024:
                raise ValueError_(f"TRX_STATUS slot {slot} out of range")
            return out_string("IDLE", "trx_status")

        @define("blob_to_string", "system", min_args=1, max_args=1,
                signature="BLOB_TO_STRING(blob)", doc="Decode a blob as text.",
                examples=["BLOB_TO_STRING(STRING_TO_BLOB('ab'))"])
        def fn_blob_to_string(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
            from ..engine.functions.helpers import out_string

            if args[0].is_null:
                return NULL
            if isinstance(args[0], SQLBytes):
                return out_string(
                    args[0].value.decode("utf-8", "replace"), "blob_to_string"
                )
            return out_string(args[0].render(), "blob_to_string")

        @define("string_to_blob", "system", min_args=1, max_args=1,
                signature="STRING_TO_BLOB(str)", doc="Encode text as a blob.",
                examples=["STRING_TO_BLOB('ab')"])
        def fn_string_to_blob(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
            from ..engine.functions.helpers import need_string

            if args[0].is_null:
                return NULL
            return SQLBytes(need_string(args[0], "string_to_blob").encode("utf-8"))

        @define("iri_to_id", "system", min_args=1, max_args=1, pure=False,
                signature="IRI_TO_ID(iri)", doc="Intern an IRI, returning its id.",
                examples=["IRI_TO_ID('http://example.org/a')"])
        def fn_iri_to_id(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
            from ..engine.functions.helpers import need_string, out_int

            if args[0].is_null:
                return NULL
            iri = need_string(args[0], "iri_to_id")
            key = f"iri::{iri}"
            existing = ctx.get_config(key)
            if existing:
                return out_int(int(existing))
            next_id = int(ctx.get_config("iri_next", "1"))
            ctx.set_config(key, str(next_id))
            ctx.set_config(f"irirev::{next_id}", iri)
            ctx.set_config("iri_next", str(next_id + 1))
            return out_int(next_id)

        @define("id_to_iri", "system", min_args=1, max_args=1, pure=False,
                signature="ID_TO_IRI(id)", doc="Resolve an interned IRI id.",
                examples=["ID_TO_IRI(1)"])
        def fn_id_to_iri(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
            from ..engine.functions.helpers import need_int, out_string

            if args[0].is_null:
                return NULL
            iri_id = need_int(args[0], "id_to_iri")
            iri = ctx.get_config(f"irirev::{iri_id}")
            if not iri:
                return NULL
            return out_string(iri, "id_to_iri")

        @define("exec", "system", min_args=1, max_args=1, pure=False,
                signature="EXEC(sql)",
                doc="Execute dynamic SQL (modelled as a syntax check).",
                examples=["EXEC('SELECT 1')"])
        def fn_exec(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
            from ..sqlast import ParseError, parse_statements
            from ..engine.functions.helpers import need_string, out_int

            if args[0].is_null:
                return NULL
            text = need_string(args[0], "exec")
            try:
                parse_statements(text)
            except ParseError as exc:
                raise ValueError_(f"EXEC: {exc}")
            return out_int(0)

        @define("checkpoint_interval", "system", min_args=1, max_args=1,
                pure=False, signature="CHECKPOINT_INTERVAL(minutes)",
                doc="Set the checkpoint interval, returning the previous one.",
                examples=["CHECKPOINT_INTERVAL(60)"])
        def fn_checkpoint_interval(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
            from ..engine.functions.helpers import need_int, out_int

            if args[0].is_null:
                return NULL
            minutes = need_int(args[0], "checkpoint_interval")
            previous = int(ctx.get_config("checkpoint_interval", "60"))
            ctx.set_config("checkpoint_interval", str(minutes))
            return out_int(previous)

        # Virtuoso keeps a broad SQL surface; drop only MySQL dynamic columns
        for missing in ("column_create", "column_json", "column_get",
                        "format_bytes", "name_const", "get_lock",
                        "release_lock", "is_used_lock", "todecimalstring"):
            registry.remove(missing)
