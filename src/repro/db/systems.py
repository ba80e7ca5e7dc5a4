"""Multi-backend ``DatabaseSystem`` abstraction (PostBOUND-style).

The paper's "apples and oranges" principle (slides 37-45) demands that a
cross-system comparison run the *same* workload, through the *same*
protocol, with the *same* plan shape on every contender.  That is only
enforceable when the experiment code is written against an interface
rather than one engine, so this module abstracts query execution behind
:class:`DatabaseSystem` — modelled on PostBOUND's ``db.systems`` +
``physops.selection`` split (SNIPPETS.md #2-3) — with two concrete
backends:

- :class:`MiniDBSystem` — MiniDB, charging the cost profile its
  :class:`~repro.db.engine.EngineConfig` names (``minidb-loop``,
  ``minidb-vectorized``, ...);
- :class:`SQLiteSystem` — stdlib ``sqlite3``, in-process and
  dependency-free: a *real* engine the prototype can be held against.

Both accept the same MiniDB SQL dialect (including ``/*+ ... */``
hints).  :meth:`DatabaseSystem.force_plan` maps one logical join order
onto each backend — MiniDB via ``JOIN_ORDER`` hints, SQLite by
rewriting the joins into ``CROSS JOIN`` form (which pins the join order
in SQLite's planner) with ``PRAGMA automatic_index`` toggled off so no
hidden index changes the shape.  :meth:`DatabaseSystem.explain` is
normalised into a common :class:`SystemPlan` so plan shapes can be
compared across engines, and :meth:`DatabaseSystem.describe_config`
discloses each backend's tuning knobs — the raw material for the
Taipalus pitfall checklist in :mod:`repro.measurement.comparison`.
"""

from __future__ import annotations

import abc
import math
import sqlite3
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.db.engine import Engine, EngineConfig
from repro.db.expressions import (
    Arithmetic,
    Between,
    BoolOp,
    Comparison,
    ColumnRef,
    Expr,
    InList,
    Like,
    Literal,
    Not,
)
from repro.db.optimizer import resolve_join
from repro.db.parser import (
    SelectStatement,
    hint_comment,
    parse_select,
    strip_explain,
)
from repro.db.storage import Database
from repro.db.types import DataType
from repro.errors import DatabaseError
from repro.measurement.clocks import VirtualClock

#: Float comparison tolerances for cross-system result equivalence.
#: Aggregation order differs between NumPy reductions and SQLite's
#: row-at-a-time accumulators, so SUM/AVG outputs agree only to
#: rounding error — never bit-for-bit.
FLOAT_REL_TOL = 1e-9
FLOAT_ABS_TOL = 1e-9


@dataclass(frozen=True)
class SystemResult:
    """One executed query on one backend, with both time metrics.

    ``wall_s`` is host wall-clock (comparable across every backend);
    ``simulated_s`` is MiniDB's virtual-clock charge (None on backends
    without a simulated timeline, e.g. SQLite).
    """

    system: str
    columns: Tuple[str, ...]
    rows: Tuple[Tuple[Any, ...], ...]
    wall_s: float
    simulated_s: Optional[float] = None

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def sorted_rows(self) -> Tuple[Tuple[Any, ...], ...]:
        """Rows in a canonical order for cross-system comparison."""
        return tuple(sorted(self.rows, key=_row_sort_key))


@dataclass(frozen=True)
class SystemPlan:
    """A backend's plan, normalised for cross-system shape comparison.

    ``join_order`` is the sequence in which base tables enter the
    pipeline; ``node_kinds`` the normalised operator names top-down.
    ``raw`` keeps the backend's native EXPLAIN text for the report.
    """

    system: str
    join_order: Tuple[str, ...]
    node_kinds: Tuple[str, ...] = ()
    forced: bool = False
    raw: str = ""

    def same_shape(self, other: "SystemPlan") -> bool:
        """Same logical shape: identical base-table join order."""
        return self.join_order == other.join_order


def _is_null(value: Any) -> bool:
    """SQL NULL as either backend returns it: MiniDB stores NULL as
    NaN in FLOAT64 columns, SQLite returns None."""
    return value is None or (isinstance(value, float) and value != value)


def _row_sort_key(row: Tuple[Any, ...]) -> Tuple[str, ...]:
    # Stringified keys give a total order across mixed int/float/str
    # columns; floats are formatted to 9 significant digits so the
    # last-bit aggregation differences cannot reorder equal rows.
    # Both spellings of NULL share the smallest key.
    return tuple("" if _is_null(v)
                 else f"{v:.9g}" if isinstance(v, float)
                 else f"{type(v).__name__}:{v}"
                 for v in row)


def _values_match(a: Any, b: Any) -> bool:
    if _is_null(a) or _is_null(b):
        return _is_null(a) and _is_null(b)
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(float(a), float(b), rel_tol=FLOAT_REL_TOL,
                            abs_tol=FLOAT_ABS_TOL)
    return a == b


def rows_match(rows_a: Sequence[Tuple[Any, ...]],
               rows_b: Sequence[Tuple[Any, ...]]) -> bool:
    """Row-for-row equivalence of two row sequences, in the given order.

    Floats agree to within aggregation rounding; NaN and None are the
    same NULL.
    """
    return len(rows_a) == len(rows_b) and all(
        len(row_a) == len(row_b) and all(map(_values_match, row_a, row_b))
        for row_a, row_b in zip(rows_a, rows_b))


def results_match(a: SystemResult, b: SystemResult) -> bool:
    """Row-for-row equivalence of two sorted result sets.

    Column *names* may differ per backend dialect; shape, row count and
    every value (floats to within aggregation rounding) must agree.
    """
    return len(a.columns) == len(b.columns) and \
        rows_match(a.sorted_rows(), b.sorted_rows())


class DatabaseSystem(abc.ABC):
    """One engine the comparison harness can drive.

    Lifecycle: :meth:`connect`, :meth:`load` (once per database), then
    any number of :meth:`execute` / :meth:`explain` calls.  Subclasses
    set :attr:`supports_plan_forcing` to False when they cannot pin a
    join order; the harness then *warns* ("plan shapes not comparable")
    instead of crashing.
    """

    name: str = "abstract"
    supports_plan_forcing: bool = True

    def __init__(self) -> None:
        self._fingerprint: Dict[str, int] = {}

    # -- lifecycle -------------------------------------------------------

    @abc.abstractmethod
    def connect(self) -> None:
        """Open the backend (idempotent)."""

    @abc.abstractmethod
    def load(self, database: Database) -> None:
        """Copy *database* into the backend and record its fingerprint."""

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release backend resources (optional)."""

    # -- queries ---------------------------------------------------------

    @abc.abstractmethod
    def execute(self, sql: str) -> SystemResult:
        """Run MiniDB-dialect *sql*, timing it with host wall-clock."""

    @abc.abstractmethod
    def explain(self, sql: str) -> SystemPlan:
        """The backend's plan for *sql*, normalised to a SystemPlan."""

    @abc.abstractmethod
    def statistics(self) -> Dict[str, float]:
        """Backend counters after execution (rows loaded, cache hits...)."""

    @abc.abstractmethod
    def describe_config(self) -> Dict[str, str]:
        """Full tuning disclosure: every knob that shapes performance."""

    # -- plan forcing ----------------------------------------------------

    def force_plan(self, sql: str, join_order: Sequence[str]) -> str:
        """Rewrite *sql* so the backend executes *join_order*: prepend a
        ``JOIN_ORDER`` hint comment, which SQLite's translation renders
        as a CROSS JOIN chain.

        Validates eagerly: the order must name exactly the statement's
        tables (fail fast on typos rather than silently comparing
        different plans), and the statement must not already carry a
        conflicting ``JOIN_ORDER`` hint.
        """
        if not self.supports_plan_forcing:
            raise DatabaseError(
                f"system {self.name!r} does not support plan forcing")
        order = tuple(join_order)
        __, stripped = strip_explain(sql)
        statement = parse_select(stripped)
        if statement.hints.join_order:
            raise DatabaseError(
                f"statement already forces a join order "
                f"{statement.hints.join_order}; refusing to re-force")
        tables = set(statement.tables)
        unknown = [t for t in order if t not in tables]
        if unknown:
            raise DatabaseError(
                f"forced join order names unknown table(s) {unknown}; "
                f"statement tables: {sorted(tables)}")
        if set(order) != tables or len(order) != len(statement.tables):
            raise DatabaseError(
                f"forced join order {order} must name each of "
                f"{sorted(tables)} exactly once")
        return f"{hint_comment(order)} {stripped}"

    # -- comparison support ----------------------------------------------

    def data_fingerprint(self) -> Dict[str, int]:
        """``{table: row_count}`` recorded at load time; the harness
        uses it to verify every system saw identical data."""
        return dict(self._fingerprint)


# ---------------------------------------------------------------------------
# MiniDB adapters
# ---------------------------------------------------------------------------

class MiniDBSystem(DatabaseSystem):
    """Thin adapter over :class:`~repro.db.engine.Engine`.

    Runs the cost profile its *config* names, and is called
    ``minidb-<executor>`` unless it has a *label*.
    """

    def __init__(self, config: Optional[EngineConfig] = None,
                 label: Optional[str] = None):
        super().__init__()
        self.config = config if config is not None else EngineConfig()
        # A label distinguishes two differently-tuned instances of the
        # same profile in one comparison (e.g. tuned vs untuned).
        self.name = label if label is not None \
            else f"minidb-{self.config.executor}"
        self.engine: Optional[Engine] = None

    def connect(self) -> None:
        pass  # in-process: the engine is created at load()

    def load(self, database: Database) -> None:
        self.engine = Engine(database, self.config, clock=VirtualClock())
        self._fingerprint = {name: database.table(name).n_rows
                             for name in database.table_names}

    def _require_engine(self) -> Engine:
        if self.engine is None:
            raise DatabaseError(
                f"system {self.name!r}: load() a database first")
        return self.engine

    def execute(self, sql: str) -> SystemResult:
        engine = self._require_engine()
        start = time.perf_counter()
        result = engine.execute(sql)
        wall = time.perf_counter() - start
        return SystemResult(system=self.name, columns=result.columns,
                            rows=result.rows, wall_s=wall,
                            simulated_s=result.server_time.real)

    def explain(self, sql: str) -> SystemPlan:
        engine = self._require_engine()
        plan = engine.plan(sql)
        order: List[str] = []
        kinds: List[str] = []
        for node in plan.walk():
            kinds.append(type(node).__name__.lower())
            table = getattr(node, "table_name", None)
            if table is not None:
                # Scans appear left-to-right in a left-deep tree's
                # pre-order walk, i.e. in join order.
                order.append(table)
        statement = parse_select(strip_explain(sql)[1])
        return SystemPlan(system=self.name, join_order=tuple(order),
                          node_kinds=tuple(kinds),
                          forced=bool(statement.hints.join_order),
                          raw=plan.explain(None))

    def statistics(self) -> Dict[str, float]:
        return self._require_engine().statistics()

    def describe_config(self) -> Dict[str, str]:
        return self._require_engine().describe_config()

    def make_cold(self) -> None:
        """Flush the buffer pool (cold-stage protocols)."""
        self._require_engine().make_cold()


def MiniDBVectorizedSystem(config: Optional[EngineConfig] = None,
                           label: Optional[str] = None) -> MiniDBSystem:
    """A :class:`MiniDBSystem` running the ``vectorized`` profile, with
    every other knob from *config*; the name perfbench imports."""
    base = config if config is not None else EngineConfig()
    return MiniDBSystem(replace(base, executor="vectorized"), label)


# ---------------------------------------------------------------------------
# SQLite backend
# ---------------------------------------------------------------------------

_SQLITE_TYPES = {
    DataType.INT64: "INTEGER",
    DataType.DATE: "INTEGER",
    DataType.FLOAT64: "REAL",
    DataType.STRING: "TEXT",
}


#: GLOB spellings of LIKE's wildcards and of GLOB's own metacharacters,
#: which are literals in a LIKE pattern.
_GLOB_OF_LIKE = {"%": "*", "_": "?", "*": "[*]", "?": "[?]", "[": "[[]",
                 "'": "''"}


def _like_to_glob(pattern: str) -> str:
    """A LIKE pattern as an equivalent, quote-escaped GLOB pattern."""
    return "".join(_GLOB_OF_LIKE.get(ch, ch) for ch in pattern)


class _SqliteRenderer:
    """Translate a parsed MiniDB statement into SQLite SQL.

    Column references are qualified (``table.column``) because the
    MiniDB dialect allows bare join keys (``ON ckey = ckey``) that
    SQLite would reject as ambiguous.  ``JOIN_ORDER`` hints become a
    ``CROSS JOIN`` chain — the one join syntax SQLite's planner never
    reorders — with the join predicates moved into WHERE.  Physical
    hints (``JOIN_OP``/``SCAN``/``BUILD``) have no SQLite equivalent
    and fail fast rather than silently running a different plan.
    """

    def __init__(self, statement: SelectStatement, database: Database):
        self.statement = statement
        self.database = database
        self.tables = statement.tables
        hints = statement.hints
        if hints.join_ops or hints.scans or hints.build_sides:
            raise DatabaseError(
                "SQLite backend cannot honour physical-operator hints "
                "(JOIN_OP/SCAN/BUILD); only JOIN_ORDER is supported")
        if hints.join_order and set(hints.join_order) != set(self.tables):
            raise DatabaseError(
                f"JOIN_ORDER {hints.join_order} must cover the "
                f"statement tables {sorted(set(self.tables))}")

    # -- name resolution -------------------------------------------------

    def _qualify(self, column: str) -> str:
        owner, __ = self.database.resolve_column(column, self.tables)
        return f"{owner}.{column}"

    def _join_predicates(self) -> List[str]:
        """Each join clause as qualified ``prior = new`` text, oriented
        by the planner's own rule (:func:`~repro.db.optimizer.
        resolve_join`)."""
        preds = []
        available = [self.statement.table]
        for join in self.statement.joins:
            left_col, owner, right_col = resolve_join(self.database, join,
                                                      available)
            preds.append(f"{owner}.{left_col} = {join.table}.{right_col}")
            available.append(join.table)
        return preds

    # -- expressions -----------------------------------------------------

    def render_expr(self, expr: Expr) -> str:
        if isinstance(expr, ColumnRef):
            return self._qualify(expr.name)
        if isinstance(expr, Literal):
            if isinstance(expr.value, str):
                escaped = expr.value.replace("'", "''")
                return f"'{escaped}'"
            return str(expr.value)
        if isinstance(expr, Arithmetic):
            left = self.render_expr(expr.left)
            right = self.render_expr(expr.right)
            if expr.op == "/":
                # MiniDB divides through np.divide (always true
                # division); SQLite's "/" truncates on integers.
                return f"(CAST({left} AS REAL) / {right})"
            return f"({left} {expr.op} {right})"
        if isinstance(expr, Comparison):
            return (f"({self.render_expr(expr.left)} {expr.op} "
                    f"{self.render_expr(expr.right)})")
        if isinstance(expr, BoolOp):
            joiner = f" {expr.op.upper()} "
            return "(" + joiner.join(self.render_expr(p)
                                     for p in expr.parts) + ")"
        if isinstance(expr, Not):
            return f"(NOT {self.render_expr(expr.child)})"
        if isinstance(expr, Between):
            return (f"({self.render_expr(expr.expr)} BETWEEN "
                    f"{self.render_expr(expr.low)} AND "
                    f"{self.render_expr(expr.high)})")
        if isinstance(expr, InList):
            values = ", ".join(
                "'" + v.replace("'", "''") + "'" if isinstance(v, str)
                else str(v) for v in expr.values)
            return f"({self.render_expr(expr.expr)} IN ({values}))"
        if isinstance(expr, Like):
            # SQLite's LIKE ignores ASCII case; GLOB matches case like
            # MiniDB does.
            return (f"({self.render_expr(expr.expr)} GLOB "
                    f"'{_like_to_glob(expr.pattern)}')")
        raise DatabaseError(
            f"cannot translate expression {expr!r} to SQLite")

    # -- statement -------------------------------------------------------

    def _select_list(self) -> str:
        parts = []
        for item in self.statement.items:
            if item.agg is not None:
                inner = "*" if item.expr is None \
                    else self.render_expr(item.expr)
                rendered = f"{item.agg.value.upper()}({inner})"
            else:
                rendered = self.render_expr(item.expr)
            parts.append(f'{rendered} AS "{item.alias}"')
        return ", ".join(parts)

    def _from_clause(self) -> Tuple[str, List[str]]:
        """(FROM text, predicates that must move into WHERE)."""
        order = self.statement.hints.join_order
        preds = self._join_predicates()
        if not order:
            return self.statement.table + "".join(
                f" JOIN {join.table} ON {pred}"
                for join, pred in zip(self.statement.joins, preds)), []
        # Forced order: CROSS JOIN pins SQLite's join order; every join
        # predicate becomes a WHERE conjunct.
        return " CROSS JOIN ".join(order), preds

    def render(self) -> str:
        s = self.statement
        from_text, extra_preds = self._from_clause()
        head = "SELECT DISTINCT" if s.distinct else "SELECT"
        sql = f"{head} {self._select_list()} FROM {from_text}"
        conjuncts = list(extra_preds)
        if s.where is not None:
            conjuncts.append(self.render_expr(s.where))
        if conjuncts:
            sql += " WHERE " + " AND ".join(conjuncts)
        if s.group_by:
            sql += " GROUP BY " + ", ".join(self._qualify(c)
                                            for c in s.group_by)
        if s.having is not None:
            # HAVING operates over output aliases in the MiniDB
            # dialect; SQLite resolves bare aliases there too.
            sql += " HAVING " + self._render_alias_expr(s.having)
        if s.order_by:
            rendered = []
            aliases = {item.alias for item in s.items}
            for column, ascending in s.order_by:
                name = f'"{column}"' if column in aliases \
                    else self._qualify(column)
                rendered.append(name + ("" if ascending else " DESC"))
            sql += " ORDER BY " + ", ".join(rendered)
        if s.limit is not None:
            sql += f" LIMIT {s.limit}"
        return sql

    def _render_alias_expr(self, expr: Expr) -> str:
        """Render a HAVING expression whose columns are output aliases."""
        if isinstance(expr, ColumnRef):
            return f'"{expr.name}"'
        if isinstance(expr, Comparison):
            return (f"({self._render_alias_expr(expr.left)} {expr.op} "
                    f"{self._render_alias_expr(expr.right)})")
        if isinstance(expr, BoolOp):
            joiner = f" {expr.op.upper()} "
            return "(" + joiner.join(self._render_alias_expr(p)
                                     for p in expr.parts) + ")"
        if isinstance(expr, Not):
            return f"(NOT {self._render_alias_expr(expr.child)})"
        return self.render_expr(expr)


class SQLiteSystem(DatabaseSystem):
    """In-process SQLite over an in-memory copy of a MiniDB database.

    Accepts the MiniDB dialect: statements are parsed with the MiniDB
    parser and re-rendered into SQLite SQL (qualified columns, CROSS
    JOIN plan forcing, true division).  ``EXPLAIN QUERY PLAN`` output
    is normalised into :class:`SystemPlan`.
    """

    name = "sqlite"

    def __init__(self, cache_pages: int = 2000):
        super().__init__()
        self.cache_pages = cache_pages
        self.conn: Optional[sqlite3.Connection] = None
        self.database: Optional[Database] = None
        self._rows_loaded = 0
        self._statements = 0

    def connect(self) -> None:
        if self.conn is None:
            self.conn = sqlite3.connect(":memory:")
            self.conn.execute(f"PRAGMA cache_size = {self.cache_pages}")

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def load(self, database: Database) -> None:
        self.connect()
        assert self.conn is not None
        self.database = database
        self._rows_loaded = 0
        for name in database.table_names:
            table = database.table(name)
            decls = ", ".join(
                f"{c.name} {_SQLITE_TYPES[c.dtype]}"
                for c in (table.column(n) for n in table.column_names))
            self.conn.execute(f"DROP TABLE IF EXISTS {name}")
            self.conn.execute(f"CREATE TABLE {name} ({decls})")
            arrays = [table.column(n).data.tolist()
                      for n in table.column_names]
            placeholders = ", ".join("?" for __ in arrays)
            self.conn.executemany(
                f"INSERT INTO {name} VALUES ({placeholders})",
                zip(*arrays))
            self._rows_loaded += table.n_rows
        self.conn.commit()
        self._fingerprint = {name: database.table(name).n_rows
                             for name in database.table_names}

    def _require_conn(self) -> sqlite3.Connection:
        if self.conn is None or self.database is None:
            raise DatabaseError(
                f"system {self.name!r}: load() a database first")
        return self.conn

    def translate(self, sql: str) -> str:
        """The SQLite rendering of MiniDB-dialect *sql*."""
        if self.database is None:
            raise DatabaseError(
                f"system {self.name!r}: load() a database first")
        __, stripped = strip_explain(sql)
        statement = parse_select(stripped)
        return _SqliteRenderer(statement, self.database).render()

    def _prepare(self, sql: str) -> Tuple[str, bool]:
        __, stripped = strip_explain(sql)
        statement = parse_select(stripped)
        forced = bool(statement.hints.join_order)
        conn = self._require_conn()
        # Plan forcing also pins the access paths: automatic (one-shot)
        # indexes would change the plan shape mid-comparison.
        conn.execute("PRAGMA automatic_index = %s"
                     % ("OFF" if forced else "ON"))
        assert self.database is not None
        return _SqliteRenderer(statement, self.database).render(), forced

    def execute(self, sql: str) -> SystemResult:
        conn = self._require_conn()
        translated, __ = self._prepare(sql)
        start = time.perf_counter()
        cursor = conn.execute(translated)
        rows = cursor.fetchall()
        wall = time.perf_counter() - start
        self._statements += 1
        columns = tuple(d[0] for d in cursor.description)
        return SystemResult(system=self.name, columns=columns,
                            rows=tuple(tuple(r) for r in rows),
                            wall_s=wall, simulated_s=None)

    def explain(self, sql: str) -> SystemPlan:
        conn = self._require_conn()
        translated, forced = self._prepare(sql)
        detail_rows = conn.execute(
            "EXPLAIN QUERY PLAN " + translated).fetchall()
        details = [str(row[-1]) for row in detail_rows]
        order: List[str] = []
        kinds: List[str] = []
        known = set(self.database.table_names) \
            if self.database is not None else set()
        for detail in details:
            words = detail.split()
            if words and words[0] in ("SCAN", "SEARCH"):
                kinds.append(words[0].lower())
                table = words[1] if len(words) > 1 else ""
                if table in known:
                    order.append(table)
            else:
                kinds.append(detail.split()[0].lower() if words else "")
        return SystemPlan(system=self.name, join_order=tuple(order),
                          node_kinds=tuple(kinds), forced=forced,
                          raw="\n".join(details))

    def statistics(self) -> Dict[str, float]:
        return {
            "rows_loaded": float(self._rows_loaded),
            "tables": float(len(self._fingerprint)),
            "statements_executed": float(self._statements),
        }

    def describe_config(self) -> Dict[str, str]:
        conn = self._require_conn()

        def pragma(name: str) -> str:
            return str(conn.execute(f"PRAGMA {name}").fetchone()[0])

        return {
            "backend": "sqlite " + sqlite3.sqlite_version,
            "storage": ":memory:",
            "cache_size_pages": pragma("cache_size"),
            "journal_mode": pragma("journal_mode"),
            "automatic_index": pragma("automatic_index"),
        }


#: The standard three-way contender list for cross-system studies.
def default_systems() -> Tuple[DatabaseSystem, ...]:
    """Fresh ``minidb-loop``, ``minidb-vectorized`` and ``sqlite``."""
    return (MiniDBSystem(), MiniDBSystem(EngineConfig(executor="vectorized")),
            SQLiteSystem())
