"""SQLite as the reference engine that MiniDB's results are checked against.

An independent engine catches what a second copy of MiniDB's own code
cannot: a defect shared by both copies.  Results compare in order when
the statement has ORDER BY, as multisets otherwise, with NaN and None
as the same NULL (:func:`repro.db.systems.rows_match`).
"""

import re

from repro.db import Engine, EngineConfig, parse_select
from repro.db.systems import SQLiteSystem, SystemResult, results_match, rows_match

#: The execution styles every MiniDB result is checked under: all cost
#: profiles run the same host code, but only ``vectorized`` hands
#: selection vectors between operators.
EXECUTORS = EngineConfig.VALID_EXECUTORS

#: A ``/*+ ... */`` hint comment.  SQLite cannot force MiniDB's physical
#: operators, so the reference runs the statement without hints.
_HINTS = re.compile(r"/\*\+.*?\*/")


def sqlite_result(db, sql: str) -> SystemResult:
    """*sql*, hints removed, run on a fresh SQLite copy of *db*."""
    reference = SQLiteSystem()
    reference.load(db)
    try:
        return reference.execute(_HINTS.sub("", sql))
    finally:
        reference.close()


def assert_matches(result, want: SystemResult, sql: str) -> None:
    """A MiniDB :class:`~repro.db.engine.QueryResult` agrees with SQLite."""
    got = SystemResult(system="minidb", columns=result.columns,
                       rows=result.rows, wall_s=0.0)
    if parse_select(sql).order_by:
        same = len(got.columns) == len(want.columns) and \
            rows_match(got.rows, want.rows)
    else:
        same = results_match(got, want)
    assert same, (f"MiniDB disagrees with SQLite on {sql!r}:\n"
                  f"minidb[:5]={got.rows[:5]}\nsqlite[:5]={want.rows[:5]}")


def check(db, sql: str, executors=EXECUTORS, **config):
    """Run *sql* on SQLite and on MiniDB under each executor; every
    MiniDB result must agree with SQLite's.  Returns MiniDB's rows
    (those of the last executor)."""
    want = sqlite_result(db, sql)
    rows = None
    for executor in executors:
        result = Engine(db, EngineConfig(executor=executor,
                                         **config)).execute(sql)
        assert_matches(result, want, sql)
        rows = result.rows
    return rows
