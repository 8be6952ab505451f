"""Cache invalidation matrix: every journaled mutation kind x layer.

The caching stack's correctness contract is that a stale entry is never
served: every catalog-mutating statement kind (CREATE, DROP, CACHE,
UNCACHE, INSERT, LOAD) must invalidate exactly the entries it makes
stale in each cache layer (plan / result), verified against a cache-off
context that replays the same mutations; beneath them a scan decodes the
blocks a mutation added and never an old block again.  Per-table versions
are monotonic — they survive DROP and master-journal replay — and a
self-join or subquery contributes one version-vector entry *per alias
occurrence* (the PR's normalizer regression).
"""

import pytest

from repro import SharkContext
from repro.sql.cache import normalize_select
from repro.sql.journal import MasterJournal
from repro.sql.parser import parse
from repro.storage import DistributedFileStore

from tests.sql.test_cache_parity import count_decodes
from tests.sql.test_vectorized_parity import assert_byte_identical

QUERY = "SELECT k, SUM(v) AS total FROM src GROUP BY k ORDER BY k"


def _build(cache: bool = True, **context_kwargs):
    shark = SharkContext(num_workers=2, **context_kwargs)
    shark.sql("CREATE TABLE src (k INT, v DOUBLE)")
    shark.sql("INSERT INTO src VALUES (1, 1.0), (2, 2.0), (3, 3.0)")
    shark.sql("CREATE TABLE other (x INT)")
    shark.sql("INSERT INTO other VALUES (10)")
    if cache:
        shark.enable_sql_cache()
    return shark


def _mutate_insert(shark):
    shark.sql("INSERT INTO src VALUES (9, 9.0)")


def _mutate_load(shark):
    shark.load_rows("src", [(9, 9.0)])


def _mutate_cache_table(shark):
    shark.sql("CACHE TABLE src")


def _mutate_uncache_table(shark):
    shark.sql("UNCACHE TABLE src")


def _mutate_drop_recreate(shark):
    shark.sql("DROP TABLE src")
    shark.sql("CREATE TABLE src (k INT, v DOUBLE)")
    shark.sql("INSERT INTO src VALUES (7, 7.0)")


#: name -> (prepare, mutate).  ``prepare`` runs before the cache warms
#: so UNCACHE has something to uncache.
MUTATIONS = {
    "insert": (None, _mutate_insert),
    "load": (None, _mutate_load),
    "cache_table": (None, _mutate_cache_table),
    "uncache_table": (_mutate_cache_table, _mutate_uncache_table),
    "drop_recreate": (None, _mutate_drop_recreate),
}


class TestResultInvalidation:
    """Result layer: warm entry -> mutation -> a fresh execution, with
    rows byte-identical to a cache-off context replaying the steps."""

    @pytest.mark.parametrize("kind", sorted(MUTATIONS))
    def test_mutation_never_serves_stale(self, kind):
        prepare, mutate = MUTATIONS[kind]
        shark = _build()
        if prepare is not None:
            prepare(shark)
        version_before = shark.session.catalog.version("src")

        first = shark.sql(QUERY)
        assert not first.cache_hit
        warm = shark.sql(QUERY)
        assert warm.cache_hit
        assert_byte_identical(warm.rows, first.rows)

        mutate(shark)
        assert shark.session.catalog.version("src") > version_before
        after = shark.sql(QUERY)
        assert not after.cache_hit  # the stale entry was unreachable

        reference = _build(cache=False)
        if prepare is not None:
            prepare(reference)
        mutate(reference)
        assert_byte_identical(after.rows, reference.sql(QUERY).rows)

    @pytest.mark.parametrize("kind", sorted(MUTATIONS))
    def test_mutation_frees_entries_eagerly(self, kind):
        prepare, mutate = MUTATIONS[kind]
        shark = _build()
        if prepare is not None:
            prepare(shark)
        cache = shark.sql_cache
        shark.sql(QUERY)
        assert cache.bytes_cached > 0
        before = cache.invalidations
        mutate(shark)
        assert cache.invalidations > before
        # No result entry for src may survive the mutation.
        assert not any(
            "src" in entry.tables for entry in cache._results.values()
        )

    def test_unrelated_mutation_keeps_entries(self):
        shark = _build()
        shark.sql(QUERY)
        shark.sql("INSERT INTO other VALUES (11)")
        assert shark.sql(QUERY).cache_hit

    def test_unrelated_ddl_keeps_result_entries(self):
        # DDL bumps the catalog's ddl_version (plan keys move) but the
        # result cache keys on per-table versions only: still a hit.
        shark = _build()
        shark.sql(QUERY)
        shark.sql("CREATE TABLE third (y INT)")
        assert shark.sql(QUERY).cache_hit


class TestPlanInvalidation:
    """Plan layer: survives non-DDL mutations (physical planning reruns
    anyway), becomes unreachable on any DDL via the ddl_version key.
    Only a result miss consults it, such as the first run after a
    mutation of a table the query reads."""

    def test_plan_survives_insert_and_load(self):
        shark = _build()
        cache = shark.sql_cache
        shark.sql(QUERY)
        assert shark.sql(QUERY).cache_hit  # a result hit plans nothing
        assert cache.plan_hits == 0
        shark.sql("INSERT INTO src VALUES (9, 9.0)")
        after = shark.sql(QUERY)
        assert not after.cache_hit
        assert cache.plan_hits == 1  # non-DDL: the plan is still valid
        assert (9, 9.0) in after.rows
        shark.load_rows("src", [(12, 12.0)])
        assert (12, 12.0) in shark.sql(QUERY).rows
        assert cache.plan_hits == 2

    @pytest.mark.parametrize(
        "ddl",
        [
            "CACHE TABLE src",
            "CREATE TABLE third (y INT)",
            "DROP TABLE other",
        ],
    )
    def test_any_ddl_moves_plan_keys(self, ddl):
        shark = _build()
        cache = shark.sql_cache
        shark.sql(QUERY)
        misses_before = cache.plan_misses
        shark.sql(ddl)
        # An insert after the DDL makes the next run a result miss; the
        # plan it then looks up is keyed on the old ddl_version.
        shark.sql("INSERT INTO src VALUES (9, 9.0)")
        shark.sql(QUERY)
        assert cache.plan_misses == misses_before + 1
        assert cache.plan_hits == 0
        # ...and the re-stored plan serves the next result miss.
        shark.sql("INSERT INTO src VALUES (10, 10.0)")
        shark.sql(QUERY)
        assert cache.plan_hits == 1

    def test_drop_evicts_plans_referencing_table(self):
        shark = _build()
        cache = shark.sql_cache
        shark.sql(QUERY)
        assert len(cache._plans) == 1
        shark.sql("DROP TABLE src")
        assert len(cache._plans) == 0


class TestFragmentInvalidation:
    """Beneath the result cache: a scan after a mutation reads the
    table's current blocks, decoding the new ones and no old one twice."""

    def _build_cached_table(self):
        shark = SharkContext(num_workers=2)
        shark.sql(
            "CREATE TABLE src (k INT, v DOUBLE) "
            "TBLPROPERTIES ('shark.cache'='true')"
        )
        shark.sql("INSERT INTO src VALUES (1, 1.0), (2, 2.0), (3, 3.0)")
        shark.enable_sql_cache()
        return shark

    def test_insert_drops_fragments_and_redecodes(self):
        shark = self._build_cached_table()
        with count_decodes() as cold:
            first = shark.sql(QUERY)
        assert cold and set(cold.values()) == {1}
        with count_decodes() as warm:
            assert shark.sql(QUERY).cache_hit
        assert not warm

        shark.sql("INSERT INTO src VALUES (9, 9.0)")
        with count_decodes() as after_insert:
            after = shark.sql(QUERY)
        assert not after.cache_hit
        assert after.rows == first.rows + [(9, 9.0)]
        # The appended block's columns, and none of the old block's.
        assert after_insert and set(after_insert.values()) == {1}
        assert not set(after_insert) & set(cold)

    def test_uncache_drops_fragments(self):
        shark = self._build_cached_table()
        first = shark.sql(QUERY)
        shark.sql("UNCACHE TABLE src")
        # The uncached path answers afresh, and correctly.
        after = shark.sql(QUERY)
        assert not after.cache_hit
        assert after.rows == first.rows


class TestPerAliasVersioning:
    """The normalizer regression: one version entry per FROM-clause
    occurrence, so self-joins and subqueries cannot collide with
    single-scan queries."""

    def test_self_join_contributes_two_entries(self):
        statement = parse(
            "SELECT a.k FROM src a JOIN src b ON a.k = b.k"
        )
        normalized = normalize_select(statement)
        assert normalized.tables == (("a", "src"), ("b", "src"))

    def test_comma_join_contributes_two_entries(self):
        statement = parse(
            "SELECT a.k FROM src AS a, src AS b WHERE a.k = b.k"
        )
        normalized = normalize_select(statement)
        assert normalized.tables == (("a", "src"), ("b", "src"))

    def test_from_subquery_tables_collected(self):
        statement = parse("SELECT s.k FROM (SELECT k FROM src) s")
        normalized = normalize_select(statement)
        assert normalized.tables == (("src", "src"),)

    def test_in_subquery_tables_collected(self):
        statement = parse(
            "SELECT k FROM src WHERE k IN (SELECT x FROM other)"
        )
        normalized = normalize_select(statement)
        assert normalized.tables == (("src", "src"), ("other", "other"))

    def test_version_vector_has_one_entry_per_alias(self):
        shark = _build()
        cache = shark.sql_cache
        text = "SELECT COUNT(*) FROM src a JOIN src b ON a.k = b.k"
        shark.sql(text)
        normalized = cache.memo_for(text)
        vector = cache.version_vector(normalized)
        assert len(vector) == 2
        assert [entry[1] for entry in vector] == ["src", "src"]
        assert vector[0][2] == vector[1][2]  # same table, same version

    def test_self_join_result_invalidated_by_insert(self):
        shark = _build()
        text = "SELECT COUNT(*) FROM src a JOIN src b ON a.k = b.k"
        first = shark.sql(text)
        assert shark.sql(text).cache_hit
        shark.sql("INSERT INTO src VALUES (9, 9.0)")
        after = shark.sql(text)
        assert not after.cache_hit
        assert after.scalar() != first.scalar()


class TestVersionsSurviveReplay:
    """Per-table versions are monotonic across DROP and recompute
    deterministically when a new master replays the journal."""

    def test_versions_monotonic_across_drop(self):
        shark = _build(cache=False)
        created = shark.session.catalog.version("src")
        shark.sql("INSERT INTO src VALUES (4, 4.0)")
        inserted = shark.session.catalog.version("src")
        assert inserted > created
        shark.sql("DROP TABLE src")
        dropped = shark.session.catalog.version("src")
        assert dropped > inserted
        shark.sql("CREATE TABLE src (k INT, v DOUBLE)")
        assert shark.session.catalog.version("src") > dropped

    def _build_journaled(self, store):
        shark = SharkContext(
            num_workers=2, store=store, enable_master_recovery=True
        )
        shark.sql(
            "CREATE TABLE sales (region STRING, amount DOUBLE) "
            "TBLPROPERTIES ('shark.cache'='true')"
        )
        shark.sql("INSERT INTO sales VALUES ('n', 10.5), ('s', 20.0)")
        shark.load_rows("sales", [("e", 7.0)])
        shark.sql("CREATE TABLE scratch (x INT)")
        shark.sql("DROP TABLE scratch")
        return shark

    def test_replay_recomputes_identical_versions(self):
        store = DistributedFileStore()
        original = self._build_journaled(store)
        assert len(MasterJournal(store)) > 0
        recovered = SharkContext.recover(store)
        assert recovered.session.catalog.version("sales") == (
            original.session.catalog.version("sales")
        )
        assert recovered.session.catalog.ddl_version == (
            original.session.catalog.ddl_version
        )

    def test_recovered_master_cache_never_stale(self):
        store = DistributedFileStore()
        self._build_journaled(store)
        recovered = SharkContext.recover(store)
        recovered.enable_sql_cache()
        text = "SELECT region, SUM(amount) FROM sales GROUP BY region"
        recovered.sql(text)
        assert recovered.sql(text).cache_hit
        recovered.sql("INSERT INTO sales VALUES ('n', 100.0)")
        after = recovered.sql(text)
        assert not after.cache_hit
        reference = SharkContext.recover(store)
        assert_byte_identical(after.rows, reference.sql(text).rows)
