"""The append-only sweep-store log: format, compaction, crash recovery.

Companion to the executor-level tests in test_sweep_parallel.py — these
exercise the store itself: the log format and its torn-tail semantics
(a crash tears at most the final line, which the next open drops), and
canonical compaction.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import (
    STORE_FORMAT,
    SerialSweepExecutor,
    SweepStore,
    SweepStoreError,
    WorkStealingSweepExecutor,
)


def make_store(path, cells):
    store = SweepStore(path)
    for key, value in cells.items():
        store.put(key, value)
    store.close()
    return store


class TestLogFormat:
    def test_header_names_the_format(self, tmp_path):
        path = tmp_path / "s.json"
        make_store(path, {"a": 1})
        first, *records = path.read_text().splitlines()
        assert json.loads(first) == {"format": STORE_FORMAT}
        assert json.loads(records[0]) == {"k": "a", "v": 1}

    def test_unknown_format_version_refused(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"format":"oasis-sweep-log-v99"}\n')
        with pytest.raises(SweepStoreError, match="v99"):
            SweepStore(path)

    def test_put_appends_without_rewriting(self, tmp_path):
        # The O(1)-per-cell claim, structurally: every put leaves the
        # previous bytes as an untouched prefix.
        path = tmp_path / "s.json"
        store = SweepStore(path)
        store.put("a", {"x": 1})
        before = path.read_bytes()
        store.put("b", {"x": 2})
        assert path.read_bytes()[: len(before)] == before

    def test_values_stay_on_disk_not_in_memory(self, tmp_path):
        path = tmp_path / "s.json"
        make_store(path, {"a": {"big": [1, 2, 3]}})
        reopened = SweepStore(path)
        assert reopened._mem == {}  # only the offset index is resident
        assert reopened.get("a") == {"big": [1, 2, 3]}

    def test_last_record_per_key_wins(self, tmp_path):
        path = tmp_path / "s.json"
        store = make_store(path, {"a": 1})
        store.put("a", 2)
        assert store.get("a") == 2
        assert SweepStore(path).get("a") == 2
        assert len(SweepStore(path)) == 1

    def test_iter_cells_streams_in_sorted_order(self, tmp_path):
        path = tmp_path / "s.json"
        make_store(path, {"b": 2, "a": 1, "c": 3})
        reopened = SweepStore(path)
        iterator = reopened.iter_cells()
        assert next(iterator) == ("a", 1)  # lazily consumable
        assert list(iterator) == [("b", 2), ("c", 3)]

    def test_values_json_round_trip_exactly(self, tmp_path):
        value = {"mean_psnr": 0.1 + 0.2, "count": 7, "tags": ["x", None]}
        path = tmp_path / "s.json"
        make_store(path, {"cell": value})
        assert SweepStore(path).get("cell") == value


class TestCompaction:
    def test_compact_is_insertion_order_invariant(self, tmp_path):
        cells = {"c": {"v": 3}, "a": {"v": 1}, "b": {"v": 2}}
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        for path, order in ((one, sorted(cells)), (two, reversed(sorted(cells)))):
            store = SweepStore(path)
            for key in order:
                store.put(key, cells[key])
            store.compact()
            store.close()
        assert one.read_bytes() == two.read_bytes()

    def test_compact_drops_superseded_records(self, tmp_path):
        path = tmp_path / "s.json"
        store = make_store(path, {"a": 1})
        for value in range(20):
            store.put("a", value)
        store.compact()
        store.close()
        assert len(path.read_text().splitlines()) == 2  # header + one record
        assert SweepStore(path).get("a") == 19

    def test_store_survives_compact_then_append_then_reload(self, tmp_path):
        path = tmp_path / "s.json"
        store = make_store(path, {"a": 1, "b": 2})
        store.compact()
        store.put("c", 3)
        store.close()
        assert dict(SweepStore(path).iter_cells()) == {"a": 1, "b": 2, "c": 3}

    def test_memory_only_store_compacts_to_nothing(self):
        store = SweepStore(None)
        store.put("a", 1)
        store.compact()
        assert store.get("a") == 1


class TestCrashRecovery:
    def test_torn_tail_is_dropped_then_overwritten(self, tmp_path):
        path = tmp_path / "s.json"
        make_store(path, {"a": 1, "b": 2})
        path.write_bytes(path.read_bytes()[:-5])  # tear the final append
        store = SweepStore(path)
        assert store.get("a") == 1
        assert store.get("b") is None  # the torn cell just recomputes
        store.put("b", 22)
        store.close()
        reopened = SweepStore(path)
        assert dict(reopened.iter_cells()) == {"a": 1, "b": 22}


def _toy_task(payload):
    key, base = payload
    return {"key": key, "value": base * 2}


@settings(max_examples=5, deadline=None)
@given(
    order=st.permutations(list(range(6))),
    workers=st.integers(min_value=1, max_value=3),
)
def test_store_bytes_invariant_to_task_order_and_workers(
    tmp_path_factory, order, workers
):
    """Property: compacted bytes depend only on the cell *mapping*, never
    on task submission order or how many workers stole them."""
    tmp_path = tmp_path_factory.mktemp("invariance")
    tasks = [(f"cell-{i}", _toy_task, (f"cell-{i}", i)) for i in range(6)]
    reference_path = tmp_path / "reference.json"
    SerialSweepExecutor().run(tasks, SweepStore(reference_path))
    reference = reference_path.read_bytes()

    shuffled = [tasks[i] for i in order]
    executor = (
        SerialSweepExecutor()
        if workers == 1
        else WorkStealingSweepExecutor(workers)
    )
    path = tmp_path / f"w{workers}.json"
    executor.run(shuffled, SweepStore(path))
    assert path.read_bytes() == reference
