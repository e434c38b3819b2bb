"""The append-only sweep-store log: format, compaction, crash recovery.

Companion to the executor-level tests in test_sweep_parallel.py — these
exercise the store itself: the log format and its torn-tail semantics,
canonical compaction, and the shard-recovery
paths (corrupt-shard quarantine, kill-mid-merge durability).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import (
    STORE_FORMAT,
    ShardRecovery,
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

    def test_corrupt_shard_quarantined_good_shards_recovered(self, tmp_path):
        # Satellite bug: recovery used to raise on the first corrupt
        # shard, abandoning every readable one behind it.
        store = SweepStore(tmp_path / "s.json")
        shard_dir = store.shard_directory()
        shard_dir.mkdir()
        make_store(shard_dir / "shard-1.json", {"a": 1})
        (shard_dir / "shard-2.json").write_text(
            '{"format":"oasis-sweep-log-v1"}\n{"k": broken\n{"k":"x","v":0}\n'
        )
        make_store(shard_dir / "shard-3.json", {"b": 2})
        with pytest.warns(RuntimeWarning, match="quarantined corrupt"):
            outcome = store.recover_shards()
        assert outcome == ShardRecovery(recovered=2, quarantined=1)
        assert sorted(store.keys()) == ["a", "b"]
        assert not (shard_dir / "shard-2.json").exists()
        assert (shard_dir / "shard-2.json.corrupt").exists()  # evidence kept
        assert not (shard_dir / "shard-1.json").exists()
        assert not (shard_dir / "shard-3.json").exists()

    def test_shard_unlinked_only_after_durable_merge(self, tmp_path, monkeypatch):
        # Kill-mid-merge: if persisting a shard's cells fails, that shard
        # file must survive for the next recovery attempt.
        store = SweepStore(tmp_path / "s.json")
        shard_dir = store.shard_directory()
        shard_dir.mkdir()
        make_store(shard_dir / "shard-1.json", {"a": 1})
        make_store(shard_dir / "shard-2.json", {"b": 2})
        real_update = SweepStore.update
        calls = []

        def dying_update(self, mapping):
            calls.append(mapping)
            if len(calls) == 2:
                raise OSError("disk full")  # dies merging the second shard
            return real_update(self, mapping)

        monkeypatch.setattr(SweepStore, "update", dying_update)
        with pytest.raises(OSError):
            store.recover_shards()
        monkeypatch.undo()
        assert not (shard_dir / "shard-1.json").exists()  # merged, removed
        assert (shard_dir / "shard-2.json").exists()  # unmerged, kept
        outcome = store.recover_shards()  # the resumed merge finishes the job
        assert outcome == ShardRecovery(recovered=1, quarantined=0)
        assert sorted(store.keys()) == ["a", "b"]
        assert not shard_dir.exists()

    def test_recovery_without_shard_directory_is_a_noop(self, tmp_path):
        assert SweepStore(tmp_path / "s.json").recover_shards() == (0, 0)
        assert SweepStore(None).recover_shards() == (0, 0)


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
