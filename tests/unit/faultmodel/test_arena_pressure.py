"""SharedArena under pressure: exhaustion and flock contention.

A full arena must refuse further stores without error and without
tearing its index, and concurrent writers racing on the flock must leave
every committed entry fetchable at aligned, non-overlapping offsets.
"""

import pickle
import threading

import numpy as np
import pytest

from repro.faultmodel.shared_arena import SharedArena
from repro.obs import MetricsRegistry, observed

pytestmark = pytest.mark.faults


def parts(rows=8, cols=5, fill=1.5):
    base = np.full((rows, cols), fill, dtype=np.float64)
    mask = np.zeros((rows, cols), dtype=np.bool_)
    mask[::2] = True
    return base, mask


def read_index(arena):
    with open(arena.index_path, "rb") as handle:
        return pickle.load(handle)


def assert_fetch_equals(arena, key, expected):
    """Fetch-and-compare in a frame of its own.

    Arena views are ``np.frombuffer`` windows onto the shared segment;
    holding one at ``destroy()`` time raises ``BufferError``.  Keeping
    the view local to this helper lets it die before teardown.
    """
    fetched = arena.fetch(key)
    assert fetched is not None, key
    np.testing.assert_array_equal(fetched[0], expected)


class TestExhaustion:
    def test_stores_refuse_past_capacity_but_earlier_keys_survive(
            self, tmp_path):
        arena = SharedArena.create(str(tmp_path), capacity=1 << 12)
        try:
            metrics = MetricsRegistry()
            with observed(metrics=metrics):
                stored, refused = [], []
                for index in range(16):  # ~1 KiB per entry vs 4 KiB arena
                    key = ("ns", index)
                    if arena.store(key, parts(rows=8, cols=8, fill=index)):
                        stored.append(key)
                    else:
                        refused.append(key)
                assert stored and refused  # some fit, pressure refused rest
                for key in stored:  # committed entries stay intact
                    assert_fetch_equals(
                        arena, key,
                        np.full((8, 8), key[1], dtype=np.float64))
                for key in refused:
                    assert arena.fetch(key) is None
            assert metrics.counter_value("oracle.arena.full") \
                == len(refused)
        finally:
            arena.destroy()

    def test_full_arena_leaves_no_torn_index(self, tmp_path):
        arena = SharedArena.create(str(tmp_path), capacity=1 << 12)
        try:
            with observed(metrics=MetricsRegistry()):
                for index in range(16):
                    arena.store(("ns", index), parts(rows=8, cols=8))
            index = read_index(arena)
            end = index.pop("__next__")
            offsets = sorted(
                (base_offset,
                 base_offset + int(np.prod(shape)) * 8,
                 mask_offset,
                 mask_offset + int(np.prod(shape)))
                for base_offset, shape, mask_offset in index.values())
            previous_end = 0
            for base_lo, base_hi, mask_lo, mask_hi in offsets:
                assert base_lo % 64 == 0 and mask_lo % 64 == 0
                assert base_lo >= previous_end  # no overlap with prior
                assert mask_lo >= base_hi
                previous_end = mask_hi
            assert end <= arena.capacity
        finally:
            arena.destroy()


class TestFlockContention:
    def test_concurrent_writers_commit_disjoint_consistent_entries(
            self, tmp_path):
        """Eight threads race exclusive flocks into one arena; every
        committed key must be fetchable with the exact bytes its writer
        stored, and the index must stay one consistent pickle."""
        arena = SharedArena.create(str(tmp_path), capacity=1 << 20)
        errors = []
        try:
            with observed(metrics=MetricsRegistry()):
                def writer(worker):
                    try:
                        handle = SharedArena.attach(
                            arena.name, arena.index_path, arena.lock_path)
                        for index in range(6):
                            fill = worker * 100 + index
                            handle.store(("w", worker, index),
                                         parts(rows=4, cols=4, fill=fill))
                        handle.close()
                    except Exception as error:  # surfaced after join
                        errors.append(error)

                threads = [threading.Thread(target=writer, args=(n,))
                           for n in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not errors
                assert len(arena) == 8 * 6
                for worker in range(8):
                    for index in range(6):
                        assert_fetch_equals(
                            arena, ("w", worker, index),
                            np.full((4, 4), worker * 100 + index,
                                    dtype=np.float64))
        finally:
            arena.destroy()

    def test_racing_writers_on_one_key_burn_space_once(self, tmp_path):
        arena = SharedArena.create(str(tmp_path), capacity=1 << 16)
        try:
            with observed(metrics=MetricsRegistry()):
                barrier = threading.Barrier(4)

                def writer():
                    handle = SharedArena.attach(
                        arena.name, arena.index_path, arena.lock_path)
                    barrier.wait()
                    handle.store(("shared", "key"),
                                 parts(rows=4, cols=4, fill=7.0))
                    handle.close()

                threads = [threading.Thread(target=writer)
                           for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert len(arena) == 1  # one commit, three noop wins
                assert_fetch_equals(arena, ("shared", "key"),
                                    np.full((4, 4), 7.0, dtype=np.float64))
        finally:
            arena.destroy()

    def test_readers_under_a_writer_storm_never_see_torn_state(
            self, tmp_path):
        arena = SharedArena.create(str(tmp_path), capacity=1 << 20)
        stop = threading.Event()
        torn = []
        try:
            with observed(metrics=MetricsRegistry()):
                def check(handle, index):
                    """One fetch in its own frame so the view dies
                    before ``handle.close()`` (BufferError otherwise)."""
                    fetched = handle.fetch(("r", index))
                    if fetched is None:
                        return True  # not committed yet: fine
                    return bool(np.all(fetched[0] == float(index)))

                def reader():
                    handle = SharedArena.attach(
                        arena.name, arena.index_path, arena.lock_path)
                    while not stop.is_set():
                        for index in range(20):
                            if not check(handle, index):
                                torn.append(index)
                    handle.close()

                readers = [threading.Thread(target=reader)
                           for _ in range(3)]
                for thread in readers:
                    thread.start()
                for index in range(20):
                    arena.store(("r", index),
                                parts(rows=4, cols=4, fill=float(index)))
                stop.set()
                for thread in readers:
                    thread.join(timeout=30)
                assert not torn  # fetch returns whole entries or nothing
        finally:
            arena.destroy()
