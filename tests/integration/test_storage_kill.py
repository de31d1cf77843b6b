"""Integration: ``kill -9`` of a process that is storing.

A forked child stores ~1 KiB records in a loop, over few enough keys
that a 64 KiB log segment fills, and the log compacts itself, every few
dozen stores; it reports each store on a pipe once ``store()``
returned.  The parent kills it at a random
moment -- mid-append, mid-compaction, mid-rename -- reopens the
directory and must find every reported store.  Its sibling does the
same with batches of three owners' frames, one append each, as a live
cluster's nodes share their log.
"""

import os
import random
import signal
import time

import pytest

from repro.runtime.storage import FileLog, FileStableStorage, encode_frame

KEYS = 5
#: Pads each record's frame to about 1 KiB.
PAD = b"x" * 1000


def store_forever(root, report):
    storage = FileStableStorage(root)
    for i in range(1_000_000):
        storage.store(f"k{i % KEYS}", (i, PAD), size=1)
        os.write(report, b"%d\n" % i)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork and SIGKILL")
@pytest.mark.parametrize("repetition", range(20))
def test_every_acknowledged_store_survives_sigkill(tmp_path, repetition):
    read_end, write_end = os.pipe()
    child = os.fork()
    if child == 0:
        try:
            os.close(read_end)
            store_forever(tmp_path, write_end)
        finally:
            os._exit(1)
    os.close(write_end)
    with open(read_end, "rb") as reports:
        reports.readline()  # the child is up and storing
        time.sleep(random.Random(repetition).uniform(0.0, 0.03))
        os.kill(child, signal.SIGKILL)
        os.waitpid(child, 0)
        reported = 1 + len(reports.readlines())
    survivors = FileStableStorage(tmp_path)
    assert survivors.records_quarantined == 0
    # Store i overwrote store i - KEYS: the log holds the last KEYS
    # stores, which are the reported ones or one more that landed
    # before its report did.
    newest = max(i for (i, _) in survivors.records.values())
    assert newest in (reported - 1, reported)
    assert survivors.records == {
        f"k{i % KEYS}": (i, PAD)
        for i in range(max(0, newest - KEYS + 1), newest + 1)
    }
    assert not (tmp_path / "wal.new").exists()


#: Owners of the shared log in the batched sibling, one frame each per append.
OWNERS = 3


def append_batches_forever(root, report):
    log = FileLog(root)
    log.scan_files()
    for i in range(1_000_000):
        keys = [f"{pid}/k{i % KEYS}" for pid in range(OWNERS)]
        log.append([(key, encode_frame(key, (i, PAD))) for key in keys])
        os.write(report, b"%d\n" % i)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork and SIGKILL")
@pytest.mark.parametrize("repetition", range(20))
def test_every_acknowledged_batch_survives_sigkill(tmp_path, repetition):
    read_end, write_end = os.pipe()
    child = os.fork()
    if child == 0:
        try:
            os.close(read_end)
            append_batches_forever(tmp_path, write_end)
        finally:
            os._exit(1)
    os.close(write_end)
    with open(read_end, "rb") as reports:
        reports.readline()  # the child is up and appending
        time.sleep(random.Random(repetition).uniform(0.0, 0.03))
        os.kill(child, signal.SIGKILL)
        os.waitpid(child, 0)
        reported = 1 + len(reports.readlines())
    survivors = FileStableStorage(tmp_path)
    assert survivors.records_quarantined == 0
    for pid in range(OWNERS):
        prefix = f"{pid}/"
        mine = {
            key[len(prefix):]: record
            for key, record in survivors.records.items()
            if key.startswith(prefix)
        }
        # An append the kill cut short may have landed for some owners only.
        newest = max(i for (i, _) in mine.values())
        assert newest in (reported - 1, reported)
        assert mine == {
            f"k{i % KEYS}": (i, PAD)
            for i in range(max(0, newest - KEYS + 1), newest + 1)
        }
    assert not (tmp_path / "wal.new").exists()
