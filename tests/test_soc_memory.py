"""Unit tests for the memory core."""

import pytest

from repro.soc.memory import Memory


def test_read_write():
    memory = Memory(64)
    memory.write(10, 0xAB)
    assert memory.read(10) == 0xAB


def test_bounds_checking():
    memory = Memory(64)
    with pytest.raises(IndexError):
        memory.read(64)
    with pytest.raises(IndexError):
        memory.write(-1, 0)
    with pytest.raises(ValueError):
        memory.write(0, 256)


def test_load_image_and_snapshot():
    memory = Memory(16)
    memory.load_image({0: 1, 5: 2, 15: 3})
    snapshot = memory.snapshot()
    assert snapshot[0] == 1 and snapshot[5] == 2 and snapshot[15] == 3
    assert len(snapshot) == 16


def test_diff():
    memory = Memory(8)
    before = memory.snapshot()
    memory.write(3, 9)
    diff = memory.diff(before)
    assert diff == {3: (0, 9)}


def test_diff_size_mismatch():
    memory = Memory(8)
    with pytest.raises(ValueError):
        memory.diff(bytes(4))


def test_region():
    memory = Memory(16)
    memory.load_image({4: 1, 5: 2})
    assert memory.region(4, 3) == bytes([1, 2, 0])
    with pytest.raises(IndexError):
        memory.region(14, 4)


def test_fill_and_addresses_with():
    memory = Memory(8)
    memory.fill(7)
    assert list(memory.addresses_with(7)) == list(range(8))
    memory.write(2, 1)
    assert list(memory.addresses_with(1)) == [2]


def test_default_size_is_4k():
    assert Memory().size == 4096


def test_version_rises_only_when_content_may_change():
    memory = Memory(8)
    start = memory.version
    memory.write(3, 0)  # same value: content unchanged
    assert memory.version == start
    memory.write(3, 5)
    assert memory.version == start + 1
    memory.write(3, 5)
    assert memory.version == start + 1
    memory.restore(bytes(8))
    assert memory.version == start + 2
    memory.fill(0)
    assert memory.version == start + 3
