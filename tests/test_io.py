"""File formats: atomic writes."""

import sys
import threading

import pytest

from depthrisk import IoError
from depthrisk.io import atomic_write_text


class TestAtomicWrite:
    def test_two_writers_leave_one_whole_text(self, tmp_path):
        path = tmp_path / "table.csv"
        texts = ["a,1\n" * 50_000, "b,2\n" * 40_000]
        atomic_write_text(path, texts[0])
        errors = []

        def writer(text):
            try:
                for _ in range(50):
                    atomic_write_text(path, text)
            except Exception as exc:  # reported below: a thread cannot raise into the test
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in texts]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            reads = []
            while any(t.is_alive() for t in threads):
                reads.append(path.read_text())
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        reads.append(path.read_text())
        assert errors == []
        assert all(text in texts for text in reads)
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(IoError, match="cannot write"):
            atomic_write_text(target, "text\n")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
