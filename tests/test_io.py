"""File formats: atomic writes and numeric CSV reads."""

import sys
import threading

import numpy as np
import pytest

from depthrisk import IoError
from depthrisk.io import atomic_write_text, read_matrix_csv


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


class TestReadMatrixCsv:
    def test_blank_lines_skipped_and_files_without_rows_refused(self, tmp_path):
        gappy = tmp_path / "gappy.csv"
        gappy.write_text("x,y\n1,2\n\n3,4\n")
        assert np.array_equal(read_matrix_csv(gappy), [[1.0, 2.0], [3.0, 4.0]])
        header_only = tmp_path / "header.csv"
        header_only.write_text("x,y\n")
        with pytest.raises(IoError, match="no data rows"):
            read_matrix_csv(header_only)
        with pytest.raises(IoError, match="cannot read"):
            read_matrix_csv(tmp_path)
