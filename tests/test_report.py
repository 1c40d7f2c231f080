"""Artifact formats shared by every writer."""
import numpy as np

from pathmin.report import write_csv


def test_write_csv_formats_each_cell(tmp_path):
    out = tmp_path / "t.csv"
    write_csv(str(out), ["a", "b", "c", "d", "e"],
              [[np.float64(0.1), float("nan"), 3, "", 1.0 / 3.0]])
    assert out.read_bytes() == (b"a,b,c,d,e\r\n"
                                b"0.10000000000000001,nan,3,,0.33333333333333331\r\n")
