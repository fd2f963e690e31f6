import numpy as np

from polycarleson.output import csv_text, format_cell, write_csv, write_json


def test_write_json_encodes_complex_and_numpy_scalars(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {
        "b": (1, 2.5),
        "a": {"z": 1 + 2j, "y": [np.float32(0.25), np.int64(3), np.bool_(True)],
              "x": (np.float64(0.1), 0.5j)},
    })
    assert path.read_bytes() == (
        b'{\n  "a": {\n    "x": [\n      0.1,\n      [\n        0.0,\n        0.5\n      ]\n'
        b'    ],\n    "y": [\n      0.25,\n      3,\n      true\n    ],\n    "z": [\n      1.0,\n'
        b'      2.0\n    ]\n  },\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
    )


def test_csv_text_is_what_write_csv_writes(tmp_path):
    header, rows = ["delta", "estimate", "trusted"], [[0.5, 1e-14, True], [0.25, 3, False]]
    path = tmp_path / "out.csv"
    write_csv(path, header, rows)
    assert csv_text(header, rows) == "delta,estimate,trusted\n0.5,1e-14,1\n0.25,3,0\n"
    assert path.read_text() == csv_text(header, rows)


def test_format_cell_unwraps_numpy_scalars():
    cells = [np.float64(0.5), np.int64(3), np.bool_(True), np.bool_(False)]
    assert [format_cell(v) for v in cells] == ["0.5", "3", "1", "0"]
