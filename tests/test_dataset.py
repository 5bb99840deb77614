from __future__ import annotations

import pytest

from loiterwatch.harness import DatasetError, group_frames, load_track_dataset

HEADER = "frame,timestamp,track_hint,x,y,w,h,source\n"


def write(tmp_path, body, header=HEADER):
    path = tmp_path / "stream.csv"
    path.write_text(header + body)
    return path


def test_loads_valid_rows(tmp_path):
    path = write(tmp_path,
                 "0,0.000,1,100.0,200.0,40.0,100.0,detector\n"
                 "1,0.200,1,102.0,200.0,40.0,100.0,tracker\n")
    rows = load_track_dataset(path)
    assert len(rows) == 2
    assert rows[0].source == "detector"
    assert rows[0].box == (100.0, 200.0, 40.0, 100.0)
    assert rows[1].frame_index == 1
    assert rows[1].track_hint == 1


def test_empty_file_is_just_empty(tmp_path):
    assert load_track_dataset(write(tmp_path, "")) == []


def test_missing_header_named_in_error(tmp_path):
    path = write(tmp_path, "", header="a,b,c\n")
    with pytest.raises(DatasetError, match="header"):
        load_track_dataset(path)


def test_field_count_error_carries_line_number(tmp_path):
    path = write(tmp_path, "0,0.0,1,1.0,2.0,3.0\n")
    with pytest.raises(DatasetError, match="line 2"):
        load_track_dataset(path)


def test_type_error_carries_line_number(tmp_path):
    path = write(tmp_path,
                 "0,0.000,1,100.0,200.0,40.0,100.0,detector\n"
                 "1,abc,1,100.0,200.0,40.0,100.0,tracker\n")
    with pytest.raises(DatasetError, match="line 3"):
        load_track_dataset(path)


def test_unknown_source_rejected(tmp_path):
    path = write(tmp_path, "0,0.0,1,1.0,2.0,3.0,4.0,oracle\n")
    with pytest.raises(DatasetError, match="source"):
        load_track_dataset(path)


def test_non_positive_box_rejected(tmp_path):
    path = write(tmp_path, "0,0.0,1,1.0,2.0,0.0,4.0,detector\n")
    with pytest.raises(DatasetError, match="box"):
        load_track_dataset(path)


def test_frame_regression_rejected(tmp_path):
    path = write(tmp_path,
                 "5,1.0,1,1.0,2.0,3.0,4.0,detector\n"
                 "4,1.2,1,1.0,2.0,3.0,4.0,detector\n")
    with pytest.raises(DatasetError, match="frame"):
        load_track_dataset(path)


def test_timestamp_regression_rejected(tmp_path):
    path = write(tmp_path,
                 "0,1.0,1,1.0,2.0,3.0,4.0,detector\n"
                 "1,0.8,1,1.0,2.0,3.0,4.0,detector\n")
    with pytest.raises(DatasetError, match="timestamp"):
        load_track_dataset(path)


def test_conflicting_frame_timestamps_rejected(tmp_path):
    path = write(tmp_path,
                 "0,1.0,1,1.0,2.0,3.0,4.0,detector\n"
                 "0,1.1,2,5.0,6.0,3.0,4.0,detector\n")
    with pytest.raises(DatasetError, match="line 3"):
        load_track_dataset(path)


@pytest.mark.parametrize("last_row,message", [
    ("1,0.3,3,9.0,6.0,3.0,4.0,detector\n",
     "line 5: frame 1 has conflicting timestamps"),
    # An earlier timestamp is reported as a regression, which is checked first.
    ("1,0.1,3,9.0,6.0,3.0,4.0,detector\n",
     "line 5: timestamp 0.1 regresses past 0.2"),
])
def test_timestamp_change_inside_a_later_frame_rejected(tmp_path, last_row, message):
    path = write(tmp_path,
                 "0,0.0,1,1.0,2.0,3.0,4.0,detector\n"
                 "1,0.2,1,1.0,2.0,3.0,4.0,detector\n"
                 "1,0.2,2,5.0,6.0,3.0,4.0,detector\n" + last_row)
    with pytest.raises(DatasetError, match=f": {message}$"):
        load_track_dataset(path)


def test_negative_first_frame_accepted(tmp_path):
    path = write(tmp_path,
                 "-3,0.0,1,1.0,2.0,3.0,4.0,detector\n"
                 "-3,0.0,2,50.0,2.0,3.0,4.0,detector\n"
                 "0,0.6,1,1.0,2.0,3.0,4.0,tracker\n")
    rows = load_track_dataset(path)
    assert [(r.frame_index, r.timestamp) for r in rows] == [(-3, 0.0), (-3, 0.0), (0, 0.6)]


def test_group_frames_collects_rows_per_frame(tmp_path):
    path = write(tmp_path,
                 "0,0.0,1,1.0,2.0,3.0,4.0,detector\n"
                 "0,0.0,2,50.0,2.0,3.0,4.0,detector\n"
                 "2,0.4,1,1.0,2.0,3.0,4.0,tracker\n")
    groups = group_frames(load_track_dataset(path))
    assert [(f, t, len(rows)) for f, t, rows in groups] == [(0, 0.0, 2),
                                                            (2, 0.4, 1)]
