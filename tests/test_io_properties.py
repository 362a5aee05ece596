"""Property tests for the CSV layer's round trip, over small random files.

Ingest returns the kept rows' numbers bit-exact and their labels trimmed,
the skip notice names the file lines of the skipped rows (blank lines
counted), and a weight dump parses back to the same doubles.  Examples are
derandomized so the suite reads the same cases on every run.
"""

import csv
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoweight import EmptyFileError, ingest_delimited
from pseudoweight.io import _dump_weights

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)
DOUBLES = st.floats(allow_nan=False, width=64)
# labels may need quoting, and may be blank once trimmed
LABELS = st.text(alphabet='ab1 ,"', max_size=4)


def assert_bits(got, expected):
    got = np.ascontiguousarray(got, dtype=float)
    expected = np.ascontiguousarray(expected, dtype=float)
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


@st.composite
def survey_files(draw):
    """A survey file's rows as written, with the rows ingest should keep
    and the file lines of the rows it should skip.

    Columns are ``y``, ``w``, one to three covariates and, optionally, the
    labels ``s`` and ``p``, in a random order with header names padded by
    spaces.  Some rows get a blank numeric cell, some are preceded by a
    blank line.
    """
    n = draw(st.integers(1, 25))
    covariates = [f"x{j}" for j in range(1, draw(st.integers(1, 3)) + 1)]
    numeric = ["y", "w"] + covariates
    labels = ["s", "p"] if draw(st.booleans()) else []
    order = draw(st.permutations(numeric + labels))
    pad = st.sampled_from(["", " "])
    header = [draw(pad) + c + draw(pad) for c in order]

    lines, kept, skipped, line = [header], [], [], 1
    for _ in range(n):
        if draw(st.booleans()):
            lines.append([])
            line += 1
        line += 1
        record = {c: draw(DOUBLES) for c in numeric}
        record.update({c: draw(LABELS) for c in labels})
        blank = draw(st.sampled_from([None] + numeric))
        cells = {c: repr(v) if c in numeric else v for c, v in record.items()}
        if blank is not None:
            cells[blank] = ""
        lines.append([cells[c] for c in order])
        if blank is None and all(record[c].strip() for c in labels):
            kept.append(record)
        else:
            skipped.append(line)
    return lines, covariates, labels, kept, skipped


def write_lines(path, lines):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for cells in lines:
            if cells:
                writer.writerow(cells)
            else:
                fh.write("\n")


@PROPERTY_SETTINGS
@given(survey_files())
def test_ingest_keeps_rows_bit_exact_and_reports_skipped_lines(case):
    lines, covariates, labels, kept, skipped = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "survey.csv")
        write_lines(path, lines)
        declared = dict(
            covariates=covariates,
            outcome="y",
            weight="w",
            stratum="s" if labels else None,
            psu="p" if labels else None,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if kept:
                survey = ingest_delimited(path, **declared)
            else:
                with pytest.raises(EmptyFileError, match="every data row"):
                    ingest_delimited(path, **declared)

    notices = [str(w.message) for w in caught]
    if skipped:
        shown = ", ".join(map(str, skipped[:10])) + (", ..." if len(skipped) > 10 else "")
        assert notices == [
            f"{path}: skipped {len(skipped)} row(s) with missing declared "
            f"fields (rows {shown})"
        ]
    else:
        assert notices == []
    if not kept:
        return
    assert_bits(survey.y, [r["y"] for r in kept])
    assert_bits(survey.d, [r["w"] for r in kept])
    assert_bits(survey.X[:, 0], np.ones(len(kept)))
    assert_bits(survey.X[:, 1:], [[r[c] for c in covariates] for r in kept])
    if labels:
        assert survey.design.stratum.tolist() == [r["s"].strip() for r in kept]
        assert survey.design.psu.tolist() == [r["p"].strip() for r in kept]
    else:
        assert survey.design.stratum is None and survey.design.psu is None


@st.composite
def weight_dumps(draw):
    """One to four methods' weights for the same 1-30 cohort units."""
    n = draw(st.integers(1, 30))
    columns = draw(st.lists(st.lists(DOUBLES, min_size=n, max_size=n), min_size=1, max_size=4))
    return {f"m{j}": np.array(c) for j, c in enumerate(columns)}


@PROPERTY_SETTINGS
@given(weight_dumps())
def test_weight_dump_parses_back_to_the_same_doubles(weights):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "weights.csv")
        _dump_weights(weights, path)
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
    assert header == ["unit"] + list(weights)
    assert [int(r[0]) for r in rows] == list(range(len(weights["m0"])))
    for j, m in enumerate(weights, start=1):
        assert_bits([float(r[j]) for r in rows], weights[m])
