"""The dataset-CSV contract of model_core.read_dataset_csv, one row per case: DATASETS.

A row is (name, data, want). data is the file's bytes; want is either the exact
CsvFormatError line the reader refuses it with, or the Dataset it gives, as Parsed(ids,
sizes, y, X rows, covariate names). tests/test_model_core.py reads every row
from a regular file and from a FIFO; tests/test_cli.py runs every refused row through
`fit --data`, and names the others' files as {name} in its tables. A new case of the
reader adds its row here.
"""

from collections import namedtuple

Parsed = namedtuple("Parsed", "ids sizes y X names", defaults=[("x1",)])

HEAD = "cluster,unit,y,x1"
HEADER = "line 1: header must start with 'cluster,unit,y'"
NO_ROWS = "line 2: no data rows"
NON_FINITE = "line 4: non-finite value"
LONG_ID = "é" + "x" * 98 + "z"  # 100 characters, no prefix of which is kept
# write_dataset_csv's lines of intercept-only clusters a = (1.25, -2.5), b = (0, 3, 1e-300)
WRITTEN = [HEAD, "a,1,1.25,1", "a,2,-2.5,1", "b,1,0,1", "b,2,3,1", "b,3,1e-300,1"]
AB = Parsed(("a", "b"), [2, 3], [1.25, -2.5, 0.0, 3.0, 1e-300], [[1.0]] * 5)
# the refused line 7 comes after blank lines 2, 4, 5 and 9
AFTER_BLANKS = f"{HEAD}\n\na,1,1,1\n\n\na,2,2,1\n{{}}\n\nb,1,1,1\n"

ROWS = [
    # accepted: order, padding and line ends
    ("tiny", f"{HEAD}\na,1,1,1\na,2,2,1\nb,1,4,1\nb,2,3,1\nc,1,0,1\n",
     Parsed(("a", "b", "c"), [2, 2, 1], [1.0, 2.0, 4.0, 3.0, 0.0], [[1.0]] * 5)),
    ("single", f"{HEAD}\na,1,1,1\nb,1,2,1\nc,1,3,1\n",
     Parsed(("a", "b", "c"), [1, 1, 1], [1.0, 2.0, 3.0], [[1.0]] * 3)),
    ("equal_columns", "cluster,unit,y,x1,x2\na,1,1,1,1\na,2,2,2,2\nb,1,3,1,1\nb,2,5,3,3\n",
     Parsed(("a", "b"), [2, 2], [1.0, 2.0, 3.0, 5.0], [[1.0, 1.0], [2.0, 2.0], [1.0, 1.0],
                                                        [3.0, 3.0]], ("x1", "x2"))),
    ("unit_orders_rows", f"{HEAD}\na,2,20,1\na,1,10,1\n",
     Parsed(("a",), [2], [10.0, 20.0], [[1.0]] * 2)),
    ("first_appearance", f"{HEAD}\nz,2,2,1\na,1,5,1\nz,1,1,1\n",
     Parsed(("z", "a"), [2, 1], [1.0, 2.0, 5.0], [[1.0]] * 3)),
    ("stripped_ids", f"{HEAD}\n a,1,1,1\na ,2,2,1\nb,1,3,1\n",
     Parsed(("a", "b"), [2, 1], [1.0, 2.0, 3.0], [[1.0]] * 3)),
    ("long_id", f"{HEAD}\n{LONG_ID},1,1,1\n{LONG_ID},2,2,1\nb,1,3,1\n",
     Parsed((LONG_ID, "b"), [2, 1], [1.0, 2.0, 3.0], [[1.0]] * 3)),
    ("lf", "\n".join(WRITTEN) + "\n", AB),
    ("crlf", "\r\n".join(WRITTEN) + "\r\n", AB),
    ("cr", "\r".join(WRITTEN) + "\r", AB),
    ("blank_lines", "\n\n".join(WRITTEN) + "\n\n\n", AB),
    ("blank_crlf_no_end", "\r\n\r\n".join(WRITTEN), AB),
    # refused at the header
    ("empty", "", "line 1: empty file"),
    ("bad_header", "id,y\n1,2\n", HEADER),
    ("swapped_header", "cluster,y,unit,x1\na,1,1,1\n", HEADER),
    ("blank_header", "   \n\n", HEADER),
    ("newline_only", "\n", HEADER),
    ("no_x", "cluster,unit,y\na,1,1\na,2,2\nb,1,3\nb,2,5\n",
     "line 1: no covariate columns x1..xp after 'cluster,unit,y'"),
    # refused for want of rows
    ("header_only", f"{HEAD}\n\n", NO_ROWS),
    ("header_no_end", HEAD, NO_ROWS),
    ("header_crlf_blanks", f"{HEAD}\r\n\r\n\r\n", NO_ROWS),
    ("header_crs", f"{HEAD}\r\r", NO_ROWS),
    # refused at a row
    ("ragged", f"{HEAD}\na,1,1,1\na,2,2\n", "line 3: expected 4 columns, got 3"),
    ("whitespace_row", f"{HEAD}\n \t \n", "line 2: expected 4 columns, got 1"),
    ("whitespace_line", f"{HEAD}\na,1,1,1\n   \na,2,2,1\n", "line 3: expected 4 columns, got 1"),
    ("non_numeric", f"{HEAD}\na,1,oops,1\n", "line 2: could not convert string 'oops' to float64"),
    ("after_blanks_3_columns", AFTER_BLANKS.format("a,3,1"), "line 7: expected 4 columns, got 3"),
    ("after_blanks_5_columns", AFTER_BLANKS.format("a,3,1,1,1"),
     "line 7: expected 4 columns, got 5"),
    ("after_blanks_float_unit", AFTER_BLANKS.format("a,3.5,1,1"),
     "line 7: could not convert string '3.5' to int64"),
    ("after_blanks_empty_cell", AFTER_BLANKS.format("a,3,1,"),
     "line 7: could not convert string '' to float64"),
    *((f"non_finite_{cell}", f"{HEAD}\na,1,1,1\n\na,2,2,{cell}\nb,1,3,1\n", NON_FINITE)
      for cell in ("nan", "inf", "-Infinity")),
    ("non_finite_y", f"{HEAD}\na,1,1,1\n\na,2,inf,1\n", NON_FINITE),
    ("repeated_unit", f"{HEAD}\na,1,1,1\nb,1,2,1\na,2,3,1\nb,1,4,1\n",
     "line 5: cluster 'b' repeats unit 1 of line 3"),
    ("repeated_unit_sorted", f"{HEAD}\na,1,1,1\na,1,2,1\nb,1,3,1\n",
     "line 3: cluster 'a' repeats unit 1 of line 2"),
    ("repeated_unit_interleaved", f"{HEAD}\na,1,1,1\nb,1,2,1\na,1,3,1\n",
     "line 4: cluster 'a' repeats unit 1 of line 2"),
]

# A byte that is not UTF-8 is refused by its line, whatever the line ends before it: in the
# header, in a value or an id, in a sequence cut short, and 20 kB into the file
NOT_UTF8 = [
    ("not_utf8_value", f"{HEAD}\na,1,".encode() + b"\xff,1\n",
     "line 2: not UTF-8 text (byte 0xff)"),
    ("not_utf8_id", f"{HEAD}\r\na,1,1,1\r\n\r\n".encode() + b"\xe9,1,2,1\r\n",
     "line 4: not UTF-8 text (byte 0xe9)"),
    ("not_utf8_header", b"cluster,unit,y,x\xff\na,1,1,1\n", "line 1: not UTF-8 text (byte 0xff)"),
    ("not_utf8_after_cr", f"{HEAD}\ra,1,1,1\r\rb,1,1,".encode() + b"\xc3\r",
     "line 4: not UTF-8 text (byte 0xc3)"),
    ("not_utf8_cut_short", f"{HEAD}\na,1,1,1\nb,1,2,1".encode() + b"\xe2\x82",
     "line 3: not UTF-8 text (byte 0xe2)"),
    ("not_utf8_late", "\n".join([HEAD, *(f"a,{k},1,1" for k in range(1, 2001)), ""]).encode()
     + b"b,1,1,\x80\n", "line 2002: not UTF-8 text (byte 0x80)"),
]
ENCODED = [(name, text.encode("utf-8"), want) for name, text, want in ROWS] + NOT_UTF8

# A UTF-8 byte-order mark (Excel's "CSV UTF-8") is skipped: the same dataset, and a refusal
# names the same line.
BOM = ["lf", "empty", "swapped_header", "no_x", "header_only", "ragged", "non_finite_y",
       "repeated_unit_interleaved", "not_utf8_value", "not_utf8_header"]
DATASETS = ENCODED + [(f"bom_{name}", "\ufeff".encode() + data, want)
                      for name, data, want in ENCODED if name in BOM]
