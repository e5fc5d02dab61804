import gc
import json
import random
import re
import tempfile
import warnings
from itertools import product
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, DecimalException
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import BAD_TABLES
from tabaudit.contam import (
    CorpusIndex,
    EvidenceBundle,
    MatchEvidence,
    ScanConfig,
    association_search,
    build_index,
    classify_contamination,
    identifier_search,
    label_exposure,
    normalize_cell,
    row_match,
    scan_dataset,
)
from tabaudit.contam.normalize import MISSING
from tabaudit.data import NUMBER_RE, Dataset, TaskSpec, TaskType
from tabaudit.errors import InputError
from tabaudit.testbed import (
    CorpusSpec,
    generate_corpus,
    plant_association,
    plant_complete_overlap,
)


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")


# -- normalize -------------------------------------------------------------------


@pytest.mark.parametrize("raw,expected", [
    (" 77.0 ", "77"),
    ("77.00", "77"),
    ("77", "77"),
    ("Tuesday", "tuesday"),
    ("tuesday", "tuesday"),
    ("TRUE", "true"),
    ("False", "false"),
    ("007", "7"),
    ("+5", "5"),
    ("-0.0", "0"),
    ("1e3", "1000"),
    (".5", "0.5"),
    ("8805.7783203125", "8805.7783203125"),
    ("a  b\tC", "a b c"),
    (True, "true"),
    (77.0, "77"),
    (77, "77"),
    (None, MISSING),
])
def test_normalize_cell(raw, expected):
    assert normalize_cell(raw) == expected


def test_normalize_distinguishes_near_miss_numbers():
    assert normalize_cell("8805.78") != normalize_cell("8805.7783203125")


def test_normalize_date_folding_opt_in():
    assert normalize_cell("11/30/2021") == "11/30/2021"
    assert normalize_cell("11/30/2021", fold_dates=True) == "2021-11-30"
    assert normalize_cell("2021-11-30", fold_dates=True) == "2021-11-30"


def test_normalize_integer_beyond_int_digit_limit():
    # int() refuses strings of more than 4300 digits.
    assert normalize_cell("+000" + "7" * 5000) == "7" * 5000
    assert normalize_cell("-000" + "7" * 5000) == "-" + "7" * 5000
    assert normalize_cell("-" + "0" * 5000) == "0"


@given(
    st.sampled_from(["", "+", "-"]),
    st.integers(min_value=0, max_value=20),
    st.text(alphabet="0123456789", min_size=1, max_size=4220),
    st.integers(min_value=0, max_value=60),
)
def test_normalize_integer_equals_int_property(sign, zeros, digits, trailing_zeros):
    s = sign + "0" * zeros + digits + "0" * trailing_zeros
    n = int(s)
    # One form per value: as int() reads it, and alike with a point or as an int.
    assert normalize_cell(s) == normalize_cell(f"{n}.0") == normalize_cell(n)
    magnitude = str(abs(n))
    if len(magnitude) <= 51 or not magnitude.endswith("0"):
        assert normalize_cell(s) == str(n)
    else:  # fixed point would pad with zeros beyond 1e50
        coef = magnitude.rstrip("0")
        point = "." if len(coef) > 1 else ""
        mantissa = f"{coef[0]}{point}{coef[1:]}"
        assert normalize_cell(s) == f"{'-' if n < 0 else ''}{mantissa}e+{len(magnitude) - 1}"


_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
_SIXTY_DIGITS = Context(prec=60, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _decimal_oracle(s, ctx=_EXACT):
    """Canonical number text from the decimal module, rounded to ctx's
    precision; None outside the module's exponent range."""
    try:
        d = Decimal(s)
        if d == 0:
            return "0"
        d = d.normalize(ctx)
    except DecimalException:
        return None
    return str(d).lower() if abs(d.adjusted()) > 50 else format(d, "f")


def _sixty_digit_normalize(s):
    """The algorithm numbers were normalized with up to index format version 1."""
    if re.fullmatch(r"[+-]?\d+", s):
        return str(int(s))
    return _decimal_oracle(s, _SIXTY_DIGITS) or " ".join(s.lower().split())


def _parts(s):
    """Sign, ASCII digits (point dropped), last-digit exponent and the
    exponent's digit count, leading zeros aside, of a number string."""
    ascii_s = "".join(str(int(c)) if c.isdecimal() else c for c in s)
    sign, whole, frac, exp = NUMBER_RE.fullmatch(ascii_s).groups()
    exp_digits = (exp or "").lstrip("+-").lstrip("0") or "0"
    exponent = (-1 if (exp or "").startswith("-") else 1) * int(exp_digits)
    return sign, whole + (frac or ""), exponent - len(frac or ""), len(exp_digits)


def _changed_since_sixty_digits(s):
    """The classes of number whose form changed with index format version 2."""
    _, digits, exponent, exp_digits = _parts(s)
    digits = digits.lstrip("0")
    if "." not in s and "e" not in s.lower():  # integer strings of 52+ digits ending in 0
        return len(digits) > 51 and digits.endswith("0")
    # what the 60-digit context rounded: long coefficients and subnormals;
    # and exponents of 19+ digits, which stay text now
    return len(digits.rstrip("0")) > 60 or exponent < MIN_EMIN - 59 or exp_digits > 18


_ZEROS = st.integers(0, 60).map(lambda k: "0" * k)
_DIGITS = st.text(alphabet="00123456789\u0663\U0001d7d7", max_size=70)
_EXPONENTS = st.integers(-400, 400) | st.sampled_from([
    MAX_EMAX, MAX_EMAX + 1, MIN_EMIN, MIN_EMIN - 60, MIN_EMIN - MAX_PREC + 1,
    MIN_EMIN - MAX_PREC, 10**25,
]).flatmap(lambda e: st.integers(e - 80, e + 80))


@st.composite
def number_strings(draw):
    whole = draw(_ZEROS) + draw(_DIGITS) + draw(_ZEROS)
    s = draw(st.sampled_from(["", "+", "-", " "])) + whole
    if draw(st.booleans()):
        s += "." + draw(_ZEROS) + draw(_DIGITS) + draw(_ZEROS)
    if draw(st.booleans()):
        e = draw(_EXPONENTS)
        sign = "-" if e < 0 else draw(st.sampled_from(["", "+"]))
        zeros = "0" * draw(st.sampled_from([0, 1, 3, 5000]))  # int() counts leading zeros
        s += draw(st.sampled_from("eE")) + sign + zeros + str(abs(e))
    assume(NUMBER_RE.fullmatch(s.strip()))
    return s


@settings(max_examples=1000)
@given(number_strings())
def test_normalize_number_equals_decimal_oracle_property(s):
    if _parts(s.strip())[3] > 18:
        assert normalize_cell(s) == " ".join(s.lower().split())
        return
    expected = _decimal_oracle(s.strip())
    assume(expected is not None)  # beyond 1e999999999999999999: tested below
    assert normalize_cell(s) == expected
    if not _changed_since_sixty_digits(s.strip()):
        assert normalize_cell(s) == _sixty_digit_normalize(s.strip())


def test_normalize_no_longer_rounds_past_sixty_digits():
    long = "1." + "0" * 70 + "1"
    assert normalize_cell(long) == long
    assert normalize_cell(long) != normalize_cell("1")


@pytest.mark.parametrize("s", ["1" + "0" * 60, "1" + "0" * 60 + ".0", "1e60", "10e59",
                               "0.1e61", 10**60, 1e60])
def test_normalize_one_form_per_huge_value(s):
    assert normalize_cell(s) == "1e+60"


@pytest.mark.parametrize("raw,expected", [
    ("\u0661\u0662", "12"),  # Arabic-Indic
    ("\u0967.\u096be\u0968", "150"),  # Devanagari, exponent too
    ("\U0001d7cf\U0001d7d0.\U0001d7ce", "12"),  # mathematical bold
    ("-\u0660\u0660\u0667", "-7"),
])
def test_normalize_unicode_digits(raw, expected):
    assert normalize_cell(raw) == expected


@pytest.mark.parametrize("raw,expected", [
    ("1e" + "0" * 5000 + "1", "10"),  # int() refuses 4300+ digits, leading zeros too
    ("1E-" + "0" * 5000 + "1", "0.1"),
    ("0e+" + "0" * 5000, "0"),
    ("1e999999999999999999", "1e+999999999999999999"),  # beyond the decimal module
    ("10e999999999999999999", "1e+1000000000000000000"),
    ("-12.50E999999999999999999", "-1.25e+1000000000000000000"),
    ("0.1e-999999999999999999", "1e-1000000000000000000"),
], ids=["padded", "padded-negative", "padded-zero", "18-digits", "past-decimal",
        "past-decimal-fraction", "past-decimal-negative"])
def test_normalize_zero_padded_and_18_digit_exponents(raw, expected):
    assert normalize_cell(raw) == expected


@pytest.mark.parametrize("raw", ["1e1000000000000000000", "0e1000000000000000000",
                                 "1e-1999999999999999998", "1e" + "9" * 30,
                                 "1e-" + "0" * 5000 + "1" + "0" * 18],
                         ids=["19-digits", "zero", "negative", "30-digits", "padded"])
def test_normalize_exponent_of_19_digits_stays_text(raw):
    assert normalize_cell(raw) == raw.lower()



def _normalize_cell_one_at_a_time(s, fold_dates):
    """The per-cell string path before normalization was batched."""
    from tabaudit.contam.normalize import _canonical_number, _fold_date

    s = s.replace("\x00", " ").strip()
    low = s.lower()
    if low in ("true", "false"):
        return low
    m = NUMBER_RE.fullmatch(s)
    if m:
        number = _canonical_number(m)
        if number is not None:
            return number
    elif fold_dates:
        folded = _fold_date(s)
        if folded is not None:
            return folded
    return " ".join(low.split())


# NUL, no-break space, line separator, Unicode digits, padded booleans and
# dates, exponents past the cap, and arbitrary text.
_NORMALIZER_CELLS = st.one_of(
    st.sampled_from(["", " ", "\x00", "a\x00b", "\u00a0x\u00a0", "x\u2028y", "\u2028",
                     " TRUE ", "\tFalse\u00a0", "true\x00", "tRuE", "\u0661\u0662",
                     "-\u0660\u0667", "\uff11.5", "11/30/2021", " 2021-11-30\u2028",
                     "13/40/2021", "1/2/2021\x00", "1e5", "-0.0", "+07", "1e" + "9" * 19]),
    st.text(alphabet="012 eE.+-/\x00\u00a0\u2028\u0661TRUEfalse", max_size=12),
    st.text(max_size=8),
)


@settings(max_examples=300)
@given(st.lists(_NORMALIZER_CELLS, max_size=12), st.booleans())
@example([], False)
@example([], True)
def test_normalize_cells_equals_normalize_cell_property(cells, fold_dates):
    from tabaudit.contam.normalize import normalize_cells

    expected = [_normalize_cell_one_at_a_time(c, fold_dates) for c in cells]
    assert [normalize_cell(c, fold_dates=fold_dates) for c in cells] == expected
    assert normalize_cells(cells, fold_dates) == expected

# -- index -----------------------------------------------------------------------


def test_build_index_small_counts(tmp_path):
    write_csv(tmp_path / "t.csv", "x,y\nalpha,beta\ngamma,beta\n")
    index = build_index(tmp_path)
    assert index.total_rows == 2
    assert index.frequency("beta") == 2
    assert index.frequency("alpha") == 1
    assert index.lookup("beta") == [(0, 0), (0, 1)]
    assert index.lookup("nothere") == []


def test_index_shared_value_across_tables(tmp_path):
    write_csv(tmp_path / "a.csv", "x\nshared\n")
    write_csv(tmp_path / "b.csv", "y\nshared\n")
    index = build_index(tmp_path)
    assert index.frequency("shared") == 2
    assert {index.tables[t].table_id for t, _ in index.lookup("shared")} == {"a.csv", "b.csv"}


def test_index_skips_non_utf8(tmp_path, caplog):
    write_csv(tmp_path / "ok.csv", "x\ny\n")
    (tmp_path / "bad.csv").write_bytes(b"x\n\xff\xfe\x00bad\n")
    index = build_index(tmp_path)
    assert index.files_present == 2
    assert index.files_indexed == 1
    assert index.coverage() == 0.5


def test_index_skips_csv_with_oversized_field(tmp_path):
    write_csv(tmp_path / "ok.csv", "x\ny\n")
    write_csv(tmp_path / "huge.csv", "x\n" + "z" * 200_000 + "\n")
    index = build_index(tmp_path)
    assert (index.files_present, index.files_indexed) == (2, 1)
    assert index.lookup("y") == [(0, 0)]


@pytest.mark.parametrize("name,blob,message", BAD_TABLES, ids=[t[0] for t in BAD_TABLES])
def test_index_skips_an_unreadable_table(tmp_path, caplog, name, blob, message):
    write_csv(tmp_path / "ok.csv", "x\ny\n")
    (tmp_path / name).write_bytes(blob)
    index = build_index(tmp_path)
    assert (index.files_present, index.files_indexed) == (2, 1)
    assert index.build_stats["files_skipped"] == 1
    assert index.lookup("y") == [(0, 0)]
    text = f"skipping unreadable corpus file {name}: {message.format(path=tmp_path / name)}"
    assert text in caplog.text


def test_index_empty_corpus(tmp_path):
    with pytest.raises(InputError, match="empty corpus"):
        build_index(tmp_path)


def test_index_persistence_roundtrip(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    rng = random.Random(1)
    values = [f"v{rng.randrange(10**9)}" for _ in range(500)]
    lines = ["x,y"]
    for i in range(0, 500, 2):
        lines.append(f"{values[i]},{values[i+1]}")
    write_csv(corpus / "t.csv", "\n".join(lines) + "\n")
    index = build_index(corpus)
    index.save(tmp_path / "c.idx")
    loaded = CorpusIndex.load(tmp_path / "c.idx")
    for v in values:
        norm = normalize_cell(v)
        assert loaded.lookup(norm) == index.lookup(norm)
        assert loaded.frequency(norm) == index.frequency(norm)
    assert loaded.total_rows == index.total_rows
    assert [t.table_id for t in loaded.tables] == [t.table_id for t in index.tables]
    loaded.close()


def test_index_sharded_build_matches_in_memory(tmp_path):
    corpus = tmp_path / "corpus"
    generate_corpus(CorpusSpec(tables=4, rows_per_table=100), seed=3, out_dir=corpus)
    mem = build_index(corpus)
    sharded = build_index(
        corpus, index_path=tmp_path / "s.idx", max_buffered_postings=100
    )
    assert sharded.build_stats["spills"] > 0
    probe_values = []
    rng = random.Random(5)
    for t in range(4):
        trng = random.Random(f"3:table:{t}")
        [trng.getrandbits(64) for _ in range(8)]  # skip column-name draws
        probe_values.append(f"{trng.getrandbits(64):016x}")
    for v in probe_values:
        norm = normalize_cell(v)
        assert sorted(sharded.lookup(norm)) == sorted(mem.lookup(norm))
    sharded.close()


def test_index_bad_magic(tmp_path):
    (tmp_path / "bogus.idx").write_bytes(b"NOTANIDX" + b"\x00" * 64)
    with pytest.raises(InputError, match="magic"):
        CorpusIndex.load(tmp_path / "bogus.idx")


def _saved_index_bytes(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_csv(corpus / "t.csv", "x\n" + "".join(f"v{i:04d}\n" for i in range(150)))
    build_index(corpus).save(tmp_path / "full.idx")
    return (tmp_path / "full.idx").read_bytes()


def test_index_every_truncation_is_input_error(tmp_path):
    data = _saved_index_bytes(tmp_path)
    path = tmp_path / "cut.idx"
    for size in range(len(data)):
        path.write_bytes(data[:size])
        with pytest.raises(InputError, match="truncated"):
            CorpusIndex.load(path)


def test_index_corrupt_file_is_input_error(tmp_path):
    data = _saved_index_bytes(tmp_path)
    path = tmp_path / "bad.idx"
    dir_offset = int.from_bytes(data[26:34], "little")
    cat_offset = int.from_bytes(data[42:50], "little")
    past_end = (len(data) + 1).to_bytes(8, "little")

    def catalog_without(key):
        """The file with ``key`` dropped from its catalog, which ends the file."""
        doc = json.loads(data[cat_offset:])
        del doc[key]
        catalog = json.dumps(doc).encode()
        return data[:50] + len(catalog).to_bytes(8, "little") + data[58:cat_offset] + catalog

    for bad in (
        data[:18] + past_end + data[26:],  # postings_end beyond the file
        data[:dir_offset] + b"\xff" * 4 + data[dir_offset + 4 :],  # directory value length
        data[:cat_offset] + b"\xff" + data[cat_offset + 1 :],  # catalog UTF-8
        data[:cat_offset] + b"[" + data[cat_offset + 1 :],  # catalog JSON
        data[:cat_offset] + b"[]".ljust(len(data) - cat_offset),  # catalog not an object
        # Every writer of this version records both keys; without one, a
        # --fold-dates index would be read as unfolded and scan "none".
        catalog_without("fold_dates"),
        catalog_without("build_stats"),
    ):
        path.write_bytes(bad)
        with pytest.raises(InputError, match="corrupt"):
            CorpusIndex.load(path)


def test_index_deeply_nested_catalog_is_input_error(tmp_path):
    data = _saved_index_bytes(tmp_path)
    cat_offset = int.from_bytes(data[42:50], "little")
    catalog = b"[" * 100_000 + b"]" * 100_000  # past json's recursion limit
    path = tmp_path / "deep.idx"
    path.write_bytes(data[:50] + len(catalog).to_bytes(8, "little") + data[58:cat_offset] + catalog)
    with pytest.raises(InputError, match="corrupt"):
        CorpusIndex.load(path)


def _records(data):
    """(offset, value) of each record in an index file's postings section."""
    off, end = int.from_bytes(data[10:18], "little"), int.from_bytes(data[18:26], "little")
    records = []
    while off < end:
        vlen = int.from_bytes(data[off : off + 4], "little")
        records.append((off, data[off + 4 : off + 4 + vlen].decode()))
        off += 8 + vlen + 8 * int.from_bytes(data[off + 4 + vlen : off + 8 + vlen], "little")
    return records


def test_index_corrupt_record_is_input_error(tmp_path):
    from tabaudit.contam.index import DIR_STRIDE

    data = _saved_index_bytes(tmp_path)
    records = _records(data)
    values = [value for _, value in records]
    assert values == [f"v{i:04d}" for i in range(150)]
    path = tmp_path / "bad.idx"
    for n, (off, value) in enumerate(records):
        # A lookup walks its directory block from the start up to its own
        # record, so it meets record n when it is at or after n in n's block.
        walks = set(values[n : n - n % DIR_STRIDE + DIR_STRIDE])
        # The value length, then the count: past the block, then past the file.
        for field, wrong in product((off, off + 4 + len(value)), (1000, 2**32 - 1)):
            bad = bytearray(data)
            bad[field : field + 4] = wrong.to_bytes(4, "little")
            path.write_bytes(bytes(bad))
            index = CorpusIndex.load(path)
            for row, probe in enumerate(values):
                if probe in walks:
                    with pytest.raises(InputError, match="corrupt"):
                        index.lookup(probe)
                    with pytest.raises(InputError, match="corrupt"):
                        index.frequency(probe)
                else:
                    assert index.lookup(probe) == [(0, row)]
            index.close()


def test_index_directory_out_of_order_is_input_error(tmp_path):
    data = _saved_index_bytes(tmp_path)
    postings_offset = int.from_bytes(data[10:18], "little")
    postings_end = int.from_bytes(data[18:26], "little")
    dir_offset = int.from_bytes(data[26:34], "little")
    entry = 4 + 5 + 8  # u32 length, a five-byte value, u64 offset
    first, second = (data[dir_offset + i * entry + 4 : dir_offset + i * entry + 9] for i in (0, 1))

    def with_offset(n, at):
        start = dir_offset + n * entry + 9
        return data[:start] + at.to_bytes(8, "little") + data[start + 8 :]

    path = tmp_path / "bad.idx"
    for bad in (
        # values not ascending (the first two entries' values swapped)
        data[: dir_offset + 4] + second + data[dir_offset + 9 : dir_offset + entry + 4] + first
        + data[dir_offset + entry + 9 :],
        with_offset(1, postings_offset),  # offsets not ascending
        with_offset(0, postings_offset + 1),  # the first record is not in the directory
        with_offset(9, postings_end),  # beyond the postings
        data[:34] + (0).to_bytes(8, "little") + data[42:],  # no directory for the records
    ):
        path.write_bytes(bad)
        with pytest.raises(InputError, match="corrupt"):
            CorpusIndex.load(path)

def test_index_tbin_tables(tmp_path):
    from tabaudit.tableio import write_table

    write_table(tmp_path / "t.tbin", ["a", "b"], [["alpha", None], ["77.0", "alpha"]])
    index = build_index(tmp_path)
    assert index.frequency("alpha") == 2
    assert index.lookup("77") == [(0, 1)]  # numeric canonicalization applies
    assert index.read_row(0, 0) == {"a": "alpha", "b": None}


def test_read_row_reads_lexical_cells(tmp_path):
    write_csv(tmp_path / "t.csv", "a,b\n77.0,hello\n")
    index = build_index(tmp_path)
    row = index.read_row(0, 0)
    assert row == {"a": "77.0", "b": "hello"}
    with pytest.raises(InputError, match="no longer readable|out of range"):
        index.read_row(0, 5)


def test_read_row_of_deleted_table_is_input_error(tmp_path):
    write_csv(tmp_path / "t.csv", "a\nx\n")
    index = build_index(tmp_path)
    (tmp_path / "t.csv").unlink()
    with pytest.raises(InputError, match="cannot read table file"):
        index.read_row(0, 0)
    index.close()


def test_read_row_keeps_at_most_four_tables_cached(tmp_path):
    for t in range(6):
        write_csv(tmp_path / f"t{t}.csv", f"a,b\nx{t},y{t}\n")
    index = build_index(tmp_path)
    for table in [*range(6), 0]:
        assert index.read_row(table, 0) == {"a": f"x{table}", "b": f"y{table}"}
        assert len(index._row_cache) <= 4
    assert list(index._row_cache) == [3, 4, 5, 0]
    index.close()


@pytest.mark.parametrize("with_path", [False, True])
def test_spilled_index_finds_value_beside_its_control_char_extension(tmp_path, with_path):
    # "a\x01" sorts before "a\t..." as text, so a spill that sorted
    # "value\ttable\trow" lines put it ahead of "a" and lost "a".
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_csv(corpus / "t.csv", "x\na\na\x01\n")
    index = build_index(corpus, index_path=tmp_path / "i.idx" if with_path else None,
                        max_buffered_postings=1)
    assert index.build_stats["spills"] == 2
    assert index.lookup("a") == [(0, 0)]
    assert index.lookup("a\x01") == [(0, 1)]
    assert index.frequency("a") == 1
    index.close()


def test_lone_nul_cell_is_not_the_missing_sentinel():
    assert normalize_cell("\x00") == ""
    assert normalize_cell("a\x00b") == "a b"
    assert normalize_cell(" 7\x00") == "7"


def test_index_with_64_record_directory_still_answers(tmp_path, monkeypatch):
    from tabaudit.contam import index as index_mod

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    values = [f"v{i:04d}" for i in range(300)]
    write_csv(corpus / "t.csv", "x\n" + "".join(v + "\n" for v in values))
    monkeypatch.setattr(index_mod, "DIR_STRIDE", 64)
    build_index(corpus, index_path=tmp_path / "old.idx").close()
    monkeypatch.undo()
    data = (tmp_path / "old.idx").read_bytes()
    assert int.from_bytes(data[34:42], "little") == 5  # ceil(300 / 64) entries
    index = CorpusIndex.load(tmp_path / "old.idx")
    for row, v in enumerate(values):
        assert index.lookup(v) == [(0, row)]
        assert index.frequency(v) == 1
    for miss in ("v", "v0000\x01", "v02995", "w"):
        assert index.lookup(miss) == []
    index.close()


def test_spilled_pathless_build_leaves_no_temp_files(tmp_path, monkeypatch):
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    corpus = tmp_path / "corpus"
    generate_corpus(CorpusSpec(tables=2, rows_per_table=50), seed=4, out_dir=corpus)
    index = build_index(corpus, max_buffered_postings=20)
    assert index.build_stats["spills"] > 0
    assert index.lookup(normalize_cell(index.read_row(0, 0)[index.tables[0].columns[0]]))
    index.close()
    assert list(scratch.iterdir()) == []


def test_failed_build_leaves_existing_index_untouched(tmp_path, monkeypatch):
    from tabaudit.contam import index as index_mod

    corpus = tmp_path / "corpus"
    generate_corpus(CorpusSpec(tables=2, rows_per_table=50), seed=4, out_dir=corpus)
    target = tmp_path / "out" / "c.idx"
    target.parent.mkdir()
    build_index(corpus, index_path=target).close()
    before = target.read_bytes()
    real = index_mod._PostingsBuilder.sorted_batches
    written = []

    def failing(self):
        for batch in real(self):
            if len(written) == 3:
                raise OSError("disk full")
            written.append(batch)
            yield batch

    # Small chunks make many batches, so the write fails partway.
    monkeypatch.setattr(index_mod, "_READ_CHUNK", 64)
    monkeypatch.setattr(index_mod._PostingsBuilder, "sorted_batches", failing)
    with pytest.raises(OSError, match="disk full"):
        build_index(corpus, index_path=target, max_buffered_postings=40)
    assert len(written) == 3
    assert target.read_bytes() == before
    assert list(target.parent.iterdir()) == [target]


def test_failed_pathless_build_closes_its_temporary_file(tmp_path, monkeypatch):
    from tabaudit.contam import index as index_mod

    write_csv(tmp_path / "t.csv", "a\nx\n")

    def failing(out, batches, catalog):
        out.write(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr(index_mod, "_write_index", failing)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(OSError, match="disk full"):
            build_index(tmp_path)
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_save_replaces_atomically(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_csv(corpus / "t.csv", "x\nalpha\n")
    index = build_index(corpus)
    out = tmp_path / "out"
    out.mkdir()
    (out / "c.idx").write_bytes(b"stale")
    index.save(out / "c.idx")
    (out / "taken").mkdir()
    with pytest.raises(OSError):
        index.save(out / "taken")  # a directory cannot be replaced by a file
    assert sorted(p.name for p in out.iterdir()) == ["c.idx", "taken"]
    assert (out / "c.idx").read_bytes() == index._mm[:]
    index.close()
    loaded = CorpusIndex.load(out / "c.idx")
    assert loaded.lookup("alpha") == [(0, 0)]
    loaded.close()


def test_index_path_in_missing_directory_is_input_error(tmp_path):
    write_csv(tmp_path / "t.csv", "x\nalpha\n")
    with pytest.raises(InputError, match="cannot write index file"):
        build_index(tmp_path, index_path=tmp_path / "nowhere" / "c.idx")


# Cell values that are prefixes of one another or differ by a control
# character that sorts below the separators of a text encoding.
_CELLS = st.one_of(st.none(), st.text(alphabet="ab\x01\t\x00 A1", max_size=3))


@st.composite
def small_corpora(draw):
    tables = []
    for t in range(draw(st.integers(min_value=1, max_value=3))):
        ncols = draw(st.integers(min_value=1, max_value=3))
        rows = draw(st.lists(st.lists(_CELLS, min_size=ncols, max_size=ncols), max_size=8))
        tables.append((f"t{t}.{draw(st.sampled_from(['csv', 'tbin']))}", ncols, rows))
    return tables, draw(st.integers(min_value=1, max_value=50))


@settings(max_examples=60)
@given(small_corpora())
def test_index_lookup_property(case):
    from tabaudit.tableio import write_table

    tables, max_buffered = case
    expected: dict[str, list[tuple[int, int]]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus"
        corpus.mkdir()
        for tid, (name, ncols, rows) in enumerate(tables):
            write_table(corpus / name, [f"c{j}" for j in range(ncols)], rows)
            for rid, row in enumerate(rows):
                # CSV cannot hold an empty string: it reads back as missing.
                cells = [None if c == "" and name.endswith(".csv") else c for c in row]
                for value in {normalize_cell(c) for c in cells if c is not None}:
                    expected.setdefault(value, []).append((tid, rid))
        probes = {"", "zz", "a\x01", "\x00"}
        for value in expected:
            probes |= {value[:-1], value + "\x01", value + "\t", value + "a"}
        built = [
            build_index(corpus, max_buffered_postings=max_buffered),
            build_index(corpus, index_path=Path(tmp) / "i.idx",
                        max_buffered_postings=max_buffered),
        ]
        built[0].save(Path(tmp) / "saved.idx")
        built.append(CorpusIndex.load(Path(tmp) / "saved.idx"))
        for index in built:
            for value, postings in expected.items():
                assert index.lookup(value) == postings
                assert index.frequency(value) == len(postings)
            for probe in probes - expected.keys():
                assert index.lookup(probe) == []
                assert index.frequency(probe) == 0
            index.close()


@settings(max_examples=60)
@given(small_corpora(), st.integers(min_value=1, max_value=6), st.booleans(), st.data())
def test_restricted_build_answers_its_values_as_the_full_build_property(case, cap, fold_dates,
                                                                      data):
    from tabaudit.tableio import write_table

    tables, _ = case
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus"
        corpus.mkdir()
        # One more table of dates, which fold_dates makes equal across spellings.
        tables = [*tables, ("dates.csv", 2, [["2021-12-01", "a"], ["12/01/2021", None]])]
        for name, ncols, rows in tables:
            write_table(corpus / name, [f"c{j}" for j in range(ncols)], rows)
        full = build_index(corpus, fold_dates=fold_dates)
        universe = sorted({normalize_cell(c, fold_dates)
                           for _, _, rows in tables for row in rows for c in row
                           if c is not None} | {"zz", "a\x01", "12/01/2021", "2021-12-02"})
        kept = set(data.draw(st.lists(st.sampled_from(universe), unique=True)))
        # A cap of 1 to 6 postings spills whenever more than that are kept.
        restricted = build_index(corpus, max_buffered_postings=cap, fold_dates=fold_dates,
                                 only_values=kept)
        assert restricted.restricted and not full.restricted
        postings = sum(map(full.frequency, kept))
        assert restricted.build_stats["postings"] == postings
        assert restricted.build_stats["spills"] == postings // cap
        rows = [(t, r) for t, info in enumerate(full.tables) for r in range(info.row_count)]
        for value in universe:
            expected = full.lookup(value) if value in kept else []
            assert restricted.lookup(value) == expected
            assert restricted.frequency(value) == len(expected)
            view = restricted.postings(value)
            assert [pair for pair in rows if pair in view] == expected
        assert restricted.tables == full.tables
        assert (restricted.total_rows, restricted.files_present, restricted.files_indexed) == (
            full.total_rows, full.files_present, full.files_indexed)
        assert restricted.coverage() == full.coverage()
        restricted.close()
        full.close()


@pytest.mark.parametrize("only_values", [{"alpha"}, set(), frozenset({"beta"})])
def test_restricted_index_is_never_written_under_a_name(tmp_path, only_values):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_csv(corpus / "t.csv", "x\nalpha\n")
    with pytest.raises(ValueError, match="restricted index cannot be written"):
        build_index(corpus, index_path=tmp_path / "c.idx", only_values=only_values)
    index = build_index(corpus, only_values=only_values)
    with pytest.raises(ValueError, match="restricted index and cannot be saved"):
        index.save(tmp_path / "c.idx")
    index.close()
    assert list(tmp_path.iterdir()) == [corpus]


def _index_bytes_of_per_posting_builder(corpus, max_buffered, fold_dates):
    """Index file bytes and build_stats from the builder that normalized
    every cell of every row, appended and spill-checked one key at a time,
    and decoded each posting's hex suffix with two ``int()`` calls."""
    import heapq
    import io
    import json
    import struct
    from itertools import groupby

    from tabaudit.contam import index as im
    from tabaudit.tableio import read_table

    files = sorted({p.relative_to(corpus).as_posix()
                    for pat in im.DEFAULT_FILTERS for p in corpus.rglob(pat)})
    cap = max(1, max_buffered)
    buffer, runs, tables = [], [], []
    added = total_rows = skipped = 0
    for rel in files:
        try:
            columns, rows = read_table(corpus / rel)
        except (InputError, OSError):
            skipped += 1
            continue
        tid = len(tables)
        tables.append({"id": rel, "columns": list(columns), "row_count": len(rows)})
        for row_id, row in enumerate(rows):
            suffix = b"\x00%08x%08x\n" % (tid, row_id)
            for value in {normalize_cell(c, fold_dates=fold_dates) for c in row if c is not None}:
                buffer.append(value.encode("utf-8") + suffix)
                added += 1
                if len(buffer) >= cap:
                    runs.append(sorted(buffer))
                    buffer = []
        total_rows += len(rows)
    stats = {"postings": added, "spills": len(runs), "files_skipped": skipped,
             "max_buffered_postings": max_buffered}
    catalog = {"corpus_id": corpus.name, "corpus_root": str(corpus), "tables": tables,
               "total_rows": total_rows, "files_present": len(files),
               "files_indexed": len(files) - skipped, "fold_dates": fold_dates,
               "build_stats": stats}
    out = io.BytesIO()
    out.write(bytes(im._HEADER.size))
    offset = im._HEADER.size
    directory = []
    for n, (value, group) in enumerate(groupby(heapq.merge(*runs, sorted(buffer)),
                                               key=lambda k: k[:-18])):
        flat = []
        for key in group:
            flat += (int(key[-17:-9], 16), int(key[-9:-1], 16))
        head = im._U32.pack(len(value)) + value
        if n % im.DIR_STRIDE == 0:
            directory.append(head + im._U64.pack(offset))
        record = head + im._U32.pack(len(flat) // 2) + struct.pack(f"<{len(flat)}I", *flat)
        out.write(record)
        offset += len(record)
    directory_blob = b"".join(directory)
    catalog_blob = json.dumps(catalog, sort_keys=True).encode("utf-8")
    out.write(directory_blob + catalog_blob)
    out.seek(0)
    out.write(im._HEADER.pack(im.MAGIC, im.VERSION, im._HEADER.size, offset, offset,
                              len(directory), offset + len(directory_blob), len(catalog_blob)))
    return out.getvalue(), stats


# Cells that normalize equal within and across rows (numbers, booleans,
# dates when folded), empty strings, NUL and non-ASCII text and digits.
_EQUAL_CELLS = st.one_of(
    st.none(),
    st.sampled_from(["1", "1.0", "01", " TRUE", "true", "", "\x00", "a\x00", "é", "É",
                     "\u0661", "1e0", "11/30/2021", "2021-11-30", "x y", "X  y"]),
    st.text(alphabet="01.eé\x00 ", max_size=4),
)


@st.composite
def equal_cell_corpora(draw):
    tables = []
    for t in range(draw(st.integers(min_value=1, max_value=3))):
        ncols = draw(st.integers(min_value=1, max_value=4))
        rows = draw(st.lists(st.lists(_EQUAL_CELLS, min_size=ncols, max_size=ncols),
                             max_size=10))
        tables.append((f"t{t}.{draw(st.sampled_from(['csv', 'tbin']))}", ncols, rows))
    return (tables, draw(st.integers(min_value=1, max_value=50)), draw(st.booleans()),
            draw(st.booleans()))


@settings(max_examples=80)
@given(equal_cell_corpora(), st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=60),
       st.integers(min_value=2, max_value=3))
def test_build_writes_the_bytes_of_the_per_posting_builder_property(case, run_keys, write_batch,
                                                                    read_chunk, fan_in):
    from unittest import mock

    from tabaudit.contam import index as index_mod
    from tabaudit.tableio import write_table

    tables, max_buffered, fold_dates, unreadable = case
    # Runs of a few keys and chunks of a few keys or bytes, so sealed runs,
    # the unsealed keys and spills in the middle of a table interleave; a
    # fan-in of 2 or 3, so shards fold into shards of several levels.
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.multiple(index_mod, _RUN_KEYS=run_keys, _WRITE_BATCH=write_batch,
                                _READ_CHUNK=read_chunk, _FAN_IN=fan_in):
        corpus = Path(tmp) / "corpus"
        corpus.mkdir()
        for name, ncols, rows in tables:
            write_table(corpus / name, [f"c{j}" for j in range(ncols)], rows)
        if unreadable:
            (corpus / "t0u.csv").write_bytes(b"x\n\xff\n")
        expected, stats = _index_bytes_of_per_posting_builder(corpus, max_buffered, fold_dates)
        index = build_index(corpus, index_path=Path(tmp) / "i.idx", fold_dates=fold_dates,
                            max_buffered_postings=max_buffered)
        assert index.build_stats == stats
        index.close()
        assert (Path(tmp) / "i.idx").read_bytes() == expected
        index = build_index(corpus, fold_dates=fold_dates, max_buffered_postings=max_buffered)
        index.save(Path(tmp) / "saved.idx")
        index.close()
        assert (Path(tmp) / "saved.idx").read_bytes() == expected


def test_build_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    import os
    import subprocess
    import sys

    rng = random.Random(11)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for t in range(3):  # over 1024 distinct values, so the writer joins several batches
        rows = "".join(",".join([f"{rng.random():.6f}"] + rng.choices(
            ["1", "1.0", "TRUE", "x", "é", f"{rng.random():.3f}"], k=3)) + "\n"
            for _ in range(400))
        write_csv(corpus / f"t{t}.csv", "a,b,c,d\n" + rows)
    script = ("import sys\nfrom tabaudit.contam import build_index\n"
              "build_index(sys.argv[1], index_path=sys.argv[2], max_buffered_postings=7).close()\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    built = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        path = tmp_path / f"seed{seed}.idx"
        subprocess.run([sys.executable, "-c", script, str(corpus), str(path)], env=env,
                       check=True)
        built.append(path.read_bytes())
    assert built[0] == built[1]
    expected, _ = _index_bytes_of_per_posting_builder(corpus, 7, False)
    assert built[0] == expected


def test_build_with_a_shard_per_posting_stays_under_a_low_open_file_limit(tmp_path):
    import os
    import resource
    import subprocess
    import sys

    # 300 spills: without folding, the build would hold 300 shard files open.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_csv(corpus / "t.csv", "v\n" + "".join(f"value{i:04d}\n" for i in range(300)))
    path = tmp_path / "lim.idx"
    script = ("import sys\nfrom tabaudit.cli import main\n"
              "sys.exit(main(['index', '--corpus', sys.argv[1], '--index-path', sys.argv[2],"
              " '--max-buffered', '1']))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]
    proc = subprocess.run(
        [sys.executable, "-c", script, str(corpus), str(path)], env=env, capture_output=True,
        text=True, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard)))
    assert proc.returncode == 0, proc.stderr
    assert "300 postings, 300 shard spills" in proc.stdout
    expected, _ = _index_bytes_of_per_posting_builder(corpus, 1, False)
    assert path.read_bytes() == expected



# SHA-256 of an index over tests/data, from the header (less its last
# field, the catalog's length) through the directory. The catalog holds
# the absolute corpus path, so it is left out. The spill cap changes
# neither the postings nor the directory.
_TESTS_DATA_INDEX_SHA256 = "6785a5eb18eceed944029198502d60926bb5089d7a16236b796360d812e79dde"


@pytest.mark.parametrize("cap", [None, 3], ids=["default-cap", "cap-3"])
def test_index_bytes_over_tests_data_are_golden(tmp_path, cap):
    import hashlib

    from tabaudit.contam.index import _HEADER

    kwargs = {} if cap is None else {"max_buffered_postings": cap}
    index = build_index(Path(__file__).parent / "data", index_path=tmp_path / "i.idx", **kwargs)
    assert index.build_stats["postings"] == 108
    assert index.build_stats["spills"] == (0 if cap is None else 36)
    index.close()
    data = (tmp_path / "i.idx").read_bytes()
    cat_offset = int.from_bytes(data[42:50], "little")
    body = data[: _HEADER.size - 8] + data[_HEADER.size : cat_offset]
    assert hashlib.sha256(body).hexdigest() == _TESTS_DATA_INDEX_SHA256


@pytest.mark.parametrize("batch", [1, 2, 3])
def test_writer_batches_split_records_anywhere(tmp_path, monkeypatch, batch):
    from tabaudit.contam import index as index_mod

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    # "k" has two postings in every three rows of each table, so its
    # record straddles many batches; "z" and "w" hold long runs too, and
    # the unique values make records of one posting between them.
    for t in range(3):
        write_csv(corpus / f"t{t}.csv", "a,b,c\n" + "".join(
            f"{'k' if i % 3 else f'u{t}{i:02d}'},{i % 5},{'z' if i < 20 else 'w'}\n"
            for i in range(40)))
    monkeypatch.setattr(index_mod, "_WRITE_BATCH", batch)
    for cap in (4, 1000):
        expected, stats = _index_bytes_of_per_posting_builder(corpus, cap, False)
        index = build_index(corpus, index_path=tmp_path / "i.idx", max_buffered_postings=cap)
        assert index.build_stats == stats
        assert index.frequency("k") == 3 * 26 and index.frequency("z") == 3 * 20
        index.close()
        assert (tmp_path / "i.idx").read_bytes() == expected


def _build_peak_bytes(corpus, tables, cap, workers=1):
    import tracemalloc

    corpus.mkdir()
    for t in range(tables):  # 1,000 postings of unique values per table
        write_csv(corpus / f"t{t:02d}.csv", "a,b\n" + "".join(
            f"t{t}r{r}a,t{t}r{r}b\n" for r in range(500)))
    tracemalloc.start()
    try:
        build_index(corpus, max_buffered_postings=cap, workers=workers).close()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("workers", [1, 2])
def test_build_peak_memory_is_set_by_the_cap_not_the_corpus(tmp_path, workers):
    # Twice the tables, so twice the postings, spills and write batches:
    # only the read buffer of each extra spilled run (8 KiB) may add to
    # the peak, which the cap, one table and one write batch set. Any
    # ``workers`` reads one file at a time.
    cap = 2000
    small = _build_peak_bytes(tmp_path / "small", 8, cap, workers)
    large = _build_peak_bytes(tmp_path / "large", 16, cap, workers)
    assert large <= small * 1.1, (small, large)


def test_build_heap_per_buffered_posting_is_its_packed_key(tmp_path):
    # Without spills every posting stays buffered: each extra one may cost
    # its key's bytes in a packed run (about 26 here), not a bytes object.
    small = _build_peak_bytes(tmp_path / "small", 16, 10**6)
    large = _build_peak_bytes(tmp_path / "large", 64, 10**6)
    assert (large - small) / (48 * 1000) < 40, (small, large)


def test_build_with_two_workers_writes_the_bytes_of_one(tmp_path):
    generate_corpus(CorpusSpec(tables=6, rows_per_table=40), seed=3, out_dir=tmp_path / "c")
    built = []
    for workers in (1, 2):
        path = tmp_path / f"w{workers}.idx"
        build_index(tmp_path / "c", index_path=path, max_buffered_postings=50,
                    workers=workers).close()
        built.append(path.read_bytes())
    assert built[0] == built[1]


@pytest.mark.parametrize("kwargs,message", [
    ({"max_buffered_postings": 0}, "max_buffered_postings must be >= 1, got 0"),
    ({"max_buffered_postings": -3}, "max_buffered_postings must be >= 1, got -3"),
    ({"workers": 0}, "workers must be >= 1, got 0"),
    ({"workers": -2}, "workers must be >= 1, got -2"),
])
def test_build_refuses_a_count_below_one(tmp_path, kwargs, message):
    with pytest.raises(InputError, match=message):
        build_index(tmp_path / "absent", **kwargs)

def test_postings_view_len_iter_and_membership(tmp_path):
    write_csv(tmp_path / "a.csv", "x,y\n1,q\n2,1\n1,1\n")
    write_csv(tmp_path / "b.csv", "x\n1\n3\n")
    index = build_index(tmp_path)
    view = index.postings("1")
    assert len(view) == 4
    assert list(view) == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert list(view) == index.lookup("1")  # iteration can be repeated
    assert all(pair in view for pair in [(0, 0), (0, 1), (0, 2), (1, 0)])
    assert not any(pair in view for pair in [(0, 3), (1, 1), (2, 0), (-1, 0)])
    missing = index.postings("zz")
    assert len(missing) == 0 and list(missing) == [] and (0, 0) not in missing
    index.close()


# -- identifier search ------------------------------------------------------------


def test_identifier_absent(tmp_path):
    write_csv(tmp_path / "t.csv", "x\nfoo\n")
    index = build_index(tmp_path)
    assert identifier_search(index, ["Sparkledge"]) == {"Sparkledge": []}


def test_identifier_planted(tmp_path):
    write_csv(tmp_path / "t.csv", "name,stat\nSparkledge,42\nGloomfin,17\n")
    index = build_index(tmp_path)
    hits = identifier_search(index, ["Sparkledge"])
    assert hits["Sparkledge"] == [("t.csv", 0)]


def test_identifier_empty_list(tmp_path):
    write_csv(tmp_path / "t.csv", "x\nfoo\n")
    index = build_index(tmp_path)
    with pytest.raises(InputError):
        identifier_search(index, [])


# -- row match ---------------------------------------------------------------------


def test_row_match_renamed_permuted(tmp_path):
    # Same values under different column names and order.
    write_csv(tmp_path / "t.csv", "inc,k618,idx\n77.0,3,r728\n12.5,1,r100\n")
    index = build_index(tmp_path)
    test_row = {"rowid": "r728", "kids618": "3", "nwifeinc": "77.0"}
    evidence = row_match(index, test_row, ScanConfig(min_overlap=0.8, min_distinctive=1))
    assert len(evidence) == 1
    assert evidence[0].overlap == 1.0
    assert evidence[0].matched == [("t.csv", 0)]


def test_row_match_ubiquitous_values_gated(tmp_path):
    lines = ["a,b"] + ["1,0"] * 50
    write_csv(tmp_path / "t.csv", "\n".join(lines) + "\n")
    index = build_index(tmp_path)
    row = {"x": "1", "y": "0"}
    assert row_match(index, row, ScanConfig(min_overlap=1.0, min_distinctive=2)) == []


def test_row_match_lower_overlap_monotone(tmp_path):
    write_csv(tmp_path / "t.csv", "a,b,c,d\nw1,w2,w3,w4\n")
    index = build_index(tmp_path)
    row = {"a": "w1", "b": "w2", "c": "zz", "d": "qq"}  # overlap 0.5
    strict = row_match(index, row, ScanConfig(min_overlap=0.8, min_distinctive=1))
    loose = row_match(index, row, ScanConfig(min_overlap=0.5, min_distinctive=1))
    assert strict == []
    assert len(loose) == 1
    assert loose[0].overlap == 0.5
    with pytest.raises(TypeError):  # thresholds come from the config alone
        row_match(index, row, 0.5, 1, config=ScanConfig(min_overlap=1.0))


def test_row_match_empty_row(tmp_path):
    write_csv(tmp_path / "t.csv", "a\nx\n")
    index = build_index(tmp_path)
    with pytest.raises(InputError):
        row_match(index, {})


def _row_match_by_rereading(index, test_row, config):
    """The row matcher before verification moved into the index: each
    candidate is verified against its re-read, re-normalized corpus row."""
    from tabaudit.contam.search import selectivity_cap

    cap = selectivity_cap(index, config)
    cells = [index.normalize(v) for v in test_row.values() if v is not None]
    if not cells:
        return []
    freq = {v: len(index.lookup(v)) for v in set(cells)}
    if config.min_distinctive > 0:
        gather_from = [v for v in freq if 0 < freq[v] < cap]
    else:
        gather_from = [v for v in freq if freq[v] > 0]
    candidates = {pair for v in gather_from for pair in index.lookup(v)}
    found = []
    for tid, rid in sorted(candidates):
        corpus_values = {index.normalize(v) for v in index.read_row(tid, rid).values()
                         if v is not None}
        matched = [v for v in cells if v in corpus_values]
        overlap = len(matched) / len(cells)
        if (overlap >= config.min_overlap
                and sum(1 for v in matched if freq[v] < cap) >= config.min_distinctive):
            found.append((index.tables[tid].table_id, rid, overlap))
    return found


_REPEATING = st.sampled_from([None, "0", "1", "007", "7", "1.0", "true", "TRUE", "ab", "x y"])


@st.composite
def repeating_corpora(draw):
    tables = []
    for t in range(draw(st.integers(min_value=1, max_value=3))):
        ncols = draw(st.integers(min_value=1, max_value=4))
        rows = draw(st.lists(st.lists(_REPEATING, min_size=ncols, max_size=ncols), max_size=8))
        tables.append((f"t{t}.{draw(st.sampled_from(['csv', 'tbin']))}", ncols, rows))
    extra = draw(st.lists(st.lists(_REPEATING, min_size=1, max_size=4), max_size=4))
    return tables, extra, draw(st.integers(min_value=1, max_value=50)), draw(st.booleans())


@settings(max_examples=60)
@given(repeating_corpora())
def test_row_match_from_postings_equals_rereading_property(case):
    from tabaudit.tableio import write_table

    tables, extra, max_buffered, with_path = case
    configs = [
        ScanConfig(min_overlap=o, min_distinctive=d, selectivity_floor=f)
        for o, d, f in [(0.8, 2, 16), (0.5, 1, 3), (1.0, 0, 16), (0.3, 1, 2), (0.6, 2, 4)]
    ]
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus"
        corpus.mkdir()
        test_rows = [dict(enumerate(row)) for row in extra if row]
        for name, ncols, rows in tables:
            write_table(corpus / name, [f"c{j}" for j in range(ncols)], rows)
            test_rows += [dict(enumerate(row)) for row in rows]
        index = build_index(corpus, max_buffered_postings=max_buffered,
                            index_path=Path(tmp) / "i.idx" if with_path else None)
        views: dict = {}
        for config in configs:
            for row in test_rows:
                expected = _row_match_by_rereading(index, row, config)
                for cache in (None, views):
                    got = row_match(index, row, config, views=cache)
                    assert [(*ev.matched[0], ev.overlap) for ev in got] == expected

        values = {index.normalize(c) for _, _, rows in tables for row in rows
                  for c in row if c is not None} | {"zz", "8", ""}
        pairs = [(t, r) for t in range(len(tables) + 1) for r in range(9)]
        for value in values:
            held = set(index.lookup(value))
            view = index.postings(value)
            assert [pair in view for pair in pairs] == [pair in held for pair in pairs]
        index.close()


# -- label exposure ------------------------------------------------------------------


def _one_row_index(tmp_path, header, row):
    """An index over one table, t.csv, of one row."""
    write_csv(tmp_path / "t.csv", f"{header}\n{row}\n")
    return build_index(tmp_path)


def test_label_exposure_true(tmp_path):
    index = _one_row_index(tmp_path, "inc,lfp", "77.0,no")
    ev = _row_ev(0)
    assert label_exposure(index, ev, "no")
    assert ev.label_exposed
    assert ev.exposed_value == "no"
    index.close()


def test_label_exposure_missing_target_value(tmp_path):
    index = _one_row_index(tmp_path, "inc,lfp", "77.0,")
    ev = _row_ev(0)
    assert not label_exposure(index, ev, "no")
    assert not label_exposure(index, ev, None)
    assert not ev.label_exposed
    index.close()


def test_label_exposure_folds_dates_as_the_index_does(tmp_path):
    write_csv(tmp_path / "t.csv", "d,k,t\n2021-11-30,k1,2021-12-01\n")
    index = build_index(tmp_path, fold_dates=True)
    row = {"d": "11/30/2021", "k": "k1"}
    [ev] = row_match(index, row, ScanConfig(min_overlap=1.0, min_distinctive=1))
    unfolded = build_index(tmp_path)
    assert not label_exposure(unfolded, ev, "12/01/2021")  # unfolded: no match
    assert not ev.label_exposed
    unfolded.close()
    assert label_exposure(index, ev, "12/01/2021")
    assert ev.exposed_value == "12/01/2021"

    dataset = Dataset(id="dates", columns=("d", "k", "t"),
                      rows=(("11/30/2021", "k1", "12/01/2021"),))
    task = TaskSpec(dataset_id="dates", task_type=TaskType.BINARY, target_column="t",
                    class_labels=("12/01/2021", "12/02/2021"))
    bundle, verdict = scan_dataset(index, dataset, task,
                                   ScanConfig(min_overlap=1.0, min_distinctive=1))
    assert [ev.label_exposed for ev in bundle.row_evidence] == [True]
    assert verdict.category == "complete_overlap"


def test_label_exposure_rounded_variant_not_matched(tmp_path, caplog):
    index = _one_row_index(tmp_path, "close", "8805.7783203125")
    with caplog.at_level("INFO", logger="tabaudit.contam"):
        assert not label_exposure(index, _row_ev(0), "8805.78")
    assert any("near-miss" in rec.message for rec in caplog.records)
    index.close()


def _label_exposed_by_rereading(index, table, row_id, target_value):
    """Label exposure before it moved into the index: the target is in the
    re-read corpus row's normalized present cells."""
    if target_value is None:
        return False
    row_values = {index.normalize(v) for v in index.read_row(table, row_id).values()
                  if v is not None}
    return index.normalize(target_value) in row_values


@settings(max_examples=60)
@given(small_corpora(), st.booleans())
def test_label_exposure_from_postings_equals_rereading_property(case, fold_dates):
    from tabaudit.tableio import write_table

    tables, max_buffered = case
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus"
        corpus.mkdir()
        # One more table of dates, which fold_dates makes equal across spellings.
        tables = [*tables, ("dates.csv", 2, [["2021-12-01", "a"], ["12/02/2021", None]])]
        for name, ncols, rows in tables:
            write_table(corpus / name, [f"c{j}" for j in range(ncols)], rows)
        index = build_index(corpus, max_buffered_postings=max_buffered, fold_dates=fold_dates)
        targets = {c for _, _, rows in tables for row in rows for c in row}
        targets |= {None, "zz", "a\x01b", "", " ", "1.0", "12/01/2021", "2021-12-02"}
        for tid, info in enumerate(index.tables):
            for rid in range(info.row_count):
                for target in targets:
                    ev = MatchEvidence(strategy="row_match", matched=[(info.table_id, rid)],
                                       overlap=1.0)
                    expected = _label_exposed_by_rereading(index, tid, rid, target)
                    assert label_exposure(index, ev, target) is expected
                    assert ev.label_exposed is expected
        index.close()


# -- association search ---------------------------------------------------------------


def test_association_empty_corpus_counts(tmp_path):
    write_csv(tmp_path / "t.csv", "a,b\nfoo,bar\n")
    index = build_index(tmp_path)
    result = association_search(index, "2021-11-30", "Tuesday")
    assert (result.count, len(result.tables), result.samples) == (0, 0, ())


def test_association_planted(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_csv(corpus / "bg.csv", "a\nfiller\n")
    plant_association(corpus, [("2021-11-30", "Tuesday")], tables=3, rows_per_table=2, seed=1)
    index = build_index(corpus)
    result = association_search(index, "2021-11-30", "Tuesday")
    assert result.count == 6
    assert len(result.tables) == 3


def test_association_missing_value_rejected(tmp_path):
    write_csv(tmp_path / "t.csv", "a\nx\n")
    index = build_index(tmp_path)
    with pytest.raises(InputError):
        association_search(index, None, "Tuesday")


@settings(max_examples=60)
@given(small_corpora(), st.data())
def test_association_equals_set_intersection_property(case, data):
    from tabaudit.tableio import write_table

    tables, max_buffered = case
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus"
        corpus.mkdir()
        for name, ncols, rows in tables:
            write_table(corpus / name, [f"c{j}" for j in range(ncols)], rows)
        index = build_index(corpus, max_buffered_postings=max_buffered)
        values = ["a", "b", "A1", "zz", "1", "ab"]
        key = data.draw(st.sampled_from(values))
        target = data.draw(st.sampled_from([key] + values))  # often the same value
        located = sorted(set(index.lookup(index.normalize(key)))
                         & set(index.lookup(index.normalize(target))))
        result = association_search(index, key, target, max_samples=3)
        assert result.count == len(located)
        assert result.tables == tuple(sorted({index.tables[t].table_id for t, _ in located}))
        assert result.samples == tuple((index.tables[t].table_id, r) for t, r in located[:3])
        index.close()


def test_association_of_a_value_with_itself(tmp_path):
    write_csv(tmp_path / "t.csv", "a,b\nk,x\ny,k\nz,z\n")
    index = build_index(tmp_path)
    result = association_search(index, "k", "k")
    assert (result.count, result.samples) == (2, (("t.csv", 0), ("t.csv", 1)))
    index.close()


def test_common_pairs_equals_set_intersection(tmp_path):
    from tabaudit.contam.search import _common_pairs

    # "a" runs through every row, "b" ends early, "c" starts late, "d" is rare
    rows = [f"a,{'b' if r < 6 else 'x'},{'c' if r > 3 else 'y'},{'d' if r == 5 else 'z'}"
            for r in range(9)]
    write_csv(tmp_path / "t1.csv", "w,x,y,z\n" + "\n".join(rows) + "\n")
    write_csv(tmp_path / "t2.csv", "w,x\nc,a\nb,q\n")
    index = build_index(tmp_path)
    for a in "abcdq":
        for b in "abcdq":
            expected = sorted(set(index.lookup(a)) & set(index.lookup(b)))
            assert _common_pairs(index.postings(a), index.postings(b)) == expected, (a, b)
    assert _common_pairs(index.postings("a"), index.postings("absent")) == []
    index.close()


@pytest.mark.parametrize("target,corpus_value", [
    ("1_000", "1000.0000001"),  # float() reads 1_000; the number grammar does not
    ("1e999", "5"),  # overflows to inf, which is no near-miss of anything
    ("nan", "5"),
])
def test_near_miss_log_uses_the_number_grammar(tmp_path, target, corpus_value, caplog):
    index = _one_row_index(tmp_path, "v", corpus_value)
    with caplog.at_level("INFO", logger="tabaudit.contam"):
        assert not label_exposure(index, _row_ev(0), target)
    assert not any("near-miss" in rec.message for rec in caplog.records)
    index.close()


# -- classification --------------------------------------------------------------------


def _dataset(n=10):
    rows = tuple((str(i), "yes" if i % 2 else "no") for i in range(n))
    return Dataset("d", ("k", "lab"), rows)


def _task():
    return TaskSpec("d", TaskType.BINARY, "lab", ("yes", "no"))


def _row_ev(row_id, exposed=False):
    return MatchEvidence(
        strategy="row_match", matched=[("t.csv", row_id)], overlap=1.0,
        test_row_id=row_id, label_exposed=exposed,
    )


def test_classify_complete():
    bundle = EvidenceBundle("d", row_evidence=[_row_ev(i, exposed=True) for i in range(10)])
    verdict = classify_contamination(_dataset(), bundle)
    assert verdict.category == "complete_overlap"
    assert verdict.row_match_fraction == 1.0


def test_classify_direct_with_labels():
    bundle = EvidenceBundle("d", row_evidence=[_row_ev(0, exposed=True)])
    verdict = classify_contamination(_dataset(), bundle)
    assert verdict.category == "direct_with_labels"


def test_classify_task_leakage():
    from tabaudit.contam.search import AssociationResult

    assoc = AssociationResult(
        key_value="2021-11-30", target_value="Tuesday", count=844,
        tables=tuple(f"t{i}.csv" for i in range(24)),
        samples=(("t0.csv", 1),),
    )
    bundle = EvidenceBundle("d", associations=[assoc])
    verdict = classify_contamination(_dataset(), bundle)
    assert verdict.category == "task_leakage"
    assert verdict.row_match_fraction == 0.0
    assert verdict.association_count == 844
    assert verdict.distinct_association_tables == 24
    # Both thresholds come from the config.
    assert classify_contamination(
        _dataset(), bundle, ScanConfig(diversity_threshold=25)).category == "none"
    bundle.row_evidence.append(_row_ev(0, exposed=False))
    assert classify_contamination(
        _dataset(), bundle, ScanConfig(complete_threshold=0.1)).category == "complete_overlap"


@pytest.mark.parametrize("setting,value,message", [
    ("min_overlap", 0.0, "min_overlap must be in (0, 1], got 0.0"),
    ("min_overlap", 1.5, "min_overlap must be in (0, 1], got 1.5"),
    ("complete_threshold", 0.0, "complete_threshold must be in (0, 1], got 0.0"),
    ("complete_threshold", float("nan"), "complete_threshold must be in (0, 1], got nan"),
    ("diversity_threshold", 0, "diversity_threshold must be >= 1, got 0"),
    ("min_distinctive", -1, "min_distinctive must be >= 0, got -1"),
    ("selectivity_fraction", -0.1, "selectivity_fraction must be in [0, 1], got -0.1"),
    ("selectivity_fraction", 1.5, "selectivity_fraction must be in [0, 1], got 1.5"),
    ("association_probes", -1, "association_probes must be >= 0, got -1"),
])
def test_scan_config_refuses_a_setting_out_of_range(setting, value, message):
    with pytest.raises(InputError, match=re.escape(message)):
        ScanConfig(**{setting: value})


def test_classify_none():
    verdict = classify_contamination(_dataset(), EvidenceBundle("d"))
    assert verdict.category == "none"


def test_classify_rows_without_exposure_stay_none():
    bundle = EvidenceBundle("d", row_evidence=[_row_ev(0, exposed=False)])
    verdict = classify_contamination(_dataset(), bundle)
    assert verdict.category == "none"


# -- scan-level properties ---------------------------------------------------------------


def test_soundness_disjoint_corpus(tmp_path, workout_fixture):
    corpus = tmp_path / "corpus"
    generate_corpus(CorpusSpec(tables=3, rows_per_table=40), seed=9, out_dir=corpus)
    dataset, task = workout_fixture
    index = build_index(corpus)
    config = ScanConfig(identifier_column="instructor", association_key_column="session_date")
    bundle, verdict = scan_dataset(index, dataset, task, config)
    assert bundle.row_evidence == []
    assert bundle.identifier_evidence == []
    assert bundle.associations == []
    assert verdict.category == "none"


def _count_read_rows(monkeypatch):
    calls = []
    real = CorpusIndex.read_row

    def counting(self, table_ref, row_id):
        calls.append((table_ref, row_id))
        return real(self, table_ref, row_id)

    monkeypatch.setattr(CorpusIndex, "read_row", counting)
    return calls


def test_scan_probes_a_repeated_key_and_target_pair_once(tmp_path):
    write_csv(tmp_path / "t.csv", "day,lab\n2021-11-30,yes\n2021-11-30,yes\nother,no\n")
    index = build_index(tmp_path)
    dataset = Dataset("d", ("day", "lab"), (("2021-11-30", "yes"),) * 3 + (("x", "no"),))
    bundle, _ = scan_dataset(index, dataset, _task(), ScanConfig(association_key_column="day"))
    assert [(a.count, a.tables) for a in bundle.associations] == [(2, ("t.csv",))]
    index.close()


def test_scan_skips_an_association_probe_with_a_missing_key_or_target(tmp_path):
    write_csv(tmp_path / "t.csv", "day,lab\n2021-11-30,yes\n")
    index = build_index(tmp_path)
    dataset = Dataset("d", ("day", "lab"),
                      ((None, "yes"), ("2021-11-30", None), ("2021-11-30", "yes")))
    bundle, _ = scan_dataset(index, dataset, _task(), ScanConfig(association_key_column="day"))
    assert [(a.key_value, a.target_value, a.count) for a in bundle.associations] == [
        ("2021-11-30", "yes", 1)]
    index.close()


def test_scan_reads_only_matched_rows_with_logging_off(tmp_path, monkeypatch, caplog):
    # Row 0 copies the test row; rows 1 and 2 share its distinctive id but
    # too few other cells, so they are candidates that get rejected.
    write_csv(tmp_path / "t.csv",
              "id,k,inc,lab\nr728,3,77.0,yes\nr728,9,12.5,no\nr728,3,8.5,no\nr100,1,1.0,no\n")
    index = build_index(tmp_path)
    dataset = Dataset("d", ("id", "k", "inc", "lab"),
                      (("r728", "3", "77", "yes"), ("r999", "4", "5", "no")))
    calls = _count_read_rows(monkeypatch)
    caplog.set_level("WARNING", logger="tabaudit.contam")
    bundle, verdict = scan_dataset(index, dataset, _task(), ScanConfig(min_distinctive=1))
    assert [ev.matched for ev in bundle.row_evidence] == [[("t.csv", 0)]]
    assert bundle.row_evidence[0].label_exposed
    assert calls == []  # label exposure and row matching are read from the index
    index.close()


@pytest.mark.parametrize("fold_dates", [False, True])
def test_scan_looks_up_only_its_lookup_values(tmp_path, monkeypatch, workout_fixture,
                                              fold_dates):
    # A restricted index of the dataset's table_values() answers a scan as
    # the full one does only if every value the scan asks about is among them.
    from tabaudit.contam.normalize import table_values

    dataset, task = workout_fixture
    corpus = tmp_path / "corpus"
    generate_corpus(CorpusSpec(tables=2, rows_per_table=20), seed=3, out_dir=corpus)
    plant_complete_overlap(corpus, dataset, seed=3)
    index = build_index(corpus, fold_dates=fold_dates)
    asked = set()
    real = CorpusIndex.postings

    def recording(self, value):
        asked.add(value)
        return real(self, value)

    monkeypatch.setattr(CorpusIndex, "postings", recording)
    config = ScanConfig(identifier_column="instructor", association_key_column="session_date")
    bundle, _ = scan_dataset(index, dataset, task, config)
    assert bundle.row_evidence and bundle.identifier_evidence and bundle.associations
    assert asked <= set(table_values(dataset.rows, fold_dates).values())
    assert {index.normalize(c) for c in dataset.column("weekday")} <= asked
    index.close()


def test_scan_caches_no_views_of_absent_values(tmp_path, monkeypatch):
    from tabaudit.contam import search

    rng = random.Random(5)
    rows = tuple((f"{rng.random():.12f}", f"{rng.random():.12f}", f"{rng.random():.12f}",
                  rng.choice(["yes", "no"])) for _ in range(60))
    # Rows 0-2 are copied into the corpus; the other 57 rows' values are absent.
    write_csv(tmp_path / "t.csv", "a,b,c,lab\n" + "".join(",".join(r) + "\n" for r in rows[:3])
              + "q,r,s,no\n")
    index = build_index(tmp_path)
    dataset = Dataset("d", ("x", "y", "z", "lab"), rows)
    caches = []
    real = search.row_match

    def spying(*args, views=None, **kwargs):
        caches.append(views)
        return real(*args, views=views, **kwargs)

    monkeypatch.setattr(search, "row_match", spying)
    bundle, verdict = scan_dataset(index, dataset, _task(), ScanConfig(min_distinctive=1))
    assert len(caches) == 60 and all(cache is caches[0] for cache in caches)
    assert set(caches[0]) == {index.normalize(c) for row in rows[:3] for c in row[:3]}
    assert [(ev.test_row_id, ev.matched, ev.overlap, ev.label_exposed)
            for ev in bundle.row_evidence] == [(r, [("t.csv", r)], 1.0, True) for r in range(3)]
    uncached = [(r, ev.matched, ev.overlap) for r, row in enumerate(rows)
                for ev in real(index, dict(zip("xyz", row)), ScanConfig(min_distinctive=1))]
    assert uncached == [(ev.test_row_id, ev.matched, ev.overlap) for ev in bundle.row_evidence]
    index.close()


def test_rejected_candidate_near_miss_still_logged_at_info(tmp_path, monkeypatch, caplog):
    write_csv(tmp_path / "t.csv", "id,close\nr1,8805.7783203125\n")
    index = build_index(tmp_path)
    row = {"id": "r1", "close": "8805.78"}
    calls = _count_read_rows(monkeypatch)
    with caplog.at_level("INFO", logger="tabaudit.contam"):
        assert row_match(index, row, ScanConfig(min_overlap=1.0, min_distinctive=1)) == []
    assert calls == [(0, 0)]
    assert any("near-miss" in rec.message and "8805.7783203125" in rec.message
               for rec in caplog.records)
    calls.clear()
    caplog.clear()
    with caplog.at_level("WARNING", logger="tabaudit.contam"):
        assert row_match(index, row, ScanConfig(min_overlap=1.0, min_distinctive=1)) == []
    assert calls == []
    assert caplog.records == []
    index.close()


def test_schema_invariance_of_row_match(tmp_path):
    corpus_a = tmp_path / "a"
    corpus_b = tmp_path / "b"
    corpus_a.mkdir(), corpus_b.mkdir()
    write_csv(corpus_a / "t.csv", "one,two,three\nfoo9,bar8,baz7\n")
    write_csv(corpus_b / "t.csv", "x,y,z\nbaz7,foo9,bar8\n")  # renamed + permuted
    row = {"c1": "foo9", "c2": "bar8", "c3": "baz7"}
    results = []
    for corpus in (corpus_a, corpus_b):
        index = build_index(corpus)
        evidence = row_match(index, row, ScanConfig(min_overlap=1.0, min_distinctive=1))
        results.append([(ev.matched, ev.overlap) for ev in evidence])
    assert results[0] == results[1]


def test_association_monotone_under_corpus_growth(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_csv(corpus / "bg.csv", "a\nfiller\n")
    plant_association(corpus, [("k1", "v1")], tables=2, rows_per_table=2, seed=2)
    before = association_search(build_index(corpus), "k1", "v1")
    extra = corpus / "more"
    extra.mkdir()
    write_csv(extra / "extra.csv", "p,q\nk1,v1\n")
    after = association_search(build_index(corpus), "k1", "v1")
    assert after.count >= before.count
    assert len(after.tables) >= len(before.tables)


def test_complete_overlap_end_to_end(tmp_path, workout_fixture):
    corpus = tmp_path / "corpus"
    generate_corpus(CorpusSpec(tables=2, rows_per_table=30), seed=4, out_dir=corpus)
    dataset, task = workout_fixture
    plant_complete_overlap(corpus, dataset, rename_fraction=1.0, permute=True, seed=4)
    index = build_index(corpus)
    bundle, verdict = scan_dataset(index, dataset, task, ScanConfig())
    assert verdict.category == "complete_overlap"
    assert verdict.row_match_fraction == 1.0
    assert all(ev.label_exposed for ev in bundle.row_evidence)
