"""``parse_cmapss`` against a per-line reference parser on generated files.

The reference is the parser ``mafn.data`` used before the block reader: it
decodes each line on its own and converts each token with ``float()``.  Both
must give byte-identical records for a file without faults, and must name
the same line and the same kind of fault for a file with one.
"""
import re
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mafn import data as D
from mafn.errors import ParseError


def reference_parse_cmapss(path) -> list:
    """Per-line C-MAPSS parser: one ``float()`` call per token."""
    units: dict = {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise ParseError(f"{path}:{lineno}: not UTF-8 text: {e.reason}") from None
            parts = line.split()
            if not parts:
                continue
            if len(parts) != D.RAW_COLUMNS:
                raise ParseError(
                    f"{path}:{lineno}: expected {D.RAW_COLUMNS} columns, found {len(parts)}"
                )
            try:
                values = array("d", map(float, parts))
                unit = int(values[0])
            except (ValueError, OverflowError) as e:
                raise ParseError(f"{path}:{lineno}: {e}") from None
            if unit != values[0]:
                raise ParseError(f"{path}:{lineno}: unit id {parts[0]!r} is not an integer")
            values[0] = lineno
            units.setdefault(unit, array("d")).extend(values)

    records = []
    for unit, buf in units.items():
        rows = np.frombuffer(buf, dtype=np.float64).reshape(-1, D.RAW_COLUMNS)
        bad = ~np.isfinite(rows).all(axis=1)
        if bad.any():
            raise ParseError(f"{path}:{int(rows[bad.argmax(), 0])}: non-finite value")
        cycles = np.arange(1, len(rows) + 1)
        wrong = rows[:, 1] != cycles
        if wrong.any():
            raise ParseError(
                f"{path}:{int(rows[wrong.argmax(), 0])}: unit {unit}: "
                "cycle index must increase by 1 from 1"
            )
        records.append(
            D.EngineRecord(
                unit_id=unit,
                cycle_index=cycles,
                op_settings=rows[:, 2 : 2 + D.N_SETTINGS],
                sensors=rows[:, 2 + D.N_SETTINGS :],
                sensor_ids=tuple(range(1, D.N_RAW_SENSORS + 1)),
            )
        )
    return records


# -- generated files ----------------------------------------------------------------

FAULTS = ("token", "columns", "unit", "non-finite", "cycle", "utf8")
BAD_TOKENS = ("abc", "1..2", "--1", "0x1", "1e", "nan(1)", "1,5", "e5", ".", "+-2")
NON_FINITE = ("nan", "-inf", "Infinity", "1e999")
SEPARATORS = (" ", "  ", "\t", " \t ", "\x0b", "\x0c")
BLANK_LINES = ("", " ", "\t", "   \t", "\x0c")


def fault_kind(message: str) -> str:
    """The kind of fault a ParseError message names."""
    for kind, pattern in [
        ("utf8", "not UTF-8"),
        ("columns", r"columns?, found"),
        ("unit", r"unit id|cannot convert float"),    # how the reference words a non-finite id
        ("non-finite", "non-finite"),
        ("cycle", "cycle index"),
    ]:
        if re.search(pattern, message):
            return kind
    return "token"


def fault_line(message: str) -> int:
    return int(re.search(r"\.txt:(\d+):", message).group(1))


def _format(rng, value: float) -> str:
    style = rng.integers(5)
    if style == 0:
        return repr(value)
    if style == 1:
        return f"{value:.4f}"
    if style == 2:
        return f"{value:.6e}"
    if style == 3:
        return f"{value:+.3g}"
    return str(int(value))


def _rows(rng, n_units: int, max_len: int, interleave: bool):
    """The token list of each row, in file order."""
    ids = rng.choice(np.arange(-5, 1000), size=n_units, replace=False)
    per_unit = []
    for unit in ids:
        length = int(rng.integers(1, max_len + 1))
        unit_tok = str(rng.choice([str(unit), f"{unit}.0", f"{unit}e0"]))
        per_unit.append([
            [unit_tok, str(rng.choice([str(c), f"{c}.0"])),
             *(_format(rng, v) for v in rng.normal(0, 10.0 ** rng.integers(-3, 4), 24).tolist())]
            for c in range(1, length + 1)
        ])
    if not interleave:
        return [row for rows in per_unit for row in rows]
    # merge the units at random, each unit's rows in order
    order = np.repeat(np.arange(n_units), [len(rows) for rows in per_unit])
    rng.shuffle(order)
    cursors = [iter(rows) for rows in per_unit]
    return [next(cursors[u]) for u in order]


def _apply_fault(rng, tokens: list, kind: str) -> list:
    tokens = list(tokens)
    if kind == "token":
        tokens[int(rng.integers(len(tokens)))] = str(rng.choice(BAD_TOKENS))
    elif kind == "columns":
        col = int(rng.integers(2, len(tokens)))
        if rng.integers(2):
            del tokens[col]
        else:
            tokens.insert(col, "1.0")
    elif kind == "unit":
        tokens[0] = f"{rng.integers(-5, 1000)}.5"
    elif kind == "non-finite":
        tokens[int(rng.integers(len(tokens)))] = str(rng.choice(NON_FINITE))
    elif kind == "cycle":
        tokens[1] = str(rng.choice(["0", "-1", "1.5"]))     # never a cycle index
    return tokens


@st.composite
def cmapss_files(draw, max_faults: int):
    """Bytes of a C-MAPSS-style file and the line numbers of its faults.

    Files mix blank and whitespace-only lines, LF or CRLF ends, contiguous or
    interleaved units, several separators, up to ~350 KB (lines straddle
    block cuts), and at times one line longer than a whole block.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = _rows(rng, draw(st.integers(1, 4)), draw(st.sampled_from([3, 40, 300])),
                 interleave=draw(st.booleans()))
    kinds = draw(st.lists(st.sampled_from(FAULTS), max_size=max_faults))
    faults = [(kind, int(rng.integers(len(rows)))) for kind in kinds]
    utf8_rows = {row for kind, row in faults if kind == "utf8"}
    for kind, row in faults:
        if kind != "utf8":
            rows[row] = _apply_fault(rng, rows[row], kind)
    long_row = draw(st.one_of(st.none(), st.integers(0, len(rows) - 1)))
    blank_every = draw(st.sampled_from([0, 2, 7, 50]))

    lines, fault_lines = [], set()
    for i, tokens in enumerate(rows):
        if blank_every and rng.integers(blank_every) == 0:
            lines.append(str(rng.choice(BLANK_LINES)).encode())
        seps = [str(sep) for sep in rng.choice(SEPARATORS, size=len(tokens) - 1)]
        if i == long_row:
            seps[0] = " " * (D.BLOCK_BYTES + 100)
        text = "".join(t + s for t, s in zip(tokens, seps)) + tokens[-1]
        if rng.integers(4) == 0:
            text = f"{rng.choice(SEPARATORS)}{text}{rng.choice(SEPARATORS)}"
        line = text.encode()
        if i in utf8_rows:
            at = int(rng.integers(len(line) + 1))
            line = line[:at] + bytes(rng.choice([b"\xff", b"\xc3(", b"\xed\xa0\x80"])) + line[at:]
        lines.append(line)
        if any(row == i for _, row in faults):
            fault_lines.add(len(lines))
    end = b"\r\n" if draw(st.booleans()) else b"\n"
    body = end.join(lines) + (end if draw(st.booleans()) else b"")
    return body, fault_lines


def _both(tmp_path_factory, body: bytes):
    """(reference result, parse_cmapss result); each a record list or a ParseError."""
    path = tmp_path_factory.mktemp("oracle") / "gen.txt"
    path.write_bytes(body)
    out = []
    for parse in (reference_parse_cmapss, D.parse_cmapss):
        try:
            out.append(parse(path))
        except ParseError as e:
            out.append(e)
    return out


ORACLE = settings(max_examples=60, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


class TestAgainstReference:
    @ORACLE
    @given(cmapss_files(max_faults=0))
    def test_clean_file_gives_identical_records(self, tmp_path_factory, generated):
        body, _ = generated
        want, got = _both(tmp_path_factory, body)
        assert not isinstance(want, ParseError), want
        assert not isinstance(got, ParseError), got
        assert len(got) == len(want)
        for a, b in zip(want, got):
            assert type(b.unit_id) is int and b.unit_id == a.unit_id
            assert b.sensor_ids == a.sensor_ids
            for name in ("cycle_index", "op_settings", "sensors"):
                x, y = getattr(a, name), getattr(b, name)
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name

    @ORACLE
    @given(cmapss_files(max_faults=1).filter(lambda g: g[1]))
    def test_one_fault_names_the_same_line_and_kind(self, tmp_path_factory, generated):
        body, _ = generated
        want, got = _both(tmp_path_factory, body)
        assert isinstance(want, ParseError) and isinstance(got, ParseError)
        assert fault_line(str(got)) == fault_line(str(want))
        assert fault_kind(str(got)) == fault_kind(str(want)), (str(want), str(got))

    @ORACLE
    @given(cmapss_files(max_faults=4).filter(lambda g: len(g[1]) > 1))
    def test_several_faults_name_one_of_them(self, tmp_path_factory, generated):
        body, fault_lines = generated
        want, got = _both(tmp_path_factory, body)
        assert isinstance(want, ParseError) and isinstance(got, ParseError)
        assert fault_line(str(got)) in fault_lines


GOOD_ROW = "1 1 " + " ".join(["0.5"] * 24)
SECOND_ROW = "1 2 " + " ".join(["0.5"] * 24)


@pytest.mark.parametrize("line", [
    SECOND_ROW.replace("0.5", "1_0", 1),        # underscored digits
    SECOND_ROW.replace("0.5", "\u0661", 1),     # ARABIC-INDIC DIGIT ONE
    SECOND_ROW.replace(" ", "\r", 1),           # a bare carriage return as a separator
])
def test_stricter_tokens_name_their_line(tmp_path, line):
    """Lines that ``float()`` and ``str.split`` read but ``loadtxt`` does not."""
    path = tmp_path / "bad.txt"
    path.write_bytes(f"{GOOD_ROW}\n{line}\n".encode())
    assert len(reference_parse_cmapss(path)[0].sensors) == 2    # the per-line reader took it
    with pytest.raises(ParseError, match=r"bad\.txt:2: "):
        D.parse_cmapss(path)


def test_line_longer_than_a_block(tmp_path):
    path = tmp_path / "long.txt"
    wide = "1 2" + " " * (3 * D.BLOCK_BYTES) + " ".join(["0.5"] * 24)
    path.write_text(f"{GOOD_ROW}\n{wide}\n1 3 {' '.join(['0.5'] * 23)} x\n")
    with pytest.raises(ParseError, match=r"long\.txt:3: "):
        D.parse_cmapss(path)
    path.write_text(f"{GOOD_ROW}\n{wide}")        # the long line ends the file
    (record,) = D.parse_cmapss(path)
    assert record.length == 2


def test_bad_token_in_a_later_block_names_its_line(tmp_path):
    rows = [f"1 {c} " + " ".join(["0.123456789"] * 24) for c in range(1, 2001)]
    rows[1500] = rows[1500].replace("0.123456789", "0.12x", 1)
    path = tmp_path / "big.txt"
    path.write_text("\n".join(rows) + "\n")
    assert path.stat().st_size > 4 * D.BLOCK_BYTES
    with pytest.raises(ParseError, match=r"big\.txt:1501: could not convert string '0\.12x'"):
        D.parse_cmapss(path)


@pytest.mark.parametrize("body", ["", "\n", "  \n\t\n\r\n", " "])
def test_file_without_rows_is_empty_and_quiet(tmp_path, body):
    path = tmp_path / "empty.txt"
    path.write_bytes(body.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert D.parse_cmapss(path) == []
