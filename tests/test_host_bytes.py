"""The byte route for 3-graph host files (`core.threegraph_from_bytes`): it
reads exactly what the json route reads, refuses every other file, and
leaves the CLI's exit code and message as the json route gives them."""

import json

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from transversal import cli, core
from transversal.core import ThreeGraph, threegraph_from_bytes, threegraph_from_json

# the three ways a host file gets written: json.dumps defaults (the
# benchmark's files), compact, and `transversal generate` (edges first)
DUMPS = [{}, {"separators": (",", ":")}, {"indent": 2, "sort_keys": True}]


@st.composite
def hosts(draw, max_n=99999):
    """``n`` and rows of vertices of one to five digits, mixed in a row:
    triples in any order, each in any vertex order, some repeated."""
    n = draw(st.sampled_from([n for n in (3, 9, 10, 11, 100, 101, 1000, 1001, 99999) if n <= max_n]))
    vertex = st.one_of(st.integers(0, min(n, 11) - 1), st.integers(0, n - 1))
    return n, draw(st.lists(st.lists(vertex, min_size=3, max_size=3, unique=True), max_size=30))


def _via_json(raw: bytes) -> ThreeGraph:
    return threegraph_from_json(json.loads(raw))


@pytest.fixture
def small_chunks(monkeypatch):
    # a row or two per chunk, so every file crosses chunk boundaries
    monkeypatch.setattr(core, "_CHUNK_ROWS", 2)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(host=hosts(), dumps=st.sampled_from(DUMPS), n_first=st.booleans())
def test_byte_route_reads_what_json_reads(small_chunks, host, dumps, n_first):
    n, rows = host
    doc = {"n": n, "edges": rows} if n_first else {"edges": rows, "n": n}
    raw = json.dumps(doc, **dumps).encode()
    got = threegraph_from_bytes(raw)
    assert got is not None and got == _via_json(raw) and got.e == _via_json(raw).e


@pytest.mark.parametrize("big", [10 ** 17, 123456789012345678, 999999999999999999, 256, 65536, 10 ** 10])
def test_byte_route_reads_numbers_of_up_to_18_digits(small_chunks, big):
    # the out-of-range row names the number as read, on both routes
    rows = [[0, 1, 2], [3, 1, 0], [2, big, 0], [1, 2, 3]]
    raw = json.dumps({"n": 4, "edges": rows}).encode()
    with pytest.raises(ValueError, match=rf"^3-edge \(2, {big}, 0\) out of range for n=4$"):
        threegraph_from_bytes(raw)
    assert threegraph_from_bytes(b'{"n":999999999999999999,"edges":[]}').n == 999999999999999999
    assert threegraph_from_bytes(b'{"n":3,"edges":[]}') == ThreeGraph(3, [])
    # a 19th digit, in a vertex or in n, leaves the file to the json route
    assert threegraph_from_bytes(raw.replace(b"2, ", b"1000000000000000000, ", 1)) is None
    assert threegraph_from_bytes(b'{"n":1000000000000000000,"edges":[]}') is None


def _mutations(n: int, rows: list) -> dict:
    """Host files that the byte route must refuse, by name: each changes one
    row (the first), the key of ``n`` or the document around them."""
    a, b, c = rows[0]
    rest = "".join(f", [{x}, {y}, {z}]" for x, y, z in rows[1:])

    def file(first: str, head: str = f'"n": {n}', tail: str = "") -> bytes:
        return f'{{{head}, "edges": [{first}{rest}]{tail}}}'.encode()

    return {
        "digit-space-digit": file(f"[1 {a}, {b}, {c}]"),
        "digit-newline-digit-in-n": file(f"[{a}, {b}, {c}]", head=f'"n": 1\n{n}'),
        "leading-zero": file(f"[0{a}, {b}, {c}]"),
        "leading-zero-in-n": file(f"[{a}, {b}, {c}]", head=f'"n": 0{n}'),
        "minus": file(f"[-{a}, {b}, {c}]"),
        "float": file(f"[{a}.0, {b}, {c}]"),
        "exponent": file(f"[{a}e0, {b}, {c}]"),
        "bool": file(f"[true, {b}, {c}]"),
        "two-vertices": file(f"[{a}, {b}]"),
        "four-vertices": file(f"[{a}, {b}, {c}, {a}]"),
        "nested": file(f"[[{a}], {b}, {c}]"),
        "trailing-comma-in-row": file(f"[{a}, {b}, {c},]"),
        "trailing-comma": file(f"[{a}, {b}, {c}]", tail=","),
        "trailing-comma-in-edges": file(f"[{a}, {b}, {c}]").replace(b"]]}", b"],]}"),
        "extra-key": file(f"[{a}, {b}, {c}]", tail=', "x": 1'),
        "parts": file(f"[{a}, {b}, {c}]", tail=f', "parts": [{list(range(n))}, [], []]'),
        "duplicate-key": file(f"[{a}, {b}, {c}]", head=f'"n": {n}, "n": {n}'),
        "space-in-key": file(f"[{a}, {b}, {c}]", head=f'" n": {n}'),
        "bom": b"\xef\xbb\xbf" + file(f"[{a}, {b}, {c}]"),
        "empty-vertex": file(f"[{a}, , {c}]"),
        "extra-close": file(f"[{a}, {b}, {c}]]"),
        "no-open": file(f"{a}, {b}, {c}]"),
        "double-comma-between-rows": file(f"[{a}, {b}, {c}],, [{a}, {b}, {c}]"),
        "number-between-rows": file(f"[{a}, {b}, {c}], {a}, [{a}, {b}, {c}]"),
        "digit-after-row": file(f"[{a}, {b}, {c}]{a}"),
        # as many digit runs and other bytes as two good rows, in other places
        "comma-moved-into-a-row": file(f"[{a}, {b}, {c}][{a}, , {b}, {c}]"),
        "two-then-four-vertices": file(f"[{a}, {b}], [{c}, {a}, {b}, {c}]"),
    }


MUTATIONS = sorted(_mutations(3, [[0, 1, 2]]))
_EXPAND = ["embed", "--pipeline", "expand", "--instance", "g.json", "--pattern", "h.json",
           "--seed", "3", "--out", "r.json"]


def _expand(tmp_path, capsys) -> tuple:
    """Exit code, stderr and report (less its wall time) of embed --pipeline expand."""
    (tmp_path / "r.json").unlink(missing_ok=True)
    code = cli.main(_EXPAND)
    report = None
    if (tmp_path / "r.json").exists():
        report = json.loads((tmp_path / "r.json").read_text())
        report["timings"].pop("wall_ms")
    return code, capsys.readouterr().err, report


@pytest.mark.parametrize("mutation", MUTATIONS)
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(host=hosts(max_n=101).filter(lambda h: h[1]))
def test_refused_files_take_the_json_route(small_chunks, tmp_path, monkeypatch, capsys, mutation, host):
    n, rows = host
    raw = _mutations(n, rows)[mutation]
    assert threegraph_from_bytes(raw) is None
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TRANSVERSAL_REPORT_DIR", raising=False)
    (tmp_path / "g.json").write_bytes(raw)
    (tmp_path / "h.json").write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
    ours = _expand(tmp_path, capsys)
    with monkeypatch.context() as m:  # the json route alone, as before the byte route
        m.setattr(cli, "threegraph_from_bytes", lambda raw: None)
        assert _expand(tmp_path, capsys) == ours


# what an edit may write: digits, JSON's punctuation and whitespace, and bytes of other numbers
_EDIT_BYTES = b'0123456789[],: \n"{}-.enx'


@seed(32)
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(host=hosts(max_n=1001), dumps=st.sampled_from(DUMPS), n_first=st.booleans(), data=st.data())
def test_an_edited_file_is_read_as_json_reads_it_or_refused(small_chunks, host, dumps, n_first, data):
    n, rows = host
    doc = {"n": n, "edges": rows} if n_first else {"edges": rows, "n": n}
    raw = bytearray(json.dumps(doc, **dumps).encode())
    for _ in range(data.draw(st.integers(1, 2))):
        edit = data.draw(st.sampled_from(["insert", "delete", "replace"]))
        at = data.draw(st.integers(0, len(raw) - (edit != "insert")))
        byte = data.draw(st.sampled_from(_EDIT_BYTES))
        raw[at : at + (edit != "insert")] = [] if edit == "delete" else [byte]
    raw = bytes(raw)
    try:
        got = threegraph_from_bytes(raw)
    except ValueError as exc:  # a bad row: the json route names it the same way
        with pytest.raises(ValueError) as by_json:
            _via_json(raw)
        assert str(exc) == str(by_json.value)
        return
    if got is not None:
        want = _via_json(raw)
        assert got == want and got.e == want.e


@pytest.mark.parametrize("dumps", DUMPS)
def test_a_comma_before_the_end_of_edges_is_refused_at_every_chunk_boundary(small_chunks, dumps):
    for k in range(1, 12):
        rows = [[0, 1, 2 + i % 7] for i in range(k)]
        raw = json.dumps({"n": 9, "edges": rows}, **dumps).encode()
        assert threegraph_from_bytes(raw) == ThreeGraph(9, rows)
        end = raw.rindex(b"]", 0, raw.rindex(b"]"))  # the last row's "]"
        assert threegraph_from_bytes(raw[: end + 1] + b"," + raw[end + 1 :]) is None


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(host=hosts(), dumps=st.sampled_from(DUMPS), data=st.data())
def test_a_bad_row_gives_the_same_error_on_both_routes(small_chunks, host, dumps, data):
    n, rows = host
    for _ in range(data.draw(st.integers(1, 2))):
        bad = data.draw(st.sampled_from([[0, 1, n], [n + 5, 0, 1], [1, 1, 2], [2, 0, 2]]))
        rows.insert(data.draw(st.integers(0, len(rows))), bad)
    raw = json.dumps({"n": n, "edges": rows}, **dumps).encode()
    with pytest.raises(ValueError) as by_json:
        _via_json(raw)
    with pytest.raises(ValueError) as by_bytes:
        threegraph_from_bytes(raw)
    assert str(by_bytes.value) == str(by_json.value)
    assert "out of range" in str(by_json.value) or "repeated" in str(by_json.value)


def test_threegraph_takes_an_int64_array_in_chunks(small_chunks):
    rows = [[0, 1, 2], [3, 2, 1], [4, 0, 3], [2, 4, 1], [0, 1, 2]]
    assert ThreeGraph(5, core.np.array(rows, core.np.int64)) == ThreeGraph(5, rows)
    with pytest.raises(ValueError, match=r"^3-edge \(2, 5, 1\) out of range for n=5$"):
        ThreeGraph(5, core.np.array([*rows, [2, 5, 1]], core.np.int64))
