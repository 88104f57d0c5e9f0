"""The report writer against the standard library's encoder, and the in-place write of a report file."""

import json
import os
import signal
import stat
import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

from ultrafree import campaign, cli
from ultrafree.campaign import STAGES, CampaignConfig, emit_report, run_campaign
from ultrafree.cli import main
from ultrafree.serialize import dump_json, to_jsonable
from _oracles import stdlib_report_text
from test_io_cli import (
    BASIS_SPACES,
    BASIS_VARIANTS,
    EMBED_SPACES,
    L1CHECK_SPACES,
    _basis_argv,
    _run,
    _write_triangle,
)

GOLDEN_ARGVS = [
    *(["l1check", str(space)] for space in L1CHECK_SPACES),
    *(["embed", str(space)] for space in EMBED_SPACES),
    *(_basis_argv(space, variant) for space in BASIS_SPACES for variant in BASIS_VARIANTS),
    ["--seed", "3", "campaign", "--sizes", "3-8", "--seeds", "2", "--stages", "all"],
]


@pytest.mark.parametrize("argv", GOLDEN_ARGVS, ids=lambda argv: " ".join(a.rsplit("/", 1)[-1] for a in argv))
def test_every_golden_report_is_the_standard_library_text(argv, monkeypatch, capsys):
    texts = []

    def checked(data, path=None):
        text = dump_json(data, path)
        texts.append((text, stdlib_report_text(data)))
        return text

    monkeypatch.setattr(cli, "dump_json", checked)
    monkeypatch.setattr(campaign, "dump_json", checked)
    code, out, _ = _run(argv, capsys)
    assert code in (0, 1)
    assert texts == [(out, out)]


def test_a_campaign_over_every_stage_is_the_standard_library_text():
    report = run_campaign(CampaignConfig(sizes=(2, 3, 5), seeds=2, stages=STAGES, base_seed=11))
    assert emit_report(report) == stdlib_report_text(report)


@dataclass(frozen=True)
class _Pair:
    left: object
    right: object


@dataclass(frozen=True)
class _Nothing:
    pass


class _Point(NamedTuple):
    x: object
    y: object


class _Quarter(Fraction):
    """A Fraction subclass whose str needs escaping: it is written as its str."""

    def __str__(self) -> str:
        return f'"{Fraction.__str__(self)}"'


class _Count(int):
    """An int subclass whose repr is no integer literal: it is written by ``int.__repr__``."""

    def __repr__(self) -> str:
        return f"_Count({int(self)})"


class _Tag(str):
    """A str subclass whose str differs: it is written as its characters, and as its str when a key."""

    def __str__(self) -> str:
        return "tag:" + self


_TEXT = st.text(max_size=6) | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "é", " ", "\ud800", "\U0001f4a1", ""])
_FRACTIONS = st.fractions() | st.fractions(max_denominator=10**30).map(_Quarter)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**300), max_value=2**300)
    | st.integers().map(_Count)
    | _FRACTIONS
    | _TEXT
    | _TEXT.map(_Tag)
)
# equal keys such as 1, True and Fraction(1), or 1 and "1" under str, exercise the last-value-wins rule
_KEYS = _TEXT | _TEXT.map(_Tag) | st.integers(-3, 3) | st.booleans() | st.none() | _FRACTIONS


def _containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_TEXT, children, max_size=4)
        | st.dictionaries(_KEYS, children, max_size=4)
        | st.dictionaries(_TEXT, children, max_size=4).map(OrderedDict)
        | st.builds(_Pair, children, children)
        | st.builds(_Point, children, children)
        | st.just(_Nothing())
    )


# flat arrays: all exact ints and all exact Fractions are written in one join, anything mixed item by item
_FLAT_ITEMS = (
    st.lists(st.integers(min_value=-(2**70), max_value=2**70), max_size=6)
    | st.lists(st.fractions(), max_size=6)
    | st.lists(st.integers() | st.fractions() | st.booleans() | st.integers().map(_Count) | _FRACTIONS, max_size=6)
)
_FLAT = _FLAT_ITEMS | _FLAT_ITEMS.map(tuple)
_VALUES = st.recursive(_LEAVES | _FLAT, _containers, max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
@example({1: "one", "1": "first", True: "true", Fraction(1): "fraction", "True": [], None: {}, "None": 2})
@example(OrderedDict([(Fraction(1, 2), 0), ("1/2", _Point(_Tag("x"), None)), (_Tag("x"), 1), ("tag:x", 2)]))
@example([[1, -2, 3], (Fraction(1, 3), Fraction(-2)), [1, True], (False,), [_Count(3), 4], [Fraction(1, 2), _Quarter(1, 4)],
          [Fraction(1), 1], [], ()])
def test_dump_json_is_the_standard_library_text(value):
    text = stdlib_report_text(value)
    assert dump_json(value) == text
    assert to_jsonable(value) == json.loads(text)


_NON_STR_KEYS = _KEYS.filter(lambda key: type(key) is not str)
_REFUSED = st.sampled_from([0.5, -0.0, float("nan"), {1, 2}, frozenset(), object(), b"x", 1j, _Pair])


def _around(children):
    # a refused value inside a container, after and before values that are written
    return (
        st.tuples(_VALUES, children, _VALUES).map(list)
        | st.builds(_Pair, _VALUES, children)
        | st.builds(lambda value, refused: {"a": value, "b": refused}, _VALUES, children)
        | st.builds(lambda key, refused, value: {key: refused, str(key): value}, _NON_STR_KEYS, children, _VALUES)
    )


@settings(max_examples=200, deadline=None)
@given(st.recursive(_REFUSED, _around, max_leaves=4))
def test_refusals_raise_the_messages_of_the_standard_library_route(value):
    with pytest.raises(TypeError) as expected:
        stdlib_report_text(value)
    assert str(expected.value) == "refusing to serialize a float" or str(expected.value).startswith("cannot serialize ")
    for encode in (dump_json, to_jsonable):
        with pytest.raises(TypeError) as raised:
            encode(value)
        assert str(raised.value) == str(expected.value)


def test_a_report_overwrites_a_longer_and_a_shorter_file(tmp_path):
    path = tmp_path / "report.json"
    path.write_bytes(b"x" * 100_000)
    long = {"rows": [[Fraction(i, j + 1) for j in range(30)] for i in range(30)]}
    short = {"value": Fraction(1, 2)}
    for data in (short, long, short, long):
        text = dump_json(data, path)
        assert path.read_bytes() == text.encode()


def test_a_new_report_file_gets_the_mode_of_write_text(tmp_path):
    previous = os.umask(0o002)
    try:
        dump_json({"value": 1}, tmp_path / "report.json")
        (tmp_path / "reference.json").write_text("{}\n")
    finally:
        os.umask(previous)
    modes = {stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("report.json", "reference.json")}
    assert modes == {0o664}


@pytest.mark.skipif(os.name != "posix", reason="needs /dev/null")
def test_out_dev_null_exits_zero(tmp_path, capsys):
    space = str(_write_triangle(tmp_path))
    assert _run(["--out", os.devnull, "basis", space], capsys) == (0, "", "")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs POSIX FIFOs")
def test_a_fifo_reader_receives_the_whole_report(tmp_path, capsys):
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    argv = ["campaign", "--sizes", "2-40", "--seeds", "8", "--stages", "validate"]  # more than a pipe buffer holds
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    # a writer that opens the FIFO when no reader is left would wait for one forever
    previous = signal.signal(signal.SIGALRM, lambda *_: pytest.fail("the report was never written to the FIFO"))
    signal.alarm(60)
    try:
        code, out, err = _run(["--out", str(fifo), *argv], capsys)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    reader.join(timeout=60)
    assert (code, out, err) == (0, "", "") and not reader.is_alive()
    report = received[0].decode()
    assert len(report) > 65536
    # the same report on stdout, but for the config's out path and the timestamp
    _, expected, _ = _run(argv, capsys)
    expected = expected.replace('"out": null', f'"out": {json.dumps(str(fifo))}', 1)
    assert report == expected.replace(json.loads(expected)["generated_at"], json.loads(report)["generated_at"])


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_an_unwritable_out_path_exits_two_naming_it(tmp_path, capsys, where):
    space = str(_write_triangle(tmp_path))
    out = tmp_path / "missing" / "report.json" if where == "missing-directory" else tmp_path
    code, stdout, err = _run(["--out", str(out), "validate", space], capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith("error: [Errno ") and err.endswith(f": {str(out)!r}\n")


def test_a_refused_value_leaves_the_out_file_as_it_was(tmp_path):
    path = tmp_path / "report.json"
    path.write_bytes(b'{"previous": "report"}\n')
    for refused in ({"value": Fraction(1, 2), "float": 0.5}, [Fraction(1), {2, 3}]):
        with pytest.raises(TypeError):
            dump_json(refused, path)
        assert path.read_bytes() == b'{"previous": "report"}\n'
        with pytest.raises(TypeError):
            dump_json(refused, tmp_path / "new.json")
        assert not (tmp_path / "new.json").exists()
