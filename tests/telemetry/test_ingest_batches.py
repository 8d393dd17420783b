"""The batch readers against the per-row reference, bit for bit.

``read_jsonl`` parses batches of lines straight into columns and
``read_csv`` validates batches of rows as columns; both send any row a
batch cannot vouch for through the per-row path. The reference is
``LogStore.from_records`` over ``iter_jsonl``/``iter_csv`` with a
collector, which is what both readers were before. Every case compares
all columns and vocabularies bitwise, every ``IngestReport`` field, the
quarantine file's bytes and the strict-mode error message.
"""

import gzip
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.obs as obs
import repro.telemetry.ingest as ingest
import repro.telemetry.jsonl as jsonl
from repro.errors import ReproError
from tests.faults import DEFAULT_FAULT_SPECS, FaultPlan, write_corrupted
from repro.telemetry import (
    ActionRecord,
    IngestCollector,
    IngestPolicy,
    LogStore,
    iter_csv,
    iter_jsonl,
    read_csv,
    read_jsonl,
    write_csv,
)

MODES = ("strict", "lenient", "quarantine")

COLUMNS = ("times", "latencies_ms", "action_codes", "user_codes",
           "class_codes", "success", "tz_offsets")
VOCABS = ("action_vocab", "user_vocab", "class_vocab")


def _records(n, seed=0):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, 86400.0, n))
    return [
        ActionRecord(
            time=float(times[i]),
            action=str(rng.choice(["SelectMail", "Search", "ComposeSend"])),
            latency_ms=float(rng.lognormal(5.5, 0.6)),
            user_id=f"u{int(rng.integers(0, 40))}",
            user_class=str(rng.choice(["business", "consumer"])),
            success=bool(rng.random() < 0.95),
            tz_offset_hours=float(rng.choice([-5.0, 0.0, 5.5])),
        )
        for i in range(n)
    ]


def _lines(n, seed=0):
    return [json.dumps(r.to_dict(), separators=(",", ":")) for r in _records(n, seed)]


def _policy(mode, sink):
    if mode == "strict":
        return IngestPolicy(mode="strict")
    return IngestPolicy(mode=mode, max_bad_share=1.0,
                        quarantine_path=sink if mode == "quarantine" else None)


def _reference_read(path, policy, iterate):
    collector = IngestCollector(IngestPolicy.of(policy), source=path)
    store = LogStore.from_records(iterate(path, policy=policy, collector=collector))
    store.ingest_report = collector.finish()
    return store


def _outcome(read, path, policy, sink):
    """Everything a read leaves behind: store or error, report, sink bytes."""
    if sink.exists():
        sink.unlink()
    try:
        store = read(path, policy)
    except ReproError as exc:
        report = getattr(exc, "report", None)
        result = ("raised", type(exc).__name__, str(exc),
                  None if report is None else vars(report))
    else:
        result = ("read",
                  tuple(getattr(store, c).dtype.str for c in COLUMNS),
                  tuple(getattr(store, c).tobytes() for c in COLUMNS),
                  tuple(getattr(store, v) for v in VOCABS),
                  vars(store.ingest_report))
    return result, sink.read_bytes() if sink.exists() else None


def assert_same_jsonl(path, mode, tmp_path):
    sink = tmp_path / "rejects.jsonl"
    policy = _policy(mode, sink)
    expected = _outcome(lambda p, pol: _reference_read(p, pol, iter_jsonl),
                        path, policy, sink)
    actual = _outcome(lambda p, pol: read_jsonl(p, policy=pol), path, policy, sink)
    assert actual == expected
    return actual


def assert_same_csv(path, mode, tmp_path):
    sink = tmp_path / "rejects.jsonl"
    policy = _policy(mode, sink)
    expected = _outcome(lambda p, pol: _reference_read(p, pol, iter_csv),
                        path, policy, sink)
    actual = _outcome(lambda p, pol: read_csv(p, policy=pol), path, policy, sink)
    assert actual == expected
    return actual


def _write(path, lines, newline="\n"):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(line + newline for line in lines))
    return path


@pytest.fixture()
def small_batches(monkeypatch):
    """Batches of 32 rows, so a few hundred rows span many batches."""
    monkeypatch.setattr(ingest, "BATCH_ROWS", 32)
    return 32


# -- every fault class, every policy ----------------------------------------

@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("fault", sorted(DEFAULT_FAULT_SPECS))
def test_fault_specs_match_per_row(fault, mode, tmp_path, small_batches):
    rows = [r.to_dict() for r in _records(600, seed=3)]
    plan = FaultPlan(specs=(DEFAULT_FAULT_SPECS[fault](),), seed=11)
    path = tmp_path / "faulty.jsonl"
    write_corrupted(plan.apply(rows), path)
    assert_same_jsonl(path, mode, tmp_path)


@pytest.mark.parametrize("mode", MODES)
def test_all_faults_at_full_batch_size(mode, tmp_path):
    rows = [r.to_dict() for r in _records(20_000, seed=5)]
    specs = tuple(DEFAULT_FAULT_SPECS[name]() for name in sorted(DEFAULT_FAULT_SPECS))
    path = tmp_path / "faulty.jsonl"
    write_corrupted(FaultPlan(specs=specs, seed=2).apply(rows), path)
    assert_same_jsonl(path, mode, tmp_path)


def test_clean_file_takes_no_per_row_path(tmp_path):
    path = _write(tmp_path / "clean.jsonl", _lines(20_000))
    with obs.session(enabled=True):
        result = assert_same_jsonl(path, "strict", tmp_path)
        (span,) = [r for r in obs.trace_records() if r["name"] == "ingest"]
    assert result[0][0] == "read"
    assert span["attrs"] == {"format": "jsonl", "rows": 20_000, "rows_bad": 0,
                             "fallback_rows": 0}


# -- where in a batch the bad rows sit ----------------------------------------

BAD_ROWS = {
    "garbage": "{definitely not json",
    "nan-latency": '{"time":1.0,"action":"Search","latency_ms":NaN}',
    "missing-field": '{"time":1.0,"action":"Search"}',
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("bad", sorted(BAD_ROWS))
@pytest.mark.parametrize("where", ["first-of-batch", "last-of-batch", "whole-batch"])
def test_bad_row_positions(where, bad, mode, tmp_path, small_batches):
    lines = _lines(4 * small_batches)
    if where == "first-of-batch":
        lines[small_batches] = BAD_ROWS[bad]
    elif where == "last-of-batch":
        lines[2 * small_batches - 1] = BAD_ROWS[bad]
    else:
        lines[2 * small_batches:3 * small_batches] = [BAD_ROWS[bad]] * small_batches
    path = _write(tmp_path / "dirty.jsonl", lines)
    assert_same_jsonl(path, mode, tmp_path)


# -- inputs a joined parse would get wrong -------------------------------------

@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("pieces", [
    ['{"a":[{}', '{}]},{}'],
    ['{"a":"}', '{"},{}'],
    ["{OBJ},{OBJ}"],
    ["{OBJ} {OBJ}"],
    ["[{OBJ}]"],
    ['{OBJ,"a":"{"}'],
    ['{OBJ,"a":"}"}'],
])
def test_guard_counterexamples(pieces, mode, tmp_path):
    good = _lines(3)[0][1:-1]
    lines = _lines(40, seed=1)
    lines[20:20] = [p.replace("OBJ", good) for p in pieces]
    path = _write(tmp_path / "tricky.jsonl", lines)
    assert_same_jsonl(path, mode, tmp_path)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("edit", [
    {"time": "1.5"},
    {"time": True},
    {"time": 5},
    {"time": 2 ** 70},
    {"time": None},
    {"latency_ms": -0.0},
    {"latency_ms": -1.0},
    {"latency_ms": float("inf")},
    {"success": 1},
    {"success": None},
    {"action": 5},
    {"action": ""},
    {"user_id": None},
    {"user_class": 3.5},
    {"tz_offset_hours": float("nan")},
    {"tz_offset_hours": 25.0},
    {"tz_offset_hours": 24},
    {"extra": {"k": "v"}},
    {"extra": ""},
    {"extra": None},
    {"unknown": 1},
    {"unknown": [1, 2]},
])
def test_type_edge_cases(edit, mode, tmp_path):
    rows = [r.to_dict() for r in _records(40, seed=2)]
    rows[17].update(edit)
    lines = [json.dumps(row, separators=(",", ":")) for row in rows]
    path = _write(tmp_path / "edge.jsonl", lines)
    assert_same_jsonl(path, mode, tmp_path)


def test_nan_tz_is_a_schema_reject(tmp_path):
    rows = [r.to_dict() for r in _records(40)]
    rows[5]["tz_offset_hours"] = float("nan")
    path = _write(tmp_path / "tz.jsonl", [json.dumps(r) for r in rows])
    report = read_jsonl(path, policy=_policy("lenient", None)).ingest_report
    assert report.reasons == {"schema": 1}


def test_integer_beyond_float_range_raises_like_per_row(tmp_path):
    lines = _lines(40)
    lines[30] = lines[30].replace('"time":', '"time":' + "9" * 400 + ",\"t\":", 1)
    path = _write(tmp_path / "huge.jsonl", lines)
    with pytest.raises(OverflowError):
        list(iter_jsonl(path, policy=_policy("lenient", None)))
    with pytest.raises(OverflowError):
        read_jsonl(path, policy=_policy("lenient", None))


# -- line framing ---------------------------------------------------------------

@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("framing", ["blank", "whitespace", "crlf", "cr", "gzip"])
def test_line_framing(framing, mode, tmp_path, small_batches):
    lines = _lines(100)
    lines[40] = "{broken"
    if framing == "blank":
        lines[10:10] = ["", "", ""]
        lines.insert(64, "")
    elif framing == "whitespace":
        lines[10:10] = ["   ", "\t"]
        lines[50] = "  " + lines[50] + " \t"
    path = tmp_path / ("log.jsonl.gz" if framing == "gzip" else "log.jsonl")
    newline = {"crlf": "\r\n", "cr": "\r"}.get(framing, "\n")
    if framing == "gzip":
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
    else:
        _write(path, lines, newline=newline)
    assert_same_jsonl(path, mode, tmp_path)


def test_decode_error_mid_batch_meets_earlier_rows_first(tmp_path):
    """A read error is raised after the rows before it, as per-row would."""
    lines = _lines(100)
    lines[10] = "{broken"
    path = tmp_path / "log.jsonl"
    path.write_bytes("".join(line + "\n" for line in lines).encode()
                     + b'{"time":\xff}\n')
    assert_same_jsonl(path, "strict", tmp_path)
    sink = tmp_path / "q.jsonl"
    with pytest.raises(UnicodeDecodeError):
        read_jsonl(path, policy=_policy("quarantine", sink))
    assert len(sink.read_text().splitlines()) == 1


# -- random line lists -------------------------------------------------------------

_GOOD = _lines(6, seed=9)
_PIECES = _GOOD + [
    "", "   ", "{definitely not json", "[]", "null", '{"time": }',
    '{"time":1.0,"action":"Search"}',
    '{"time":1.0,"action":"Search","latency_ms":NaN}',
    '{"time":"2.5","action":"Search","latency_ms":3}',
    '{"time":true,"action":"A","latency_ms":1,"success":1}',
    '{"time":1,"action":"","latency_ms":1}',
    '{"time":1,"action":"A","latency_ms":1,"extra":{"k":[1]}}',
    '{"time":1,"action":"A","latency_ms":1,"tz_offset_hours":NaN}',
    '{"a":[{}', '{}]},{}', '{"a":"}', '{"},{}',
    _GOOD[0] + "," + _GOOD[1], _GOOD[2][:-1] + ',"u":"{"}',
]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(picks=st.lists(st.integers(0, len(_PIECES) - 1), max_size=120),
       batch=st.sampled_from([1, 7, 32, 8192]),
       mode=st.sampled_from(MODES))
def test_random_line_lists(picks, batch, mode, tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "BATCH_ROWS", batch)
    monkeypatch.setattr(jsonl, "_MIN_RUN", 2)
    path = _write(tmp_path / "random.jsonl", [_PIECES[i] for i in picks])
    assert_same_jsonl(path, mode, tmp_path)


# -- CSV --------------------------------------------------------------------------

def _csv_lines(n, seed=0):
    return [",".join([repr(r.time), r.action, repr(r.latency_ms), r.user_id,
                      r.user_class, str(int(r.success)), repr(r.tz_offset_hours)])
            for r in _records(n, seed)]


CSV_HEADER = "time,action,latency_ms,user_id,user_class,success,tz_offset_hours"


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("bad", [
    "oops,SelectMail,1.0,u1,business,1,0",
    "1.0,SelectMail,nan,u1,business,1,0",
    "1.0,,5.0,u1,business,1,0",
    "1.0,SelectMail,5.0,u1,business,true,0",
    "1.0,SelectMail,5.0,u1,business,,",
    "1.0,SelectMail,5.0",
    "1.0,SelectMail,5.0,u1,business,1,0,surplus",
    " 1_0.5 ,SelectMail, 5 ,u1,business, 1 ,-3",
    "1.0,SelectMail,-5.0,u1,business,1,0",
    "1.0,SelectMail,5.0,u1,business,1,30",
    '"1.0","Select,Mail","5.0",u1,business,0,0',
    "",
])
def test_csv_bad_rows_match_per_row(bad, mode, tmp_path, small_batches):
    lines = _csv_lines(100)
    lines[small_batches] = bad
    lines[70] = bad
    path = _write(tmp_path / "log.csv", [CSV_HEADER] + lines)
    assert_same_csv(path, mode, tmp_path)


@pytest.mark.parametrize("header", [
    "time,action,latency_ms",
    "latency_ms,time,action,success",
    "time,action,latency_ms,user_id,user_id",
])
def test_csv_header_variants(header, tmp_path, small_batches):
    lines = [header]
    for i, r in enumerate(_records(80)):
        cells = {"time": repr(r.time), "action": r.action,
                 "latency_ms": repr(r.latency_ms), "user_id": r.user_id,
                 "success": "0" if i % 7 == 0 else "1"}
        lines.append(",".join(cells[name] for name in header.split(",")))
    path = _write(tmp_path / "log.csv", lines)
    for mode in MODES:
        assert_same_csv(path, mode, tmp_path)


def test_csv_round_trip_matches_per_row(tmp_path):
    path = tmp_path / "log.csv"
    write_csv(_records(20_000), path)
    with obs.session(enabled=True):
        assert_same_csv(path, "strict", tmp_path)
        (span,) = [r for r in obs.trace_records() if r["name"] == "ingest"]
    assert span["attrs"]["format"] == "csv"
    assert span["attrs"]["fallback_rows"] == 0

