import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbell import (
    ChainParams,
    ProtocolSpec,
    QuantumSource,
    TrialLog,
    TrialRecord,
    as_trial_log,
    pair_stats_from_log,
    phi_plus,
    run_protocol,
    settings_set,
)
from chainbell.logfile import LogFormatError, LogHeader, read_log, write_log


@pytest.fixture
def sample_log():
    protocol = ProtocolSpec(blocks=12, block_size=3, analyzed_index=2)
    records = run_protocol(
        QuantumSource(phi_plus()), ChainParams(3), protocol, seed=77
    )
    header = LogHeader(N=3, mode="correlation", blocks=12, block_size=3,
                       analyzed_index=2, seed=77)
    return header, records


def test_round_trip(tmp_path, sample_log):
    header, records = sample_log
    path = tmp_path / "run.log"
    write_log(path, header, records)
    header2, records2 = read_log(path)
    assert header2.N == header.N
    assert header2.mode == header.mode
    assert header2.blocks == header.blocks
    assert header2.seed == 77
    assert header2.trials == len(records)
    assert records2 == records


def test_empty_log_round_trip(tmp_path):
    path = tmp_path / "empty.log"
    write_log(path, LogHeader(N=4), [])
    header, records = read_log(path)
    assert header.N == 4
    assert records == []


def test_malformed_line_reports_line_number(tmp_path, sample_log):
    header, records = sample_log
    path = tmp_path / "bad.log"
    write_log(path, header, records)
    lines = path.read_text().splitlines()
    lines[10] = "not a record at all"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogFormatError, match="line 11"):
        read_log(path)


def test_bad_outcome_rejected(tmp_path, sample_log):
    header, records = sample_log
    path = tmp_path / "bad.log"
    write_log(path, header, records)
    text = path.read_text().replace(" B ", " Q ", 1)
    path.write_text(text)
    with pytest.raises(LogFormatError):
        read_log(path)


def test_trial_count_mismatch_rejected(tmp_path, sample_log):
    header, records = sample_log
    path = tmp_path / "bad.log"
    write_log(path, header, records)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(LogFormatError, match="declares"):
        read_log(path)


def test_missing_format_header_rejected(tmp_path):
    path = tmp_path / "bad.log"
    path.write_text("# N: 3\n")
    with pytest.raises(LogFormatError, match="format"):
        read_log(path)


def test_unknown_mode_rejected(tmp_path):
    path = tmp_path / "bad.log"
    path.write_text("# format: chainbell-log/1\n# N: 3\n# mode: sideways\n")
    with pytest.raises(LogFormatError, match="mode"):
        read_log(path)


def _reference_stats(records, params, include_unheralded):
    """Per-pair count and mean correlation, one record at a time."""
    counts, sums = {}, {}
    for r in records:
        if r.heralded or include_unheralded:
            counts[r.pair.key] = counts.get(r.pair.key, 0) + 1
            sums[r.pair.key] = sums.get(r.pair.key, 0) + (r.outcome_a == r.outcome_b)
    return {key: (counts[key], sums[key] / counts[key]) for key in counts}


def _reference_bytes(header, records):
    """chainbell-log/1 written one record at a time."""
    lines = [line + "\n" for line in header.to_lines()]
    for r in records:
        counts = ",".join(str(c) for c in r.check_counts) or "-"
        lines.append(
            f"{r.trial_index} {r.block_index} {r.pair.a_index} {r.pair.b_index} "
            f"{r.outcome_a} {r.outcome_b} {int(r.heralded)} {counts}\n"
        )
    return "".join(lines).encode()


@st.composite
def record_lists(draw):
    """Random records; check windows either slide over one stream or are independent."""
    N = draw(st.integers(2, 5))
    n = draw(st.integers(0, 40))
    g = draw(st.integers(0, 4))
    pairs = settings_set(ChainParams(N))
    stream = draw(st.lists(st.integers(0, 99), min_size=n + g, max_size=n + g))
    sliding = draw(st.booleans())
    records = []
    for q in range(n):
        window = stream[q : q + g] if sliding else draw(
            st.lists(st.integers(0, 99), min_size=g, max_size=g))
        records.append(TrialRecord(
            trial_index=q, block_index=q // 3, pair=draw(st.sampled_from(pairs)),
            outcome_a=draw(st.sampled_from("BD")), outcome_b=draw(st.sampled_from("BD")),
            heralded=draw(st.booleans()), check_counts=tuple(window),
        ))
    return N, records


@given(record_lists(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_bincount_stats_match_per_record_reference(case, include_unheralded):
    N, records = case
    params = ChainParams(N)
    want = _reference_stats(records, params, include_unheralded)
    for log in (records, as_trial_log(records)):
        got = pair_stats_from_log(log, params, include_unheralded=include_unheralded)
        assert {key: (s.count, s.mean) for key, s in got.items()} == want


@given(record_lists())
@settings(max_examples=60, deadline=None)
def test_write_read_write_reproduces_bytes(case):
    N, records = case
    header = LogHeader(N=N, blocks=len(records), seed=5)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.log"
        write_log(path, header, records)
        first = path.read_bytes()
        assert first == _reference_bytes(header, records)
        header2, log = read_log(path)
        assert log == records
        write_log(path, header2, log)
        assert path.read_bytes() == first


def test_row_view_and_subsets(sample_log):
    _, log = sample_log
    assert isinstance(log, TrialLog) and len(log) == 36
    assert as_trial_log(list(log)) == log
    assert log[-1] == list(log)[-1] and log[-1].check_counts == list(log)[35].check_counts
    assert log[5:9] == list(log)[5:9]
    mask = log.heralded & (log.trial_index % 2 == 0)
    assert log[mask] == [r for r in log if r.heralded and r.trial_index % 2 == 0]
    assert len(log.checks) == len(log) + log.g
    with pytest.raises(IndexError):
        log[36]


def test_record_lines_with_gaps_keep_their_check_counts(tmp_path, sample_log):
    header, records = sample_log
    path = tmp_path / "gap.log"
    kept = [r for r in records if r.trial_index != 4]
    write_log(path, header, kept)
    assert read_log(path)[1] == kept
