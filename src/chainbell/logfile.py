"""Line-oriented trial-log file format.

A log is a text file: a header block of ``# key: value`` lines followed by
one whitespace-separated record per line

    trial_index block_index a_index b_index outcome_a outcome_b heralded check_counts

with check_counts comma-joined ("-" when empty).  Angles never appear in
logs; they are reconstructed from (N, k, l).  The format is diffable,
appendable, and trivially streamed.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .chain import (
    OUTCOMES,
    ChainParams,
    Mode,
    TrialLog,
    TrialRecord,
    as_trial_log,
    make_pair,
    settings_set,
)

FORMAT_VERSION = "chainbell-log/1"
_CHUNK_ROWS = 8192


class LogFormatError(ValueError):
    """Malformed log file; carries the offending line number when known."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


@dataclass
class LogHeader:
    N: int
    mode: Mode = "correlation"
    blocks: int = 0
    block_size: int = 1
    analyzed_index: int = 1
    seed: int | None = None
    trials: int = 0

    def to_lines(self) -> list[str]:
        lines = [
            f"# format: {FORMAT_VERSION}",
            f"# N: {self.N}",
            f"# mode: {self.mode}",
            f"# blocks: {self.blocks}",
            f"# block_size: {self.block_size}",
            f"# analyzed_index: {self.analyzed_index}",
        ]
        if self.seed is not None:
            lines.append(f"# seed: {self.seed}")
        lines.append(f"# trials: {self.trials}")
        return lines


def write_log(
    path: str | Path, header: LogHeader, records: TrialLog | Iterable[TrialRecord]
) -> None:
    log = as_trial_log(records)
    header.trials = len(log)
    keys = np.array([p.key for p in log.pairs], dtype=np.int64).reshape(-1, 2)
    chars = np.array([[ord(a), ord(b)] for a, b in OUTCOMES])
    # One %-format per row; %c turns a character code into B or D.
    row = "%d %d %d %d %c %c %d " + (",".join(["%d"] * log.g) or "-") + "\n"
    with open(path, "w") as fh:
        fh.write("".join(line + "\n" for line in header.to_lines()))
        for start in range(0, len(log), _CHUNK_ROWS):
            part = log[start : start + _CHUNK_ROWS]
            table = np.column_stack([
                part.trial_index, part.block_index, keys[part.pair_idx],
                chars[part.outcome_idx], part.heralded,
                part.checks[part.check_pos[:, None] + np.arange(log.g)],
            ])
            fh.write((row * len(part)) % tuple(table.ravel().tolist()))


def read_log(path: str | Path) -> tuple[LogHeader, TrialLog]:
    meta: dict[str, str] = {}
    with open(path, "rb") as fh:
        first, raw = 0, b""
        for first, raw in enumerate(fh, start=1):  # header lines, up to the first record
            line = raw.strip().decode(errors="replace")
            if line and not line.startswith("#"):
                break
            key, sep, value = line.lstrip("# ").partition(":")
            if line and not sep:
                raise LogFormatError(f"malformed header line {line!r}", first)
            if line:
                meta[key.strip()] = value.strip()
            raw = b""
        body = raw + fh.read()
    header = _build_header(meta)
    log = _parse_records(body, first, ChainParams(header.N))
    if "trials" in meta and header.trials != len(log):
        raise LogFormatError(
            f"header declares {meta['trials']} trials but {len(log)} records found"
        )
    return header, log


def _build_header(meta: dict[str, str]) -> LogHeader:
    if meta.get("format") != FORMAT_VERSION:
        raise LogFormatError(
            f"unsupported or missing format header, expected {FORMAT_VERSION!r}"
        )
    if "N" not in meta:
        raise LogFormatError("header is missing N")
    mode = meta.get("mode", "correlation")
    if mode not in ("correlation", "anticorrelation"):
        raise LogFormatError(f"unknown mode {mode!r}")
    fields = {}  # LogHeader supplies the defaults of absent fields
    for key in meta.keys() & {"N", "blocks", "block_size", "analyzed_index", "seed", "trials"}:
        try:
            fields[key] = int(meta[key])
        except ValueError:
            raise LogFormatError(f"header field {key!r} must be an integer, got {meta[key]!r}")
    if fields["N"] < 2:
        raise LogFormatError(f"header N must be >= 2, got {fields['N']}")
    return LogHeader(mode=mode, **fields)  # type: ignore[arg-type]


def _parse_records(body: bytes, first: int, params: ChainParams) -> TrialLog:
    """The record lines of a log body, from line ``first`` on, parsed by numpy at once."""
    fields = body.split(b"\n", 1)[0].split()
    g = 0 if len(fields) < 8 or fields[7] == b"-" else fields[7].count(b",") + 1
    dtype = [("trial", np.int64), ("block", np.int64), ("k", np.int64), ("l", np.int64),
             ("a", "S2"), ("b", "S2"), ("herald", np.int64),
             ("counts", np.int64, (g,)) if g else ("none", "S2")]
    N = params.N
    try:
        rows = np.loadtxt(io.BytesIO(body.replace(b",", b" ")), dtype=dtype, ndmin=1,
                          comments=None) if body.strip() else np.zeros(0, dtype)
    except ValueError:
        raise LogFormatError(*_bad_line(body, first, g, params))
    k, l = rows["k"], rows["l"]
    valid = (
        np.isin(rows["a"], (b"B", b"D")) & np.isin(rows["b"], (b"B", b"D"))
        & (1 <= k) & (k <= N) & (1 <= l) & (l <= N)
        & ((l == k) | (l == k + 1) | ((k == N) & (l == 1)))
        & (True if g else rows["none"] == b"-")
    )
    if not valid.all():
        raise LogFormatError(*_bad_line(body, first, g, params))
    return TrialLog.from_windows(
        settings_set(params), rows["trial"], rows["block"], 2 * (k - 1) + (l != k),
        2 * (rows["a"] == b"D") + (rows["b"] == b"D"), rows["herald"] != 0,
        rows["counts"] if g else np.zeros((len(rows), 0), np.int64),
    )


def _bad_line(body: bytes, first: int, g: int, params: ChainParams) -> tuple[str, int | None]:
    """Why the first invalid record line is invalid, and its line number."""
    for lineno, raw in enumerate(body.split(b"\n"), first):
        fields = raw.decode(errors="replace").split()
        try:
            if fields and fields[0].startswith("#"):
                raise ValueError("header line after records")
            if fields:
                trial, block, k, l, a, b, herald, counts = fields
                counts = [] if counts == "-" else counts.split(",")
                if len(counts) != g:
                    raise ValueError(f"expected {g} check counts, got {len(counts)}")
                [int(f) for f in (trial, block, herald, *counts)]
                TrialRecord(0, 0, make_pair(params, int(k), int(l)), a, b)
        except ValueError as exc:
            return str(exc), lineno
    return "unreadable records", None
