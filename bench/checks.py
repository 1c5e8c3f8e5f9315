"""Output checks: golden bytes at seed 0, relabelling-invariant fields otherwise.

A golden is the ``--json`` report an operation wrote at seed 0 when the
benchmark was defined.  At seed 0 a report must match its golden byte for
byte.  At any other seed the groups are relabelled, so only the fields that
relabelling preserves are compared: verdicts, orders, series profiles, value
counts and check counts.  Excluded are witnesses (they are permutations) and
the pair count of a failing criterion scan, which stops at the first
violation in scan order.  Lemma records are compared as a sorted list,
because normal subgroups of equal order are listed in element order.
"""

from __future__ import annotations

import json


def _criterion_view(crit: dict) -> dict:
    view = {k: v for k, v in crit.items() if k != "witness"}
    if not crit["holds"]:
        view.pop("pairs_checked")
    return view


def _record_view(record: dict) -> dict:
    view = {k: v for k, v in record.items() if k != "witness"}
    if "criterion" in record:
        view["criterion"] = _criterion_view(record["criterion"])
    return view


def invariant_view(report: dict) -> dict:
    """The part of a report that relabelling the group's points must not change."""
    view = {k: v for k, v in report.items() if k != "records"}
    records = [_record_view(r) for r in report["records"]]
    if report["command"] == "lemmas":
        records.sort(key=lambda r: json.dumps(r, sort_keys=True))
    view["records"] = records
    return view


def check_report(report: bytes | None, golden: bytes, seed: int) -> str | None:
    """None when the report is correct, else why not."""
    if report is None:
        return "no report written"
    if seed == 0:
        return None if report == golden else "report differs from its golden bytes"
    try:
        ok = invariant_view(json.loads(report)) == invariant_view(json.loads(golden))
    except (ValueError, KeyError, TypeError) as exc:
        return f"report is malformed: {exc!r}"
    return None if ok else "relabelling-invariant fields differ from the golden"
