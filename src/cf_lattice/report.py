"""Verification reports: named checks with expected/actual values and witnesses."""
from __future__ import annotations

from fractions import Fraction

from ._record import Record

PASS = "pass"
FAIL = "fail"


def jsonable(value):
    """Coerce exact-arithmetic values into JSON-friendly structures."""
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else int(value)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    return str(value)


class VerificationReport(Record):
    check: str
    status: str
    expected: object
    actual: object
    witnesses: tuple = ()
    paper_ref: str = ""
    elapsed_ms: int = 0

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "status": self.status,
            "expected": jsonable(self.expected),
            "actual": jsonable(self.actual),
            "witnesses": jsonable(list(self.witnesses)),
            "paper_ref": self.paper_ref,
            "elapsed_ms": self.elapsed_ms,
        }


def make_report(check: str, expected, actual, *, witnesses=(),
                citation: str = "") -> VerificationReport:
    return VerificationReport(
        check=check,
        status=PASS if jsonable(expected) == jsonable(actual) else FAIL,
        expected=jsonable(expected),
        actual=jsonable(actual),
        witnesses=tuple(jsonable(list(witnesses))),
        paper_ref=citation,
    )
