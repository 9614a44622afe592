"""Check records and deterministic report rendering.

Reports are plain text, one section per suite, one line per check:

    [suite] check-name ... PASS
    [suite] check-name ... FAIL (witness)
    [suite] check-name ... SKIPPED (cap: reason)

Rendering is byte-stable across runs for identical inputs: records carry
wall-clock timings for interactive display elsewhere, but timings are never
rendered into the report text.  The exit code is 0 iff nothing FAILed;
SKIPPED records only fail under --strict-caps.
"""

import time
from collections import namedtuple

from .errors import CapExceeded, PfspecError

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"


CheckRecord = namedtuple("CheckRecord", "suite name status witness seconds", defaults=("", 0.0))


class Report:
    __slots__ = ("records",)

    def __init__(self, records=()):
        self.records = list(records)

    def add(self, suite, name, status, witness="", seconds=0.0):
        self.records.append(CheckRecord(suite, name, status, witness, seconds))

    def run(self, suite, name, fn):
        """Run fn() -> (ok, witness) and record the outcome; CapExceeded
        becomes SKIPPED, any other package error a FAIL with its witness."""
        start = time.perf_counter()
        try:
            outcome = fn()
        except CapExceeded as exc:
            self.add(suite, name, SKIPPED, f"cap: {exc}", time.perf_counter() - start)
            return
        except PfspecError as exc:
            self.add(suite, name, FAIL, str(exc), time.perf_counter() - start)
            return
        seconds = time.perf_counter() - start
        if outcome is True or outcome is None:
            self.add(suite, name, PASS, "", seconds)
        elif outcome is False:
            self.add(suite, name, FAIL, "", seconds)
        else:
            ok, witness = outcome
            self.add(suite, name, PASS if ok else FAIL, "" if ok else str(witness), seconds)

    def render(self):
        lines = []
        current = None
        for r in self.records:
            if r.suite != current:
                if current is not None:
                    lines.append("")
                lines.append(f"== suite: {r.suite} ==")
                current = r.suite
            tail = f" ({r.witness})" if r.witness else ""
            lines.append(f"[{r.suite}] {r.name} ... {r.status}{tail}")
        counts = {PASS: 0, FAIL: 0, SKIPPED: 0}
        for r in self.records:
            counts[r.status] += 1
        lines.append("")
        lines.append(
            f"total: {len(self.records)}  pass: {counts[PASS]}"
            f"  fail: {counts[FAIL]}  skipped: {counts[SKIPPED]}"
        )
        return "\n".join(lines) + "\n"

    def exit_code(self, strict_caps=False):
        if any(r.status == FAIL for r in self.records):
            return 1
        if strict_caps and any(r.status == SKIPPED for r in self.records):
            return 1
        return 0
