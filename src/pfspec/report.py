"""Check records and deterministic report rendering.

Reports are plain text, one section per suite, one line per check:

    [suite] check-name ... PASS
    [suite] check-name ... FAIL (witness)
    [suite] check-name ... SKIPPED (cap: reason)

Rendering is byte-stable across runs for identical inputs: a record holds
no timing.  The exit code is 0 iff nothing FAILed; SKIPPED records only fail
under --strict-caps.
"""

from collections import namedtuple

from .errors import CapExceeded, PfspecError

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"


CheckRecord = namedtuple("CheckRecord", "suite name status witness")


class Report:
    __slots__ = ("records",)

    def __init__(self, records=()):
        self.records = list(records)

    def add(self, suite, name, status, witness=""):
        self.records.append(CheckRecord(suite, name, status, witness))

    def run(self, suite, name, fn):
        """Run fn() -> (ok, witness) and record the outcome; CapExceeded
        becomes SKIPPED, any other package error a FAIL with its witness."""
        try:
            outcome = fn()
        except CapExceeded as exc:
            self.add(suite, name, SKIPPED, f"cap: {exc}")
            return
        except PfspecError as exc:
            self.add(suite, name, FAIL, str(exc))
            return
        if outcome is True or outcome is None:
            self.add(suite, name, PASS)
        elif outcome is False:
            self.add(suite, name, FAIL)
        else:
            ok, witness = outcome
            self.add(suite, name, PASS if ok else FAIL, "" if ok else str(witness))

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
