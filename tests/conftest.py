"""Acceptance scoreboard shared between test_acceptance and the reporter,
and helpers shared between test modules.

test_acceptance records one entry per headline check; the hook below prints
them after the run so every session ends with a PASS/FAIL line per check.
"""

import contextlib
import signal

ACCEPTANCE: list[tuple[str, bool]] = []


def record(label: str, ok: bool) -> None:
    ACCEPTANCE.append((label, ok))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    terminalreporter.section("acceptance checks")
    for label, ok in ACCEPTANCE:
        terminalreporter.write_line(("PASS" if ok else "FAIL") + "  " + label)


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the body once ``seconds`` of wall time pass."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
