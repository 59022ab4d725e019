import pytest

from racahverify import _parallel

_acceptance_lines: list[str] = []


@pytest.fixture
def acceptance_record():
    """Collects one human-readable pass/fail line per acceptance criterion;
    the lines are printed in the terminal summary after the run."""

    def record(name: str, passed: bool, detail: str = "") -> None:
        status = "PASS" if passed else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        _acceptance_lines.append(f"{name}: {status}{suffix}")

    return record


@pytest.fixture
def fork_at_once(monkeypatch):
    """run_tasks with no serial head: at jobs > 1 every dispatch forks
    at once, so a test of the fork map or of a worker's slice runs it."""
    monkeypatch.setattr(_parallel, "HEAD_S", 0)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
