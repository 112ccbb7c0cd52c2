import sys
from pathlib import Path

# make the oracles and lemmas modules importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).resolve().parent))

_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    if "test_acceptance.py" in report.nodeid and "test_criterion_" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        _ACCEPTANCE_RESULTS[name] = report.outcome.upper()


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS, key=lambda n: int(n.split("_")[2])):
        num = name.split("_")[2]
        verdict = "PASS" if _ACCEPTANCE_RESULTS[name] == "PASSED" else "FAIL"
        terminalreporter.write_line(f"criterion {num}: {verdict} ({name})")
