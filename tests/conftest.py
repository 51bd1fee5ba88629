"""Shared test plumbing: a derandomized Hypothesis profile for CI, and
acceptance one-liners collected and echoed in a summary block once the run
finishes."""

from hypothesis import settings

# `pytest --hypothesis-profile=ci` draws every property test's examples
# from a fixed seed, so a CI failure replays locally with the same
# examples; a plain run keeps exploring new ones.  A generated engine run
# takes tens of ms and varies on a shared runner, so no example has a
# deadline, and a failure prints the blob that reproduces it.
settings.register_profile("ci", derandomize=True, deadline=None,
                          print_blob=True)

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    """Stash a criterion result line and print it where -s can see it."""
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
