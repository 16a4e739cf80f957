"""Shared pytest hooks.

After the normal report, print one PASS/FAIL line per acceptance criterion,
with the seconds its test call took, so the gate can be read off without
scrolling through the full output.
"""


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" not in nodeid or "::test_criterion_" not in nodeid:
                continue
            when = getattr(report, "when", "call")
            if status == "passed" and when != "call":
                continue
            name = nodeid.split("::test_criterion_")[-1]
            verdict, seconds = results.get(name, ("PASS", 0.0))
            if status != "passed":
                verdict = "FAIL"
            if when == "call":
                seconds = report.duration
            results[name] = (verdict, seconds)
    if not results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name in sorted(results, key=lambda s: int(s.split("_")[0])):
        number, _, rest = name.partition("_")
        label = rest.replace("_", " ")
        verdict, seconds = results[name]
        terminalreporter.write_line(
            f"criterion {number} ({label}): {verdict} ({seconds:.1f} s)"
        )
