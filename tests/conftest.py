import os
import sys

# no test run leaves a bytecode cache in the checkout: a cache under src/tumat
# changes what the benchmark's import-from-source set-up measures.  Child
# processes of the subprocess tests inherit the variable through os.environ
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import CRITERIA
    except ImportError:
        return
    results = {}
    for key, verdict in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for rep in terminalreporter.stats.get(key, []):
            location = getattr(rep, "location", None)
            if location is None:
                continue
            name = location[2]
            if name in CRITERIA and results.get(name) != "FAIL":
                results[name] = verdict
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, (num, desc) in sorted(CRITERIA.items(), key=lambda kv: kv[1][0]):
        if name in results:
            terminalreporter.write_line(f"ACCEPTANCE {num:>2} {desc}: {results[name]}")
