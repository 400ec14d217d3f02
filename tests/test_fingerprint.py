import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Loads tools/fingerprint.py without running its main() and prints the
# digests of its fast parts twice; the two chain fits are left out, as
# they take about 10 s.
_SCRIPT = """
import runpy, sys
tool = runpy.run_path(sys.argv[1])
for _ in range(2):
    with tool["pinned_blas"]():
        for source in (tool["request_outputs"](), tool["cli_outputs"]()):
            for name, sha in source:
                print(name, sha)
"""


def test_fingerprint_tool_prints_repeatable_digests(tmp_path):
    # The tool compares two checkouts' output bits; a stale import or a
    # digest that changes between runs of one tree would make it useless.
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _SCRIPT,
                           str(ROOT / "tools" / "fingerprint.py")],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 14
    assert lines[:7] == lines[7:]
    assert all(re.fullmatch(r"[\w.]+ [0-9a-f]{64}", line) for line in lines)
    assert len({line.split()[0] for line in lines[:7]}) == 7


def test_unknown_revision_exits_2():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "fingerprint.py"),
                           "--against", "no-such-revision"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: cannot export revision 'no-such-revision'")
