"""tools/traffic.py: which statements count as executed, and a run on a made-up checkout."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))
import traffic  # noqa: E402

MODULE = textwrap.dedent('''\
    """Doc."""
    import functools


    @functools.lru_cache(maxsize=2)
    def used(a):
        """Doc."""
        global TOTAL
        if a > 0:
            b = (
                a + 1
            )
        else:
            b = 0
        try:
            return b
        except ValueError:
            raise


    def unused():
        return 1


    class Holder:
        """Doc."""

        def method(self):
            return 2
    ''')


def test_statements_skip_docstrings_and_declarations():
    found = {line: (holder, lines) for line, holder, lines in traffic.statements(MODULE)}
    # docstrings (1, 7, 26) and `global` (8) run no code; `else` and `except` are no statements
    assert sorted(found) == [2, 6, 9, 10, 14, 15, 16, 18, 21, 22, 25, 28, 29]
    # a decorated def counts from its decorator; a compound statement by its head
    assert found[6] == ("<module>", range(5, 7))
    assert found[9] == ("used", range(9, 10))
    assert found[10] == ("used", range(10, 13))
    assert found[29] == ("Holder.method", range(29, 30))


def test_never_executed_groups_by_holder():
    executed = {2, 5, 6, 9, 11, 15, 16, 21, 25, 28}
    assert traffic.never_executed(MODULE, executed) == {
        "used": [14, 18], "unused": [22], "Holder.method": [29]}


def _checkout(root: Path, run_body: str) -> Path:
    (root / "src" / "treefactor").mkdir(parents=True)
    (root / "src" / "treefactor" / "__init__.py").write_text("")
    (root / "src" / "treefactor" / "mod.py").write_text(MODULE)
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text(textwrap.dedent('''\
        import sys
        from pathlib import Path
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        from treefactor import mod
        ''') + run_body)
    return root


def _traffic(checkout: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOLS / "traffic.py"), str(checkout), "--workload", "w"],
                          capture_output=True, text=True)


def test_a_run_reports_each_module_and_writes_nothing(tmp_path):
    checkout = _checkout(tmp_path, 'mod.used(1)\nprint("run output")\nsys.exit(0)\n')
    before = sorted(tmp_path.rglob("*"))
    proc = _traffic(checkout)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "run output" not in proc.stdout
    assert "#   used: 14, 18" in lines and "#   unused: 22" in lines
    assert json.loads(lines[-1]) == {"__init__": [], "mod": [14, 18, 22, 29]}
    assert sorted(tmp_path.rglob("*")) == before


def test_a_failed_run_exits_1(tmp_path):
    proc = _traffic(_checkout(tmp_path, 'raise RuntimeError("broken")\n'))
    assert proc.returncode == 1
    assert "RuntimeError: broken" in proc.stderr and proc.stdout == ""
    proc = _traffic(_checkout(tmp_path / "exit", "sys.exit(2)\n"))
    assert proc.returncode == 1 and "exited 2" in proc.stderr


def test_a_run_that_records_no_library_line_exits_1(tmp_path):
    checkout = _checkout(tmp_path, "")
    (checkout / "perfbench" / "run.py").write_text("import sys\nsys.exit(0)\n")
    proc = _traffic(checkout)
    assert proc.returncode == 1
    assert "no line of" in proc.stderr and proc.stdout == ""
