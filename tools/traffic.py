"""The library statements one benchmark run never executes, module by module.

    python3 tools/traffic.py CHECKOUT --workload formula-expand

Runs one pass of CHECKOUT's `perfbench/run.py` (`--seconds 0 --seed 1
--trace 0`: every pass runs every claim, so a longer run or another seed
executes no other line) in this process under
`sys.settrace`, recording the lines executed in `src/treefactor/*.py`, the
imports of set-up included.  A statement counts as executed when a line
event fires on one of its own lines: all of them for a simple statement,
those before its body for a compound one (decorators included).  Docstrings,
`global` and `nonlocal` run no code and are left out.

Prints, for each module, the first line of every statement never executed,
grouped by the innermost function or class holding it (`<module>` at top
level); then, as the last line, one JSON object {module: [lines]}.  The
run's own output is withheld.  Nothing is written: no bytecode, and a
`--trace 0` run writes no trace.  Standard library only.  Exits 1 if the run
fails, or if no line of the library was recorded (a tracer that saw nothing
would list every statement as never executed).
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import runpy
import sys
from pathlib import Path


def statements(source: str) -> list[tuple[int, str, range]]:
    """(first line, holder, lines whose events mean it ran) for every statement that runs code."""
    out: list[tuple[int, str, range]] = []

    def visit(body: list[ast.stmt], holder: str) -> None:
        for i, node in enumerate(body):
            if i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, str):
                continue  # a docstring
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
            compound = hasattr(node, "body")
            last = max(node.lineno, node.body[0].lineno - 1) if compound else node.end_lineno
            out.append((node.lineno, holder, range(first, last + 1)))
            scope = holder
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = node.name if holder == "<module>" else f"{holder}.{node.name}"
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), scope)
            for handler in getattr(node, "handlers", ()):
                visit(handler.body, scope)

    visit(ast.parse(source).body, "<module>")
    return sorted(out)


def never_executed(source: str, executed: set[int]) -> dict[str, list[int]]:
    """{holder: first lines of its statements with no executed line}, in source order."""
    out: dict[str, list[int]] = {}
    for line, holder, lines in statements(source):
        if executed.isdisjoint(lines):
            out.setdefault(holder, []).append(line)
    return out


def traced_run(checkout: Path, argv: list[str]) -> tuple[dict[str, set[int]], int, str]:
    """Lines executed per library file, the run's exit code, and its output."""
    run = checkout / "perfbench" / "run.py"
    seen: dict[str, set[int]] = {str(p): set() for p in (checkout / "src" / "treefactor").resolve().glob("*.py")}

    def on_call(frame, event, arg):
        lines = seen.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    sys.argv = [str(run), *argv]
    sys.path.insert(0, str(run.parent))
    sys.dont_write_bytecode = True
    output = io.StringIO()
    code = 0
    sys.settrace(on_call)
    try:
        with contextlib.redirect_stdout(output):
            runpy.run_path(str(run), run_name="__main__")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 1
    except Exception as exc:  # the run's failure is reported, not raised
        output.write(f"{type(exc).__name__}: {exc}\n")
        code = 1
    finally:
        sys.settrace(None)
    return seen, code, output.getvalue()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", type=Path)
    ap.add_argument("--workload", required=True)
    args = ap.parse_args(argv)
    seen, code, output = traced_run(args.checkout.resolve(), [
        "--workload", args.workload, "--seconds", "0", "--seed", "1", "--trace", "0"])
    if code != 0:
        sys.stderr.write(output)
        print(f"error: the run in {args.checkout} exited {code}", file=sys.stderr)
        return 1
    if not any(seen.values()):
        print(f"error: no line of {args.checkout}'s src/treefactor was recorded", file=sys.stderr)
        return 1
    report = {}
    for name in sorted(seen):
        module = Path(name).stem
        missed = never_executed(Path(name).read_text(), seen[name])
        report[module] = sorted(line for lines in missed.values() for line in lines)
        print(f"# {module}: {len(report[module])} statements never executed")
        for holder, lines in missed.items():
            print(f"#   {holder}: {', '.join(map(str, lines))}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
