"""Line census: ``python tests/line_census.py`` runs tier-1 in process under a
line tracer, then prints each statement under src/sat2mdp that no test ran as
one JSON object per line.  The same run records, for each call of a package
function, the file of its nearest caller inside the repository (src/, bench/
or tests/; frames outside it, such as the stdlib's and dataclass-generated
``<string>`` code, are skipped), and then prints each function whose every
caller is under tests/.  No object means every statement outside ALLOWLIST
ran, and every function outside CALLERS_ALLOWLIST has a caller outside tests/.
Tracing starts before sat2mdp is imported; subprocesses are not followed."""

import ast
import json
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sat2mdp"
ROOT = PACKAGE.parents[1]
# (file, a statement's first line, comment cut) -> why tier-1 never runs it or its body
ALLOWLIST = {
    ("cli.py", 'if __name__ == "__main__":'): "the body runs only in a `python -m` subprocess",
    **{(name, "if TYPE_CHECKING:"): "the body is read by type checkers, never run"
       for name in ("cnf.py", "features.py", "policies.py", "reduction.py")},
}
# "module.qualname" -> why a package function that only tests call stays in src/
CALLERS_ALLOWLIST = {
    "verify.SuiteResult.canonical_json": "the byte-stable form of a suite result: the "
                                         "contract that the golden suite digests hold",
    "cli.main": "the entry point: the console script and `python -m sat2mdp.cli` call it",
    "__init__.__getattr__": "the lazy export hook (PEP 562): Python calls it for a public "
                            "name read from the package, which no package module does",
    "__init__.__dir__": "the export hook that `dir(sat2mdp)` calls, so the lazy public "
                        "names are listed before their first read",
}


def unexecuted(executed: dict) -> list[dict]:
    """Each line with bytecode that never ran as its innermost statement (an
    except clause's line as its first statement).  An uncalled code object misses
    every line; a called one each unseen line but its first, the definition's."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        missed, codes = set(), [compile(path.read_text(), str(path), "exec")]
        for code in codes:  # grows as it goes: each code object's nested ones
            lines = {line for _, _, line in code.co_lines() if line}
            seen = executed.get((str(path), code.co_qualname, code.co_firstlineno))
            missed |= lines if seen is None else lines - seen - {code.co_firstlineno}
            codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
        spans, nodes = [], [(ast.parse(path.read_text()), 0, ())]
        for node, depth, heads in nodes:
            if isinstance(node, (ast.stmt, ast.excepthandler)):
                heads += (text[node.lineno - 1].split("#")[0].strip(),)
                shown = node.body[0] if isinstance(node, ast.excepthandler) else node
                spans.append((node.lineno, node.end_lineno, depth, shown.lineno, heads))
            nodes += [(child, depth + 1, heads) for child in ast.iter_child_nodes(node)]
        for line in missed:
            *_, shown, heads = max((s for s in spans if s[0] <= line <= s[1]),
                                   key=lambda s: (s[2], s[0]))
            if not any((path.name, h) in ALLOWLIST for h in heads):
                found[path.name, shown] = text[shown - 1].strip()
    return [{"file": f, "line": n, "statement": s} for (f, n), s in sorted(found.items())]


def called_from_tests_only(callers: dict) -> list[dict]:
    """Each package function (a module's own code aside) whose every recorded
    caller file is under tests/, outside CALLERS_ALLOWLIST."""
    found = []
    for (name, qualname, line), files in sorted(callers.items()):
        function = f"{Path(name).stem}.{qualname}"
        if qualname == "<module>" or function in CALLERS_ALLOWLIST:
            continue
        if all(f.startswith("tests/") for f in files):
            found.append({"file": name, "line": line, "function": function,
                          "callers": sorted(files)})
    return found


def main() -> int:
    executed, lines_of, callers, key_of, place_of, settled = {}, {}, {}, {}, {}, set()

    def place(code):  # a code object's file relative to the repository, or None outside it
        if code not in place_of:
            path = Path(code.co_filename).resolve()
            inside = not code.co_filename.startswith("<") and path.is_relative_to(ROOT)
            place_of[code] = path.relative_to(ROOT).as_posix() if inside else None
        return place_of[code]

    def record_caller(frame, key):
        if key in settled:  # a caller outside tests/ was already seen
            return
        caller = frame.f_back
        while caller is not None and place(caller.f_code) is None:
            caller = caller.f_back
        if caller is not None:
            where = place(caller.f_code)
            callers.setdefault(key, set()).add(where)
            if not where.startswith("tests/"):
                settled.add(key)

    def on_line(frame, event, arg):
        if event == "line":
            lines_of[frame.f_code].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):  # trace the lines of the package's frames only
        code = frame.f_code
        if code not in lines_of:
            path = Path(code.co_filename).resolve()
            key = (str(path), code.co_qualname, code.co_firstlineno)
            key_of[code] = (path.name,) + key[1:]
            lines_of[code] = executed.setdefault(key, set()) if path.parent == PACKAGE else None
        if lines_of[code] is None:
            return None
        record_caller(frame, key_of[code])
        return on_line

    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    report = unexecuted(executed) + called_from_tests_only(callers)
    for entry in report:
        print(json.dumps(entry))
    return 1 if report else int(status)


if __name__ == "__main__":
    sys.exit(main())
