"""Which optimizer statements no real program reaches, and why.

The probe compiles the three applications at every level (200-packet
traces, seed 5) and every ``CORPUS`` program of
``tests/test_endtoend_features.py`` at every level, under a line tracer
limited to ``src/repro/opt``, and counts per function the statements it
never saw run. ``UNREACHED`` pins that table: each row gives the count
and the reason the statements stay. The rule behind it: a whole
mechanism that no program uses is deleted, not listed; one case of a
rule that the programs do reach stays, and is listed.

The unit is a statement of a function body (a nested function's body
counts toward its enclosing one; docstrings and ``pass`` are left out),
read from the module's AST, plus each ``except`` clause. A statement is
reached when a line event fires on one of its own lines -- for a compound
statement, the lines before its body -- or when anything inside it ran.
The AST, unlike a bytecode line table, does not change between Python
versions, and the inside rule covers a header that emits no line event
of its own (``while True:`` on 3.9).

Only compiles are traced, so code that the loader or a serving run calls
and no compile does (the ``runtime`` rows) stays unreached here.

``python -m tests.test_reach`` prints the table.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
import sys
from typing import Dict, List, Set, Tuple

import repro.opt
from repro.apps import all_apps
from repro.compiler import compile_baker
from repro.options import LEVEL_ORDER, options_for

Key = Tuple[str, str]  # (module in repro.opt, function qualname)

#: Why an unreached statement stays.
REASONS = {
    "mutation": "a _TEST_MUTATION hook (tests seed miscompiles through it)",
    "guard": "a refusal, a bound or an explicit error: safety code",
    "case": "one arm of a rule whose other arms real programs reach",
    "item-17": "SWC's section 5.2 paths that no app compile stores through "
               "(ROADMAP item 17)",
    "runtime": "called by the loader or a serving run, never by a compile",
}

#: (module, function) -> {reason: unreached statements}. A function
#: with statements left for two reasons has both.
UNREACHED: Dict[Key, Dict[str, int]] = {
    # A callee's local arrays, cloned under fresh names.
    ("inline", "_inline_one_call"): {"case": 4},
    # An init callee, a caller or callee gone, a recursive call.
    ("inline", "run"): {"guard": 3},
    ("pac", "_byte_coverage_ok"): {"guard": 1},  # a partly stored byte
    ("pac", "_class_epochs"): {"mutation": 2},
    ("pac", "_clobbered"): {"mutation": 1},
    ("pac", "_combine_table_loads"): {"guard": 1},  # records that do not divide
    ("pac", "_edge_facts"): {"guard": 1},  # a single predecessor not a branch
    ("pac", "_form_groups"): {"guard": 2},  # a stale chain; a window out of bounds
    ("pac", "_known_after"): {"case": 1},  # a fold left to run time (EvalError)
    ("pac", "_reaches"): {"case": 1},  # no such path
    ("pac", "_rewrite_load_group"): {"mutation": 2},
    # A hand-on or a redefined value between two stores of one block.
    ("pac", "_sink_clear"): {"guard": 2, "mutation": 1},
    ("pac", "_store_segments"): {"case": 1},  # a wide store's unmasked word
    ("pac", "_thread"): {"guard": 1},  # MAX_THREAD_INSTRS
    ("pac", "normalize_offset"): {"case": 1},  # ``k + x``, the constant first
    ("peel", "_peel"): {"mutation": 1},
    ("peel", "run"): {"guard": 2},  # a function gone; a loop never profiled
    ("phr", "_handle_for_class"): {"guard": 1},
    ("phr", "_localize_metadata"): {"guard": 4},  # metadata kept in SRAM
    ("phr", "_plan_function"): {"guard": 2},  # state left in memory
    ("phr", "_rewrite_instr"): {"mutation": 1},
    ("pipeline", "scalar_optimize_function"): {"guard": 1},  # the fixpoint bound
    ("propagate", "_fold"): {"case": 7},  # division by zero; the identities
    ("propagate", "_walk_block"): {"case": 1},  # a redefined value in the table
    ("soar", "_align_of_offset"): {"case": 1},  # an unknown offset
    ("soar", "run"): {"case": 1},  # a PPF whose producer is not yet seen
    # The Equation-2 rejection.
    ("swc", "_admissible_check_rate"): {"item-17": 2},
    # A resident table stored on an ME; the stores' generation bump.
    ("swc", "apply"): {"guard": 2, "item-17": 5},
    ("swc", "_make_resident_reads"): {"mutation": 1},
    ("swc", "boot_lm_words"): {"runtime": 9},
    # The Equation-2 clamp of the check period.
    ("swc", "enforce_check_period"): {"item-17": 4},
    ("swc", "min_check_rate"): {"guard": 1},
    ("swc", "publish_store"): {"runtime": 7},
    # Flags, critical sections, stores too frequent.
    ("swc", "select_candidates"): {"guard": 5},
}


class _Stmt:
    """One statement: the lines that are its own, and what it contains."""

    __slots__ = ("lines", "children")

    def __init__(self, lines: range, children: List["_Stmt"]):
        self.lines = lines
        self.children = children

    def reached(self, seen: Set[int]) -> bool:
        return (any(line in seen for line in self.lines)
                or any(child.reached(seen) for child in self.children))


def _stmts(nodes) -> List[_Stmt]:
    out = []
    for node in nodes:
        if isinstance(node, (ast.Pass, ast.Global, ast.Nonlocal)) or (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
            continue  # no code, or a docstring
        inner = [n for f in ("body", "orelse", "finalbody")
                 for n in getattr(node, f, [])]
        if inner:  # a compound statement: its own lines come before its body
            start = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", [])])
            lines = range(start, max(node.lineno + 1, node.body[0].lineno))
        else:
            lines = range(node.lineno, node.end_lineno + 1)
        children = _stmts(inner) + [
            _Stmt(range(h.lineno, h.body[0].lineno), _stmts(h.body))
            for h in getattr(node, "handlers", [])]
        out.append(_Stmt(lines, children))
    return out


def _functions(tree: ast.Module) -> Dict[str, List[_Stmt]]:
    """qualname -> the statements of each function (and method) body."""
    found = {}

    def visit(nodes, prefix):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[prefix + node.name] = _stmts(node.body)
            elif isinstance(node, ast.ClassDef):
                visit(node.body, prefix + node.name + ".")

    visit(tree.body, "")
    return found


def _walk(stmts: List[_Stmt]):
    for stmt in stmts:
        yield stmt
        yield from _walk(stmt.children)


def _compiles():
    from tests.test_endtoend_features import CORPUS, default_trace

    for app in all_apps():
        trace = app.make_trace(200, seed=5)
        for level in LEVEL_ORDER:
            compile_baker(app.source, options_for(level), trace)
    for src, trace in CORPUS:
        trace = trace or default_trace()
        for level in LEVEL_ORDER:
            compile_baker(src, options_for(level), trace)


def probe() -> Tuple[Dict[Key, int], int, int]:
    """Compile everything under the tracer: ``(key -> unreached
    statements, for every function with any; statements; unreached)``."""
    modules = {}
    for info in pkgutil.iter_modules(repro.opt.__path__):
        mod = importlib.import_module("repro.opt." + info.name)
        modules[mod.__file__] = info.name
    seen: Dict[str, Set[int]] = {path: set() for path in modules}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename in seen else None

    before = sys.gettrace()
    sys.settrace(calls)
    try:
        _compiles()
    finally:
        sys.settrace(before)

    table, total, missed = {}, 0, 0
    for path, name in sorted(modules.items(), key=lambda item: item[1]):
        with open(path) as f:
            tree = ast.parse(f.read())
        for qualname, stmts in _functions(tree).items():
            all_stmts = list(_walk(stmts))
            m = sum(not stmt.reached(seen[path]) for stmt in all_stmts)
            total, missed = total + len(all_stmts), missed + m
            if m:
                table[(name, qualname)] = m
    return table, total, missed


def test_every_unreached_optimizer_statement_states_its_reason():
    table, _, _ = probe()
    assert all(reason in REASONS for row in UNREACHED.values() for reason in row)
    assert table == {key: sum(row.values()) for key, row in UNREACHED.items()}


if __name__ == "__main__":
    table, total, missed = probe()
    for (module, qualname), n in sorted(table.items()):
        row = UNREACHED.get((module, qualname), {"?": n})
        print("%-9s %-26s %3d  %s" % (module, qualname, n, ", ".join(
            "%s %d" % item for item in sorted(row.items()))))
    print("reached %d of %d statements in repro.opt" % (total - missed, total))
