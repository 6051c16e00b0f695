"""Which compiler statements no real program reaches, and why.

The probe compiles the three applications at every level (200-packet
traces, seed 5) and every ``CORPUS`` program of
``tests/test_endtoend_features.py`` at every level, under a line tracer
limited to every module a compile runs outside ``repro.rts``: the
packages ``baker``, ``ir``, ``profiler``, ``opt``, ``aggregation`` and
``cg``, and the modules ``compiler`` and ``options``. It counts per
function the statements it never saw run. ``UNREACHED`` pins that table, keyed by dotted module
(``("cg.lower", "FunctionLowerer._lower_binop")``): each row gives the
count and the reason the statements stay. The rule behind it: a whole
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

Only compiles are traced, so code that the loader, the simulator or a
serving run calls and no compile does (the ``runtime`` rows), and the
printers behind listings (the ``tool`` rows), stay unreached here. The
probe first empties the caches a compile fills (checked programs,
reference runs, generated interpreter code, folding functions), so the
table does not depend on what the process ran before.

``python -m tests.test_reach`` prints the table.
"""

from __future__ import annotations

import ast
import dis
import importlib
import pkgutil
import sys
from typing import Dict, List, Set, Tuple

import repro.aggregation
import repro.baker
import repro.cg
import repro.compiler
import repro.ir
import repro.opt
import repro.options
import repro.profiler
from repro.ir import eval as ir_eval
from repro.profiler import interpreter
from repro.apps import all_apps
from repro.compiler import compile_baker
from repro.options import LEVEL_ORDER, options_for

Key = Tuple[str, str]  # (dotted module under repro, function qualname)

#: The packages and modules traced.
PACKAGES = (repro.aggregation, repro.baker, repro.cg, repro.ir, repro.opt,
            repro.profiler)
MODULES = (repro.compiler, repro.options)

#: Why an unreached statement stays.
REASONS = {
    "mutation": "a _TEST_MUTATION hook (tests seed miscompiles through it)",
    "guard": "a refusal, a bound or an explicit error: safety code",
    "case": "one arm of a rule whose other arms real programs reach",
    "item-17": "SWC's section 5.2 paths that no app compile stores through "
               "(ROADMAP item 17)",
    "runtime": "called by the loader, the simulator (the XScale interprets "
               "optimized IR), the verifier, the compile cache or a serving "
               "run, never by a compile",
    "tool": "a repr or a printer: text for a person (a listing, a type "
            "named in a diagnostic, a report table, the token stream)",
    "oracle": "the functional reference as tests read it (the sorted Tx, "
              "one IR function called alone)",
    "api": "a default, an override or a spelling that callers around a "
           "compile pass (the CLIs, the ablation benchmarks, tests)",
    "import": "runs when its module is imported, before the probe starts",
}

#: (module, function) -> {reason: unreached statements}. A function
#: with statements left for two reasons has both.
UNREACHED: Dict[Key, Dict[str, int]] = {
    # Both aggregates cold.
    ("aggregation.formation", "_merge_improves"): {"case": 1},
    ("aggregation.formation", "_rate"): {"guard": 1},  # an empty profile
    # A channel with no consumer; one that would close a call cycle.
    ("aggregation.formation", "apply_plan"): {"guard": 4},
    # A merge past the ME code store.
    ("aggregation.formation", "form_aggregates"): {"guard": 5},
    # More pipeline stages than MEs; a stage that costs nothing.
    ("aggregation.throughput", "assign_mes"): {"guard": 1},
    ("aggregation.throughput", "stage_throughput"): {"guard": 1},
    ("aggregation.throughput", "system_throughput"): {"guard": 2},
    # A diagnostic with no location.
    ("baker.errors", "BakerError.format"): {"guard": 1},
    ("baker.errors", "BakerError.kind"): {"guard": 1},
    ("baker.errors", "LexError.kind"): {"guard": 1},
    ("baker.errors", "LoweringError.kind"): {"guard": 1},
    ("baker.errors", "ParseError.kind"): {"guard": 1},
    ("baker.lexer", "Lexer._error"): {"guard": 1},
    ("baker.lexer", "Lexer._lex_char"): {"guard": 3},
    ("baker.lexer", "Lexer._lex_number"): {"guard": 4},
    ("baker.lexer", "Lexer.tokenize"): {"guard": 2},
    # Lexing alone (the token-stream digest).
    ("baker.lexer", "tokenize"): {"tool": 1},
    ("baker.lowering", "_FunctionLowerer._access_path"): {"guard": 3},
    ("baker.lowering", "_FunctionLowerer._error"): {"guard": 1},
    ("baker.lowering", "_FunctionLowerer._lower_binop_values"): {"guard": 2},
    # A statement after return or break.
    ("baker.lowering", "_FunctionLowerer._lower_block"): {"case": 1},
    ("baker.lowering", "_FunctionLowerer._lower_break"): {"guard": 1},
    ("baker.lowering", "_FunctionLowerer._lower_builtin"): {"guard": 1},
    ("baker.lowering", "_FunctionLowerer._lower_continue"): {"guard": 1},
    ("baker.lowering", "_FunctionLowerer._lower_expr"): {"guard": 1},
    ("baker.lowering", "_FunctionLowerer._lower_load_path"): {"guard": 1},
    ("baker.lowering", "_FunctionLowerer._lower_name"): {"guard": 3},
    ("baker.lowering", "_FunctionLowerer._lower_return"): {"guard": 1},
    ("baker.lowering", "_FunctionLowerer._lower_stmt"): {"guard": 1},
    ("baker.lowering", "_FunctionLowerer._lower_unary"): {"guard": 1},
    ("baker.lowering", "_FunctionLowerer._store_lvalue"): {"guard": 1},
    ("baker.parser", "Parser._error"): {"guard": 1},
    ("baker.parser", "Parser._parse_global_or_func"): {"guard": 1},
    ("baker.parser", "Parser._parse_postfix"): {"guard": 1},
    ("baker.parser", "Parser._parse_ppf"): {"guard": 1},
    ("baker.parser", "Parser._parse_primary"): {"guard": 1},
    ("baker.parser", "Parser.expect"): {"guard": 3},
    ("baker.parser", "Parser.parse_module"): {"guard": 1},
    ("baker.parser", "Parser.parse_program"): {"guard": 2},
    ("baker.parser", "Parser.parse_protocol"): {"guard": 1},
    ("baker.parser", "Parser.parse_type"): {"guard": 2},
    ("baker.semantic", "BodyChecker._check_assign"): {"guard": 2},
    ("baker.semantic", "BodyChecker._check_binary"): {"guard": 5},
    ("baker.semantic", "BodyChecker._check_builtin_call"): {"guard": 12},
    ("baker.semantic", "BodyChecker._check_call"): {"guard": 4},
    ("baker.semantic", "BodyChecker._check_condition"): {"guard": 1},
    ("baker.semantic", "BodyChecker._check_expr_inner"): {"guard": 8},
    ("baker.semantic", "BodyChecker._check_index"): {"guard": 2},
    ("baker.semantic", "BodyChecker._check_local_decl"): {"guard": 6},
    ("baker.semantic", "BodyChecker._check_member"): {"guard": 9},
    ("baker.semantic", "BodyChecker._check_name"): {"guard": 5},
    ("baker.semantic", "BodyChecker._check_return"): {"guard": 3},
    ("baker.semantic", "BodyChecker._check_sizeof"): {"guard": 2},
    ("baker.semantic", "BodyChecker._check_ternary"): {"guard": 2},
    ("baker.semantic", "BodyChecker._check_unary"): {"guard": 3},
    ("baker.semantic", "BodyChecker._error"): {"guard": 1},
    ("baker.semantic", "BodyChecker._lookup"): {"guard": 3},
    ("baker.semantic", "BodyChecker.check_stmt"): {"guard": 4},
    ("baker.semantic", "BodyChecker.declare_local"): {"guard": 1},
    ("baker.semantic", "MetadataMarkerType.__str__"): {"tool": 1},
    ("baker.semantic", "SemanticAnalyzer._check_demux"): {"guard": 2},
    ("baker.semantic", "SemanticAnalyzer._check_no_recursion"): {"guard": 3},
    ("baker.semantic", "SemanticAnalyzer._check_wiring"): {"guard": 5},
    ("baker.semantic", "SemanticAnalyzer._declare"): {"guard": 1},
    ("baker.semantic", "SemanticAnalyzer._declare_const"): {"guard": 1},
    ("baker.semantic", "SemanticAnalyzer._declare_func"): {"guard": 4},
    ("baker.semantic", "SemanticAnalyzer._declare_global"): {"guard": 4},
    ("baker.semantic", "SemanticAnalyzer._declare_metadata"): {"guard": 3},
    ("baker.semantic", "SemanticAnalyzer._declare_modules"): {"guard": 1},
    ("baker.semantic", "SemanticAnalyzer._declare_protocols"): {"guard": 4},
    ("baker.semantic", "SemanticAnalyzer._declare_structs"): {"guard": 3},
    ("baker.semantic", "SemanticAnalyzer._error"): {"guard": 1},
    ("baker.semantic", "SemanticAnalyzer._field_type"): {"guard": 2},
    ("baker.semantic", "SemanticAnalyzer._resolve_channel"): {"guard": 1},
    ("baker.semantic", "SemanticAnalyzer._resolve_type"): {"guard": 2},
    # Division by zero; not a constant.
    ("baker.semantic", "_fold"): {"guard": 3},
    ("baker.symbols", "Scope.lookup"): {"guard": 1},
    ("baker.tokens", "Token.__repr__"): {"tool": 3},
    ("baker.types", "ArrayType.__str__"): {"tool": 1},
    ("baker.types", "ChannelType.__str__"): {"tool": 1},
    ("baker.types", "PacketType.__str__"): {"tool": 1},
    ("baker.types", "Protocol.field_by_name"): {"guard": 1},
    ("baker.types", "StructType.__str__"): {"tool": 1},
    ("baker.types", "StructType.field_by_name"): {"guard": 1},
    ("baker.types", "Type.__str__"): {"guard": 1},
    ("baker.types", "Type.size_bytes"): {"guard": 1},
    ("baker.types", "VoidType.__str__"): {"tool": 1},
    ("baker.types", "assignable"): {"guard": 1},
    ("baker.types", "integer_for_bits"): {"guard": 1},
    ("cg.asmprint", "format_insn"): {"tool": 40},
    ("cg.assemble", "MEImage.__getstate__"): {"runtime": 5},
    ("cg.assemble", "MEImage._content"): {"runtime": 3},
    ("cg.assemble", "MEImage.describe"): {"runtime": 1},
    ("cg.assemble", "MEImage.predecoded"): {"runtime": 16},
    # An unresolved branch; the control store; the SRAM stack area.
    ("cg.assemble", "build_image"): {"guard": 3},
    ("cg.isa", "Alu.cycles"): {"runtime": 1},
    ("cg.isa", "Imm.__repr__"): {"tool": 1},
    ("cg.isa", "Immed.cycles"): {"runtime": 1},
    ("cg.isa", "Insn.__repr__"): {"tool": 2},
    ("cg.isa", "LmRead.cycles"): {"runtime": 1},
    ("cg.isa", "LmWrite.cycles"): {"runtime": 1},
    ("cg.isa", "Mem.regs"): {"tool": 1},
    ("cg.isa", "Mem.words"): {"runtime": 1},
    ("cg.isa", "PReg.__repr__"): {"tool": 1},
    ("cg.isa", "SymRef.__repr__"): {"tool": 3},
    ("cg.isa", "VReg.__repr__"): {"tool": 1},
    # Signed 64-bit ordering.
    ("cg.lower", "FunctionLowerer._emit_cmp_branch64"): {"guard": 1},
    # Division; a 32-bit right shift of a 64-bit value.
    ("cg.lower", "FunctionLowerer._lower_binop"): {"guard": 2},
    # A u64 shifted by 0 (mod 64); an operator with no 64-bit lowering.
    ("cg.lower", "FunctionLowerer._lower_binop64"): {"case": 2, "guard": 1},
    ("cg.lower", "FunctionLowerer._lower_terminator"): {"guard": 1},
    ("cg.lower", "FunctionLowerer.lower_instr"): {"guard": 1},
    ("cg.lower", "FunctionLowerer.pair"): {"case": 1},  # a u64 read before its write
    # A word whose one contribution is not yet in a register.
    ("cg.pktlower", "_emit_masked_write"): {"case": 1},
    ("cg.pktlower", "_gather_run_words"): {"case": 1},  # a word past the values
    ("cg.pktlower", "_generic_load_body"): {"case": 3},  # a 64-bit field
    # A 64-bit byte-aligned field.
    ("cg.pktlower", "_generic_store_body"): {"case": 1},
    ("cg.pktlower", "_lower_wide_store"): {"case": 3},  # a run past 24 bytes
    ("cg.pktlower", "_meta_word_write"): {"mutation": 1},
    # A sub-byte field across a word boundary; one ending a word.
    ("cg.pktlower", "_static_field_store"): {"case": 4},
    ("cg.pktlower", "lower_packet_instr"): {"guard": 1},
    # Only reload copies left to spill; allocation that does not converge.
    ("cg.regalloc", "allocate_function"): {"guard": 3},
    ("cg.stack", "_resolve_one"): {"case": 2},  # a constant stored to SRAM
    # The unoptimized layout (stack_opt off, Figure 6's ablation); a
    # function no call reaches.
    ("cg.stack", "layout_frames"): {"case": 2, "guard": 1},
    ("compiler", "compile_baker"): {"api": 2},  # no options; no trace
    # A branch whose two arms are one block.
    ("ir.cfg", "simplify_cfg"): {"case": 2},
    # A block no predecessor has reached yet.
    ("ir.cfg", "solve_forward"): {"case": 1},
    # The root passed without meeting a.
    ("ir.dominators", "DomTree.dominates"): {"case": 1},
    ("ir.dominators", "_build"): {"case": 1},  # an unreachable predecessor
    # Division (the ME has none); division by zero.
    ("ir.eval", "binop_fn"): {"case": 12, "guard": 5},
    ("ir.eval", "cmp_fn"): {"case": 2, "guard": 1},  # a signed ordering
    ("ir.eval", "to_signed"): {"case": 3},  # signed division
    ("ir.instructions", "Instr.__repr__"): {"tool": 2},
    # An instruction that keeps the head.
    ("ir.instructions", "Instr.head_delta"): {"case": 1},
    ("ir.instructions", "PktAdjust.head_delta"): {"case": 1},  # a tail adjust
    ("ir.instructions", "PktWords.bit_off"): {"guard": 1},
    ("ir.module", "BasicBlock.__repr__"): {"tool": 1},
    # An unterminated block.
    ("ir.module", "BasicBlock.successors"): {"guard": 1},
    ("ir.module", "IRFunction.__repr__"): {"tool": 1},
    ("ir.module", "IRModule.__repr__"): {"tool": 1},
    ("ir.printer", "_fmt"): {"tool": 1},
    ("ir.printer", "_soar"): {"tool": 6},
    ("ir.printer", "format_function"): {"tool": 10},
    ("ir.printer", "format_instr"): {"tool": 74},
    ("ir.printer", "format_module"): {"tool": 1},
    ("ir.values", "Const.__repr__"): {"tool": 3},
    ("ir.values", "Temp.__repr__"): {"tool": 1},
    ("ir.verifier", "verify_function"): {"guard": 9},
    # An init callee, a caller or callee gone, a recursive call.
    ("opt.inline", "run"): {"guard": 3},
    ("opt.pac", "_byte_coverage_ok"): {"guard": 1},  # a partly stored byte
    ("opt.pac", "_class_epochs"): {"mutation": 2},
    ("opt.pac", "_clobbered"): {"mutation": 1},
    ("opt.pac", "_combine_table_loads"): {"guard": 1},  # records that do not divide
    ("opt.pac", "_form_groups"): {"guard": 2},  # a stale chain; a window out of bounds
    ("opt.pac", "_reaches"): {"case": 1},  # no such path
    ("opt.pac", "_rewrite_load_group"): {"mutation": 2},
    # A hand-on or a redefined value between two stores of one block.
    ("opt.pac", "_sink_clear"): {"guard": 2, "mutation": 1},
    ("opt.pac", "_store_segments"): {"case": 1},  # a wide store's unmasked word
    ("opt.pac", "normalize_offset"): {"case": 1},  # ``k + x``, the constant first
    ("opt.peel", "_peel"): {"mutation": 1},
    ("opt.peel", "run"): {"guard": 2},  # a function gone; a loop never profiled
    ("opt.phr", "_handle_for_class"): {"guard": 1},
    ("opt.phr", "_localize_metadata"): {"guard": 4},  # metadata kept in SRAM
    ("opt.phr", "_plan_function"): {"guard": 2},  # state left in memory
    ("opt.phr", "_rewrite_instr"): {"mutation": 1},
    ("opt.pipeline", "scalar_optimize_function"): {"guard": 1},  # the fixpoint bound
    ("opt.propagate", "_fold"): {"case": 6},  # division by zero; the identities
    ("opt.propagate", "_walk_block"): {"case": 1},  # a redefined value in the table
    ("opt.soar", "run"): {"case": 1},  # a PPF whose producer is not yet seen
    # The Equation-2 rejection.
    ("opt.swc", "_admissible_check_rate"): {"item-17": 2},
    ("opt.swc", "_make_resident_reads"): {"mutation": 1},
    # A resident table stored on an ME; the stores' generation bump.
    ("opt.swc", "apply"): {"guard": 2, "item-17": 5},
    ("opt.swc", "boot_lm_words"): {"runtime": 9},
    # The Equation-2 clamp of the check period.
    ("opt.swc", "enforce_check_period"): {"item-17": 4},
    ("opt.swc", "min_check_rate"): {"guard": 1},
    ("opt.swc", "publish_store"): {"runtime": 7},
    # Flags, stores too frequent.
    ("opt.swc", "select_candidates"): {"guard": 3},
    ("opt.thread", "_known_after"): {"case": 1},  # a fold left to run time (EvalError)
    ("opt.thread", "_thread"): {"guard": 1},  # MAX_THREAD_INSTRS
    ("options", "CompilerOptions.__post_init__"): {"guard": 1, "import": 1},
    ("options", "_from_level"): {"import": 1},
    # A keyword override (the ablation benchmarks).
    ("options", "options_for"): {"api": 1},
    ("options", "parse_level"): {"api": 2},  # the CLIs' spelling of a level
    ("profiler.hostpackets", "HostPacket.__init__"): {"guard": 1},
    ("profiler.hostpackets", "HostPacket.__repr__"): {"tool": 1},
    ("profiler.hostpackets", "HostPacket._bit"): {"guard": 1},
    ("profiler.hostpackets", "HostPacket.add_tail"): {"guard": 1},
    ("profiler.hostpackets", "HostPacket.decap"): {"guard": 1},
    ("profiler.hostpackets", "HostPacket.encap"): {"guard": 1},
    ("profiler.hostpackets", "HostPacket.load_bytes"): {"runtime": 2},
    # The verifier reads the reference's Tx.
    ("profiler.hostpackets", "HostPacket.payload"): {"runtime": 1},
    ("profiler.hostpackets", "HostPacket.remove_tail"): {"guard": 1},
    ("profiler.hostpackets", "HostPacket.store_bytes"): {"runtime": 2},
    ("profiler.hostpackets", "_byte_window"): {"guard": 1},
    # The loader's boot image.
    ("profiler.interpreter", "GlobalMemory.image"): {"runtime": 1},
    ("profiler.interpreter", "GlobalMemory.load"): {"guard": 1},
    ("profiler.interpreter", "GlobalMemory.on_chip"): {"runtime": 3},
    ("profiler.interpreter", "GlobalMemory.store"): {"guard": 1},
    ("profiler.interpreter", "Interpreter._exec_function"): {"guard": 10},
    ("profiler.interpreter", "Interpreter.call"): {"oracle": 1},
    ("profiler.interpreter", "Interpreter.run_trace"): {"guard": 1},
    ("profiler.interpreter", "SystemResult.tx_payloads"): {"oracle": 1},
    ("profiler.interpreter", "SystemResult.tx_signature"): {"oracle": 1},
    ("profiler.interpreter", "_Source.arm"): {"guard": 2},
    ("profiler.interpreter", "_Source.generic"): {"runtime": 1},
    # A branch on a constant.
    ("profiler.interpreter", "_Source.terminator"): {"case": 2, "guard": 1},
    ("profiler.interpreter", "_emit_binop"): {"case": 1},  # ashr, div, rem
    # A signed ordering; ordered handles.
    ("profiler.interpreter", "_emit_cmp"): {"case": 2, "guard": 1},
    ("profiler.interpreter", "_emit_local"): {"guard": 1},
    ("profiler.interpreter", "_load_g_words"): {"runtime": 3},
    ("profiler.interpreter", "_pkt_load_words"): {"runtime": 2},
    ("profiler.interpreter", "_pkt_store_words"): {"runtime": 5},
    ("profiler.interpreter", "_pkt_sync_head"): {"runtime": 3},
    # An empty profile.
    ("profiler.stats", "ProfileData.channel_utilization"): {"guard": 1},
    # The compile report's table.
    ("profiler.stats", "ProfileData.hot_lines"): {"tool": 2},
    # An empty profile.
    ("profiler.stats", "ProfileData.invocation_rate"): {"guard": 1},
    # An empty profile.
    ("profiler.stats", "ProfileData.ppf_weight"): {"guard": 1},
    ("profiler.trace", "Trace.repeated"): {"runtime": 5},
    ("profiler.trace", "build_ipv4"): {"guard": 1},
    ("profiler.trace", "ipv4_trace"): {"case": 3},  # ARP frames (arp_fraction)
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
    modules = {mod.__file__: mod.__name__[len("repro."):] for mod in MODULES}
    for package in PACKAGES:
        for info in pkgutil.iter_modules(package.__path__):
            mod = importlib.import_module(package.__name__ + "." + info.name)
            modules[mod.__file__] = mod.__name__[len("repro."):]
    seen: Dict[str, Set[int]] = {path: set() for path in modules}
    # id(code) -> the lines of a traced code object that no event has
    # reported yet. Once none is left, its frames run untraced: that
    # takes the hot loops of the front end and the IR off the tracer.
    # (Every traced code object exists before tracing starts, so no id
    # is reused among them.)
    left: Dict[int, Set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
            lines = left[id(frame.f_code)]
            lines.discard(frame.f_lineno)
            if not lines:
                return None
        return local

    def calls(frame, event, arg):
        code = frame.f_code
        lines = left.get(id(code))
        if lines is None:
            lines = left[id(code)] = set()
            if code.co_filename in seen:
                lines.update(line for _, line in dis.findlinestarts(code)
                             if line is not None)
                if len(lines) > 1:  # no line event reports the def line
                    lines.discard(code.co_firstlineno)
        return local if lines else None

    # A hit in a cache that a compile fills skips the work behind it, so
    # every such cache starts empty: the table must not depend on what
    # the process ran before.
    for cached in (repro.baker._checked, interpreter._code_of,
                   ir_eval.binop_fn, ir_eval.cmp_fn):
        cached.cache_clear()
    interpreter._reference_runs.clear()
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
        print("%-22s %-34s %3d  %s" % (module, qualname, n, ", ".join(
            "%s %d" % item for item in sorted(row.items()))))
    print("reached %d of %d statements in %s" % (
        total - missed, total,
        ", ".join(p.__name__ for p in PACKAGES + MODULES)))
