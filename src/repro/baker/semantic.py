"""Semantic analysis for Baker.

Responsibilities (paper front-end, Figure 5 "Parse Baker"):

* resolve and lay out protocols (bit offsets, demux expressions),
  structs and the metadata block;
* build symbol tables for consts, globals, functions, PPFs and channels;
* type-check every function and PPF body;
* wiring analysis: every channel has exactly one consumer PPF
  (channels are point-to-point FIFOs) and producers are recorded;
* enforce Baker's restrictions: no recursion, no pointer typecasts
  (pointers exist only as packet handles), ``channel_put`` only inside
  PPFs, critical sections explicitly named.

The result is a :class:`CheckedProgram`, the input to IR lowering.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Set, Tuple

from repro.baker import ast
from repro.baker import types as T
from repro.baker.builtins import BUILTINS, Builtin
from repro.baker.errors import SemanticError
from repro.baker.packetmodel import BUILTIN_META_FIELDS, META_USER_BASE
from repro.baker.symbols import (
    ChannelSymbol,
    ConstSymbol,
    FuncSymbol,
    GlobalSymbol,
    LocalSymbol,
    PpfSymbol,
    ProtocolSymbol,
    Scope,
    Symbol,
    SymbolKind,
)
from repro.cg.abi import ARG_REGS
from repro.ir.eval import EvalError, binop_fn, cmp_fn

# Sentinel type given to `ph->meta` so that `.field` can be checked.
@dataclass(frozen=True)
class MetadataMarkerType(T.Type):
    def __str__(self) -> str:
        return "<metadata>"


METADATA_MARKER = MetadataMarkerType()

BUILTIN_CHANNELS = ("rx", "tx")


@dataclass
class MetaFieldInfo:
    """A resolved metadata field: its value type and word offset within the
    packet metadata block."""

    name: str
    type: T.Type
    word_offset: int
    builtin: bool = False


@dataclass(eq=False)
class CheckedProgram:
    """The output of semantic analysis: the AST plus resolved tables.

    Compared and hashed by identity: ``repro.baker.parse_and_check``
    hands out one shared object per text and filename, and the profiler
    keeps reference runs per object."""

    program: ast.Program
    protocols: Dict[str, T.Protocol] = dc_field(default_factory=dict)
    structs: Dict[str, T.StructType] = dc_field(default_factory=dict)
    meta_fields: Dict[str, MetaFieldInfo] = dc_field(default_factory=dict)
    meta_words: int = META_USER_BASE
    consts: Dict[str, ConstSymbol] = dc_field(default_factory=dict)
    globals: Dict[str, GlobalSymbol] = dc_field(default_factory=dict)
    funcs: Dict[str, FuncSymbol] = dc_field(default_factory=dict)
    ppfs: Dict[str, PpfSymbol] = dc_field(default_factory=dict)
    channels: Dict[str, ChannelSymbol] = dc_field(default_factory=dict)
    inits: List[ast.InitDecl] = dc_field(default_factory=list)
    locks: List[str] = dc_field(default_factory=list)


class SemanticAnalyzer:
    def __init__(self, program: ast.Program):
        self.program = program
        self.checked = CheckedProgram(program=program)
        self.program_scope = Scope(name="<program>")
        self.module_scopes: Dict[str, Scope] = {}
        self._call_edges: Dict[str, Set[str]] = {}
        self._locks: Set[str] = set()

    # -- public entry --------------------------------------------------------

    def analyze(self) -> CheckedProgram:
        self._declare_protocols()
        self._declare_structs()
        self._declare_metadata()
        self._declare_builtin_channels()
        self._declare_program_items()
        self._declare_modules()
        self._check_function_bodies()
        self._check_wiring()
        self._check_no_recursion()
        self.checked.locks = sorted(self._locks)
        return self.checked

    # -- errors ----------------------------------------------------------------

    def _error(self, message: str, node) -> SemanticError:
        return SemanticError(message, getattr(node, "loc", None))

    # -- declarations ------------------------------------------------------------

    def _declare(self, scope: Scope, symbol: Symbol, node) -> None:
        prev = scope.declare(symbol)
        if prev is not None:
            raise self._error("duplicate declaration of %r" % symbol.name, node)

    def _declare_protocols(self) -> None:
        for decl in self.program.protocols:
            if decl.name in self.checked.protocols:
                raise self._error("duplicate protocol %r" % decl.name, decl)
            proto = T.Protocol(name=decl.name)
            seen: Set[str] = set()
            for fdecl in decl.fields:
                if fdecl.name in seen:
                    raise self._error(
                        "duplicate field %r in protocol %r" % (fdecl.name, decl.name), fdecl
                    )
                if not (1 <= fdecl.width_bits <= 64):
                    raise self._error(
                        "field %r width must be 1..64 bits" % fdecl.name, fdecl
                    )
                seen.add(fdecl.name)
                proto.fields.append(T.ProtocolField(fdecl.name, fdecl.width_bits))
            proto.assign_offsets()
            if decl.demux is None:
                raise self._error("protocol %r is missing a demux clause" % decl.name, decl)
            proto.demux_expr = decl.demux
            self._check_demux(proto, decl.demux)
            proto.demux_const_bytes = self._try_fold_demux(proto, decl.demux)
            self.checked.protocols[decl.name] = proto
            self._declare(
                self.program_scope,
                ProtocolSymbol(SymbolKind.PROTOCOL, decl.name, loc=decl.loc, protocol=proto),
                decl,
            )

    def _check_demux(self, proto: T.Protocol, expr: ast.Expr) -> None:
        """Demux expressions may reference only the protocol's own fields and
        integer arithmetic (not the short-circuit ``&&`` / ``||``)."""
        if isinstance(expr, ast.IntLit):
            expr.type = T.U32
            return
        if isinstance(expr, ast.Name):
            if expr.qualifier is not None or proto.field_by_name(expr.ident) is None:
                raise self._error(
                    "demux of protocol %r may only reference its own fields" % proto.name, expr
                )
            expr.type = proto.field_by_name(expr.ident).value_type
            return
        if isinstance(expr, ast.Binary) and expr.op not in ("&&", "||"):
            self._check_demux(proto, expr.left)
            self._check_demux(proto, expr.right)
            expr.type = T.U32
            return
        if isinstance(expr, ast.Unary) and expr.op in ("-", "~"):
            self._check_demux(proto, expr.operand)
            expr.type = T.U32
            return
        raise self._error("unsupported construct in demux expression", expr)

    def _try_fold_demux(self, proto: T.Protocol, expr: ast.Expr) -> Optional[int]:
        try:
            return eval_const_expr(expr, {})
        except SemanticError:
            return None

    def _resolve_type(self, texpr: ast.TypeExpr) -> T.Type:
        if texpr.is_packet:
            if texpr.name not in self.checked.protocols:
                raise self._error("unknown protocol %r" % texpr.name, texpr)
            return T.PacketType(texpr.name)
        base = T.BASE_TYPES.get(texpr.name)
        if base is not None:
            return base
        struct = self.checked.structs.get(texpr.name)
        if struct is not None:
            return struct
        raise self._error("unknown type %r" % texpr.name, texpr)

    def _field_type(self, fdecl: ast.VarFieldDecl) -> T.Type:
        base = self._resolve_type(fdecl.type_expr)
        if base.is_void or base.is_packet or isinstance(base, T.ChannelType):
            raise self._error("invalid field type %s" % base, fdecl)
        if fdecl.array_len is not None:
            if fdecl.array_len <= 0:
                raise self._error("array length must be positive", fdecl)
            return T.ArrayType(base, fdecl.array_len)
        return base

    def _declare_structs(self) -> None:
        # Two passes so structs may contain earlier-declared structs.
        for decl in self.program.structs:
            if decl.name in self.checked.structs or decl.name in T.BASE_TYPES:
                raise self._error("duplicate struct %r" % decl.name, decl)
            struct = T.StructType(name=decl.name)
            self.checked.structs[decl.name] = struct
            self._declare(
                self.program_scope,
                Symbol(SymbolKind.STRUCT, decl.name, loc=decl.loc),
                decl,
            )
        for decl in self.program.structs:
            struct = self.checked.structs[decl.name]
            seen: Set[str] = set()
            for fdecl in decl.fields:
                if fdecl.name in seen:
                    raise self._error(
                        "duplicate field %r in struct %r" % (fdecl.name, decl.name), fdecl
                    )
                seen.add(fdecl.name)
                ftype = self._field_type(fdecl)
                if ftype == struct:
                    raise self._error("struct %r contains itself" % decl.name, fdecl)
                struct.fields.append(T.StructField(fdecl.name, ftype))
            T.layout_struct(struct)

    def _declare_metadata(self) -> None:
        for name, word in BUILTIN_META_FIELDS.items():
            self.checked.meta_fields[name] = MetaFieldInfo(name, T.U32, word, builtin=True)
        decl = self.program.metadata
        word = META_USER_BASE
        if decl is not None:
            for fdecl in decl.fields:
                if fdecl.name in self.checked.meta_fields:
                    raise self._error("duplicate metadata field %r" % fdecl.name, fdecl)
                ftype = self._field_type(fdecl)
                if not ftype.is_scalar:
                    raise self._error("metadata fields must be scalar", fdecl)
                if isinstance(ftype, T.IntType) and ftype.bits > 32:
                    raise self._error("metadata fields must fit one word (<= 32 bits)", fdecl)
                self.checked.meta_fields[fdecl.name] = MetaFieldInfo(fdecl.name, ftype, word)
                word += ftype.size_words()
        self.checked.meta_words = word

    def _declare_builtin_channels(self) -> None:
        for name in BUILTIN_CHANNELS:
            sym = ChannelSymbol(
                SymbolKind.CHANNEL, name, type=T.CHANNEL, builtin=True, qualified=name
            )
            self.program_scope.declare(sym)
            self.checked.channels[name] = sym

    def _declare_program_items(self) -> None:
        for cdecl in self.program.consts:
            self._declare_const(cdecl, self.program_scope, module=None)
        for gdecl in self.program.globals:
            self._declare_global(gdecl, self.program_scope, module=None)
        for fdecl in self.program.funcs:
            self._declare_func(fdecl, self.program_scope, module=None)

    def _const_env(self, module: Optional[str]) -> Dict[str, ConstSymbol]:
        """The consts a constant expression in ``module`` may name: every
        one declared so far by its qualified name, and the module's own
        unqualified too."""
        env = dict(self.checked.consts)
        if module:
            prefix = module + "."
            for name, sym in self.checked.consts.items():
                if name.startswith(prefix):
                    env.setdefault(name[len(prefix) :], sym)
        return env

    def _declare_const(self, decl: ast.ConstDecl, scope: Scope, module: Optional[str]) -> None:
        ctype = self._resolve_type(decl.type_expr)
        if not ctype.is_scalar:
            raise self._error("const must have scalar type", decl)
        value = eval_const_expr(decl.value, self._const_env(module))
        qualified = "%s.%s" % (module, decl.name) if module else decl.name
        sym = ConstSymbol(
            SymbolKind.CONST, decl.name, type=ctype, loc=decl.loc, qualified=qualified, value=value
        )
        self._declare(scope, sym, decl)
        self.checked.consts[qualified] = sym
        decl_value = ast.IntLit(loc=decl.loc, value=value)
        decl_value.type = ctype
        decl.value = decl_value

    def _declare_global(self, decl: ast.GlobalDecl, scope: Scope, module: Optional[str]) -> None:
        base = self._resolve_type(decl.type_expr)
        if base.is_void or isinstance(base, T.ChannelType) or base.is_packet:
            raise self._error("invalid global type %s" % base, decl)
        gtype: T.Type = base
        if decl.array_len is not None:
            if decl.array_len <= 0:
                raise self._error("array length must be positive", decl)
            gtype = T.ArrayType(base, decl.array_len)
        init_values = None
        if decl.init is not None:
            env = self._const_env(module)
            values = [eval_const_expr(e, env) for e in decl.init]
            if decl.array_len is None:
                if len(values) != 1:
                    raise self._error("scalar global takes a single initializer", decl)
            elif len(values) > decl.array_len:
                raise self._error("too many initializers", decl)
            init_values = values
        qualified = "%s.%s" % (module, decl.name) if module else decl.name
        sym = GlobalSymbol(
            SymbolKind.GLOBAL,
            decl.name,
            type=gtype,
            loc=decl.loc,
            qualified=qualified,
            shared=decl.shared,
            module=module,
            init_values=init_values,
        )
        self._declare(scope, sym, decl)
        self.checked.globals[qualified] = sym

    def _declare_func(self, decl: ast.FuncDecl, scope: Scope, module: Optional[str]) -> None:
        ret = self._resolve_type(decl.ret_type)
        if isinstance(ret, T.StructType):
            raise self._error(
                "%s returns %s: struct return values are not supported"
                % (decl.name, ret), decl)
        params = []
        for p in decl.params:
            ptype = self._resolve_type(p.type_expr)
            if ptype.is_void:
                raise self._error("parameter cannot be void", p)
            if isinstance(ptype, T.StructType):
                raise self._error(
                    "parameter %r has type %s: struct parameters are not "
                    "supported" % (p.name, ptype), p)
            params.append(ptype)
        words = sum(2 if isinstance(t, T.IntType) and t.bits > 32 else 1
                    for t in params)
        if words > len(ARG_REGS):
            raise self._error(
                "%s takes %d argument words; a call passes at most %d "
                "(a 64-bit parameter takes two)" % (decl.name, words, len(ARG_REGS)),
                decl)
        qualified = "%s.%s" % (module, decl.name) if module else decl.name
        sym = FuncSymbol(
            SymbolKind.FUNC,
            decl.name,
            loc=decl.loc,
            qualified=qualified,
            param_types=params,
            ret_type=ret,
            module=module,
            decl=decl,
        )
        self._declare(scope, sym, decl)
        self.checked.funcs[qualified] = sym

    def _declare_modules(self) -> None:
        for mdecl in self.program.modules:
            if mdecl.name in self.module_scopes:
                raise self._error("duplicate module %r" % mdecl.name, mdecl)
            scope = Scope(parent=self.program_scope, name=mdecl.name)
            self.module_scopes[mdecl.name] = scope
            self._declare(
                self.program_scope,
                Symbol(SymbolKind.MODULE, mdecl.name, loc=mdecl.loc),
                mdecl,
            )
            for chdecl in mdecl.channels:
                for name in chdecl.names:
                    qualified = "%s.%s" % (mdecl.name, name)
                    sym = ChannelSymbol(
                        SymbolKind.CHANNEL,
                        name,
                        type=T.CHANNEL,
                        loc=chdecl.loc,
                        qualified=qualified,
                        module=mdecl.name,
                    )
                    self._declare(scope, sym, chdecl)
                    self.checked.channels[qualified] = sym
            for cdecl in mdecl.consts:
                self._declare_const(cdecl, scope, module=mdecl.name)
            for gdecl in mdecl.globals:
                self._declare_global(gdecl, scope, module=mdecl.name)
            for fdecl in mdecl.funcs:
                self._declare_func(fdecl, scope, module=mdecl.name)
            for pdecl in mdecl.ppfs:
                ptype = self._resolve_type(pdecl.param_type)
                qualified = "%s.%s" % (mdecl.name, pdecl.name)
                sym = PpfSymbol(
                    SymbolKind.PPF,
                    pdecl.name,
                    type=ptype,
                    loc=pdecl.loc,
                    qualified=qualified,
                    module=mdecl.name,
                    decl=pdecl,
                )
                self._declare(scope, sym, pdecl)
                self.checked.ppfs[qualified] = sym
            self.checked.inits.extend(mdecl.inits)

    # -- wiring -----------------------------------------------------------------

    def _resolve_channel(self, ref: str, module: Optional[str], node) -> ChannelSymbol:
        if "." in ref:
            sym = self.checked.channels.get(ref)
        else:
            sym = None
            if module is not None:
                sym = self.checked.channels.get("%s.%s" % (module, ref))
            if sym is None:
                sym = self.checked.channels.get(ref)
        if sym is None:
            raise self._error("unknown channel %r" % ref, node)
        return sym

    def _check_wiring(self) -> None:
        for qualified, ppf in self.checked.ppfs.items():
            decl: ast.PpfDecl = ppf.decl  # type: ignore[assignment]
            for ref in decl.from_channels:
                chan = self._resolve_channel(ref, ppf.module, decl)
                if chan.name == "tx":
                    raise self._error("PPFs may not consume from 'tx'", decl)
                if chan.consumer is not None:
                    raise self._error(
                        "channel %r already consumed by %r (channels are point-to-point)"
                        % (chan.qualified, chan.consumer),
                        decl,
                    )
                chan.consumer = qualified
                ppf.input_channels.append(chan.qualified)
        rx = self.checked.channels["rx"]
        if rx.consumer is None:
            raise self._error("no PPF consumes the builtin 'rx' channel", self.program)
        for chan in self.checked.channels.values():
            if chan.name == "tx" or chan.builtin:
                continue
            if chan.consumer is None:
                raise self._error("channel %r has no consumer PPF" % chan.qualified, self.program)
        # Producer type consistency: each channel_put's packet type must be
        # acceptable to the consumer's parameter protocol.
        for chan in self.checked.channels.values():
            if chan.consumer is None:
                continue
            consumer = self.checked.ppfs[chan.consumer]
            expected: T.PacketType = consumer.type  # type: ignore[assignment]
            for put_type in chan.put_types:
                if not T.assignable(expected, put_type):
                    raise self._error(
                        "channel %r carries %s but consumer %r expects %s"
                        % (chan.qualified, put_type, chan.consumer, expected),
                        consumer.decl,
                    )

    # -- bodies -----------------------------------------------------------------

    def _check_function_bodies(self) -> None:
        for fsym in self.checked.funcs.values():
            decl: ast.FuncDecl = fsym.decl  # type: ignore[assignment]
            scope = self._function_scope(fsym.module)
            checker = BodyChecker(self, fsym.qualified, fsym.ret_type, fsym.module, scope)
            for p, ptype in zip(decl.params, fsym.param_types):
                p.symbol = checker.declare_local(p.name, ptype, p, is_param=True)
            checker.check_block(decl.body)
        for psym in self.checked.ppfs.values():
            decl: ast.PpfDecl = psym.decl  # type: ignore[assignment]
            scope = self._function_scope(psym.module)
            checker = BodyChecker(
                self, psym.qualified, T.VOID, psym.module, scope, is_ppf=True
            )
            decl.param_symbol = checker.declare_local(  # type: ignore[attr-defined]
                decl.param_name, psym.type, decl, is_param=True
            )
            checker.check_block(decl.body)
        for idecl in self.checked.inits:
            scope = self._function_scope(idecl.module)
            checker = BodyChecker(
                self, "%s.<init>" % idecl.module, T.VOID, idecl.module, scope, is_init=True
            )
            checker.check_block(idecl.body)

    def _function_scope(self, module: Optional[str]) -> Scope:
        parent = self.module_scopes.get(module, self.program_scope) if module else self.program_scope
        return Scope(parent=parent, name="<function>")

    # -- recursion check ----------------------------------------------------------

    def record_call(self, caller: str, callee: str) -> None:
        self._call_edges.setdefault(caller, set()).add(callee)

    def _check_no_recursion(self) -> None:
        WHITE, GRAY, BLACK = 0, 1, 2
        color: Dict[str, int] = {}

        def visit(node: str, stack: List[str]) -> None:
            color[node] = GRAY
            stack.append(node)
            for succ in sorted(self._call_edges.get(node, ())):
                c = color.get(succ, WHITE)
                if c == GRAY:
                    cycle = " -> ".join(stack[stack.index(succ) :] + [succ])
                    sym = self.checked.funcs.get(succ)
                    raise SemanticError(
                        "recursion is not supported in Baker (cycle: %s)" % cycle,
                        sym.loc if sym else None,
                    )
                if c == WHITE:
                    visit(succ, stack)
            stack.pop()
            color[node] = BLACK

        for name in list(self._call_edges):
            if color.get(name, WHITE) == WHITE:
                visit(name, [])


class BodyChecker:
    """Type checker for one function / PPF / init body."""

    def __init__(
        self,
        analyzer: SemanticAnalyzer,
        owner: str,
        ret_type: T.Type,
        module: Optional[str],
        scope: Scope,
        is_ppf: bool = False,
        is_init: bool = False,
    ):
        self.analyzer = analyzer
        self.checked = analyzer.checked
        self.owner = owner
        self.ret_type = ret_type
        self.module = module
        self.scope = scope
        self.is_ppf = is_ppf
        self.is_init = is_init
        self.loop_depth = 0
        self.critical_depth = 0

    def _error(self, message: str, node) -> SemanticError:
        return SemanticError(message, getattr(node, "loc", None))

    # -- declarations ----------------------------------------------------------

    def declare_local(self, name: str, type_: T.Type, node, is_param: bool = False) -> LocalSymbol:
        sym = LocalSymbol(
            SymbolKind.PARAM if is_param else SymbolKind.LOCAL,
            name,
            type=type_,
            loc=getattr(node, "loc", None),
        )
        if self.scope.lookup_local(name) is not None:
            raise self._error("duplicate local %r" % name, node)
        self.scope.declare(sym)
        return sym

    # -- statements ----------------------------------------------------------------

    def check_block(self, block: ast.Block) -> None:
        saved = self.scope
        self.scope = Scope(parent=saved)
        for stmt in block.stmts:
            self.check_stmt(stmt)
        self.scope = saved

    def check_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self.check_block(stmt)
        elif isinstance(stmt, ast.LocalDecl):
            self._check_local_decl(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self.check_expr(stmt.expr)
        elif isinstance(stmt, ast.Assign):
            self._check_assign(stmt)
        elif isinstance(stmt, ast.If):
            self._check_condition(stmt.cond)
            self.check_stmt(stmt.then)
            if stmt.otherwise is not None:
                self.check_stmt(stmt.otherwise)
        elif isinstance(stmt, ast.While):
            self._check_condition(stmt.cond)
            self.loop_depth += 1
            self.check_stmt(stmt.body)
            self.loop_depth -= 1
        elif isinstance(stmt, ast.DoWhile):
            self.loop_depth += 1
            self.check_stmt(stmt.body)
            self.loop_depth -= 1
            self._check_condition(stmt.cond)
        elif isinstance(stmt, ast.For):
            saved = self.scope
            self.scope = Scope(parent=saved)
            if stmt.init is not None:
                self.check_stmt(stmt.init)
            if stmt.cond is not None:
                self._check_condition(stmt.cond)
            if stmt.step is not None:
                self.check_stmt(stmt.step)
            self.loop_depth += 1
            self.check_stmt(stmt.body)
            self.loop_depth -= 1
            self.scope = saved
        elif isinstance(stmt, ast.Return):
            self._check_return(stmt)
        elif isinstance(stmt, ast.Break):
            if self.loop_depth == 0:
                raise self._error("'break' outside a loop", stmt)
        elif isinstance(stmt, ast.Continue):
            if self.loop_depth == 0:
                raise self._error("'continue' outside a loop", stmt)
        elif isinstance(stmt, ast.Critical):
            if self.critical_depth > 0:
                raise self._error("critical sections may not nest", stmt)
            self.analyzer._locks.add(stmt.lock_name)
            self.critical_depth += 1
            self.check_stmt(stmt.body)
            self.critical_depth -= 1
        else:  # pragma: no cover - parser produces no other statements
            raise self._error("unsupported statement", stmt)

    def _check_local_decl(self, stmt: ast.LocalDecl) -> None:
        base = self.analyzer._resolve_type(stmt.type_expr)
        if base.is_void or isinstance(base, T.ChannelType):
            raise self._error("invalid local type %s" % base, stmt)
        if isinstance(base, T.StructType) and stmt.array_len is None:
            raise self._error(
                "local %r has type %s: struct locals are not supported "
                "(struct arrays and globals are)" % (stmt.name, base), stmt)
        ltype: T.Type = base
        if stmt.array_len is not None:
            if base.is_packet:
                raise self._error("arrays of packet handles are not supported", stmt)
            if stmt.array_len <= 0:
                raise self._error("array length must be positive", stmt)
            ltype = T.ArrayType(base, stmt.array_len)
            if stmt.init is not None:
                raise self._error("array locals cannot have initializers", stmt)
        if stmt.init is not None:
            itype = self.check_expr(stmt.init)
            if not T.assignable(ltype, itype):
                raise self._error("cannot initialize %s from %s" % (ltype, itype), stmt)
        stmt.symbol = self.declare_local(stmt.name, ltype, stmt)

    def _check_condition(self, expr: ast.Expr) -> None:
        ctype = self.check_expr(expr)
        if not ctype.is_scalar:
            raise self._error("condition must be scalar, got %s" % ctype, expr)

    def _check_return(self, stmt: ast.Return) -> None:
        if self.ret_type.is_void:
            if stmt.value is not None:
                raise self._error("void function cannot return a value", stmt)
            return
        if stmt.value is None:
            raise self._error("non-void function must return a value", stmt)
        vtype = self.check_expr(stmt.value)
        if not T.assignable(self.ret_type, vtype):
            raise self._error("cannot return %s from %s function" % (vtype, self.ret_type), stmt)

    def _check_assign(self, stmt: ast.Assign) -> None:
        ttype = self.check_expr(stmt.target, lvalue=True)
        vtype = self.check_expr(stmt.value)
        if stmt.op is not None:
            if not (ttype.is_scalar and vtype.is_scalar):
                raise self._error("compound assignment requires scalar operands", stmt)
        if not T.assignable(ttype, vtype):
            raise self._error("cannot assign %s to %s" % (vtype, ttype), stmt)

    # -- expressions ----------------------------------------------------------------

    def check_expr(self, expr: ast.Expr, lvalue: bool = False) -> T.Type:
        result = self._check_expr_inner(expr, lvalue)
        expr.type = result
        return result

    def _check_expr_inner(self, expr: ast.Expr, lvalue: bool) -> T.Type:
        if isinstance(expr, ast.IntLit):
            if lvalue:
                raise self._error("literal is not assignable", expr)
            return T.U64 if expr.value > 0xFFFFFFFF else T.U32
        if isinstance(expr, ast.BoolLit):
            if lvalue:
                raise self._error("literal is not assignable", expr)
            return T.BOOL
        if isinstance(expr, ast.Name):
            return self._check_name(expr, lvalue)
        if isinstance(expr, ast.Unary):
            return self._check_unary(expr, lvalue)
        if isinstance(expr, ast.Binary):
            return self._check_binary(expr, lvalue)
        if isinstance(expr, ast.Ternary):
            return self._check_ternary(expr, lvalue)
        if isinstance(expr, ast.Cast):
            if lvalue:
                raise self._error("cast is not assignable", expr)
            target = self.analyzer._resolve_type(expr.target)
            if not target.is_scalar:
                raise self._error("casts may only target scalar types", expr)
            otype = self.check_expr(expr.operand)
            if not otype.is_scalar:
                raise self._error("cannot cast %s to %s" % (otype, target), expr)
            return target
        if isinstance(expr, ast.SizeofExpr):
            if lvalue:
                raise self._error("sizeof is not assignable", expr)
            return self._check_sizeof(expr)
        if isinstance(expr, ast.Call):
            if lvalue:
                raise self._error("call result is not assignable", expr)
            return self._check_call(expr)
        if isinstance(expr, ast.Index):
            return self._check_index(expr)
        if isinstance(expr, ast.Member):
            return self._check_member(expr, lvalue)
        raise self._error("unsupported expression", expr)

    def _check_sizeof(self, expr: ast.SizeofExpr) -> T.Type:
        proto = self.checked.protocols.get(expr.name)
        if proto is not None:
            if proto.demux_const_bytes is None:
                raise self._error(
                    "sizeof(%s): protocol has a packet-dependent size" % expr.name, expr
                )
            expr.value = proto.demux_const_bytes  # type: ignore[attr-defined]
            return T.U32
        struct = self.checked.structs.get(expr.name)
        if struct is not None:
            expr.value = struct.size_bytes()  # type: ignore[attr-defined]
            return T.U32
        base = T.BASE_TYPES.get(expr.name)
        if base is not None and not base.is_void:
            expr.value = base.size_bytes()  # type: ignore[attr-defined]
            return T.U32
        raise self._error("sizeof: unknown type or protocol %r" % expr.name, expr)

    def _check_name(self, expr: ast.Name, lvalue: bool) -> T.Type:
        sym = self._lookup(expr.ident, expr.qualifier, expr)
        expr.symbol = sym
        if sym.kind is SymbolKind.CONST:
            if lvalue:
                raise self._error("const %r is not assignable" % expr.ident, expr)
            return sym.type
        if sym.kind in (SymbolKind.LOCAL, SymbolKind.PARAM):
            if lvalue and isinstance(sym.type, T.ArrayType):
                raise self._error("array %r is not assignable as a whole" % expr.ident, expr)
            return sym.type
        if sym.kind is SymbolKind.GLOBAL:
            if self.is_ppf or not self.is_init:
                pass  # all code may read/write globals; SWC handles caching
            if lvalue and isinstance(sym.type, T.ArrayType):
                raise self._error("array %r is not assignable as a whole" % expr.ident, expr)
            return sym.type
        if sym.kind is SymbolKind.CHANNEL:
            if lvalue:
                raise self._error("channel is not assignable", expr)
            return T.CHANNEL
        raise self._error("%r cannot be used as a value" % expr.ident, expr)

    def _lookup(self, ident: str, qualifier: Optional[str], node) -> Symbol:
        if qualifier is not None:
            scope = self.analyzer.module_scopes.get(qualifier)
            if scope is None:
                raise self._error("unknown module %r" % qualifier, node)
            sym = scope.lookup_local(ident)
            if sym is None:
                raise self._error("module %r has no member %r" % (qualifier, ident), node)
            return sym
        sym = self.scope.lookup(ident)
        if sym is None:
            raise self._error("undeclared identifier %r" % ident, node)
        return sym

    def _check_unary(self, expr: ast.Unary, lvalue: bool) -> T.Type:
        if lvalue:
            raise self._error("expression is not assignable", expr)
        otype = self.check_expr(expr.operand)
        if expr.op == "!":
            if not otype.is_scalar:
                raise self._error("'!' requires a scalar operand", expr)
            return T.BOOL
        if not otype.is_scalar:
            raise self._error("unary %r requires an integer operand" % expr.op, expr)
        return T.common_arith_type(otype, otype)

    def _check_binary(self, expr: ast.Binary, lvalue: bool) -> T.Type:
        if lvalue:
            raise self._error("expression is not assignable", expr)
        ltype = self.check_expr(expr.left)
        rtype = self.check_expr(expr.right)
        op = expr.op
        if op in ("&&", "||"):
            if not (ltype.is_scalar and rtype.is_scalar):
                raise self._error("%r requires scalar operands" % op, expr)
            return T.BOOL
        if op in ("==", "!="):
            if ltype.is_packet and rtype.is_packet:
                return T.BOOL
            if ltype.is_scalar and rtype.is_scalar:
                return T.BOOL
            raise self._error("cannot compare %s with %s" % (ltype, rtype), expr)
        if op in ("<", "<=", ">", ">="):
            if not (ltype.is_scalar and rtype.is_scalar):
                raise self._error("cannot compare %s with %s" % (ltype, rtype), expr)
            return T.BOOL
        if not (ltype.is_scalar and rtype.is_scalar):
            raise self._error("operator %r requires integer operands" % op, expr)
        return T.common_arith_type(ltype, rtype)

    def _check_ternary(self, expr: ast.Ternary, lvalue: bool) -> T.Type:
        if lvalue:
            raise self._error("expression is not assignable", expr)
        self._check_condition(expr.cond)
        ttype = self.check_expr(expr.then)
        otype = self.check_expr(expr.otherwise)
        if ttype.is_scalar and otype.is_scalar:
            return T.common_arith_type(ttype, otype)
        if ttype == otype:
            return ttype
        raise self._error("ternary arms have mismatched types %s / %s" % (ttype, otype), expr)

    def _check_index(self, expr: ast.Index) -> T.Type:
        btype = self.check_expr(expr.base, lvalue=False)
        if not isinstance(btype, T.ArrayType):
            raise self._error("indexing requires an array, got %s" % btype, expr)
        itype = self.check_expr(expr.index)
        if not itype.is_scalar:
            raise self._error("array index must be an integer", expr)
        return btype.element

    def _check_member(self, expr: ast.Member, lvalue: bool) -> T.Type:
        # Module qualification: `mod.x` parsed as Member(Name(mod), x).
        if (
            isinstance(expr.base, ast.Member) is False
            and isinstance(expr.base, ast.Name)
            and not expr.arrow
            and expr.base.symbol is None
        ):
            sym = self.scope.lookup(expr.base.ident)
            if sym is not None and sym.kind is SymbolKind.MODULE:
                # Rewrite in place into a qualified Name.
                replacement = ast.Name(loc=expr.loc, ident=expr.name, qualifier=expr.base.ident)
                result = self._check_name(replacement, lvalue)
                expr.__class__ = ast.Name  # type: ignore[misc]
                expr.__dict__.clear()
                expr.__dict__.update(replacement.__dict__)
                return result
        btype = self.check_expr(expr.base, lvalue=False)
        if expr.arrow:
            if not btype.is_packet:
                raise self._error("'->' requires a packet handle, got %s" % btype, expr)
            if expr.name == "meta":
                if lvalue:
                    raise self._error("'meta' itself is not assignable", expr)
                return METADATA_MARKER
            proto_name = btype.protocol  # type: ignore[union-attr]
            if proto_name is None:
                raise self._error(
                    "cannot access fields through a raw packet handle "
                    "(assign it to a typed handle first)",
                    expr,
                )
            proto = self.checked.protocols[proto_name]
            pfield = proto.field_by_name(expr.name)
            if pfield is None:
                raise self._error(
                    "protocol %r has no field %r" % (proto_name, expr.name), expr
                )
            if lvalue and pfield.width_bits > 32 \
                    and (pfield.offset_bits | pfield.width_bits) % 8:
                raise self._error(
                    "fields wider than 32 bits must start and end on a byte "
                    "boundary to be stored (%s.%s)" % (proto_name, expr.name),
                    expr)
            expr.protocol = proto  # type: ignore[attr-defined]
            expr.field = pfield  # type: ignore[attr-defined]
            return pfield.value_type
        if isinstance(btype, MetadataMarkerType):
            info = self.checked.meta_fields.get(expr.name)
            if info is None:
                raise self._error("unknown metadata field %r" % expr.name, expr)
            expr.meta_info = info  # type: ignore[attr-defined]
            return info.type
        if isinstance(btype, T.StructType):
            sfield = btype.field_by_name(expr.name)
            if sfield is None:
                raise self._error("struct %r has no field %r" % (btype.name, expr.name), expr)
            expr.struct_field = sfield  # type: ignore[attr-defined]
            if lvalue and isinstance(sfield.type, T.ArrayType):
                raise self._error("array field is not assignable as a whole", expr)
            return sfield.type
        raise self._error("'.' requires a struct or metadata value, got %s" % btype, expr)

    # -- calls ----------------------------------------------------------------

    def _check_call(self, expr: ast.Call) -> T.Type:
        if expr.qualifier is None and expr.callee in BUILTINS:
            return self._check_builtin_call(expr, BUILTINS[expr.callee])
        sym = self._lookup(expr.callee, expr.qualifier, expr)
        if sym.kind is SymbolKind.PPF:
            raise self._error(
                "PPF %r cannot be called directly; packets reach PPFs via channels"
                % expr.callee,
                expr,
            )
        if sym.kind is not SymbolKind.FUNC:
            raise self._error("%r is not a function" % expr.callee, expr)
        fsym: FuncSymbol = sym  # type: ignore[assignment]
        if len(expr.args) != len(fsym.param_types):
            raise self._error(
                "%r expects %d arguments, got %d"
                % (expr.callee, len(fsym.param_types), len(expr.args)),
                expr,
            )
        for arg, ptype in zip(expr.args, fsym.param_types):
            atype = self.check_expr(arg)
            if not T.assignable(ptype, atype):
                raise self._error(
                    "argument type %s does not match parameter type %s" % (atype, ptype), arg
                )
        expr.symbol = fsym
        self.analyzer.record_call(self.owner, fsym.qualified)
        return fsym.ret_type

    def _check_builtin_call(self, expr: ast.Call, builtin: Builtin) -> T.Type:
        """Check a builtin call by its row: the row's protocol or channel
        argument names one; any other argument 0 is the packet handle and
        any other argument 1 a byte count (``channel_put``'s packet is
        checked with the put)."""
        if len(expr.args) != builtin.arity:
            raise self._error(
                "%r expects %d arguments, got %d"
                % (builtin.name, builtin.arity, len(expr.args)),
                expr,
            )
        proto: Optional[T.Protocol] = None
        for i, arg in enumerate(expr.args):
            if i == builtin.proto_arg:
                if not isinstance(arg, ast.Name) or arg.qualifier is not None:
                    raise self._error(
                        "argument %d of %r must be a protocol name" % (i + 1, builtin.name), arg
                    )
                proto = self.checked.protocols.get(arg.ident)
                if proto is None:
                    raise self._error("unknown protocol %r" % arg.ident, arg)
                if proto.demux_const_bytes is None and builtin.name != "packet_as":
                    raise self._error(
                        "%r requires a protocol with a constant header size; "
                        "%r has a packet-dependent demux" % (builtin.name, arg.ident),
                        arg,
                    )
                arg.type = T.U32  # placeholder; lowering treats it as a name
            elif i == builtin.chan_arg:
                if not isinstance(arg, ast.Name):
                    raise self._error(
                        "argument %d of %r must be a channel" % (i + 1, builtin.name), arg
                    )
                ctype = self.check_expr(arg)
                if not isinstance(ctype, T.ChannelType):
                    raise self._error(
                        "argument %d of %r must be a channel, got %s"
                        % (i + 1, builtin.name, ctype),
                        arg,
                    )
            else:
                atype = self.check_expr(arg)
                if i == 0 and not atype.is_packet:
                    raise self._error(
                        "%r requires a packet handle as its first argument" % builtin.name, arg
                    )
                if i == 1 and builtin.chan_arg is None and not atype.is_scalar:
                    raise self._error(
                        "size argument of %r must be an integer" % builtin.name, arg
                    )
        if builtin.chan_arg is not None:
            if not self.is_ppf:
                raise self._error("channel_put may only appear inside a PPF body", expr)
            chan: ChannelSymbol = expr.args[0].symbol  # type: ignore[attr-defined]
            if chan.name == "rx":
                raise self._error("cannot put onto the builtin 'rx' channel", expr)
            pkt_type = expr.args[1].type
            if not (pkt_type and pkt_type.is_packet):
                raise self._error("channel_put requires a packet handle", expr.args[1])
            chan.producers.append(self.owner)
            chan.put_types.append(pkt_type)
            return T.VOID
        if proto is not None:
            expr.new_protocol = proto.name  # type: ignore[attr-defined]
            return T.PacketType(proto.name)
        if builtin.name == "packet_decap":
            src = expr.args[0].type
            if src.protocol is None:  # type: ignore[union-attr]
                raise self._error("cannot decap a raw packet handle", expr)
            expr.src_protocol = src.protocol  # type: ignore[attr-defined]
        if builtin.name == "packet_copy":
            return expr.args[0].type
        return builtin.ret_type


#: Baker binary operator -> the IR operation lowering emits for it; a pair
#: is (unsigned, signed), chosen by the operands' common type.
BINARY_OPS = {
    "+": "add", "-": "sub", "*": "mul", "&": "and", "|": "or", "^": "xor",
    "<<": "shl", ">>": ("lshr", "ashr"), "/": ("div_u", "div_s"),
    "%": ("rem_u", "rem_s"), "==": "eq", "!=": "ne", "<": ("lt_u", "lt_s"),
    "<=": ("le_u", "le_s"), ">": ("gt_u", "gt_s"), ">=": ("ge_u", "ge_s"),
}
#: The operators lowered to a ``Cmp`` (bool result) rather than a ``BinOp``.
COMPARISONS = frozenset(("==", "!=", "<", "<=", ">", ">="))


def binary_op(op: str, ltype: T.Type, rtype: T.Type) -> Tuple[str, T.IntType]:
    """The IR opcode of Baker's binary ``op`` over operands of these types,
    and the common type it computes in (a packet handle compared with
    ``==``/``!=`` counts as u32)."""
    common = T.common_arith_type(ltype if ltype.is_scalar else T.U32,
                                 rtype if rtype.is_scalar else T.U32)
    code = BINARY_OPS[op]
    return (code[common.signed] if isinstance(code, tuple) else code), common


def eval_const_expr(expr: ast.Expr, env: Dict[str, ConstSymbol]) -> int:
    """Evaluate a compile-time constant expression (integer arithmetic over
    literals and already-known constants) the way its lowered code runs:
    every operator through :mod:`repro.ir.eval`, at the width and
    signedness lowering gives its operands."""
    return _fold(expr, env)[0]


def _bits(type_: T.Type) -> int:
    return type_.bits if isinstance(type_, T.IntType) else 1


def _fold(expr: ast.Expr, env: Dict[str, ConstSymbol]) -> Tuple[int, T.Type]:
    """(value, Baker type) of a constant expression."""
    if isinstance(expr, ast.IntLit):
        # _check_demux types a demux's literals u32, as they are lowered.
        return expr.value, expr.type or (T.U64 if expr.value > 0xFFFFFFFF else T.U32)
    if isinstance(expr, ast.BoolLit):
        return int(expr.value), T.BOOL
    if isinstance(expr, ast.Name):
        key = "%s.%s" % (expr.qualifier, expr.ident) if expr.qualifier else expr.ident
        if key in env:
            return env[key].value, env[key].type
        raise SemanticError("not a constant expression (unknown name %r)" % key, expr.loc)
    if isinstance(expr, ast.Unary):
        v, vtype = _fold(expr.operand, env)
        if expr.op == "!":
            return int(v == 0), T.BOOL
        rtype = T.common_arith_type(vtype, vtype)
        if expr.op == "-":
            return binop_fn("sub", rtype.bits)(0, v), rtype
        if expr.op == "~":
            return binop_fn("xor", rtype.bits)(v, rtype.mask), rtype
    if isinstance(expr, ast.Binary):
        lhs, ltype = _fold(expr.left, env)
        if expr.op in ("&&", "||"):
            if bool(lhs) == (expr.op == "||"):  # short-circuits, as lowered
                return int(bool(lhs)), T.BOOL
            return int(bool(_fold(expr.right, env)[0])), T.BOOL
        rhs, rtype = _fold(expr.right, env)
        if expr.op in BINARY_OPS:
            opcode, common = binary_op(expr.op, ltype, rtype)
            if expr.op in COMPARISONS:
                bits = max(_bits(ltype), _bits(rtype))
                return cmp_fn(opcode, bits)(lhs, rhs), T.BOOL
            try:
                return binop_fn(opcode, common.bits)(lhs, rhs), common
            except EvalError:
                raise SemanticError("division by zero in constant expression",
                                    expr.loc) from None
    if isinstance(expr, ast.Ternary):
        # The result's type needs both arms, so both must fold.
        then, ttype = _fold(expr.then, env)
        otherwise, otype = _fold(expr.otherwise, env)
        value = then if _fold(expr.cond, env)[0] else otherwise
        return value, T.common_arith_type(ttype, otype)
    raise SemanticError("not a constant expression", getattr(expr, "loc", None))


def analyze(program: ast.Program) -> CheckedProgram:
    """Run semantic analysis over a parsed Baker program."""
    return SemanticAnalyzer(program).analyze()
