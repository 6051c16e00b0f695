"""Lowering from the checked Baker AST to IR.

Every function, PPF and module init block becomes one
:class:`~repro.ir.module.IRFunction`. Scalar locals become temps; local
arrays become stack-allocated :class:`LocalArray` storage; packet and
metadata accesses become the first-class packet instructions that the
packet optimizations (PAC/SOAR/PHR) operate on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.baker import ast
from repro.baker import types as T
from repro.baker.errors import LoweringError
from repro.baker.semantic import (
    COMPARISONS,
    CheckedProgram,
    MetadataMarkerType,
    binary_op,
)
from repro.baker.symbols import (
    ConstSymbol,
    GlobalSymbol,
    LocalSymbol,
    SymbolKind,
)
from repro.ir import instructions as I
from repro.ir.module import IRFunction, IRModule, LocalArray
from repro.ir.values import Const, Operand, Temp


def lower_program(checked: CheckedProgram) -> IRModule:
    """Lower a checked program into an IRModule."""
    mod = IRModule(checked)
    for fsym in checked.funcs.values():
        fn = _FunctionLowerer(checked, mod, fsym.qualified, "func", fsym.ret_type,
                              fsym.module).lower_func(fsym.decl)
        mod.add(fn)
    for psym in checked.ppfs.values():
        fn = _FunctionLowerer(checked, mod, psym.qualified, "ppf", T.VOID,
                              psym.module).lower_ppf(psym.decl, psym)
        mod.add(fn)
    for idx, idecl in enumerate(checked.inits):
        name = "%s.<init%d>" % (idecl.module, idx)
        fn = _FunctionLowerer(checked, mod, name, "init", T.VOID,
                              idecl.module).lower_init(idecl)
        mod.add(fn)
    return mod


class _LoopContext:
    def __init__(self, break_bb, continue_bb, critical_depth: int):
        self.break_bb = break_bb
        self.continue_bb = continue_bb
        self.critical_depth = critical_depth


class _FunctionLowerer:
    def __init__(self, checked: CheckedProgram, mod: IRModule, name: str,
                 kind: str, ret_type: T.Type, module: Optional[str]):
        self.checked = checked
        self.mod = mod
        self.fn = IRFunction(name, kind, ret_type, module)
        self.vars: Dict[int, Temp] = {}  # id(LocalSymbol) -> Temp
        self.arrays: Dict[int, LocalArray] = {}  # id(LocalSymbol) -> LocalArray
        self.bb = None  # current block
        self.loops: List[_LoopContext] = []
        self.critical_depth = 0

    # -- entry points ------------------------------------------------------------

    def lower_func(self, decl: ast.FuncDecl) -> IRFunction:
        self.bb = self.fn.new_block("entry")
        for p in decl.params:
            sym: LocalSymbol = p.symbol  # type: ignore[assignment]
            t = self.fn.new_temp(sym.type, p.name)
            self.fn.params.append(t)
            self.vars[id(sym)] = t
        self._lower_block(decl.body)
        self.fn.ensure_terminated()
        return self.fn

    def lower_ppf(self, decl: ast.PpfDecl, psym) -> IRFunction:
        self.bb = self.fn.new_block("entry")
        sym: LocalSymbol = decl.param_symbol  # type: ignore[attr-defined]
        t = self.fn.new_temp(sym.type, decl.param_name)
        self.fn.params.append(t)
        self.vars[id(sym)] = t
        self.fn.input_channels = list(psym.input_channels)
        self._lower_block(decl.body)
        self.fn.ensure_terminated()
        return self.fn

    def lower_init(self, decl: ast.InitDecl) -> IRFunction:
        self.bb = self.fn.new_block("entry")
        self._lower_block(decl.body)
        self.fn.ensure_terminated()
        return self.fn

    # -- helpers -----------------------------------------------------------------

    def _error(self, message: str, node) -> LoweringError:
        return LoweringError(message, getattr(node, "loc", None))

    def emit(self, instr: I.Instr, node=None) -> I.Instr:
        if node is not None:
            instr.loc = getattr(node, "loc", None)
        self.bb.append(instr)
        return instr

    def terminate(self, instr: I.Instr) -> None:
        if not self.bb.terminated:
            self.bb.terminate(instr)

    def new_temp(self, type_: T.Type, hint: str = "") -> Temp:
        return self.fn.new_temp(type_, hint)

    def _convert(self, op: Operand, src: T.Type, dst: T.Type) -> Operand:
        """Insert masking for narrowing integer conversions."""
        if not (isinstance(dst, T.IntType) and src.is_scalar):
            return op
        src_bits = src.bits if isinstance(src, T.IntType) else 1
        if dst.bits >= src_bits:
            return op
        if isinstance(op, Const):
            return Const(op.value & dst.mask, dst)
        out = self.new_temp(dst)
        self.emit(I.BinOp("and", out, op, Const(dst.mask, dst)))
        return out

    # -- statements ---------------------------------------------------------------

    def _lower_block(self, block: ast.Block) -> None:
        for stmt in block.stmts:
            if self.bb.terminated:
                return  # unreachable code after return/break
            self._lower_stmt(stmt)

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self._lower_block(stmt)
        elif isinstance(stmt, ast.LocalDecl):
            self._lower_local_decl(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._lower_expr(stmt.expr, want_value=False)
        elif isinstance(stmt, ast.Assign):
            self._lower_assign(stmt)
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._lower_do_while(stmt)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.Return):
            self._lower_return(stmt)
        elif isinstance(stmt, ast.Break):
            self._lower_break(stmt)
        elif isinstance(stmt, ast.Continue):
            self._lower_continue(stmt)
        elif isinstance(stmt, ast.Critical):
            self._lower_critical(stmt)
        else:  # pragma: no cover
            raise self._error("cannot lower statement %r" % type(stmt).__name__, stmt)

    def _lower_local_decl(self, stmt: ast.LocalDecl) -> None:
        sym: LocalSymbol = stmt.symbol  # type: ignore[assignment]
        if isinstance(sym.type, T.ArrayType):
            arr = LocalArray("%s.%d" % (stmt.name, len(self.fn.local_arrays)),
                             sym.type.element, sym.type.length)
            self.fn.local_arrays[arr.name] = arr
            self.arrays[id(sym)] = arr
            return
        t = self.new_temp(sym.type, stmt.name)
        self.vars[id(sym)] = t
        if stmt.init is not None:
            # packet_decap result protocol comes from the declared type.
            value = self._lower_expr(stmt.init, decl_type=sym.type)
            value = self._convert(value, stmt.init.type, sym.type)
            self.emit(I.Assign(t, value), stmt)
        else:
            self.emit(I.Assign(t, Const(0, sym.type if sym.type.is_scalar else T.U32)), stmt)

    def _lower_assign(self, stmt: ast.Assign) -> None:
        target = stmt.target
        if stmt.op is not None:
            current = self._lower_expr(target)
            rhs = self._lower_expr(stmt.value)
            value = self._lower_binop_values(stmt.op, current, rhs,
                                             target.type, stmt.value.type, stmt)
        else:
            value = self._lower_expr(stmt.value, decl_type=target.type)
        value = self._convert(value, stmt.value.type if stmt.op is None
                              else T.common_arith_type(target.type, stmt.value.type),
                              target.type)
        self._store_lvalue(target, value)

    def _store_lvalue(self, target: ast.Expr, value: Operand) -> None:
        if isinstance(target, ast.Name):
            sym = target.symbol
            if isinstance(sym, LocalSymbol):
                self.emit(I.Assign(self.vars[id(sym)], value), target)
                return
            if isinstance(sym, GlobalSymbol):
                width = 8 if _is_u64(sym.type) else 4
                self.emit(I.StoreG(sym.qualified, Const(0), value, width), target)
                return
            raise self._error("cannot assign to %r" % target.ident, target)
        if isinstance(target, ast.Member) and target.arrow:
            proto = target.protocol  # type: ignore[attr-defined]
            pfield = target.field  # type: ignore[attr-defined]
            ph = self._lower_expr(target.base)
            self.emit(
                I.PktStoreField(ph, proto.name, pfield.name, pfield.offset_bits,
                                pfield.width_bits, value),
                target,
            )
            return
        if isinstance(target, ast.Member) and isinstance(target.base.type, MetadataMarkerType):
            info = target.meta_info  # type: ignore[attr-defined]
            ph = self._lower_expr(target.base.base)
            self.emit(I.MetaStore(ph, info.name, info.word_offset, value), target)
            return
        # Global / local array or struct path.
        kind, name, offset, vtype = self._access_path(target)
        width = 8 if _is_u64(vtype) else 4
        if kind == "global":
            self.emit(I.StoreG(name, offset, value, width), target)
        else:
            self.emit(I.StoreL(name, offset, value, width), target)

    def _access_path(self, expr: ast.Expr) -> Tuple[str, str, Operand, T.Type]:
        """Resolve an Index/Member chain rooted at a global or local array
        into (kind, name, byte-offset operand, value type)."""
        if isinstance(expr, ast.Name):
            sym = expr.symbol
            if isinstance(sym, GlobalSymbol):
                return "global", sym.qualified, Const(0), sym.type
            if isinstance(sym, LocalSymbol) and id(sym) in self.arrays:
                return "local", self.arrays[id(sym)].name, Const(0), sym.type
            raise self._error("cannot address %r" % expr.ident, expr)
        if isinstance(expr, ast.Index):
            kind, name, offset, btype = self._access_path(expr.base)
            if not isinstance(btype, T.ArrayType):
                raise self._error("indexing non-array", expr)
            elem = btype.element
            idx = self._lower_expr(expr.index)
            offset = self._offset_add_scaled(offset, idx, elem.size_bytes())
            return kind, name, offset, elem
        if isinstance(expr, ast.Member) and not expr.arrow:
            kind, name, offset, _ = self._access_path(expr.base)
            sfield = expr.struct_field  # type: ignore[attr-defined]
            offset = self._offset_add_const(offset, sfield.offset_bytes)
            return kind, name, offset, sfield.type
        raise self._error("unsupported access path", expr)

    def _offset_add_scaled(self, offset: Operand, idx: Operand, scale: int) -> Operand:
        if isinstance(idx, Const):
            return self._offset_add_const(offset, idx.value * scale)
        scaled = self.new_temp(T.U32)
        if scale & (scale - 1) == 0:
            self.emit(I.BinOp("shl", scaled, idx, Const(scale.bit_length() - 1)))
        else:
            self.emit(I.BinOp("mul", scaled, idx, Const(scale)))
        if isinstance(offset, Const) and offset.value == 0:
            return scaled
        out = self.new_temp(T.U32)
        self.emit(I.BinOp("add", out, offset, scaled))
        return out

    def _offset_add_const(self, offset: Operand, delta: int) -> Operand:
        if delta == 0:
            return offset
        if isinstance(offset, Const):
            return Const(offset.value + delta)
        out = self.new_temp(T.U32)
        self.emit(I.BinOp("add", out, offset, Const(delta)))
        return out

    # -- control flow ------------------------------------------------------------------

    def _lower_condition(self, expr: ast.Expr) -> Operand:
        value = self._lower_expr(expr)
        if expr.type is not None and expr.type.is_bool:
            return value
        # Non-bool scalar condition: compare against zero.
        out = self.new_temp(T.BOOL)
        self.emit(I.Cmp("ne", out, value, Const(0)))
        return out

    def _lower_if(self, stmt: ast.If) -> None:
        cond = self._lower_condition(stmt.cond)
        then_bb = self.fn.new_block("then")
        join_bb = self.fn.new_block("join")
        else_bb = self.fn.new_block("else") if stmt.otherwise is not None else join_bb
        self.terminate(I.Branch(cond, then_bb, else_bb))
        self.bb = then_bb
        self._lower_stmt(stmt.then)
        self.terminate(I.Jump(join_bb))
        if stmt.otherwise is not None:
            self.bb = else_bb
            self._lower_stmt(stmt.otherwise)
            self.terminate(I.Jump(join_bb))
        self.bb = join_bb

    def _lower_while(self, stmt: ast.While) -> None:
        head = self.fn.new_block("while_head")
        body = self.fn.new_block("while_body")
        exit_bb = self.fn.new_block("while_exit")
        self.terminate(I.Jump(head))
        self.bb = head
        cond = self._lower_condition(stmt.cond)
        self.terminate(I.Branch(cond, body, exit_bb))
        self.loops.append(_LoopContext(exit_bb, head, self.critical_depth))
        self.bb = body
        self._lower_stmt(stmt.body)
        self.terminate(I.Jump(head))
        self.loops.pop()
        self.bb = exit_bb

    def _lower_do_while(self, stmt: ast.DoWhile) -> None:
        body = self.fn.new_block("do_body")
        cond_bb = self.fn.new_block("do_cond")
        exit_bb = self.fn.new_block("do_exit")
        self.terminate(I.Jump(body))
        self.loops.append(_LoopContext(exit_bb, cond_bb, self.critical_depth))
        self.bb = body
        self._lower_stmt(stmt.body)
        self.terminate(I.Jump(cond_bb))
        self.loops.pop()
        self.bb = cond_bb
        cond = self._lower_condition(stmt.cond)
        self.terminate(I.Branch(cond, body, exit_bb))
        self.bb = exit_bb

    def _lower_for(self, stmt: ast.For) -> None:
        if stmt.init is not None:
            self._lower_stmt(stmt.init)
        head = self.fn.new_block("for_head")
        body = self.fn.new_block("for_body")
        step_bb = self.fn.new_block("for_step")
        exit_bb = self.fn.new_block("for_exit")
        self.terminate(I.Jump(head))
        self.bb = head
        if stmt.cond is not None:
            cond = self._lower_condition(stmt.cond)
            self.terminate(I.Branch(cond, body, exit_bb))
        else:
            self.terminate(I.Jump(body))
        self.loops.append(_LoopContext(exit_bb, step_bb, self.critical_depth))
        self.bb = body
        self._lower_stmt(stmt.body)
        self.terminate(I.Jump(step_bb))
        self.loops.pop()
        self.bb = step_bb
        if stmt.step is not None:
            self._lower_stmt(stmt.step)
        self.terminate(I.Jump(head))
        self.bb = exit_bb

    def _lower_return(self, stmt: ast.Return) -> None:
        if self.critical_depth > 0:
            raise self._error("'return' inside a critical section is not supported", stmt)
        value = None
        if stmt.value is not None:
            value = self._lower_expr(stmt.value)
            value = self._convert(value, stmt.value.type, self.fn.ret_type)
        self.terminate(I.Ret(value))
        self.bb = self.fn.new_block("dead")

    def _lower_break(self, stmt: ast.Break) -> None:
        ctx = self.loops[-1]
        if ctx.critical_depth != self.critical_depth:
            raise self._error("'break' out of a critical section is not supported", stmt)
        self.terminate(I.Jump(ctx.break_bb))
        self.bb = self.fn.new_block("dead")

    def _lower_continue(self, stmt: ast.Continue) -> None:
        ctx = self.loops[-1]
        if ctx.critical_depth != self.critical_depth:
            raise self._error("'continue' out of a critical section is not supported", stmt)
        self.terminate(I.Jump(ctx.continue_bb))
        self.bb = self.fn.new_block("dead")

    def _lower_critical(self, stmt: ast.Critical) -> None:
        self.emit(I.LockAcquire(stmt.lock_name), stmt)
        self.critical_depth += 1
        self._lower_stmt(stmt.body)
        self.critical_depth -= 1
        self.emit(I.LockRelease(stmt.lock_name), stmt)

    # -- expressions ------------------------------------------------------------------

    def _lower_expr(self, expr: ast.Expr, want_value: bool = True,
                    decl_type: Optional[T.Type] = None) -> Optional[Operand]:
        if isinstance(expr, ast.IntLit):
            return Const(expr.value, expr.type or T.U32)
        if isinstance(expr, ast.BoolLit):
            return Const(int(expr.value), T.BOOL)
        if isinstance(expr, ast.Name):
            return self._lower_name(expr)
        if isinstance(expr, ast.Unary):
            return self._lower_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._lower_binary(expr)
        if isinstance(expr, ast.Ternary):
            return self._lower_ternary(expr)
        if isinstance(expr, ast.Cast):
            inner = self._lower_expr(expr.operand)
            return self._convert(inner, expr.operand.type, expr.type)
        if isinstance(expr, ast.SizeofExpr):
            return Const(expr.value, T.U32)  # type: ignore[attr-defined]
        if isinstance(expr, ast.Call):
            return self._lower_call(expr, want_value, decl_type)
        if isinstance(expr, ast.Index):
            return self._lower_load_path(expr)
        if isinstance(expr, ast.Member):
            return self._lower_member(expr)
        raise self._error("cannot lower expression %r" % type(expr).__name__, expr)

    def _lower_name(self, expr: ast.Name) -> Operand:
        sym = expr.symbol
        if isinstance(sym, ConstSymbol):
            return Const(sym.value, sym.type)
        if isinstance(sym, LocalSymbol):
            if id(sym) in self.vars:
                return self.vars[id(sym)]
            raise self._error("array %r used without an index" % expr.ident, expr)
        if isinstance(sym, GlobalSymbol):
            if isinstance(sym.type, T.ArrayType):
                raise self._error("array %r used without an index" % expr.ident, expr)
            width = 8 if _is_u64(sym.type) else 4
            dst = self.new_temp(sym.type, expr.ident)
            self.emit(I.LoadG(dst, sym.qualified, Const(0), width), expr)
            return dst
        raise self._error("cannot evaluate %r" % expr.ident, expr)

    def _lower_load_path(self, expr: ast.Expr) -> Operand:
        kind, name, offset, vtype = self._access_path(expr)
        if isinstance(vtype, (T.ArrayType, T.StructType)):
            raise self._error("aggregate value cannot be loaded as a whole", expr)
        width = 8 if _is_u64(vtype) else 4
        dst = self.new_temp(vtype)
        if kind == "global":
            self.emit(I.LoadG(dst, name, offset, width), expr)
        else:
            self.emit(I.LoadL(dst, name, offset, width), expr)
        return dst

    def _lower_member(self, expr: ast.Member) -> Operand:
        if expr.arrow:
            proto = expr.protocol  # type: ignore[attr-defined]
            pfield = expr.field  # type: ignore[attr-defined]
            ph = self._lower_expr(expr.base)
            dst = self.new_temp(pfield.value_type, pfield.name)
            self.emit(
                I.PktLoadField(dst, ph, proto.name, pfield.name,
                               pfield.offset_bits, pfield.width_bits),
                expr,
            )
            return dst
        if isinstance(expr.base.type, MetadataMarkerType):
            info = expr.meta_info  # type: ignore[attr-defined]
            ph = self._lower_expr(expr.base.base)
            dst = self.new_temp(info.type, info.name)
            self.emit(I.MetaLoad(dst, ph, info.name, info.word_offset), expr)
            return dst
        return self._lower_load_path(expr)

    def _lower_unary(self, expr: ast.Unary) -> Operand:
        operand = self._lower_expr(expr.operand)
        if expr.op == "-":
            dst = self.new_temp(expr.type)
            self.emit(I.BinOp("sub", dst, Const(0, expr.type), operand), expr)
            return dst
        if expr.op == "~":
            dst = self.new_temp(expr.type)
            mask = (1 << (expr.type.bits if isinstance(expr.type, T.IntType) else 32)) - 1
            self.emit(I.BinOp("xor", dst, operand, Const(mask, expr.type)), expr)
            return dst
        if expr.op == "!":
            dst = self.new_temp(T.BOOL)
            self.emit(I.Cmp("eq", dst, operand, Const(0)), expr)
            return dst
        raise self._error("unknown unary operator %r" % expr.op, expr)

    def _lower_binary(self, expr: ast.Binary) -> Operand:
        if expr.op in ("&&", "||"):
            return self._lower_short_circuit(expr)
        lhs = self._lower_expr(expr.left)
        rhs = self._lower_expr(expr.right)
        return self._lower_binop_values(expr.op, lhs, rhs,
                                        expr.left.type, expr.right.type, expr)

    def _lower_binop_values(self, op: str, lhs: Operand, rhs: Operand,
                            ltype: T.Type, rtype: T.Type, node) -> Operand:
        try:
            opcode, common = binary_op(op, ltype, rtype)
        except KeyError:
            raise self._error("unknown binary operator %r" % op, node) from None
        if op in COMPARISONS:
            dst = self.new_temp(T.BOOL)
            self.emit(I.Cmp(opcode, dst, lhs, rhs), node)
        else:
            dst = self.new_temp(common)
            self.emit(I.BinOp(opcode, dst, lhs, rhs), node)
        return dst

    def _lower_short_circuit(self, expr: ast.Binary) -> Operand:
        result = self.new_temp(T.BOOL, "sc")
        rhs_bb = self.fn.new_block("sc_rhs")
        join_bb = self.fn.new_block("sc_join")
        lhs = self._lower_condition(expr.left)
        self.emit(I.Assign(result, lhs))
        if expr.op == "&&":
            self.terminate(I.Branch(lhs, rhs_bb, join_bb))
        else:
            self.terminate(I.Branch(lhs, join_bb, rhs_bb))
        self.bb = rhs_bb
        rhs = self._lower_condition(expr.right)
        self.emit(I.Assign(result, rhs))
        self.terminate(I.Jump(join_bb))
        self.bb = join_bb
        return result

    def _lower_ternary(self, expr: ast.Ternary) -> Operand:
        result = self.new_temp(expr.type, "sel")
        cond = self._lower_condition(expr.cond)
        then_bb = self.fn.new_block("sel_then")
        else_bb = self.fn.new_block("sel_else")
        join_bb = self.fn.new_block("sel_join")
        self.terminate(I.Branch(cond, then_bb, else_bb))
        self.bb = then_bb
        tval = self._lower_expr(expr.then)
        self.emit(I.Assign(result, self._convert(tval, expr.then.type, expr.type)))
        self.terminate(I.Jump(join_bb))
        self.bb = else_bb
        oval = self._lower_expr(expr.otherwise)
        self.emit(I.Assign(result, self._convert(oval, expr.otherwise.type, expr.type)))
        self.terminate(I.Jump(join_bb))
        self.bb = join_bb
        return result

    # -- calls -----------------------------------------------------------------------

    def _lower_call(self, expr: ast.Call, want_value: bool,
                    decl_type: Optional[T.Type]) -> Optional[Operand]:
        from repro.baker.builtins import BUILTINS

        if expr.qualifier is None and expr.callee in BUILTINS:
            return self._lower_builtin(expr, decl_type)
        fsym = expr.symbol
        args: List[Operand] = []
        for arg, ptype in zip(expr.args, fsym.param_types):
            v = self._lower_expr(arg)
            args.append(self._convert(v, arg.type, ptype))
        dst = None
        if want_value and not fsym.ret_type.is_void:
            dst = self.new_temp(fsym.ret_type)
        elif not fsym.ret_type.is_void:
            dst = self.new_temp(fsym.ret_type)  # result ignored; DCE may drop
        self.emit(I.Call(dst, fsym.qualified, args), expr)
        return dst

    def _lower_builtin(self, expr: ast.Call, decl_type: Optional[T.Type]) -> Optional[Operand]:
        name = expr.callee
        if name == "channel_put":
            chan = expr.args[0].symbol
            ph = self._lower_expr(expr.args[1])
            self.emit(I.ChanPut(chan.qualified, ph), expr)
            return None
        if name == "packet_decap":
            src_proto = expr.src_protocol  # type: ignore[attr-defined]
            proto = self.checked.protocols[src_proto]
            result_proto = None
            if decl_type is not None and decl_type.is_packet:
                result_proto = decl_type.protocol  # type: ignore[union-attr]
            ph = self._lower_expr(expr.args[0])
            delta = None
            if proto.demux_const_bytes is None:
                delta = self._lower_demux(proto.demux_expr, proto, ph, expr)
            dst = self.new_temp(T.PacketType(result_proto))
            self.emit(I.PktDecap(dst, ph, src_proto, result_proto,
                                 proto.demux_const_bytes, delta), expr)
            return dst
        if name == "packet_encap":
            new_proto = expr.new_protocol  # type: ignore[attr-defined]
            hdr = self.checked.protocols[new_proto].demux_const_bytes
            ph = self._lower_expr(expr.args[0])
            dst = self.new_temp(T.PacketType(new_proto))
            self.emit(I.PktEncap(dst, ph, new_proto, hdr), expr)
            return dst
        if name == "packet_copy":
            src = self._lower_expr(expr.args[0])
            dst = self.new_temp(expr.type)
            self.emit(I.PktCopy(dst, src), expr)
            return dst
        if name == "packet_as":
            # A checked retype: same handle, new static protocol.
            src = self._lower_expr(expr.args[0])
            dst = self.new_temp(expr.type)
            self.emit(I.Assign(dst, src), expr)
            return dst
        if name == "packet_drop":
            ph = self._lower_expr(expr.args[0])
            self.emit(I.PktDrop(ph), expr)
            return None
        if name == "packet_create":
            new_proto = expr.new_protocol  # type: ignore[attr-defined]
            hdr = self.checked.protocols[new_proto].demux_const_bytes
            length = self._lower_expr(expr.args[1])
            dst = self.new_temp(T.PacketType(new_proto))
            self.emit(I.PktCreate(dst, new_proto, hdr, length), expr)
            return dst
        if name == "packet_length":
            ph = self._lower_expr(expr.args[0])
            dst = self.new_temp(T.U32)
            self.emit(I.PktLength(dst, ph), expr)
            return dst
        if name in ("packet_add_tail", "packet_remove_tail",
                    "packet_extend", "packet_shorten"):
            op = name[len("packet_"):]
            ph = self._lower_expr(expr.args[0])
            amount = self._lower_expr(expr.args[1])
            self.emit(I.PktAdjust(op, ph, amount), expr)
            return None
        raise self._error("unknown builtin %r" % name, expr)

    def _lower_demux(self, expr: ast.Expr, proto: T.Protocol, ph: Operand,
                     node: ast.Call) -> Operand:
        """A packet-dependent demux (the header's size in bytes) as
        ordinary 32-bit loads and arithmetic over the header's own fields,
        so PAC and CSE treat them like the program's own accesses."""
        if isinstance(expr, ast.IntLit):
            return Const(expr.value)
        if isinstance(expr, ast.Name):
            pfield = proto.field_by_name(expr.ident)
            dst = self.new_temp(pfield.value_type, pfield.name)
            self.emit(I.PktLoadField(dst, ph, proto.name, pfield.name,
                                     pfield.offset_bits, pfield.width_bits), node)
            return self._convert(dst, pfield.value_type, T.U32)
        if isinstance(expr, ast.Unary):
            operand = self._lower_demux(expr.operand, proto, ph, node)
            dst = self.new_temp(T.U32)
            if expr.op == "-":
                self.emit(I.BinOp("sub", dst, Const(0), operand), node)
            else:
                self.emit(I.BinOp("xor", dst, operand, Const(0xFFFFFFFF)), node)
            return dst
        lhs = self._lower_demux(expr.left, proto, ph, node)
        rhs = self._lower_demux(expr.right, proto, ph, node)
        return self._lower_binop_values(expr.op, lhs, rhs, T.U32, T.U32, node)


def _is_u64(type_: T.Type) -> bool:
    return isinstance(type_, T.IntType) and type_.bits > 32
