"""Recursive-descent parser for Baker.

Grammar summary (see DESIGN.md section 4 for the module inventory):

.. code-block:: text

    program       := top_decl*
    top_decl      := protocol | metadata | struct | const | global | func | module
    protocol      := 'protocol' IDENT '{' (field | demux)* '}' ';'?
    field         := IDENT ':' INT ';'
    demux         := 'demux' '{' expr '}' ';'
    metadata      := 'metadata' '{' var_field* '}' ';'?
    struct        := 'struct' IDENT '{' var_field* '}' ';'?
    const         := 'const' type IDENT '=' expr ';'
    global        := 'shared'? type IDENT ('[' INT ']')? ('=' ginit)? ';'
    module        := 'module' IDENT '{' module_item* '}' ';'?
    module_item   := 'channel' IDENT (',' IDENT)* ';'
                   | 'init' block
                   | ppf | const | global | func
    ppf           := 'ppf' IDENT '(' type IDENT ')' ('from' chan_list)? block
    func          := type IDENT '(' params? ')' block

Expressions use C precedence; assignment is a statement, not an expression
(Baker keeps side effects out of expressions, except calls).
"""

from __future__ import annotations

from typing import List, Optional

from repro.baker import ast
from repro.baker import types as T
from repro.baker.errors import ParseError
from repro.baker.lexer import Lexer
from repro.baker.source import SourceFile
from repro.baker.tokens import ASSIGN_OPS, KEYWORDS, Token, TokenKind

_TYPE_KEYWORDS = frozenset(KEYWORDS[name] for name in T.BASE_TYPES)

#: Binary operator precedence, higher binds tighter (C-like). An
#: operator's spelling in the AST is its kind's value.
_BINOP_PRECEDENCE = {
    TokenKind.OROR: 1,
    TokenKind.ANDAND: 2,
    TokenKind.PIPE: 3,
    TokenKind.CARET: 4,
    TokenKind.AMP: 5,
    TokenKind.EQ: 6, TokenKind.NE: 6,
    TokenKind.LT: 7, TokenKind.LE: 7, TokenKind.GT: 7, TokenKind.GE: 7,
    TokenKind.SHL: 8, TokenKind.SHR: 8,
    TokenKind.PLUS: 9, TokenKind.MINUS: 9,
    TokenKind.STAR: 10, TokenKind.SLASH: 10, TokenKind.PERCENT: 10,
}
_PREFIX_OPS = (TokenKind.MINUS, TokenKind.TILDE, TokenKind.BANG)


class Parser:
    def __init__(self, source: SourceFile):
        self.source = source
        self.tokens = Lexer(source).tokenize()
        self.pos = 0

    # -- token utilities -----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        idx = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[idx]

    def at(self, kind: TokenKind, ahead: int = 0) -> bool:
        return self.peek(ahead).kind is kind

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def accept(self, kind: TokenKind) -> Optional[Token]:
        if self.at(kind):
            return self.advance()
        return None

    def expect(self, kind: TokenKind, context: str = "") -> Token:
        if self.at(kind):
            return self.advance()
        tok = self.peek()
        where = " in %s" % context if context else ""
        raise ParseError(
            "expected %r but found %r%s" % (kind.value, tok.text or str(tok.kind.value), where),
            tok.loc,
        )

    def _error(self, message: str) -> ParseError:
        return ParseError(message, self.peek().loc)

    # -- program -------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        loc = self.peek().loc
        program = ast.Program(loc=loc)
        while not self.at(TokenKind.EOF):
            tok = self.peek()
            if tok.kind is TokenKind.KW_PROTOCOL:
                program.protocols.append(self.parse_protocol())
            elif tok.kind is TokenKind.KW_METADATA:
                decl = self.parse_metadata()
                if program.metadata is not None:
                    raise ParseError("duplicate metadata block", decl.loc)
                program.metadata = decl
            elif tok.kind is TokenKind.KW_STRUCT and self.peek(2).kind is TokenKind.LBRACE:
                program.structs.append(self.parse_struct())
            elif tok.kind is TokenKind.KW_CONST:
                program.consts.append(self.parse_const())
            elif tok.kind is TokenKind.KW_MODULE:
                program.modules.append(self.parse_module())
            elif tok.kind is TokenKind.KW_SHARED or self._starts_type():
                self._parse_global_or_func(program.globals, program.funcs, module=None)
            else:
                raise self._error("expected a top-level declaration, found %r" % tok.text)
        return program

    # -- protocols -------------------------------------------------------------

    def parse_protocol(self) -> ast.ProtocolDecl:
        loc = self.expect(TokenKind.KW_PROTOCOL).loc
        name = self.expect(TokenKind.IDENT, "protocol declaration").text
        decl = ast.ProtocolDecl(loc=loc, name=name)
        self.expect(TokenKind.LBRACE)
        while not self.accept(TokenKind.RBRACE):
            if self.at(TokenKind.KW_DEMUX):
                dloc = self.advance().loc
                self.expect(TokenKind.LBRACE)
                expr = self.parse_expr()
                self.expect(TokenKind.RBRACE)
                self.expect(TokenKind.SEMI)
                if decl.demux is not None:
                    raise ParseError("duplicate demux in protocol %r" % name, dloc)
                decl.demux = expr
            else:
                ftok = self.expect(TokenKind.IDENT, "protocol field")
                self.expect(TokenKind.COLON)
                width = self.expect(TokenKind.INT, "protocol field width")
                self.expect(TokenKind.SEMI)
                decl.fields.append(
                    ast.FieldDecl(loc=ftok.loc, name=ftok.text, width_bits=int(width.value))
                )
        self.accept(TokenKind.SEMI)
        return decl

    # -- struct / metadata ------------------------------------------------------

    def _parse_var_fields(self, context: str) -> List[ast.VarFieldDecl]:
        fields: List[ast.VarFieldDecl] = []
        self.expect(TokenKind.LBRACE)
        while not self.accept(TokenKind.RBRACE):
            type_expr = self.parse_type(context)
            name = self.expect(TokenKind.IDENT, context)
            array_len = None
            if self.accept(TokenKind.LBRACKET):
                array_len = int(self.expect(TokenKind.INT, "array length").value)
                self.expect(TokenKind.RBRACKET)
            self.expect(TokenKind.SEMI)
            fields.append(
                ast.VarFieldDecl(
                    loc=name.loc, type_expr=type_expr, name=name.text, array_len=array_len
                )
            )
        self.accept(TokenKind.SEMI)
        return fields

    def parse_struct(self) -> ast.StructDecl:
        loc = self.expect(TokenKind.KW_STRUCT).loc
        name = self.expect(TokenKind.IDENT, "struct declaration").text
        return ast.StructDecl(loc=loc, name=name, fields=self._parse_var_fields("struct field"))

    def parse_metadata(self) -> ast.MetadataDecl:
        loc = self.expect(TokenKind.KW_METADATA).loc
        return ast.MetadataDecl(loc=loc, fields=self._parse_var_fields("metadata field"))

    # -- const / globals / functions --------------------------------------------

    def parse_const(self) -> ast.ConstDecl:
        loc = self.expect(TokenKind.KW_CONST).loc
        type_expr = self.parse_type("const declaration")
        name = self.expect(TokenKind.IDENT, "const declaration").text
        self.expect(TokenKind.ASSIGN)
        value = self.parse_expr()
        self.expect(TokenKind.SEMI)
        return ast.ConstDecl(loc=loc, type_expr=type_expr, name=name, value=value)

    def _starts_type(self) -> bool:
        tok = self.peek()
        if tok.kind in _TYPE_KEYWORDS or tok.kind is TokenKind.KW_STRUCT:
            return True
        # "ident ident" or "ident * ident" looks like a declaration.
        if tok.kind is TokenKind.IDENT:
            nxt = self.peek(1)
            if nxt.kind is TokenKind.IDENT:
                return True
            if nxt.kind is TokenKind.STAR and self.peek(2).kind is TokenKind.IDENT:
                return True
        return False

    def parse_type(self, context: str) -> ast.TypeExpr:
        tok = self.peek()
        if tok.kind in _TYPE_KEYWORDS:
            self.advance()
            return ast.TypeExpr(loc=tok.loc, name=tok.text)
        if tok.kind is TokenKind.KW_STRUCT:
            self.advance()
            name = self.expect(TokenKind.IDENT, context)
            return ast.TypeExpr(loc=tok.loc, name=name.text)
        if tok.kind is TokenKind.IDENT:
            self.advance()
            is_packet = bool(self.accept(TokenKind.STAR))
            name = tok.text
            if is_packet:
                if not name.endswith("_pkt"):
                    raise ParseError(
                        "pointer types are only allowed for packet handles "
                        "(expected '<protocol>_pkt *')",
                        tok.loc,
                    )
                name = name[: -len("_pkt")]
            return ast.TypeExpr(loc=tok.loc, name=name, is_packet=is_packet)
        raise ParseError("expected a type in %s" % context, tok.loc)

    def _parse_global_or_func(self, globals_out, funcs_out, module: Optional[str]) -> None:
        shared = bool(self.accept(TokenKind.KW_SHARED))
        type_expr = self.parse_type("declaration")
        name = self.expect(TokenKind.IDENT, "declaration")
        if self.at(TokenKind.LPAREN):
            if shared:
                raise ParseError("'shared' applies only to data", name.loc)
            funcs_out.append(self._parse_func_rest(type_expr, name, module))
            return
        array_len = None
        if self.accept(TokenKind.LBRACKET):
            array_len = int(self.expect(TokenKind.INT, "array length").value)
            self.expect(TokenKind.RBRACKET)
        init = None
        if self.accept(TokenKind.ASSIGN):
            init = self._parse_global_init()
        self.expect(TokenKind.SEMI)
        globals_out.append(
            ast.GlobalDecl(
                loc=name.loc,
                type_expr=type_expr,
                name=name.text,
                array_len=array_len,
                init=init,
                shared=shared,
                module=module,
            )
        )

    def _parse_global_init(self) -> List[ast.Expr]:
        if self.accept(TokenKind.LBRACE):
            items: List[ast.Expr] = []
            if not self.at(TokenKind.RBRACE):
                items.append(self.parse_expr())
                while self.accept(TokenKind.COMMA):
                    if self.at(TokenKind.RBRACE):
                        break  # trailing comma
                    items.append(self.parse_expr())
            self.expect(TokenKind.RBRACE)
            return items
        return [self.parse_expr()]

    def _parse_func_rest(
        self, ret_type: ast.TypeExpr, name: Token, module: Optional[str]
    ) -> ast.FuncDecl:
        self.expect(TokenKind.LPAREN)
        params: List[ast.Param] = []
        if not self.at(TokenKind.RPAREN):
            while True:
                ptype = self.parse_type("parameter")
                pname = self.expect(TokenKind.IDENT, "parameter")
                params.append(ast.Param(loc=pname.loc, type_expr=ptype, name=pname.text))
                if not self.accept(TokenKind.COMMA):
                    break
        self.expect(TokenKind.RPAREN)
        body = self.parse_block()
        return ast.FuncDecl(
            loc=name.loc,
            ret_type=ret_type,
            name=name.text,
            params=params,
            body=body,
            module=module,
        )

    # -- modules ------------------------------------------------------------------

    def parse_module(self) -> ast.ModuleDecl:
        loc = self.expect(TokenKind.KW_MODULE).loc
        name = self.expect(TokenKind.IDENT, "module declaration").text
        decl = ast.ModuleDecl(loc=loc, name=name)
        self.expect(TokenKind.LBRACE)
        while not self.accept(TokenKind.RBRACE):
            tok = self.peek()
            if tok.kind is TokenKind.KW_CHANNEL:
                decl.channels.append(self._parse_channel_decl(name))
            elif tok.kind is TokenKind.KW_PPF:
                decl.ppfs.append(self._parse_ppf(name))
            elif tok.kind is TokenKind.KW_INIT:
                iloc = self.advance().loc
                decl.inits.append(ast.InitDecl(loc=iloc, body=self.parse_block(), module=name))
            elif tok.kind is TokenKind.KW_CONST:
                decl.consts.append(self.parse_const())
            elif tok.kind is TokenKind.KW_SHARED or self._starts_type():
                self._parse_global_or_func(decl.globals, decl.funcs, module=name)
            else:
                raise self._error("expected a module item, found %r" % tok.text)
        self.accept(TokenKind.SEMI)
        return decl

    def _parse_channel_decl(self, module: str) -> ast.ChannelDecl:
        loc = self.expect(TokenKind.KW_CHANNEL).loc
        names = [self.expect(TokenKind.IDENT, "channel declaration").text]
        while self.accept(TokenKind.COMMA):
            names.append(self.expect(TokenKind.IDENT, "channel declaration").text)
        self.expect(TokenKind.SEMI)
        return ast.ChannelDecl(loc=loc, names=names, module=module)

    def _parse_ppf(self, module: str) -> ast.PpfDecl:
        loc = self.expect(TokenKind.KW_PPF).loc
        name = self.expect(TokenKind.IDENT, "ppf declaration").text
        self.expect(TokenKind.LPAREN)
        param_type = self.parse_type("ppf parameter")
        if not param_type.is_packet:
            raise ParseError("ppf parameter must be a packet handle", param_type.loc)
        param_name = self.expect(TokenKind.IDENT, "ppf parameter").text
        self.expect(TokenKind.RPAREN)
        from_channels: List[str] = []
        if self.accept(TokenKind.KW_FROM):
            from_channels.append(self._parse_chan_ref())
            while self.accept(TokenKind.COMMA):
                from_channels.append(self._parse_chan_ref())
        body = self.parse_block()
        return ast.PpfDecl(
            loc=loc,
            name=name,
            param_type=param_type,
            param_name=param_name,
            from_channels=from_channels,
            body=body,
            module=module,
        )

    def _parse_chan_ref(self) -> str:
        first = self.expect(TokenKind.IDENT, "channel reference").text
        if self.accept(TokenKind.DOT):
            second = self.expect(TokenKind.IDENT, "channel reference").text
            return "%s.%s" % (first, second)
        return first

    # -- statements ------------------------------------------------------------------

    def parse_block(self) -> ast.Block:
        loc = self.expect(TokenKind.LBRACE).loc
        block = ast.Block(loc=loc)
        while not self.accept(TokenKind.RBRACE):
            block.stmts.append(self.parse_stmt())
        return block

    def parse_stmt(self) -> ast.Stmt:
        tok = self.peek()
        kind = tok.kind
        if kind is TokenKind.LBRACE:
            return self.parse_block()
        if kind is TokenKind.KW_IF:
            return self._parse_if()
        if kind is TokenKind.KW_WHILE:
            return self._parse_while()
        if kind is TokenKind.KW_DO:
            return self._parse_do_while()
        if kind is TokenKind.KW_FOR:
            return self._parse_for()
        if kind is TokenKind.KW_RETURN:
            self.advance()
            value = None if self.at(TokenKind.SEMI) else self.parse_expr()
            self.expect(TokenKind.SEMI)
            return ast.Return(loc=tok.loc, value=value)
        if kind is TokenKind.KW_BREAK:
            self.advance()
            self.expect(TokenKind.SEMI)
            return ast.Break(loc=tok.loc)
        if kind is TokenKind.KW_CONTINUE:
            self.advance()
            self.expect(TokenKind.SEMI)
            return ast.Continue(loc=tok.loc)
        if kind is TokenKind.KW_CRITICAL:
            return self._parse_critical()
        if self._starts_type():
            return self._parse_local_decl()
        stmt = self._parse_expr_or_assign()
        self.expect(TokenKind.SEMI)
        return stmt

    def _parse_simple_stmt(self) -> ast.Stmt:
        """A declaration or expression/assignment without the trailing ';'
        (used by 'for' headers)."""
        if self._starts_type():
            return self._parse_local_decl(consume_semi=False)
        return self._parse_expr_or_assign()

    def _parse_local_decl(self, consume_semi: bool = True) -> ast.LocalDecl:
        type_expr = self.parse_type("local declaration")
        name = self.expect(TokenKind.IDENT, "local declaration")
        array_len = None
        if self.accept(TokenKind.LBRACKET):
            array_len = int(self.expect(TokenKind.INT, "array length").value)
            self.expect(TokenKind.RBRACKET)
        init = None
        if self.accept(TokenKind.ASSIGN):
            init = self.parse_expr()
        if consume_semi:
            self.expect(TokenKind.SEMI)
        return ast.LocalDecl(
            loc=name.loc, type_expr=type_expr, name=name.text, array_len=array_len, init=init
        )

    def _parse_expr_or_assign(self) -> ast.Stmt:
        loc = self.peek().loc
        expr = self.parse_expr()
        tok = self.peek()
        if tok.kind in ASSIGN_OPS:
            self.advance()
            value = self.parse_expr()
            op_kind = ASSIGN_OPS[tok.kind]
            op = op_kind.value if op_kind is not None else None
            return ast.Assign(loc=loc, target=expr, op=op, value=value)
        if tok.kind is TokenKind.PLUSPLUS or tok.kind is TokenKind.MINUSMINUS:
            self.advance()
            one = ast.IntLit(loc=tok.loc, value=1)
            op = "+" if tok.kind is TokenKind.PLUSPLUS else "-"
            return ast.Assign(loc=loc, target=expr, op=op, value=one)
        return ast.ExprStmt(loc=loc, expr=expr)

    def _parse_if(self) -> ast.If:
        loc = self.expect(TokenKind.KW_IF).loc
        self.expect(TokenKind.LPAREN)
        cond = self.parse_expr()
        self.expect(TokenKind.RPAREN)
        then = self.parse_stmt()
        otherwise = None
        if self.accept(TokenKind.KW_ELSE):
            otherwise = self.parse_stmt()
        return ast.If(loc=loc, cond=cond, then=then, otherwise=otherwise)

    def _parse_while(self) -> ast.While:
        loc = self.expect(TokenKind.KW_WHILE).loc
        self.expect(TokenKind.LPAREN)
        cond = self.parse_expr()
        self.expect(TokenKind.RPAREN)
        return ast.While(loc=loc, cond=cond, body=self.parse_stmt())

    def _parse_do_while(self) -> ast.DoWhile:
        loc = self.expect(TokenKind.KW_DO).loc
        body = self.parse_stmt()
        self.expect(TokenKind.KW_WHILE)
        self.expect(TokenKind.LPAREN)
        cond = self.parse_expr()
        self.expect(TokenKind.RPAREN)
        self.expect(TokenKind.SEMI)
        return ast.DoWhile(loc=loc, body=body, cond=cond)

    def _parse_for(self) -> ast.For:
        loc = self.expect(TokenKind.KW_FOR).loc
        self.expect(TokenKind.LPAREN)
        init = None if self.at(TokenKind.SEMI) else self._parse_simple_stmt()
        self.expect(TokenKind.SEMI)
        cond = None if self.at(TokenKind.SEMI) else self.parse_expr()
        self.expect(TokenKind.SEMI)
        step = None if self.at(TokenKind.RPAREN) else self._parse_expr_or_assign()
        self.expect(TokenKind.RPAREN)
        return ast.For(loc=loc, init=init, cond=cond, step=step, body=self.parse_stmt())

    def _parse_critical(self) -> ast.Critical:
        loc = self.expect(TokenKind.KW_CRITICAL).loc
        self.expect(TokenKind.LPAREN)
        lock = self.expect(TokenKind.IDENT, "critical section lock name").text
        self.expect(TokenKind.RPAREN)
        return ast.Critical(loc=loc, lock_name=lock, body=self.parse_block())

    # -- expressions ------------------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_binary(1)
        if self.accept(TokenKind.QUESTION):
            then = self.parse_expr()
            self.expect(TokenKind.COLON)
            otherwise = self._parse_ternary()
            node = ast.Ternary(loc=cond.loc)
            node.cond, node.then, node.otherwise = cond, then, otherwise
            return node
        return cond

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        left = self._parse_unary()
        while True:
            tok = self.peek()
            prec = _BINOP_PRECEDENCE.get(tok.kind)
            if prec is None or prec < min_prec:
                return left
            self.advance()
            right = self._parse_binary(prec + 1)
            node = ast.Binary(loc=tok.loc, op=tok.kind.value)
            node.left, node.right = left, right
            left = node

    def _parse_unary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind in _PREFIX_OPS:
            self.advance()
            node = ast.Unary(loc=tok.loc, op=tok.kind.value)
            node.operand = self._parse_unary()
            return node
        if tok.kind is TokenKind.LPAREN and self.peek(1).kind in _TYPE_KEYWORDS:
            # A cast: '(' base-type ')' unary
            self.advance()
            target = self.parse_type("cast")
            self.expect(TokenKind.RPAREN)
            node = ast.Cast(loc=tok.loc)
            node.target, node.operand = target, self._parse_unary()
            return node
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            tok = self.peek()
            if tok.kind is TokenKind.LBRACKET:
                self.advance()
                index = self.parse_expr()
                self.expect(TokenKind.RBRACKET)
                node = ast.Index(loc=tok.loc)
                node.base, node.index = expr, index
                expr = node
            elif tok.kind is TokenKind.DOT or tok.kind is TokenKind.ARROW:
                arrow = tok.kind is TokenKind.ARROW
                self.advance()
                name = self.expect(TokenKind.IDENT, "member access")
                if self.at(TokenKind.LPAREN) and not arrow:
                    # Qualified call: module.func(args)
                    if not isinstance(expr, ast.Name) or expr.qualifier is not None:
                        raise ParseError("calls may only be qualified by a module name", name.loc)
                    expr = self._parse_call(name.text, qualifier=expr.ident, loc=name.loc)
                else:
                    node = ast.Member(loc=tok.loc, name=name.text, arrow=arrow)
                    node.base = expr
                    expr = node
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind is TokenKind.INT or tok.kind is TokenKind.CHAR:
            self.advance()
            return ast.IntLit(loc=tok.loc, value=int(tok.value))
        if tok.kind is TokenKind.KW_TRUE or tok.kind is TokenKind.KW_FALSE:
            self.advance()
            return ast.BoolLit(loc=tok.loc, value=tok.kind is TokenKind.KW_TRUE)
        if tok.kind is TokenKind.KW_SIZEOF:
            self.advance()
            self.expect(TokenKind.LPAREN)
            # A base type (every one is a keyword), a struct or a protocol.
            name = (self.advance() if self.peek().kind in _TYPE_KEYWORDS
                    else self.expect(TokenKind.IDENT, "sizeof"))
            self.expect(TokenKind.RPAREN)
            return ast.SizeofExpr(loc=tok.loc, name=name.text)
        if tok.kind is TokenKind.LPAREN:
            self.advance()
            expr = self.parse_expr()
            self.expect(TokenKind.RPAREN)
            return expr
        if tok.kind is TokenKind.IDENT:
            self.advance()
            if self.at(TokenKind.LPAREN):
                return self._parse_call(tok.text, qualifier=None, loc=tok.loc)
            return ast.Name(loc=tok.loc, ident=tok.text)
        raise self._error("expected an expression, found %r" % (tok.text or tok.kind.value))

    def _parse_call(self, callee: str, qualifier: Optional[str], loc) -> ast.Call:
        self.expect(TokenKind.LPAREN)
        args: List[ast.Expr] = []
        if not self.at(TokenKind.RPAREN):
            args.append(self.parse_expr())
            while self.accept(TokenKind.COMMA):
                args.append(self.parse_expr())
        self.expect(TokenKind.RPAREN)
        return ast.Call(loc=loc, callee=callee, qualifier=qualifier, args=args)


def parse(text: str, filename: str = "<baker>") -> ast.Program:
    """Parse Baker source text into an (unchecked) AST."""
    return Parser(SourceFile(text, filename)).parse_program()
